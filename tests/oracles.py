"""Test oracles shared by more than one test module."""

import numpy as np


def birman_schwinger_count(m, q_values, lam, h):
    """Eigenvalues > 1 of Q^{1/2} (-m^2 d^2/dy^2 + lam)^{-1} Q^{1/2}.

    Dense on the given grid; by the Birman-Schwinger principle this equals
    the count of eigenvalues of -m^2 d^2/dy^2 - Q below -lam as an exact
    integer on the same grid.
    """
    q = np.asarray(q_values, dtype=float)
    n = len(q)
    t = np.zeros((n, n))
    idx = np.arange(n)
    t[idx, idx] = 2.0 * m * m / (h * h) + lam
    t[idx[:-1], idx[:-1] + 1] = -m * m / (h * h)
    t[idx[:-1] + 1, idx[:-1]] = -m * m / (h * h)
    root = np.sqrt(q)
    kernel = root[:, None] * np.linalg.solve(t, np.diag(root))
    kernel = 0.5 * (kernel + kernel.T)
    eigs = np.linalg.eigvalsh(kernel)
    return int((eigs > 1.0).sum())
