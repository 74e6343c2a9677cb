"""Test oracles: independent routes to the library's counts, and the paths
its faster code must reproduce bit for bit."""

import numpy as np

from magbarrier import fiber, tridiag


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


def wide_bracket_eigenvalue(b, k, parity, index, L, N, seed):
    """Long-double eigenvalue `index` of the parity sector by Sturm bisection
    from seed +- 1e-6 max(1, |seed|), the bracket the precise pair solve
    used before it centred on a Rayleigh quotient; the bit-identity oracle.
    """
    ld = np.longdouble
    d, e, _ = fiber.stencil(b, k, parity, L, N, dtype=ld)
    lo = ld(seed) - ld(1e-6) * max(1.0, abs(seed))
    hi = ld(seed) + ld(1e-6) * max(1.0, abs(seed))
    return tridiag.bisect_eigenvalue(d, e * e, index, lo, hi)
