"""Test oracles: independent routes to the library's counts, and the paths
its faster code must reproduce bit for bit."""

import math

import numpy as np

from magbarrier import counting, fiber, tridiag
from magbarrier.errors import ConfigurationError, NumericalError


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


def whole_array_count_1d(m, Q, lam, half_width, h=counting.DEFAULT_H_1D,
                         verify_width=True):
    """count_1d as it was before it streamed its grid: y, Q, d and e built
    over the whole box, the refusals checked on whole arrays before either
    sweep, and two whole-array inertia sweeps; the streamed count must
    return the same count and raise the same error with the same text."""
    if not (m > 0.0 and lam > 0.0):
        raise ConfigurationError("need m > 0 and lam > 0")
    if not h > 0.0:
        raise ConfigurationError(f"grid step h must be positive, got {h}")
    rows = 2.0 * half_width / h
    if not rows <= fiber.MAX_ROWS:
        raise NumericalError(
            f"line grid of {rows:.3g} rows at half-width {half_width:g} exceeds "
            f"the budget of {fiber.MAX_ROWS} rows; raise lam")
    stiffness = m * m / (h * h)
    if not math.isfinite(2.0 * stiffness):
        raise NumericalError(f"stencil diagonal 2m^2/h^2 overflows at m={m:g}, h={h:g}")
    if rows > 1.0 and not stiffness >= np.finfo(float).tiny:
        raise NumericalError(f"stencil coupling m^2/h^2 underflows at m={m:g}, h={h:g}")

    n = int(math.ceil(2.0 * half_width / h))
    ys = (np.arange(n) - 0.5 * (n - 1)) * h
    q = np.asarray(Q(ys), dtype=float)
    with np.errstate(over="ignore"):    # a far node's y^2 may overflow to inf
        outside = float(np.max(Q(np.array([ys[0] - h, ys[-1] + h]))))
    if (q < 0.0).any():
        raise ConfigurationError("Q must be nonnegative")
    phase = h * math.sqrt(q.max())
    if len(q) > 1 and phase > m:
        raise NumericalError(
            f"line grid step h={h:g} under-resolves the well: "
            f"h sqrt(max Q) = {phase:.3g} exceeds m={m:g}, "
            "fewer than 2 pi steps per local wavelength; refine h")
    if verify_width and not outside < lam:
        raise NumericalError(
            f"line box |y| <= {half_width:g} stops short of the turning point: "
            f"Q = {outside:.3g} at the first node outside is not below "
            f"lam = {lam:g}; widen")
    d = 2.0 * stiffness - q
    e = np.full(len(d) - 1, -stiffness)
    n = counting.tridiagonal_inertia(d, e, -lam)
    if verify_width:
        d[0] -= stiffness
        d[-1] -= stiffness
        upper = counting.tridiagonal_inertia(d, e, -lam)
        if upper != n:
            raise NumericalError(
                f"line box |y| <= {half_width:g} does not certify its count: "
                f"Dirichlet {n} and Neumann {upper} differ; widen")
    return n
