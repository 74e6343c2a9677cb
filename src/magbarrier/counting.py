"""Eigenvalue counting below the first band minimum.

A decaying potential V >= 0 pulls infinitely many eigenvalues below the
continuum threshold; their number N grows like a power of the distance to
the threshold, with exponent 1/alpha - 1/2 and an explicit prefactor built
from the effective mass and the reduced 1D potential. This module computes
the reduced potential, counts 1D and 2D eigenvalues exactly by matrix
inertia, and compares the measured growth against the closed-form constant.

The 2D count measures the gap from the discrete operator's own threshold
(the lattice band minimum, found by a fiber scan with the lattice
dispersion), so the comparison is self-consistent at any resolution instead
of being swamped by the O(h^2) shift of the continuum threshold.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.optimize import minimize_scalar
from scipy.special import betaln

from . import fiber
from .errors import ConfigurationError, InvariantViolation, NumericalError
from .fiber import Parity

DEFAULT_H_1D = 0.05
DEFAULT_HX_2D = 0.05
DEFAULT_HY_2D = 0.4
TURNING_FACTOR = 3.0
MAX_UNKNOWNS_2D = 10_000_000
# rows of one 1D line grid: over 10x the 1.8 M of the default count1d
# ladder's widened grid
MAX_ROWS_1D = 20_000_000
THRESHOLD_K_SAMPLES = 161
SINGULAR_RETRIES = 3
FIT_SPREAD_TOL = 0.05
INERTIA_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class DecayPotential:
    """Separable nonnegative potential v1(x) v2(y) with power-law decay.

    Separability is a module convention (it gives the reduced potential a
    closed-form tail coefficient); the decay bound
    0 <= V <= C (1+|x|)^{-alpha} (1+|y|)^{-alpha} is the real requirement.
    """

    alpha: float
    C: float
    v1: object = field(repr=False)
    v2: object = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ConfigurationError("decay exponent alpha must lie in (0, 2)")
        if not self.C > 0.0:
            raise ConfigurationError("decay constant C must be positive")

    def validate_condition(self, xs, ys):
        """Check the decay bound and nonnegativity on sample points."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        w1 = np.asarray(self.v1(xs), dtype=float)
        w2 = np.asarray(self.v2(ys), dtype=float)
        if (w1 < 0.0).any() or (w2 < 0.0).any():
            raise InvariantViolation("potential factors must be nonnegative")
        bound = self.C * np.outer((1.0 + np.abs(xs)) ** -self.alpha,
                                  (1.0 + np.abs(ys)) ** -self.alpha)
        if (np.outer(w1, w2) > bound * (1.0 + 1e-12) + 1e-300).any():
            raise InvariantViolation("potential exceeds its stated decay bound")


def standard_potential(alpha, amplitude=1.0):
    """The default test family v1 = A (1+|x|)^{-a}, v2 = (1+y^2)^{-a/2}.

    The y-factor has |y|^a v2 -> 1 exactly, and its sharp constant against
    (1+|y|)^{-a} is 2^{a/2}, attained at |y| = 1.
    """
    if amplitude <= 0.0:
        raise ConfigurationError("amplitude must be positive")
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError("decay exponent alpha must lie in (0, 2)")

    def v1(x):
        return amplitude * (1.0 + np.abs(x)) ** -alpha

    def v2(y):
        return (1.0 + np.asarray(y, dtype=float) ** 2) ** (-alpha / 2.0)

    return DecayPotential(alpha=alpha, C=amplitude * 2.0 ** (alpha / 2.0),
                          v1=v1, v2=v2)


@dataclass(frozen=True)
class ReducedPotential:
    """Q(y) = int V(x, y) psi_1(x, kappa_1)^2 dx, sampled, with its tail law.

    Outside the sampled range the tail model ell |y|^{-alpha} extends the
    samples; ell is the fitted limit of |y|^alpha Q(y).
    """

    alpha: float
    ys: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    ell: float

    def __post_init__(self):
        if (self.values < 0.0).any():
            raise InvariantViolation("reduced potential must be nonnegative")
        if not self.ell > 0.0:
            raise InvariantViolation("tail coefficient ell must be positive")

    def evaluate(self, y):
        y = np.abs(np.asarray(y, dtype=float))
        inside = np.interp(y, self.ys, self.values)
        tail = np.where(y > 0.0, self.ell * np.maximum(y, 1e-300) ** -self.alpha,
                        np.inf)
        return np.where(y <= self.ys[-1], inside, tail)


def reduced_potential(V, ground, y_grid):
    """ReducedPotential of V against a solved transverse ground state.

    The fit takes the largest sampled |y| decade; a spread of |y|^alpha Q
    beyond FIT_SPREAD_TOL there means the tail has not settled (or
    oscillates) and is reported as a fit error with the measured spread.
    """
    if ground.j != 1:
        raise ConfigurationError("the reduction needs the first band's state")
    ys = np.unique(np.abs(np.asarray(y_grid, dtype=float)))
    if len(ys) < 8:
        raise ConfigurationError("y_grid needs at least 8 distinct moduli")
    transverse = fiber.expectation(ground, np.asarray(V.v1(ground.grid.x),
                                                      dtype=float))
    values = np.asarray(V.v2(ys), dtype=float) * transverse
    decade = ys >= ys[-1] / 10.0
    scaled = ys[decade] ** V.alpha * values[decade]
    ell = float(np.mean(scaled))
    if ell <= 0.0:
        raise NumericalError("tail coefficient came out nonpositive")
    spread = float((scaled.max() - scaled.min()) / ell)
    if spread > FIT_SPREAD_TOL:
        raise NumericalError(
            f"tail fit has not settled: relative spread {spread:.3g} over the "
            f"last decade (residuals {scaled.min():.6g}..{scaled.max():.6g})"
        )
    return ReducedPotential(alpha=V.alpha, ys=ys, values=values, ell=ell)


# ---------------------------------------------------------------------------
# closed-form constants


def counting_constant_1d(alpha, ell, m):
    """(2 ell^{1/alpha} / (pi alpha m)) B(3/2, 1/alpha - 1/2) via log-beta."""
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError("alpha must lie in (0, 2) for the Beta factor")
    if not (ell > 0.0 and m > 0.0):
        raise ConfigurationError("ell and m must be positive")
    log_b = betaln(1.5, 1.0 / alpha - 0.5)
    try:
        scale = ell ** (1.0 / alpha)
    except OverflowError:
        scale = math.inf
    constant = (2.0 / (math.pi * alpha * m)) * scale * math.exp(log_b)
    if not math.isfinite(constant):
        raise NumericalError(
            f"counting constant overflows at ell={ell:g}, alpha={alpha:g}, m={m:g}")
    return constant


def tail_turning_point(ell, lam, alpha):
    """(ell / lam)^{1/alpha}, where the tail ell |y|^{-alpha} falls to lam.

    inf when the power leaves the float range; the grid budgets refuse it.
    """
    if not lam > 0.0:
        raise ConfigurationError(f"gap lambda must be positive, got {lam}")
    try:
        return (ell / lam) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def counting_constant_2d(alpha, L, beta1):
    """The 2D prefactor; the 1D constant at effective mass m = sqrt(beta1)."""
    if not beta1 > 0.0:
        raise ConfigurationError("effective mass beta1 must be positive")
    return counting_constant_1d(alpha, L, math.sqrt(beta1))


# ---------------------------------------------------------------------------
# 1D counts


def tridiagonal_inertia(d, e, tau):
    """Eigenvalues of tridiag(d, e) below tau, by the scalar LDL recurrence.

    Exact in the Sturm sense: each pivot sign is computed from the shifted
    recurrence, a zero pivot counting as negative (the LAPACK convention).
    Each pivot is (d[i] - tau) - e[i-1]^2 / pivot in native floats; the
    shifted diagonal and the squares are formed as vectors, which round
    exactly as the scalar operations do, INERTIA_CHUNK rows at a time so a
    long line grid adds little memory, and read through memoryviews, which
    hand out one native float at a time.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if len(e) != len(d) - 1:
        raise ConfigurationError("need len(e) == len(d) - 1")
    count = 0
    pivot = float(d[0] - tau)  # an np.float64 pivot would run the loop slowly
    for start in range(1, len(d), INERTIA_CHUNK):
        stop = start + INERTIA_CHUNK
        ec = e[start - 1:stop - 1]
        for shifted, e2 in zip(memoryview(d[start:stop] - tau),
                               memoryview(ec * ec)):
            if pivot <= 0.0:
                count += 1
                if pivot == 0.0:
                    pivot = -1e-300
            pivot = shifted - e2 / pivot
    return count + 1 if pivot <= 0.0 else count


def bisection_count(d, e, tau):
    """The same count through the library's bisection eigensolver."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    floor = float(d.min() - 2.0 * np.abs(e).max() - 1.0) if len(e) else float(d.min() - 1.0)
    if tau <= floor:
        return 0  # below the Gershgorin floor, which is below every eigenvalue
    w = eigh_tridiagonal(d, e, select="v", select_range=(floor, tau),
                         eigvals_only=True, check_finite=False)
    return int(len(w))


def _line_grid(half_width, h):
    n = int(math.ceil(2.0 * half_width / h))
    ys = (np.arange(n) - 0.5 * (n - 1)) * h
    return ys


def _q_values(Q, ys):
    if isinstance(Q, ReducedPotential):
        return Q.evaluate(ys)
    return np.asarray(Q(ys), dtype=float)


def count_1d(m, Q, lam, half_width=None, h=DEFAULT_H_1D, verify_width=True):
    """Eigenvalues of -m^2 d^2/dy^2 - Q below -lam on an auto-sized line grid.

    The grid spans 3x the classical turning point (ell/lam)^{1/alpha} each
    side, so every bound state is enclosed with margin; verify_width recounts
    on a widened grid and raises when the count is still moving. A grid of
    more than MAX_ROWS_1D rows is refused before any of it is allocated.
    """
    if not (m > 0.0 and lam > 0.0):
        raise ConfigurationError("need m > 0 and lam > 0")
    if not h > 0.0:
        raise ConfigurationError(f"grid step h must be positive, got {h}")
    if half_width is None:
        if not isinstance(Q, ReducedPotential):
            raise ConfigurationError(
                "half_width is required when Q is a bare callable"
            )
        half_width = TURNING_FACTOR * tail_turning_point(Q.ell, lam, Q.alpha)
    widest = 1.5 * half_width if verify_width else half_width
    rows = 2.0 * widest / h
    if not rows <= MAX_ROWS_1D:
        raise NumericalError(
            f"line grid of {rows:.3g} rows at half-width {widest:g} exceeds "
            f"the budget of {MAX_ROWS_1D} rows; raise lam")

    def count_at(width):
        # each grid-long array is dropped once used, so at most three of
        # them are alive at a time and only d and e live through the sweep
        q = _q_values(Q, _line_grid(width, h))
        if (q < 0.0).any():
            raise ConfigurationError("Q must be nonnegative")
        d = 2.0 * m * m / (h * h) - q
        del q
        e = np.full(len(d) - 1, -m * m / (h * h))
        return tridiagonal_inertia(d, e, -lam)

    n = count_at(half_width)
    if verify_width and count_at(1.5 * half_width) != n:
        raise NumericalError(
            f"count at half-width {half_width:g} is not grid-converged; widen"
        )
    return n


# ---------------------------------------------------------------------------
# counting curves and the asymptotic fit


@dataclass(frozen=True)
class CountingCurve:
    """Counts along a decreasing lambda ladder with its power-law fit."""

    lambdas: tuple
    counts: tuple
    fitted_exponent: float
    fitted_prefactor: float

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        if (lams <= 0.0).any() or (np.diff(lams) >= 0.0).any():
            raise InvariantViolation("lambdas must be positive and decreasing")
        if any(c != int(c) or c < 0 for c in self.counts):
            raise InvariantViolation("counts must be nonnegative integers")
        if (np.diff(np.asarray(self.counts)) < 0).any():
            raise InvariantViolation("counts must not decrease as lambda does")


def power_law_fit(lambdas, counts):
    """(p, A) of N ~ A lambda^{-p} by log-log least squares on nonzero counts.

    (None, None) when fewer than two counts are nonzero.
    """
    lams = np.asarray(lambdas, dtype=float)
    cnts = np.asarray(counts, dtype=float)
    mask = cnts > 0
    if mask.sum() < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(lams[mask]), np.log(cnts[mask]), 1)
    return float(-slope), float(math.exp(intercept))


def _check_ladder(lams):
    """Refuse a positive ladder too short or too narrow for the fit."""
    if len(lams) < 4:
        raise ConfigurationError("need at least 4 lambdas with nonzero counts")
    if lams.max() / lams.min() < 10.0:
        raise ConfigurationError("lambda ladder must span at least one decade")


def checked_ladder(lambdas):
    """The ladder in decreasing order, refused unless positive and fit-worthy.

    A 2D ladder is checked before anything is solved for it, so a ladder the
    fit would refuse costs no sweep.
    """
    lambdas = sorted((float(v) for v in lambdas), reverse=True)
    if not all(lam > 0.0 for lam in lambdas):
        raise ConfigurationError("lam must be positive")
    _check_ladder(np.asarray(lambdas))
    return lambdas


def fit_curve(lambdas, counts):
    """CountingCurve with N ~ A lambda^{-p} fitted in log-log least squares."""
    lams = np.asarray(lambdas, dtype=float)
    cnts = np.asarray(counts, dtype=float)
    mask = cnts > 0
    _check_ladder(lams[mask])
    if np.all(cnts[mask] == cnts[mask][0]):
        raise NumericalError("degenerate curve: all counts equal; widen the ladder")
    exponent, prefactor = power_law_fit(lams, cnts)
    return CountingCurve(lambdas=tuple(float(v) for v in lambdas),
                         counts=tuple(int(c) for c in counts),
                         fitted_exponent=exponent, fitted_prefactor=prefactor)


def asymptotics_check(curve, alpha, constant):
    """(exponent_gap, prefactor_ratio) of a curve against the theory.

    The expected exponent is 1/alpha - 1/2 and the expected prefactor the
    closed-form constant; callers assert their own tolerances.
    """
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError("alpha must lie in (0, 2)")
    if not constant > 0.0:
        raise ConfigurationError("the comparison constant must be positive")
    gap = abs(curve.fitted_exponent - (1.0 / alpha - 0.5))
    return gap, curve.fitted_prefactor / constant


# ---------------------------------------------------------------------------
# 2D counts by block inertia


@dataclass(frozen=True)
class Grid2DSpec:
    """Discretization of the half-plane-folded 2D counting problem."""

    hx: float = DEFAULT_HX_2D
    hy: float = DEFAULT_HY_2D
    lx: float = None
    y_width: float = None
    max_unknowns: int = MAX_UNKNOWNS_2D

    def __post_init__(self):
        if not (self.hx > 0.0 and self.hy > 0.0):
            raise ConfigurationError("grid steps must be positive")


def discrete_threshold(b, lx, nx, hy):
    """The lattice operator's own band-1 minimum.

    Scans the even-sector fiber at the lattice momentum s(k) = sin(k hy)/hy
    with the dispersion correction mu(k) - s(k)^2, then polishes the scan
    minimum with a bounded 1D minimizer. Every evaluation sits on or above
    the true lattice infimum, and the 2D box spectrum sits above that, so
    this is the correct zero point for lattice eigenvalue counts.
    """

    def value(k):
        s = math.sin(k * hy) / hy
        mu = 2.0 * (1.0 - math.cos(k * hy)) / (hy * hy)
        d, e = fiber.stencil(b, s, Parity.EVEN, lx, nx)
        w = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                             eigvals_only=True, check_finite=False)
        return float(w[0]) + (mu - s * s)

    ks = np.linspace(0.0, math.pi / hy, THRESHOLD_K_SAMPLES)
    vals = np.array([value(k) for k in ks])
    i = int(np.argmin(vals))
    if i == 0 or i == len(ks) - 1:
        return float(vals[i])
    res = minimize_scalar(value, bounds=(ks[i - 1], ks[i + 1]),
                          method="bounded", options={"xatol": 1e-9})
    return float(min(vals[i], res.fun))


def _ldl_negatives(ldu, ipiv):
    """Negative eigenvalues of D in a lower zhetrf factorization.

    ipiv marks a 2x2 diagonal block of D by two equal negative entries and a
    1x1 block by a positive one; a 2x2 block's determinant fixes its signs
    (Bunch-Kaufman pivoting makes it negative: one eigenvalue of each sign).
    """
    d = ldu.diagonal().real
    pair = ipiv < 0
    first = np.flatnonzero(pair)[::2]
    det = d[first] * d[first + 1] - np.abs(ldu[first + 1, first]) ** 2
    return int((d[~pair] < 0.0).sum()) + int((det < 0.0).sum()) \
        + 2 * int(((det > 0.0) & (d[first] < 0.0)).sum())


@lru_cache(maxsize=8)
def _strict_upper(n):
    """Read-only mask of the strict upper triangle, in Fortran order."""
    mask = np.tril(np.ones((n, n), dtype=bool), -1).T
    mask.flags.writeable = False
    return mask


def _block_inertia(block):
    """(negatives, inverse) of a Hermitian block by Bunch-Kaufman LDL^H.

    Sylvester's law gives the inertia of the block as that of D, and zhetri
    on the same factors gives the inverse, whose strict upper triangle is
    then mirrored from the lower one in place. A block is refused as
    near-singular when its 2-norm condition exceeds 1e12; n kappa_1 bounds
    it from above, and only a block that bound cannot clear has its
    eigenvalues computed. The inverse comes back in Fortran order; its
    transpose is the same matrix of moduli in C order, so both 1-norms are
    the column sums of a C-ordered array, summed row by row.
    """
    n = len(block)
    ldu, ipiv, info = lapack.zhetrf(block, lower=1)
    if info == 0:
        negatives = _ldl_negatives(ldu, ipiv)
        inverse, info = lapack.zhetri(ldu, ipiv, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError("singular pivot block in the inertia sweep")
    # adding zero turns -0.0 into +0.0 where tril(X) + conj(tril(X, -1))^T
    # did, so the mirrored inverse is that sum bit for bit
    upper = inverse.T.conj()
    upper += 0.0
    np.copyto(inverse, upper, where=_strict_upper(n))
    inverse.real += 0.0
    norm = np.abs(block).sum(axis=0).max()
    if not n * norm * np.abs(inverse.T).sum(axis=0).max() < 1e12:
        eigs = np.linalg.eigvalsh(block)
        scale = np.abs(eigs).max()
        if scale == 0.0 or np.abs(eigs).min() < 1e-12 * scale:
            raise NumericalError("near-singular pivot block in the inertia sweep")
    return negatives, inverse


def _sector_inertia(d_x, e_x, xs, b, v1_vals, v2_vals, hy, tau):
    """Negative-eigenvalue count of one x-parity sector by block LDL.

    The sector operator T is block tridiagonal over y-slices: real blocks
    A_j on the diagonal and the constant coupling diag(beta) above it,
    diag(conj beta) below, with beta = -1/hy^2 + i b x / hy. Eliminating
    top-down gives the Schur complements S_j = A_j - C_j with
    C_j = diag(conj beta) S_{j-1}^{-1} diag(beta), and the inertia of T is
    the sum of theirs.

    When v2 is a palindrome (an even v2 on the symmetric y-grid, probed
    exactly), so is A_j, and reversing the slices maps T to conj(T): the
    bottom-up complement at slice ny-1-j is conj(S_j), with the inertia of
    S_j. Half the sweep then counts both halves, and the two eliminations
    meet in one join block: A_m - C_m - conj(C_m) at the middle slice of an
    odd ny = 2m+1, conj(S_{m-1}) - C_m at slice m of an even ny = 2m. With
    every S_j regular, det T factors through the join block, so a tau on an
    eigenvalue of T makes it singular and the guard refuses it as the full
    sweep would.
    """
    n, ny = len(d_x), len(v2_vals)
    diagonal = d_x + 2.0 / (hy * hy) - tau
    beta = -1.0 / (hy * hy) + 1j * b * xs / hy
    conj_beta = np.conj(beta)
    template = np.zeros((n, n), dtype=complex)
    template.reshape(-1)[1::n + 1] = e_x
    template.reshape(-1)[n::n + 1] = e_x

    def diagonal_block(j):
        block = template.copy()
        block.reshape(-1)[::n + 1] = diagonal - v1_vals * v2_vals[j]
        return block

    def coupled(inverse):
        # diag(conj beta) S^{-1} diag(beta), formed in the inverse's storage
        np.multiply(conj_beta[:, None], inverse, out=inverse)
        return np.multiply(inverse, beta[None, :], out=inverse)

    mirror = ny > 1 and np.array_equal(v2_vals, v2_vals[::-1])
    # slices below `twins` count twice, for themselves and their mirror image;
    # slice m-1 of an even ny is mirrored by slice m, which the join counts
    steps, twins = (ny // 2, (ny - 1) // 2) if mirror else (ny, 0)
    negatives = 0
    block = coupling = None
    for j in range(steps):
        block = diagonal_block(j)
        if coupling is not None:
            block -= coupling
        count, inverse = _block_inertia(block)
        negatives += 2 * count if j < twins else count
        coupling = coupled(inverse)
    if not mirror:
        return negatives
    if ny % 2:
        join = diagonal_block(steps)
        join -= coupling
        join -= np.conj(coupling)
    else:
        join = np.conj(block)
        join -= coupling
    return negatives + _block_inertia(join)[0]


def _grid_2d(b, V, lam, spec, ell_hint=None):
    """(lx, nx, y_width, ny) of the folded 2D grid for the gap lam.

    lx defaults to the orbit plus envelope room and is snapped to a whole
    number of x-steps. Unless the spec fixes it, the y half-width covers
    TURNING_FACTOR times the turning point of the reduced tail
    ell |y|^{-alpha}; without a hint, ell comes from the band-1 state at the
    frozen minimum estimate kappa_1 ~ 0.768 sqrt(b). A grid that cannot be
    represented, that has fewer than two x-steps, or that exceeds
    spec.max_unknowns, is refused here, before any grid array exists.
    """
    root_b = math.sqrt(b)
    lx = spec.lx
    if lx is None:
        lx = (1.0 + math.sqrt(2.0) + 5.0) / root_b  # orbit + envelope room
    x_cells = lx / spec.hx
    y_width = spec.y_width
    if y_width is None:
        if ell_hint is None:
            ground = fiber.band(b, 0.768 * root_b, 1)
            ell_hint = fiber.expectation(
                ground, np.asarray(V.v1(ground.grid.x), dtype=float))
        y_width = TURNING_FACTOR * tail_turning_point(ell_hint, lam, V.alpha)
    y_cells = 2.0 * y_width / spec.hy
    if not (math.isfinite(x_cells) and math.isfinite(y_cells)):
        raise NumericalError(
            f"grid of {x_cells:g} x {y_cells:g} steps cannot be represented; "
            "raise lam or coarsen")
    nx, ny = int(round(x_cells)), int(math.ceil(y_cells))
    if nx < 2:
        raise ConfigurationError(
            f"hx={spec.hx:g} leaves {nx} x-step(s) on the half-width "
            f"{lx:g}; the fiber stencil needs at least 2")
    if (2 * nx - 1) * ny > spec.max_unknowns:
        raise NumericalError(
            f"grid {2 * nx - 1} x {ny} exceeds the budget of "
            f"{spec.max_unknowns} unknowns; raise lam or coarsen"
        )
    return nx * spec.hx, nx, y_width, ny


def _count_sector(parity, system, tau):
    """Negatives of one sector below tau, with count_2d's singular retries."""
    for attempt in range(SINGULAR_RETRIES):
        shifted = tau * (1.0 + attempt * 1e-9)
        try:
            count = _sector_inertia(*system, shifted)
            break
        except NumericalError:
            if attempt == SINGULAR_RETRIES - 1:
                raise
    if attempt:
        warnings.warn(
            f"{parity.value} sector counted at tau*(1 + {attempt}e-9) = "
            f"{shifted!r} instead of tau = {tau!r}: near-singular Schur "
            f"block", RuntimeWarning, stacklevel=2)
    return count


def count_2d(b, V, lambdas, spec=Grid2DSpec(), ell_hint=None, threshold=None,
             jobs=1):
    """(counts, meta): N(threshold - lam) of the lattice H0 - V at each lam.

    Every lam is counted on one grid, sized for the smallest, against one
    discrete threshold, so count monotonicity in lam is an exact spectral
    fact; one count is a one-rung ladder. The x-line folds into even
    (Neumann) and odd (Dirichlet) half-line sectors sharing the fiber
    module's stencils, which requires v1 even; the y-extent covers
    TURNING_FACTOR times the classical turning point of the reduced tail
    ell |y|^{-alpha}. Every guard runs before any sweep. Each (lam, parity)
    sector is independent and runs on a pool of `jobs` threads (the
    factorizations release the interpreter lock); counts come back in the
    order of lambdas. A sector that meets a near-singular Schur block is
    recounted at tau (1 + 1e-9 attempt), and a RuntimeWarning names the
    sector and the shifted threshold. meta records the threshold and grid.
    """
    if not all(lam > 0.0 for lam in lambdas):
        raise ConfigurationError("lam must be positive")
    hy = spec.hy
    lx, nx, y_width, ny = _grid_2d(b, V, min(lambdas), spec, ell_hint)
    probe = np.linspace(0.0, lx, 7)
    if not np.allclose(V.v1(probe), V.v1(-probe), rtol=1e-12, atol=0.0):
        raise ConfigurationError("the x-parity split needs an even v1")
    if threshold is None:
        threshold = discrete_threshold(b, lx, nx, hy)
    if not max(lambdas) < threshold:
        raise ConfigurationError(
            f"lam must sit inside (0, {threshold:g}), the gap below the band"
        )
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    V.validate_condition(np.linspace(0.0, lx, 33), np.linspace(ys[0], ys[-1], 65))
    v2_vals = np.asarray(V.v2(ys), dtype=float)
    sectors = []
    for parity in (Parity.EVEN, Parity.ODD):
        d_x, e_x = fiber.stencil(b, 0.0, parity, lx, nx)
        xs = np.arange(nx, dtype=float) * (lx / nx) if parity is Parity.EVEN \
            else np.arange(1, nx, dtype=float) * (lx / nx)
        v1_vals = np.asarray(V.v1(xs), dtype=float)
        sectors.append((parity, (d_x, e_x, xs, b, v1_vals, v2_vals, hy)))
    units = [(parity, system, threshold - lam)
             for lam in lambdas for parity, system in sectors]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        sector_counts = list(pool.map(_count_sector, *zip(*units)))
    counts = [sector_counts[i] + sector_counts[i + 1]
              for i in range(0, len(units), 2)]
    meta = {"threshold": threshold, "lx": lx, "y_width": y_width,
            "hx": spec.hx, "unknowns": (2 * nx - 1) * ny}
    return counts, meta


def counting_curve_2d(b, V, lambdas, spec=Grid2DSpec(), ell_hint=None, jobs=1):
    """2D counts over a ladder on one shared grid, plus the fitted curve.

    Returns (curve, meta), meta as count_2d's. A ladder the fit would refuse
    is refused before any sweep runs.
    """
    lambdas = checked_ladder(lambdas)
    counts, meta = count_2d(b, V, lambdas, spec=spec, ell_hint=ell_hint,
                            jobs=jobs)
    return fit_curve(lambdas, counts), meta
