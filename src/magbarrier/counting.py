"""Eigenvalue counting below the first band minimum.

A decaying potential V >= 0 pulls infinitely many eigenvalues below the
continuum threshold; their number N grows like a power of the distance to
the threshold, with exponent 1/alpha - 1/2 and an explicit prefactor built
from the effective mass and the reduced 1D potential. This module computes
the reduced potential's tail coefficient, counts 1D and 2D eigenvalues
exactly by matrix inertia, and compares the measured growth against the
closed-form constant.

The 2D count measures the gap from the discrete operator's own threshold
(the lattice band minimum, found by a fiber scan with the lattice
dispersion), so the comparison is self-consistent at any resolution instead
of being swamped by the O(h^2) shift of the continuum threshold.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.special import betaln

from . import bands, fiber
from .errors import ConfigurationError, InvariantViolation, NumericalError
from .fiber import Parity

DEFAULT_H_1D = 0.05
DEFAULT_HX_2D = 0.05
DEFAULT_HY_2D = 0.4
TURNING_FACTOR = 3.0
# decay lengths m/sqrt(lam) of count1d's box past the turning point: the
# smallest factor from which every box certifies its count is at most 3.75
# over m in {1, 3, 10, 100} and lam in {0.3, 0.1, ..., 1e-3} (alpha 0.5,
# 1, 1.5; ell 1, h 0.05); TURNING_FACTOR turning points still set the box
# of the default ladder and of every benchmark one, which only a factor
# above 55 would widen
DECAY_LENGTHS = 6.0
# unknowns of one 2D grid; the sweep holds SECTOR_CHUNK-sized chunks of it,
# so this bounds a count's time, not its memory
MAX_UNKNOWNS_2D = 10_000_000
# x-points of one Schur block, which the sweep holds as dense nx x nx complex
# buffers: 64 MiB each at the cap, over 10x the nx of b = 1 at the default hx
MAX_NX_2D = 2048
THRESHOLD_K_SAMPLES = 161
SINGULAR_RETRIES = 3
INERTIA_CHUNK = 1 << 15
# complex band entries of one chunk of a 2D sector sweep, never less than one
# y-slice: 1.5 MiB, 4 slices at nx = 148, so a serial count2d peaks within
# 2 MB of the dense sweep's RSS
SECTOR_CHUNK = 3 << 15


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class DecayPotential:
    """V(x, y) = v1(x) v2(y) with v1 = A (1+|x|)^{-alpha} and
    v2 = (1+y^2)^{-alpha/2}, amplitude A > 0 and alpha in (0, 2).

    Both factors are even and nonnegative, and as (1+|y|)^2 <= 2 (1+y^2),
    V <= A 2^{alpha/2} (1+|x|)^{-alpha} (1+|y|)^{-alpha}, with equality at
    x = 0, |y| = 1. |y|^alpha v2 -> 1 exactly, which gives the
    reduced potential a closed-form tail coefficient.
    """

    alpha: float
    amplitude: float = 1.0

    def v1(self, x):
        return self.amplitude * (1.0 + np.abs(x)) ** -self.alpha

    def v2(self, y):
        return (1.0 + np.asarray(y, dtype=float) ** 2) ** (-self.alpha / 2.0)


def tail_coefficient(V, ground):
    """ell, the limit of |y|^alpha Q(y) for the reduced potential
    Q(y) = int V(x, y) psi_1(x, kappa_1)^2 dx = <psi_1, v1 psi_1> v2(y) of V
    against the first band's solved ground state: the mean of |y|^alpha Q
    over the samples of the decade 50 <= y <= 500 of a 4001-point grid,
    where |y|^alpha v2 = (1 + y^-2)^(-alpha/2) spreads by at most 2e-4 alpha.
    An ell that underflows to 0 is refused.
    """
    transverse = fiber.expectation(ground, V.v1(ground.grid.x))
    ys = np.linspace(0.0, 500.0, 4001)
    values = V.v2(ys) * transverse
    decade = ys >= 50.0
    ell = float(np.mean(ys[decade] ** V.alpha * values[decade]))
    if not ell > 0.0:
        raise NumericalError("tail coefficient came out nonpositive")
    return ell


# ---------------------------------------------------------------------------
# closed-form constants


def counting_constant_1d(alpha, ell, m):
    """(2 ell^{1/alpha} / (pi alpha m)) B(3/2, 1/alpha - 1/2) via log-beta,
    for alpha in (0, 2) and ell, m > 0."""
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
    try:
        return (ell / lam) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def line_half_width(ell, lam, alpha, m):
    """Half-width of count1d's box at gap lam: TURNING_FACTOR turning points
    (ell / lam)^{1/alpha}, or DECAY_LENGTHS decay lengths m / sqrt(lam) of
    the level near -lam past one turning point, whichever is wider."""
    turning = tail_turning_point(ell, lam, alpha)
    return max(TURNING_FACTOR * turning, turning + DECAY_LENGTHS * m / math.sqrt(lam))


# ---------------------------------------------------------------------------
# 1D counts


def tridiagonal_inertia(d, e, tau, carry=None):
    """Eigenvalues of tridiag(d, e) below tau, by the LDL^T pivot signs.

    Exact in the Sturm sense: each pivot sign is computed from the shifted
    recurrence, a zero pivot counting as negative (the LAPACK convention).
    Each pivot is (d[i] - tau) - e[i-1] (e[i-1] / pivot), the expression of
    LAPACK's dpttrf, which factors one shifted copy of d in place. dpttrf
    stops at the first nonpositive pivot; that pivot is counted, clamped to
    -1e-300 when zero, and carried into the next row, and dpttrf restarts
    there, so the cost is one call per negative pivot plus one.

    `carry` streams a longer matrix through in pieces, d and e being its
    rows from some row r on: a list [coupling, pivot] of the entry joining
    row r - 1 to row r and the last pivot of the rows before r, with pivot
    None at r = 0. The call joins d to those rows by that seam and leaves
    carry[1] holding d's last pivot, so the counts of consecutive pieces add
    up to the longer matrix's, pivot for pivot. count_1d streams its line
    grid so, INERTIA_CHUNK rows a piece.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if len(e) != len(d) - 1:
        raise ConfigurationError("need len(e) == len(d) - 1")
    seam, pivot = carry or (0.0, None)
    ds = d - tau
    ec = e.copy()  # dpttrf overwrites it
    if pivot is not None:
        ds[0] = float(ds[0]) - seam * (seam / pivot)
    count = row = 0
    # a last row alone is left to the check below: f2py refuses an empty e
    while row < len(ds) - 1:
        info = lapack.dpttrf(ds[row:], ec[row:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            break
        row += info - 1
        if row == len(ds) - 1:
            break
        count += 1
        pivot = float(ds[row]) or -1e-300
        coupling = float(ec[row])
        row += 1
        ds[row] = float(ds[row]) - coupling * (coupling / pivot)
    pivot = float(ds[-1])
    if pivot <= 0.0:
        count += 1
        pivot = pivot or -1e-300
    if carry is not None:
        carry[1] = pivot
    return count


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


def _line_nodes(n, h, start):
    """Nodes start, start + 1, ... of the n-node line grid of step h centred
    on 0, at most INERTIA_CHUNK of them: the floats one arange over the whole
    grid would give."""
    return (np.arange(start, min(start + INERTIA_CHUNK, n)) - 0.5 * (n - 1)) * h


def count_1d(m, Q, lam, half_width, h=DEFAULT_H_1D):
    """Eigenvalues of -m^2 d^2/dy^2 - Q below -lam on the line lattice of
    step h, counted on the box |y| <= half_width; m, lam and h are positive.

    count1d sizes the box by line_half_width. The box count (Dirichlet)
    bounds the count of the whole line from below, and is certified by
    Dirichlet-Neumann bracketing on the same grid (Reed & Simon IV,
    XIII.15), assuming Q decreases in |y| past the box, as the count1d model
    and the reduced tail ell |y|^{-alpha} do: when Q at the first node
    outside is below lam, the outside holds nothing below -lam, and the
    Neumann box count (both end diagonals lose m^2/h^2) bounds it from
    above. Equal counts are the infinite lattice's and are returned; an
    outside Q of lam or more, or counts that differ, raise.
    A grid past fiber.MAX_ROWS rows, with no row, or past the float range
    (2m^2/h^2 overflows, or the coupling m^2/h^2 of a grid of more than one
    row falls below the smallest normal float) is refused before any of it
    is built. A grid of more than one row whose step resolves the bottom of
    the well by fewer than 2 pi steps per local wavelength 2 pi m / sqrt(Q),
    that is h sqrt(max Q) > m, counts what the grid allows rather than what
    the well holds, and is refused.
    The grid is built and swept INERTIA_CHUNK nodes at a time, in one pass
    that feeds both bracket sweeps, each carrying its last pivot across the
    chunk seams, so the memory is O(INERTIA_CHUNK) at any box. A Q that is
    negative or NaN at a node is refused at the chunk that shows it; the
    other refusals wait for the pass to see all of Q, which stops sweeping
    once one of them is due, and every refusal comes before any count, in
    the order of this docstring.
    """
    rows = 2.0 * half_width / h
    if not rows <= fiber.MAX_ROWS:
        raise NumericalError(
            f"line grid of {rows:.3g} rows at half-width {half_width:g} exceeds "
            f"the budget of {fiber.MAX_ROWS} rows; raise lam")
    n = math.ceil(rows)
    if n < 1:
        raise NumericalError(
            f"line box |y| <= {half_width:g} holds no node of the grid of "
            f"step h={h:g}; widen")
    stiffness = m * m / (h * h)
    if not math.isfinite(2.0 * stiffness):
        raise NumericalError(f"stencil diagonal 2m^2/h^2 overflows at m={m:g}, h={h:g}")
    if rows > 1.0 and not stiffness >= np.finfo(float).tiny:
        raise NumericalError(f"stencil coupling m^2/h^2 underflows at m={m:g}, h={h:g}")

    ends = (np.array([0, n - 1]) - 0.5 * (n - 1)) * h + np.array([-h, h])
    with np.errstate(over="ignore"):  # a far node's y^2 may overflow to inf
        outside = float(np.max(Q(ends)))
    refusing = not outside < lam
    q_max = 0.0
    lower = upper = 0               # the Dirichlet and the Neumann count
    dirichlet, neumann = [-stiffness, None], [-stiffness, None]
    for start in range(0, n, INERTIA_CHUNK):
        q = np.asarray(Q(_line_nodes(n, h, start)), dtype=float)
        if not (q >= 0.0).all():
            raise ConfigurationError("Q must be nonnegative")
        q_max = max(q_max, float(q.max()))
        refusing = refusing or (n > 1 and h * math.sqrt(q_max) > m)
        if refusing:
            continue    # now only a negative or NaN Q is looked for
        d = 2.0 * stiffness - q
        e = np.full(len(d) - 1, -stiffness)
        lower += tridiagonal_inertia(d, e, -lam, dirichlet)
        if start == 0:
            d[0] -= stiffness
        if start + len(d) == n:
            d[-1] -= stiffness
        upper += tridiagonal_inertia(d, e, -lam, neumann)
    phase = h * math.sqrt(q_max)
    if n > 1 and phase > m:
        raise NumericalError(
            f"line grid step h={h:g} under-resolves the well: "
            f"h sqrt(max Q) = {phase:.3g} exceeds m={m:g}, "
            "fewer than 2 pi steps per local wavelength; refine h")
    if not outside < lam:
        raise NumericalError(
            f"line box |y| <= {half_width:g} stops short of the turning point: "
            f"Q = {outside:.3g} at the first node outside is not below "
            f"lam = {lam:g}; widen")
    if upper != lower:
        raise NumericalError(
            f"line box |y| <= {half_width:g} does not certify its count: "
            f"Dirichlet {lower} and Neumann {upper} differ; widen")
    return lower


# ---------------------------------------------------------------------------
# the asymptotic fit


def power_law_fit(lambdas, counts):
    """(p, A) of N ~ A lambda^{-p} by log-log least squares on nonzero counts.

    (None, None) when the nonzero counts take fewer than two values: a flat
    ladder has no slope to fit.
    """
    lams = np.asarray(lambdas, dtype=float)
    cnts = np.asarray(counts, dtype=float)
    mask = cnts > 0
    if len(np.unique(cnts[mask])) < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(lams[mask]), np.log(cnts[mask]), 1)
    return float(-slope), float(math.exp(intercept))


def _ladder_fault(lams):
    """Why a positive ladder is too short or too narrow to fit, or None."""
    if len(lams) < 4:
        return "need at least 4 lambdas with nonzero counts"
    if max(lams) / min(lams) < 10.0:
        return "lambda ladder must span at least one decade"
    return None


def ladder_fit(lambdas, counts):
    """power_law_fit of a 2D ladder, or (None, None) when its nonzero rungs
    are too few or too narrow for _ladder_fault: the check ran and failed."""
    nonzero = [lam for lam, n in zip(lambdas, counts) if n > 0]
    if _ladder_fault(nonzero):
        return None, None
    return power_law_fit(lambdas, counts)


def distinct_ladder(lambdas):
    """The ladder in decreasing order, refused if a rung is repeated."""
    lambdas = sorted((float(v) for v in lambdas), reverse=True)
    if any(a == b for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigurationError("lambdas must be distinct; a rung is repeated")
    return lambdas


def checked_ladder(lambdas):
    """The ladder in decreasing order, refused unless free of repeated rungs
    and fit-worthy.

    A 2D ladder is checked before anything is solved for it, so a ladder the
    fit would refuse costs no sweep.
    """
    lambdas = distinct_ladder(lambdas)
    fault = _ladder_fault(lambdas)
    if fault:
        raise ConfigurationError(fault)
    return lambdas


# ---------------------------------------------------------------------------
# 2D counts by block inertia


@dataclass(frozen=True)
class Grid2DSpec:
    """Discretization of the half-plane-folded 2D counting problem."""

    hx: float = DEFAULT_HX_2D
    hy: float = DEFAULT_HY_2D
    lx: float = None
    y_width: float = None


def discrete_threshold(b, lx, nx, hy):
    """The lattice operator's own band-1 minimum.

    Scans _lattice_value at THRESHOLD_K_SAMPLES momenta of [0, pi/hy] and
    polishes an interior scan minimum at the root of _lattice_slope between
    its scan neighbours, by bands._brentq at find_minimum's tolerances; an
    end point, or neighbours whose slopes share a sign, keep the scan
    minimum. Every value sits on or above the true lattice infimum, and the
    2D box spectrum above that: the zero point of lattice eigenvalue counts.
    """
    ks = np.linspace(0.0, math.pi / hy, THRESHOLD_K_SAMPLES)
    vals = np.array([_lattice_value(b, lx, nx, hy, k) for k in ks])
    i = int(np.argmin(vals))
    if i == 0 or i == len(ks) - 1:
        return float(vals[i])
    slope = partial(_lattice_slope, b, lx, nx, hy)
    lo, hi = ks[i - 1], ks[i + 1]
    slope_lo, slope_hi = slope(lo), slope(hi)
    if slope_lo * slope_hi > 0.0:
        return float(vals[i])
    root = bands._brentq(slope, lo, hi, slope_lo, slope_hi,
                         bands.KAPPA_XTOL * math.sqrt(b), 8.0 * np.finfo(float).eps)
    return float(min(vals[i], _lattice_value(b, lx, nx, hy, root)))


def _lattice_value(b, lx, nx, hy, k):
    """The lattice band-1 energy at momentum k: the even fiber's lowest
    eigenvalue at the lattice momentum s = sin(k hy)/hy, plus the dispersion
    correction mu(k) - s^2 with mu(k) = 2 (1 - cos(k hy))/hy^2."""
    s = math.sin(k * hy) / hy
    mu = 2.0 * (1.0 - math.cos(k * hy)) / (hy * hy)
    w, _, _ = fiber.eigenpairs(b, s, Parity.EVEN, lx, nx, 0, 0, vectors=False)
    return float(w[0]) + (mu - s * s)


def _lattice_slope(b, lx, nx, hy, k):
    """d/dk of _lattice_value by Hellmann-Feynman.

    Only the stencil's diagonal depends on s, through (s - b x_i)^2, so the
    unit lowest eigenvector v gives omega'(s) = sum v_i^2 2 (s - b x_i).
    With s' = cos(k hy) and (mu - s^2)' = 2 s (1 - cos(k hy)), the slope is
    omega'(s) cos(k hy) + 2 s (1 - cos(k hy)).
    """
    s, c = math.sin(k * hy) / hy, math.cos(k * hy)
    _, v, x = fiber.eigenpairs(b, s, Parity.EVEN, lx, nx, 0, 0)
    return 2.0 * float(np.dot(v[:, 0] ** 2, s - b * x)) * c + 2.0 * s * (1.0 - c)


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


def _frobenius(a):
    """Frobenius norm of the Hermitian matrix held in a's lower triangle,
    sqrt(2 sum_{i>j} |a_ij|^2 + sum |a_ii|^2); inf or nan where a square
    overflows, which no guard `< bound` clears."""
    low, d = np.tril(a), a.diagonal()
    return math.sqrt(2.0 * np.vdot(low, low).real - np.vdot(d, d).real)


def _refuse_near_singular(eigs):
    """Raise unless the eigenvalues of a block show a 2-norm condition of at
    most 1e12."""
    scale = np.abs(eigs).max()
    if scale == 0.0 or np.abs(eigs).min() < 1e-12 * scale:
        raise NumericalError("near-singular pivot block in the inertia sweep")


def _block_inertia(block):
    """(negatives, inverse) of a Hermitian block held in its lower triangle,
    by Bunch-Kaufman LDL^H.

    Sylvester's law gives the block's inertia as that of D, and zhetri on
    the same factors gives the inverse in its lower triangle; no step reads
    a strict upper triangle. A block is refused as near-singular when its
    2-norm condition exceeds 1e12; ||S||_F ||S^-1||_F bounds it from above
    (and n ||S||_1 ||S^-1||_1 bounds that), and only a block this bound
    cannot clear has its eigenvalues computed.
    """
    ldu, ipiv, info = lapack.zhetrf(block, lower=1)
    if info == 0:
        negatives = _ldl_negatives(ldu, ipiv)
        inverse, info = lapack.zhetri(ldu, ipiv, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError("singular pivot block in the inertia sweep")
    if not _frobenius(block) * _frobenius(inverse) < 1e12:
        _refuse_near_singular(np.linalg.eigvalsh(block))
    return negatives, inverse


def _diagonal_block(band, n, j):
    """Block j of the diagonal of a lower band of half-width n, held flat.

    With n + 1 rows of band storage in Fortran order, entry (i, c) of the
    full matrix sits at flat index c n + i, so the block is the n x n
    Fortran matrix of leading dimension n at offset j n (n + 1). Its lower
    triangle is the block; its strict upper triangle aliases the band's
    entries below the block.
    """
    return np.lib.stride_tricks.as_strided(
        band[j * n * (n + 1):], shape=(n, n),
        strides=(band.itemsize, n * band.itemsize))


def _trace_weights(beta):
    """(n (n+1), 2) weights from the squared moduli of one slice's band
    entries to trace(S_j) and trace(S_j^{-1}).

    Band row r of column c of slice j holds L_jj[c + r, c] for c + r < n,
    and L_{j+1,j}[c + r - n, c] beyond. As L_{j+1,j} = diag(conj beta)
    L_jj^{-H}, trace(S_j) = |L_jj|_F^2 and trace(S_j^{-1}) = |L_jj^{-1}|_F^2
    = |diag(1 / conj beta) L_{j+1,j}|_F^2.
    """
    n = len(beta)
    row = np.arange(n)[:, None] + np.arange(n + 1)[None, :]
    weights = np.empty((n, n + 1, 2))
    weights[..., 0] = row < n
    weights[..., 1] = np.where(row >= n, 1.0 / np.abs(beta[row - n]) ** 2, 0.0)
    return weights.reshape(-1, 2)


def _band_traces(band, weights, slices):
    """(slices, 2) array of trace(S_j) and trace(S_j^{-1}) of the first
    slices of a factored band, by _trace_weights; the band does not hold
    the second trace of the last slice, which comes back meaningless.

    Each slice's entries are squared, real and imaginary parts apart, into
    one reused buffer, and weighted by one matrix product.
    """
    width = len(weights)
    squares = np.empty((width, 2))
    traces = np.empty((slices, 2))
    entries = band[:slices * width].view(float).reshape(slices, width, 2)
    for j in range(slices):
        traces[j] = (weights.T @ np.square(entries[j], out=squares)).sum(axis=1)
    return traces


def _band_guard(traces, band, n):
    """Refuse a near-singular slice of a factored band chunk.

    traces[j] holds trace(S_j) and trace(S_j^{-1}) of the chunk's slice j.
    Their product bounds kappa_2(S_j) of a positive definite S_j from above,
    and a slice it does not clear of 1e12 has the eigenvalues of
    S_j = L_jj L_jj^H computed and is refused by _block_inertia's rule.
    """
    bounds = traces[:, 0] * traces[:, 1]
    for j in np.flatnonzero(~(bounds < 1e12)):
        low = np.tril(_diagonal_block(band, n, j))
        _refuse_near_singular(np.linalg.eigvalsh(low @ low.conj().T))


def _sector_inertia(d_x, e_x, xs, b, v1_vals, v2_vals, hy, tau):
    """Negative-eigenvalue count of one x-parity sector by block LDL.

    The sector operator T is block tridiagonal over y-slices: real blocks
    A_j on the diagonal and the constant coupling diag(beta) above it,
    diag(conj beta) below, with beta = -1/hy^2 + i b x / hy. Eliminating
    top-down gives the Schur complements S_j = A_j - C_j with
    C_j = diag(conj beta) S_{j-1}^{-1} diag(beta), and the inertia of T is
    the sum of theirs. Every block is held in its lower triangle, the one
    each LAPACK call reads; no strict upper triangle is read.

    In slice-major order T is a Hermitian band of half-width n, and nearly
    every S_j is positive definite, so runs of slices are factored by one
    band Cholesky (zpbtrf) per chunk of at most SECTOR_CHUNK band entries;
    a factored slice has no negatives. A chunk's first block is A_j - C_j,
    with C_j from zpotri on the last factored block. Where zpbtrf stops,
    its slice is counted by _block_inertia, and the next chunk starts after
    it. Each factored slice passes _band_guard on traces read from the band
    (zpotri's diagonal for the last slice of a chunk), which refuses what
    _block_inertia's guard refuses.

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
    width = n * (n + 1)
    diagonal = d_x + 2.0 / (hy * hy) - tau
    beta = -1.0 / (hy * hy) + 1j * b * xs / hy
    conj_beta = np.conj(beta)

    def diagonal_block(j):
        block = np.zeros((n, n), dtype=complex)
        block.reshape(-1)[::n + 1] = diagonal - v1_vals * v2_vals[j]
        block.reshape(-1)[n::n + 1] = e_x
        return block

    def coupled(inverse):
        # diag(conj beta) S^{-1} diag(beta), formed in the inverse's storage
        np.multiply(conj_beta[:, None], inverse, out=inverse)
        return np.multiply(inverse, beta[None, :], out=inverse)

    mirror = ny > 1 and np.array_equal(v2_vals, v2_vals[::-1])
    # slices below `twins` count twice, for themselves and their mirror image;
    # slice m-1 of an even ny is mirrored by slice m, which the join counts
    steps, twins = (ny // 2, (ny - 1) // 2) if mirror else (ny, 0)
    per_chunk = min(steps, max(1, SECTOR_CHUNK // width))
    buffer = np.empty(per_chunk * width, dtype=complex)
    weights = _trace_weights(beta)
    # in the Fortran order of the strided first block it masks
    lower = np.asfortranarray(np.tri(n, dtype=bool))
    negatives = start = 0
    block = coupling = factor = None
    while start < steps:
        k = min(per_chunk, steps - start)
        chunk = buffer[:k * width]
        columns = chunk.reshape(k, n, n + 1)  # slice, column, band row
        columns[...] = 0.0
        columns[:, :, 0] = diagonal - v1_vals * v2_vals[start:start + k, None]
        columns[:, :-1, 1] = e_x
        columns[:, :, n] = conj_beta
        if coupling is not None:
            first = _diagonal_block(buffer, n, 0)
            np.subtract(first, coupling, out=first, where=lower)
        info = lapack.zpbtrf(chunk.reshape((n + 1, k * n), order="F"), lower=1,
                             overwrite_ab=1)[1]
        done = k if info == 0 else (info - 1) // n
        if done:
            factor = _diagonal_block(buffer, n, done - 1)
            traces = _band_traces(buffer, weights, done)
            inverse = lapack.zpotri(factor, lower=1)[0]
            # the last slice's coupling is past the chunk, or unfinished
            # where zpbtrf stopped; its inverse's diagonal gives the trace
            traces[-1, 1] = inverse.diagonal().real.sum()
            _band_guard(traces, buffer, n)
            coupling = coupled(inverse)
            block = None
            start += done
        if info:
            block = diagonal_block(start)
            if coupling is not None:
                block -= coupling
            count, inverse = _block_inertia(block)
            negatives += 2 * count if start < twins else count
            coupling = coupled(inverse)
            start += 1
    if not mirror:
        return negatives
    if ny % 2:
        join = diagonal_block(steps)
        join -= coupling
        join -= np.conj(coupling)
    else:
        if block is None:   # S_{m-1} ended a chunk: rebuild it from L_jj
            low = np.tril(factor)
            block = low @ low.conj().T
        join = np.conj(block)
        join -= coupling
    return negatives + _block_inertia(join)[0]


def _grid_2d(b, V, lam, spec, ell):
    """(lx, nx, y_width, ny) of the folded 2D grid for the gap lam.

    lx defaults to the orbit plus envelope room and is snapped to a whole
    number of x-steps. Unless the spec fixes it, the y half-width covers
    TURNING_FACTOR times the turning point of the reduced tail
    ell |y|^{-alpha}, and a call that gives neither is refused. A grid that
    cannot be represented, that has fewer than two x-steps, more than
    MAX_NX_2D x-steps (the side of every dense Schur block), a y-step whose
    hy^2 or (1/hy^2)^2 underflows, or more than MAX_UNKNOWNS_2D unknowns,
    is refused here, before any grid array exists.
    """
    lx = spec.lx
    if lx is None:
        lx = (1.0 + math.sqrt(2.0) + 5.0) / math.sqrt(b)  # orbit + envelope room
    x_cells = lx / spec.hx
    y_width = spec.y_width
    if y_width is None:
        if ell is None:
            raise ConfigurationError(
                "the 2D grid needs spec.y_width or the tail coefficient ell")
        y_width = TURNING_FACTOR * tail_turning_point(ell, lam, V.alpha)
    y_cells = 2.0 * y_width / spec.hy
    if not (math.isfinite(x_cells) and math.isfinite(y_cells)):
        raise NumericalError(
            f"grid of {x_cells:g} x {y_cells:g} steps cannot be represented; "
            "raise lam or coarsen")
    if x_cells > MAX_NX_2D + 0.5:     # round(x_cells) > MAX_NX_2D
        raise NumericalError(
            f"{x_cells:.3g} x-steps exceed the cap of {MAX_NX_2D} on one dense "
            "Schur block; raise hx or b")
    nx, ny = int(round(x_cells)), int(math.ceil(y_cells))
    if nx < 2:
        raise ConfigurationError(
            f"hx={spec.hx:g} leaves {nx} x-step(s) on the half-width "
            f"{lx:g}; the fiber stencil needs at least 2")
    # the budget first: a y-step fine enough for hy^2 to underflow asks
    # for ~1e300 y-steps, past the budget
    if (2 * nx - 1) * ny > MAX_UNKNOWNS_2D:
        raise NumericalError(
            f"grid {2 * nx - 1} x {ny:.3g} exceeds the budget of "
            f"{MAX_UNKNOWNS_2D} unknowns; raise lam or coarsen"
        )
    if not spec.hy * spec.hy >= np.finfo(float).tiny:
        raise NumericalError(f"y-step hy={spec.hy:g} is too fine: hy^2 underflows")
    inv_hy2 = 1.0 / (spec.hy * spec.hy)
    if inv_hy2 * inv_hy2 < np.finfo(float).tiny:
        raise NumericalError(
            f"y-step hy={spec.hy:g} is too coarse: (1/hy^2)^2 underflows")
    return nx * spec.hx, nx, y_width, ny


def _count_sector(unit):
    """(count, attempt, shifted tau) of one (parity, system, tau) sector unit.

    A sector that meets a near-singular Schur block is recounted at
    tau (1 + 1e-9 attempt); attempt 0 is the unshifted count.
    """
    _, system, tau = unit
    for attempt in range(SINGULAR_RETRIES):
        shifted = tau * (1.0 + attempt * 1e-9)
        try:
            return _sector_inertia(*system, shifted), attempt, shifted
        except NumericalError:
            if attempt == SINGULAR_RETRIES - 1:
                raise


def count_2d(b, V, lambdas, spec=Grid2DSpec(), ell=None, jobs=1):
    """(counts, meta): N(threshold - lam) of the lattice H0 - V at each lam.

    Every lam is counted on one grid, sized for the smallest, against one
    discrete threshold, so count monotonicity in lam is an exact spectral
    fact; one count is a one-rung ladder. The x-line folds into even
    (Neumann) and odd (Dirichlet) half-line sectors sharing the fiber
    module's stencils, as V's v1 is even; unless spec.y_width fixes it,
    the y-extent covers TURNING_FACTOR times the classical turning point of
    the reduced tail ell |y|^{-alpha}. Every guard runs before any sweep.
    Each (lam, parity) sector is independent, and jobs > 1 runs the sectors
    on up to that many forked worker processes (bands._k_map): LAPACK's
    level-3 routines on blocks this small gain nothing from a second thread
    of one process.
    Counts come back in the order of lambdas. A sector that meets a
    near-singular Schur block is recounted at tau (1 + 1e-9 attempt), and a
    RuntimeWarning, raised here in ladder order, names the sector and the
    shifted threshold. On one grid the counts, ordered by decreasing lam,
    never decrease; a ladder that breaks this raises InvariantViolation.
    meta records the threshold and grid.
    """
    hy = spec.hy
    lx, nx, y_width, ny = _grid_2d(b, V, min(lambdas), spec, ell)
    threshold = discrete_threshold(b, lx, nx, hy)
    if not max(lambdas) < threshold:
        raise ConfigurationError(
            f"lam must sit inside (0, {threshold:g}), the gap below the band"
        )
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    v2_vals = np.asarray(V.v2(ys), dtype=float)
    sectors = []
    for parity in (Parity.EVEN, Parity.ODD):
        d_x, e_x, xs = fiber.stencil(b, 0.0, parity, lx, nx)
        v1_vals = np.asarray(V.v1(xs), dtype=float)
        sectors.append((parity, (d_x, e_x, xs, b, v1_vals, v2_vals, hy)))
    units = [(parity, system, threshold - lam)
             for lam in lambdas for parity, system in sectors]
    with bands._k_map(jobs) as k_map:
        sector_counts = list(k_map(_count_sector, units))
    for (parity, _, tau), (_, attempt, shifted) in zip(units, sector_counts):
        if attempt:
            warnings.warn(
                f"{parity.value} sector counted at tau*(1 + {attempt}e-9) = "
                f"{shifted!r} instead of tau = {tau!r}: near-singular Schur "
                f"block", RuntimeWarning, stacklevel=2)
    counts = [sector_counts[i][0] + sector_counts[i + 1][0]
              for i in range(0, len(units), 2)]
    ladder = sorted(zip(lambdas, counts), key=lambda rung: rung[0], reverse=True)
    if any(deeper < shallower
           for (_, shallower), (_, deeper) in zip(ladder, ladder[1:])):
        raise InvariantViolation("counts must not decrease as lambda does")
    meta = {"threshold": threshold, "lx": lx, "y_width": y_width,
            "hx": spec.hx, "unknowns": (2 * nx - 1) * ny}
    return counts, meta

