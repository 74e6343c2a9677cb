"""Fixed-k fiber eigenproblems for h(k) = p_x^2 + (k - b|x|)^2.

Parity reduces the line to a half line: even states get a Neumann condition
at x = 0 (ghost-point reflection, symmetrized so the matrix stays symmetric),
odd states a Dirichlet zero. Second-order central differences give symmetric
tridiagonal matrices, so bisection counts eigenvalues exactly and LAPACK's
inverse iteration supplies the vectors.

Grids are constructed in scaled units (the problem at field strength b and
wave number k is the b = 1 problem at k / sqrt(b), stretched by b^{-1/2}),
which makes the scaling law omega_j(k; b) = b * omega_j(k b^{-1/2}; 1) hold
to rounding rather than discretization accuracy.
"""

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigurationError, InvariantViolation, NumericalError
from .tridiag import richardson2

DEFAULT_RESOLUTION = 4000
MIN_RESOLUTION = 64
MARGIN = 4.0
# points per local wavelength at the wall; h * sqrt(V(L)) above this is
# an impossible-margin configuration
MAX_WALL_PHASE = 0.5


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"

    def global_index(self, local_j):
        """Map a 1-based index within the parity class to the global band index."""
        return 2 * local_j - 1 if self is Parity.EVEN else 2 * local_j

    @classmethod
    def of_band(cls, j):
        """(parity, local index) of global band j; inverse of global_index."""
        if j < 1:
            raise ConfigurationError(f"band index starts at 1, got {j}")
        return (cls.EVEN, (j + 1) // 2) if j % 2 == 1 else (cls.ODD, j // 2)


@dataclass(frozen=True)
class Grid:
    """Uniform half-line grid with a Dirichlet wall at x = L.

    x holds the interior nodes i*h for i = 0..N-1; the wall node L carries
    an implicit zero. Odd-parity vectors store an exact 0 at the origin node.
    """

    L: float
    N: int
    h: float
    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.N < MIN_RESOLUTION:
            raise ConfigurationError(f"grid needs at least {MIN_RESOLUTION} points, got {self.N}")


@dataclass(frozen=True)
class FiberProblem:
    """One fixed-(b, k, parity) eigenproblem on a truncated half-line grid."""

    b: float
    k: float
    parity: Parity
    grid: Grid
    requested_levels: int


@dataclass(frozen=True)
class EigenPair:
    """A solved fiber eigenstate; j is the global, parity-interleaved index."""

    j: int
    parity: Parity
    b: float
    k: float
    omega: float
    psi: np.ndarray = field(repr=False)
    psi0: float
    dpsi0: float
    grid: Grid


def _top_estimate_scaled(q, n_levels):
    """Overestimate of omega at the top requested level for b = 1, k = q."""
    est = (2.0 * n_levels + 1.0) + 3.0 * (n_levels + 1.0) * (2.0 * (abs(q) + 1.0)) ** (2.0 / 3.0)
    if q < 0.0:
        est += q * q
    return est


def minimum_resolution(b, k, requested_levels=4):
    """Smallest grid size, a multiple of 500, within 0.9 of the wall-phase cap.

    Deep barrier-side solves outgrow the default resolution because the wall
    estimate carries the k^2 offset; callers that sweep k use this to size
    grids deterministically.
    """
    if b <= 0.0:
        raise ConfigurationError("field strength must be positive")
    q = k / math.sqrt(b)
    est = _top_estimate_scaled(q, requested_levels)
    scaled_L = q + math.sqrt(MARGIN * est)
    need = scaled_L * math.sqrt(MARGIN * est) / (0.9 * MAX_WALL_PHASE)
    return max(MIN_RESOLUTION, 500 * math.ceil(need / 500))


def build_problem(b, k, parity, requested_levels=4, resolution=DEFAULT_RESOLUTION):
    """Size the truncated grid for (b, k, parity) and the requested level count.

    The wall lands where the effective potential exceeds an overestimate of
    the top requested eigenvalue by MARGIN; truncation error there is
    exponentially small against every tolerance used downstream.
    """
    if b <= 0.0:
        raise ConfigurationError("field strength must be positive")
    if requested_levels < 1:
        raise ConfigurationError("requested_levels must be at least 1")
    parity = Parity(parity)
    root_b = math.sqrt(b)
    q = k / root_b
    est = _top_estimate_scaled(q, requested_levels)
    scaled_L = q + math.sqrt(MARGIN * est)
    wall_phase = (scaled_L / resolution) * math.sqrt(MARGIN * est)
    if wall_phase > MAX_WALL_PHASE:
        raise ConfigurationError(
            f"impossible margin: requested level {requested_levels} needs "
            f"h*sqrt(V(L)) <= {MAX_WALL_PHASE} but resolution {resolution} gives {wall_phase:.3f}"
        )
    L = scaled_L / root_b
    h = L / resolution
    grid = Grid(L=L, N=resolution, h=h, x=np.arange(resolution) * h)
    return FiberProblem(b=b, k=k, parity=parity, grid=grid, requested_levels=requested_levels)


def stencil(b, k, parity, L, N, dtype=np.float64):
    """Symmetric tridiagonal (d, e) for the parity-reduced half-line operator.

    Entries are formed in `dtype` end to end so the longdouble path loses
    nothing to premature rounding. Even parity symmetrizes the Neumann row
    with u0 = psi0 / sqrt(2), giving e[0] = -sqrt(2)/h^2.
    """
    parity = Parity(parity)
    typ = np.dtype(dtype).type
    h = typ(L) / typ(N)
    inv_h2 = typ(1.0) / (h * h)
    bt, kt = typ(b), typ(k)
    if parity is Parity.EVEN:
        x = np.arange(N).astype(typ) * h
        d = 2.0 * inv_h2 + (kt - bt * x) ** 2
        e = np.full(N - 1, -inv_h2, dtype=typ)
        e[0] = -np.sqrt(typ(2.0)) * inv_h2
    else:
        x = np.arange(1, N).astype(typ) * h
        d = 2.0 * inv_h2 + (kt - bt * x) ** 2
        e = np.full(N - 2, -inv_h2, dtype=typ)
    return d, e


def _fix_sign(psi):
    """Make the first extremum from the origin positive, in place."""
    a = np.abs(psi)
    floor = 0.05 * a.max()
    if a[0] >= a[1] and a[0] > floor:
        idx = 0
    else:
        mid = a[1:-1]
        hits = np.flatnonzero((mid >= a[:-2]) & (mid >= a[2:]) & (mid > floor))
        idx = int(hits[0]) + 1 if hits.size else int(np.argmax(a))
    if psi[idx] < 0.0:
        psi *= -1.0
    return psi


def _solve_on_resolution(problem, n_levels, N):
    d, e = stencil(problem.b, problem.k, problem.parity, problem.grid.L, N)
    try:
        w, v = eigh_tridiagonal(d, e, select="i",
                                select_range=(0, n_levels - 1),
                                check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"fiber eigensolve failed at b={problem.b:g}, k={problem.k:g}: "
            f"{exc}") from None
    if not np.all(np.diff(w) > 0.0):
        raise InvariantViolation(
            f"eigenvalues not strictly increasing at k={problem.k}, parity={problem.parity.value}"
        )
    h = problem.grid.L / N
    v = v / math.sqrt(2.0 * h)
    psis = np.zeros((N, n_levels))
    if problem.parity is Parity.EVEN:
        psis[0] = math.sqrt(2.0) * v[0]
        psis[1:] = v[1:]
    else:
        psis[1:] = v
    return w, psis, h


def _assemble(problem, n_levels, N):
    """Solve at one resolution and package the eigenpairs."""
    if n_levels < 1:
        raise ConfigurationError("n_levels must be at least 1")
    if n_levels > problem.requested_levels:
        raise ConfigurationError(
            f"grid was sized for {problem.requested_levels} levels, asked for {n_levels}"
        )
    w, psis, h = _solve_on_resolution(problem, n_levels, N)
    if N == problem.grid.N:
        grid = problem.grid
    else:
        grid = Grid(L=problem.grid.L, N=N, h=h, x=np.arange(N) * h)
    pairs = []
    for m in range(n_levels):
        psi = _fix_sign(psis[:, m].copy())
        psi0, dpsi0 = boundary_values(psi, grid.h, problem.parity)
        pair = EigenPair(j=problem.parity.global_index(m + 1), parity=problem.parity,
                         b=problem.b, k=problem.k, omega=float(w[m]), psi=psi,
                         psi0=psi0, dpsi0=dpsi0, grid=grid)
        if pair.j == 1 and np.any(psi < -1e-10 * psi.max()):
            raise InvariantViolation(f"ground state not positive at k={problem.k}")
        pairs.append(pair)
    return pairs


def solve_two_grids(problem, n_levels):
    """(coarse, fine): pure solves at steps h and h/2.

    Functionals of the eigenpair (energies, band derivatives, boundary data)
    extrapolate in h^2 when evaluated on the two lists, which removes their
    own h^2 terms.
    """
    coarse = _assemble(problem, n_levels, problem.grid.N)
    fine = _assemble(problem, n_levels, 2 * problem.grid.N)
    return coarse, fine


def solve(problem, n_levels, refine=False):
    """The n_levels lowest eigenpairs of the parity-restricted fiber operator.

    refine=True re-solves on the doubled grid and Richardson-extrapolates the
    eigenvalues in h^2; eigenvectors then come from the fine grid.
    """
    if not refine:
        return _assemble(problem, n_levels, problem.grid.N)
    coarse, fine = solve_two_grids(problem, n_levels)
    return [replace(f, omega=float(richardson2(c.omega, f.omega)))
            for c, f in zip(coarse, fine)]


def band_problem(b, k, j, resolution=DEFAULT_RESOLUTION):
    """(problem, m): the problem of the parity class that owns global band j.

    Band j is level m of that class; the grid is sized for m levels.
    """
    parity, m = Parity.of_band(j)
    return build_problem(b, k, parity, requested_levels=m, resolution=resolution), m


def band(b, k, j, resolution=DEFAULT_RESOLUTION, refine=False):
    """Global band j at (b, k) from a solve of its parity class alone."""
    problem, m = band_problem(b, k, j, resolution)
    return solve(problem, m, refine=refine)[m - 1]


def boundary_values(psi, h, parity):
    """(psi(0), psi'(0)); the parity-forbidden member is exactly zero.

    Odd parity differentiates with the one-sided fourth-order stencil; psi(0)
    itself is a grid value.
    """
    if Parity(parity) is Parity.EVEN:
        return float(psi[0]), 0.0
    dpsi0 = (48.0 * psi[1] - 36.0 * psi[2] + 16.0 * psi[3] - 3.0 * psi[4]) / (12.0 * h)
    return 0.0, float(dpsi0)


def expectation(pair, f_values):
    """Full-line integral of f(|x|) |psi|^2 from half-line samples.

    f_values are f at the grid nodes. Trapezoid with the implicit zero at the
    wall; the origin node carries the half weight.
    """
    psi2 = pair.psi * pair.psi
    w = f_values * psi2
    return 2.0 * pair.grid.h * (0.5 * w[0] + w[1:].sum())


def merge_parities(even, odd):
    """Interleave solved parity classes into globally indexed bands.

    Even-below-odd pairwise order and the global interleaving are exact
    statements, but the parity splitting collapses below the eigensolver
    floor (eps * ||T||) a few magnetic lengths past the band minima, where
    two independent solves can come back in either order. Ordering is
    therefore verified at that floor, and numerically degenerate pairs are
    emitted in the exact order.
    """
    pairs = list(even) + list(odd)
    tol = 0.0
    if pairs:
        h_min = min(p.grid.h for p in pairs)
        tol = 64.0 * np.finfo(float).eps * 2.0 / (h_min * h_min)
    for j in range(min(len(even), len(odd))):
        if not even[j].omega < odd[j].omega + tol:
            raise InvariantViolation(
                f"parity order flip at pair {j + 1}, k={even[j].k}: "
                f"{even[j].omega} !< {odd[j].omega}"
            )
    merged = []
    for j in range(max(len(even), len(odd))):
        if j < len(even):
            merged.append(even[j])
        if j < len(odd):
            merged.append(odd[j])
    for a, b_ in zip(merged, merged[1:]):
        if not a.omega < b_.omega + tol:
            raise InvariantViolation(
                f"interleaving violation between bands {a.j} and {b_.j} at k={a.k}: "
                f"{a.omega} !< {b_.omega}"
            )
    return merged


def first_levels(b, k, n_bands, refine=False):
    """The n_bands lowest global bands at one k, both parities merged."""
    n_even = (n_bands + 1) // 2
    n_odd = n_bands // 2
    even_problem = build_problem(b, k, Parity.EVEN, requested_levels=n_even)
    even = solve(even_problem, n_even, refine=refine)
    if n_odd == 0:
        return even[:n_bands]
    odd_problem = build_problem(b, k, Parity.ODD, requested_levels=n_odd)
    odd = solve(odd_problem, n_odd, refine=refine)
    return merge_parities(even, odd)[:n_bands]


def first_levels_two_grids(b, k, n_bands):
    """first_levels on both grids: the (coarse, fine) merged lists.

    Both lists are merged by the same deterministic interleave, so the m-th
    entries of each describe the same band and functionals of the pair can
    be extrapolated entrywise.
    """
    n_even = (n_bands + 1) // 2
    n_odd = n_bands // 2
    even_problem = build_problem(b, k, Parity.EVEN, requested_levels=n_even)
    even = solve_two_grids(even_problem, n_even)
    if n_odd == 0:
        return tuple(lst[:n_bands] for lst in even)
    odd_problem = build_problem(b, k, Parity.ODD, requested_levels=n_odd)
    odd = solve_two_grids(odd_problem, n_odd)
    return tuple(merge_parities(e, o)[:n_bands] for e, o in zip(even, odd))
