"""Fixed-k fiber eigenproblems for h(k) = p_x^2 + (k - b|x|)^2.

Parity reduces the line to a half line: even states get a Neumann condition
at x = 0 (ghost-point reflection, symmetrized so the matrix stays symmetric),
odd states a Dirichlet zero. Second-order central differences give symmetric
tridiagonal matrices, so bisection counts eigenvalues exactly and LAPACK's
inverse iteration supplies the vectors.

One solve path: `_wall` sizes the box and its grid; `sector` solves a
parity sector on one grid, or on two (steps h and h/2, same box), one pair
list per grid; `band` and `first_levels` pick and merge grid by grid, and
`first_levels` always on two; `refined` reads a functional's (coarse, fine)
values as one, extrapolated in h^2.

Grids are constructed in scaled units (the problem at field strength b and
wave number k is the b = 1 problem at k / sqrt(b), stretched by b^{-1/2}),
which makes the scaling law omega_j(k; b) = b * omega_j(k b^{-1/2}; 1) hold
to rounding rather than discretization accuracy.
"""

import enum
import math
from itertools import zip_longest
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigurationError, InvariantViolation, NumericalError
from .tridiag import richardson2

DEFAULT_RESOLUTION = 4000
MARGIN = 4.0
# the largest h * sqrt(V(L)) a grid may have at the wall; a solve whose
# wall needs a finer step gets more than DEFAULT_RESOLUTION points
WALL_PHASE = 0.45
# rows x levels of one tridiagonal solve, checked where its grid is sized:
# in _wall, the eigenvector block where vectors are built and dstebz's
# bisection where they are not (the default airy check, k = -40, builds
# 17,000 rows for 2 levels); in counting.count_1d, the one-level line grid
# (over 16x the 1.2 M rows of the default count1d ladder's deepest rung)
MAX_ROWS = 20_000_000


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
    """Uniform half-line grid of N = len(x) nodes, Dirichlet wall at x = N*h.

    x holds the interior nodes i*h for i = 0..N-1; the wall node carries an
    implicit zero. Odd-parity vectors store an exact 0 at the origin node.
    """

    h: float
    x: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EigenPair:
    """A solved fiber eigenstate; j is the global, parity-interleaved index,
    and Parity.of_band(j) its parity and local index."""

    j: int
    b: float
    k: float
    omega: float
    psi: np.ndarray = field(repr=False)
    psi0: float
    dpsi0: float
    grid: Grid


@dataclass(frozen=True)
class Level:
    """A solved fiber energy without its eigenvector: global index j and the
    grid it was solved on, as an EigenPair names them."""

    j: int
    k: float
    omega: float
    grid: Grid


def _top_estimate_scaled(q, n_levels):
    """Overestimate of omega at the top requested level for b = 1, k = q."""
    est = (2.0 * n_levels + 1.0) + 3.0 * (n_levels + 1.0) * (2.0 * (abs(q) + 1.0)) ** (2.0 / 3.0)
    if q < 0.0:
        est += q * q
    return est


def _scaled_wall(b, k, levels):
    """(wall, sqrt(V(wall))) in scaled units for `levels` levels at (b, k).

    The wall lands where the effective potential exceeds an overestimate of
    the top requested eigenvalue by MARGIN; truncation error there is
    exponentially small against every tolerance used downstream.
    """
    q = k / math.sqrt(b)
    root_v = math.sqrt(MARGIN * _top_estimate_scaled(q, levels))
    return q + root_v, root_v


def _wall(b, k, levels):
    """The box [0, L] of a `levels`-level sector solve at (b, k) and its
    grid size N, as (L, N).

    The only place a fiber grid is sized: N is DEFAULT_RESOLUTION, or the
    next multiple of 500 that keeps h * sqrt(V(L)) <= WALL_PHASE, which
    deep barrier-side solves need because V(L) carries the k^2 offset. Refused
    before anything is allocated: a doubled grid (the largest a refined
    solve builds) whose rows times levels, the size of the vector block or
    of the bisection of an energies-only solve, pass MAX_ROWS, and a step so
    coarse that LAPACK's square of the off-diagonal 1/h^2 underflows.
    """
    if levels < 1:
        raise ConfigurationError("a sector solve needs at least 1 level")
    scaled_L, root_v = _scaled_wall(b, k, levels)
    need = scaled_L * root_v / WALL_PHASE
    # an inf or NaN need fails `<=`, so it never reaches math.ceil
    N = max(DEFAULT_RESOLUTION, 500 * math.ceil(need / 500)) \
        if need <= MAX_ROWS else need
    if not 2 * N * levels <= MAX_ROWS:
        raise NumericalError(
            f"fiber grid at b={b:g}, k={k:g} needs {2 * N:.3g} rows x {levels} "
            f"level(s), past the budget of {MAX_ROWS}")
    L = scaled_L / math.sqrt(b)
    h = L / N
    inv_h2 = 1.0 / (h * h)
    if inv_h2 * inv_h2 < np.finfo(float).tiny:
        raise NumericalError(
            f"fiber grid step at b={b:g} is too coarse: (1/h^2)^2 underflows")
    return L, N


def stencil(b, k, parity, L, N, dtype=np.float64):
    """(d, e, x): the symmetric tridiagonal parity-reduced half-line operator
    on N points of [0, L], and its nodes x, i*h for i = 0..N-1 when even and
    from h when odd (the origin's Dirichlet zero is no unknown).

    Entries are formed in `dtype` end to end so the longdouble path loses
    nothing to premature rounding. Even parity symmetrizes the Neumann row
    with u0 = psi0 / sqrt(2), giving e[0] = -sqrt(2)/h^2.
    """
    parity = Parity(parity)
    typ = np.dtype(dtype).type
    h = typ(L) / typ(N)
    inv_h2 = typ(1.0) / (h * h)
    x = np.arange(0 if parity is Parity.EVEN else 1, N).astype(typ) * h
    d = 2.0 * inv_h2 + (typ(k) - typ(b) * x) ** 2
    e = np.full(len(x) - 1, -inv_h2, dtype=typ)
    if parity is Parity.EVEN:
        e[0] = -np.sqrt(typ(2.0)) * inv_h2
    return d, e, x


def eigenpairs(b, k, parity, L, N, first, last, vectors=True):
    """(w, v, x): eigenvalues first..last (0-based) of one parity sector on
    N points of [0, L], their unit eigenvectors as columns (None without
    `vectors`), and the stencil's nodes.

    The one float64 LAPACK solve of a sector; LAPACK's failure leaves as
    NumericalError.
    """
    d, e, x = stencil(b, k, parity, L, N)
    try:
        out = eigh_tridiagonal(d, e, eigvals_only=not vectors, select="i",
                               select_range=(first, last), check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"fiber eigensolve failed at b={b:g}, k={k:g}: {exc}") from None
    w, v = out if vectors else (out, None)
    return w, v, x


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


def _assemble(b, k, parity, n, L, N, vectors=True):
    """The n lowest eigenpairs of one parity sector on N points of [0, L],
    or without `vectors` their Levels, solved for energies only."""
    w, v, _ = eigenpairs(b, k, parity, L, N, 0, n - 1, vectors=vectors)
    if not np.all(np.diff(w) > 0.0):
        raise InvariantViolation(
            f"eigenvalues not strictly increasing at k={k}, parity={parity.value}"
        )
    h = L / N
    grid = Grid(h=h, x=np.arange(N) * h)
    if not vectors:
        return [Level(j=parity.global_index(m + 1), k=k, omega=float(w[m]),
                      grid=grid) for m in range(n)]
    v = v / math.sqrt(2.0 * h)
    if parity is Parity.EVEN:
        v[0] = math.sqrt(2.0) * v[0]
    psis = np.zeros((N, n))
    psis[N - len(v):] = v           # odd vectors keep the origin's zero
    pairs = []
    for m in range(n):
        psi = _fix_sign(psis[:, m].copy())
        psi0, dpsi0 = boundary_values(psi, h, parity)
        pair = EigenPair(j=parity.global_index(m + 1), b=b, k=k,
                         omega=float(w[m]), psi=psi, psi0=psi0, dpsi0=dpsi0,
                         grid=grid)
        if pair.j == 1 and np.any(psi < -1e-10 * psi.max()):
            raise InvariantViolation(f"ground state not positive at k={k}")
        pairs.append(pair)
    return pairs


def sector(b, k, parity, n, refine=False, vectors=True):
    """The n lowest eigenpairs of one parity sector, one list per grid.

    (pairs,) on the N points `_wall` sizes, or with refine=True (coarse,
    fine) at steps h and h/2 on the same box. A functional of the eigenpair
    (energy, band derivative, boundary data) read on both lists extrapolates
    in h^2 through `refined`, which removes its own h^2 term. Without
    `vectors` the lists hold Levels: the same energies, bit for bit, and no
    eigenvector block.
    """
    L, N = _wall(b, k, n)
    sizes = (N, 2 * N) if refine else (N,)
    return tuple(_assemble(b, k, parity, n, L, size, vectors) for size in sizes)


def band(b, k, j, refine=False):
    """Global band j at (b, k) on each grid of a solve of its parity sector."""
    parity, m = Parity.of_band(j)
    return tuple(pairs[m - 1] for pairs in sector(b, k, parity, m, refine))


def refined(values):
    """A functional's (coarse, fine) values read as one, extrapolated in h^2."""
    return float(richardson2(*values))


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
    """Interleave solved parity classes, the (coarse, fine) pair (or Level)
    lists of two-grid `sector` solves, into globally indexed bands, grid by
    grid.

    Even-below-odd pairwise order and the global interleaving are exact
    statements, but the parity splitting collapses below the eigensolver
    floor (eps * ||T||) a few magnetic lengths past the band minima, where
    two independent solves can come back in either order. Ordering is
    therefore verified at the finest grid's floor, once, on the `refined`
    energies callers read (the parities' boxes, sized for their own level
    counts, give raw energies O(h^2) errors that differ by more than that),
    and numerically degenerate pairs are emitted in the exact order. The
    interleave e1, o1, e2, o2, ... puts each even level next to its odd
    partner, so one pass over it checks both.
    """
    grids = tuple([p for pair in zip_longest(e, o) for p in pair if p is not None]
                  for e, o in zip(even, odd))
    fine = grids[-1]
    h_min = min(p.grid.h for p in fine)
    tol = 64.0 * np.finfo(float).eps * 2.0 / (h_min * h_min)
    omegas = [refined([p.omega for p in pairs]) for pairs in zip(*grids)]
    for a, b_, wa, wb in zip(fine, fine[1:], omegas, omegas[1:]):
        if not wa < wb + tol:
            raise InvariantViolation(
                f"interleaving violation between bands {a.j} and {b_.j} at k={a.k}: "
                f"{wa} !< {wb}"
            )
    return grids


def first_levels(b, k, n_bands, vectors=True):
    """The n_bands lowest global bands at one k, both parities merged, as
    (coarse, fine) lists solved at steps h and h/2 as `sector` returns them
    (Levels without `vectors`).

    Both grids' lists are merged by the same deterministic interleave, so
    the m-th entries of each describe the same band.
    """
    n_odd = n_bands // 2
    even = sector(b, k, Parity.EVEN, n_bands - n_odd, refine=True, vectors=vectors)
    odd = sector(b, k, Parity.ODD, n_odd, refine=True, vectors=vectors) \
        if n_odd else ([], [])
    return merge_parities(even, odd)
