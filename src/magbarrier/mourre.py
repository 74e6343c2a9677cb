"""Spectral-window machinery between Landau levels.

For an energy window strictly between the n-th Landau level and the next
even-band minimum, only the first 2n bands reach the window, each on its
strictly decreasing branch. That yields: a half-width delta0 whose doubled
window keeps the band preimages disjoint and the higher bands away; a
positive-commutator constant c_n = min_j inf(-omega_j') / sqrt(b) over the
preimages; edge currents of window states bounded below by that constant;
and an explicit perturbation budget under which everything survives
electric and magnetic perturbations.

All window quantities are reported in scaled (b-independent) units.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import bands, fiber
from .errors import ConfigurationError, InvariantViolation, NumericalError
from .fiber import Parity

DELTA0_BISECT_ITERS = 48
ENDPOINT_BISECTIONS = 3
TRUST_DECREMENT = 1e-8     # per-step omega decrease certifiable above solver noise
BUDGET_FLOOR = 1e-8
BUDGET_CEIL = 1.0
BUDGET_A_GRID = 48
BUDGET_Q_BISECTS = 40
EDGE_SLACK_FRACTION = 0.05


# ---------------------------------------------------------------------------
# window geometry


@dataclass(frozen=True)
class EnergyWindow:
    """A symmetric energy interval of half-width (delta/2) b around E."""

    n: int
    E: float
    delta: float
    b: float

    def interval(self):
        half = 0.5 * self.delta * self.b
        return (self.E - half, self.E + half)


def distance_cap(n, E, b, window_hi):
    """Search cap d_n(E) for delta0, in scaled units.

    The source text names a "distance" but displays the max of the two gaps,
    which is the reading taken here; the accepted delta0 never relies on the
    cap — the window conditions are verified directly.
    """
    lo_gap = E / b - (2.0 * n - 1.0)
    hi_gap = window_hi / b - E / b
    return max(lo_gap, hi_gap)


# ---------------------------------------------------------------------------
# band branches and preimages, from a traced table


def _decreasing_branch(table, j):
    """The strictly decreasing branch of global band j, as sampled arrays.

    The branch ends where the sampled decrease per step stops clearing the
    eigensolver's noise floor: past that point (even-band minima, or the
    exponentially flat tail above a Landau level) the samples cannot certify
    a monotone inverse, so targets below the truncated range are treated as
    outside the invertible domain.
    """
    ks, ws, dws = table.ks, table.omega[j - 1], table.domega_fh[j - 1]
    if table.parities[j - 1] is Parity.EVEN:
        cut = int(np.argmin(ws)) + 1
        ks, ws, dws = ks[:cut], ws[:cut], dws[:cut]
    floor = TRUST_DECREMENT * table.b
    keep = len(ws)
    for i in range(len(ws) - 1):
        if not ws[i] - ws[i + 1] > floor:
            keep = i + 1
            break
    return ks[:keep], ws[:keep], dws[:keep]


def _invert_decreasing(ks, ws, target):
    """k with omega(k) = target by linear interpolation on the branch."""
    # np.interp needs increasing ordinates; the branch is decreasing
    return float(np.interp(-target, -ws, ks))


def _preimage(table, j, lo_e, hi_e):
    """The k-interval of band j over [lo_e, hi_e], or None when it misses.

    Raises when the traced k-range cannot decide the question.
    """
    ks, ws, dws = _decreasing_branch(table, j)
    if len(ws) < 2:
        raise ConfigurationError(
            f"band {j} has no certifiable decreasing branch on this table"
        )
    if hi_e < ws[-1]:
        return None
    if lo_e > ws[0]:
        return None
    if hi_e > ws[0]:
        raise ConfigurationError(
            f"table does not reach energy {hi_e:g} on band {j}; trace further left"
        )
    if lo_e < ws[-1]:
        raise ConfigurationError(
            f"band {j} has not dropped below {lo_e:g} on the traced range; "
            "trace further right"
        )
    return (_invert_decreasing(ks, ws, hi_e), _invert_decreasing(ks, ws, lo_e))


def window_ceiling(n, b, table):
    """The top of window n: band 2n+1's table minimum, refused unless it is
    interior to the trace (an end sample says nothing of the minimum past
    it) and inside ((2n-1) b, (2n+1) b), where find_minimum asserts it."""
    j = 2 * n + 1
    k_star, ceiling = bands.table_minimum(table, j)
    if k_star in (table.ks[0], table.ks[-1]):
        raise ConfigurationError(
            f"band {j} has its lowest sample at k={k_star:g}, an end of the "
            "traced range; trace a wider range")
    lo, top = (2.0 * n - 1.0) * b, (2.0 * n + 1.0) * b
    if not lo < ceiling < top:
        raise ConfigurationError(
            f"band {j}'s table minimum {ceiling:g} is outside ({lo:g}, {top:g}); "
            "trace more samples")
    return ceiling


def find_delta0(n, E, b, table):
    """Largest half-width delta0 whose doubled window passes both checks.

    The doubled window [E - delta0 b, E + delta0 b] must miss every band
    past 2n and keep the preimages of bands 1..2n pairwise disjoint. Both
    conditions tighten monotonically in delta0, so bisection applies.
    Returned in scaled units (the physical half-width is delta0 * b).
    Bands 1..2n cross E left of their minima, so a band whose first sample
    is not above E is refused before the bisection: the trace starts right
    of the window.
    """
    lo = (2.0 * n - 1.0) * b
    hi = window_ceiling(n, b, table)
    if not lo < E < hi:
        raise ConfigurationError(
            f"E={E:g} is not strictly inside the window ({lo:g}, {hi:g})"
        )
    for j in range(1, 2 * n + 1):
        if not table.omega[j - 1][0] > E:
            raise ConfigurationError(
                f"band {j} is already {table.omega[j - 1][0]:g} at k="
                f"{table.ks[0]:g}, not above E={E:g}; trace further left")
    cap = distance_cap(n, E, b, hi)
    higher_floor = table.omega[2 * n:].min()   # lowest sample past band 2n

    def feasible(delta0):
        lo_e, hi_e = E - delta0 * b, E + delta0 * b
        if not (lo_e > lo and hi_e < hi):
            return False
        if higher_floor <= hi_e:
            return False
        intervals = []
        for j in range(1, 2 * n + 1):
            try:
                iv = _preimage(table, j, lo_e, hi_e)
            except ConfigurationError:
                return False
            if iv is None:
                return False
            intervals.append(iv)
        return all(intervals[i][1] < intervals[i + 1][0]
                   for i in range(len(intervals) - 1))

    hi_cand = cap * (1.0 - 1e-12)
    lo_cand = cap * 1e-9
    if not feasible(lo_cand):
        raise NumericalError(
            f"no positive delta0 at this table resolution for E={E:g}"
        )
    if feasible(hi_cand):
        return hi_cand
    for _ in range(DELTA0_BISECT_ITERS):
        mid = 0.5 * (lo_cand + hi_cand)
        if feasible(mid):
            lo_cand = mid
        else:
            hi_cand = mid
    return lo_cand


# ---------------------------------------------------------------------------
# Mourre constants


@dataclass(frozen=True)
class MourreReport:
    """Window geometry plus the positive-commutator constants."""

    window: EnergyWindow
    preimages: tuple          # per band j=1..2n: (j, k_left, k_right)
    c_per_band: tuple         # scaled constants c_{n,j}
    c_n: float


def _derivative_at(b, k, j):
    """Extrapolated band derivative by a fresh solve of band j's parity class."""
    return fiber.refined([bands.derivative_fh(pair)
                          for pair in fiber.band(b, k, j, refine=True)])


def mourre_constant(window, table):
    """MourreReport with c_{n,j} = inf over the preimage of -omega_j'/sqrt(b).

    The preimages and constants are those of the window itself, so the
    edge-current bound with this c_n holds pointwise for any state carried
    by the window. Sampled table derivatives cover the interior; the
    interval ends, where a decreasing -omega' attains its infimum, get
    fresh solves at the endpoint and a few bisection points toward the
    nearest interior sample.
    """
    n, E, b = window.n, window.E, window.b
    lo_e, hi_e = window.interval()
    root_b = math.sqrt(b)
    preimages = []
    c_per_band = []
    for j in range(1, 2 * n + 1):
        iv = _preimage(table, j, lo_e, hi_e)
        if iv is None:
            raise InvariantViolation(f"band {j} misses the window; wrong n?")
        left, right = iv
        ks, _, dws = _decreasing_branch(table, j)
        inside = (ks >= left) & (ks <= right)
        candidates = [(float(k), float(-d)) for k, d in zip(ks[inside], dws[inside])]
        for end in (left, right):
            nearest = ks[inside][0] if end == left and inside.any() else \
                      ks[inside][-1] if inside.any() else 0.5 * (left + right)
            point = end
            for _ in range(ENDPOINT_BISECTIONS):
                candidates.append((float(point),
                                   -_derivative_at(b, float(point), j)))
                point = 0.5 * (point + float(nearest))
        worst_k, worst = min(candidates, key=lambda c: c[1])
        if not worst > 0.0:
            raise InvariantViolation(
                f"nonpositive band velocity {worst:g} at (j={j}, k={worst_k:g})"
            )
        preimages.append((j, left, right))
        c_per_band.append(worst / root_b)
    for (j1, _, r1), (j2, l2, _) in zip(preimages, preimages[1:]):
        if not r1 < l2:
            raise InvariantViolation(f"preimages of bands {j1} and {j2} overlap")
    return MourreReport(window=window, preimages=tuple(preimages),
                        c_per_band=tuple(c_per_band), c_n=min(c_per_band))


def window_report(n, E, b, table):
    """The standard pipeline: delta0 search, then the report of Delta_E(delta0).

    delta0 is the largest half-width whose doubled window passes the
    emptiness and disjointness checks; the report then carries the window
    Delta_E(delta0) — the window that carries edge-current states — with
    that window's own preimages and constants. (The doubled window's
    preimage at the maximal delta0 reaches the exponentially flat band
    tail, where no positive velocity is certifiable in double precision.)
    """
    delta0 = find_delta0(n, E, b, table)
    window = EnergyWindow(n=n, E=E, delta=delta0, b=b)
    return mourre_constant(window, table)


# ---------------------------------------------------------------------------
# fiber states and edge currents


@dataclass(frozen=True)
class BandComponent:
    """Coefficient samples of one band, stored as modulus^2 and phase.

    Splitting the complex coefficient this way makes the free evolution a
    phase-only update, so current integrals are bitwise invariant under it.
    """

    j: int
    ks: np.ndarray = field(repr=False)
    amp2: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FiberState:
    """A window state in the band representation, tied to its report."""

    components: tuple
    report: MourreReport

    def norm2(self):
        return sum(float(np.trapezoid(c.amp2, c.ks)) for c in self.components)


def component_from_beta(j, ks, beta):
    beta = np.asarray(beta, dtype=complex)
    amp2 = beta.real ** 2 + beta.imag ** 2
    return BandComponent(j=j, ks=np.asarray(ks, dtype=float), amp2=amp2,
                         phase=np.angle(beta))


def random_state(report, rng, n_points=33):
    """A random window state: bumps with random weights, centers, phases."""
    comps = []
    for j, left, right in report.preimages:
        width = right - left
        ks = np.linspace(left + 1e-9 * width, right - 1e-9 * width, n_points)
        center = rng.uniform(left + 0.2 * width, right - 0.2 * width)
        spread = rng.uniform(0.1, 0.5) * width
        weight = rng.uniform(0.1, 1.0)
        amp2 = weight * np.exp(-((ks - center) / spread) ** 2)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=n_points)
        comps.append(BandComponent(j=j, ks=ks, amp2=amp2, phase=phase))
    return FiberState(components=tuple(comps), report=report)


def edge_current_fiber(state, table):
    """J_y in the band representation: sum_j int |beta_j|^2 (-omega_j') dk.

    Checks the support precondition, then asserts the lower bound
    J >= (c_n / 2) sqrt(b) ||phi||^2 before returning J.
    """
    report = state.report
    b = report.window.b
    bounds = {j: (l, r) for j, l, r in report.preimages}
    total = 0.0
    for comp in state.components:
        if comp.j not in bounds:
            raise ConfigurationError(f"band {comp.j} is outside the window")
        left, right = bounds[comp.j]
        if comp.ks.min() < left or comp.ks.max() > right:
            raise ConfigurationError(
                f"state support leaks outside the preimage of band {comp.j}"
            )
        velocity = -np.interp(comp.ks, table.ks, table.domega_fh[comp.j - 1])
        total += float(np.trapezoid(comp.amp2 * velocity, comp.ks))
    floor = 0.5 * report.c_n * math.sqrt(b) * state.norm2()
    if total < floor:
        raise InvariantViolation(
            f"edge current {total:g} under the lower bound {floor:g}"
        )
    return total


def evolve_free(state, t, table):
    """Free evolution in the band representation: a pure phase rotation."""
    comps = []
    for comp in state.components:
        omega = np.interp(comp.ks, table.ks, table.omega[comp.j - 1])
        comps.append(BandComponent(j=comp.j, ks=comp.ks, amp2=comp.amp2,
                                   phase=comp.phase - omega * t))
    return FiberState(components=tuple(comps), report=state.report)


# ---------------------------------------------------------------------------
# perturbation budget


def f_n(delta, a_frak, q_frak, n):
    """Window-leakage scale of the perturbed spectral projection."""
    root_a = math.sqrt(a_frak)
    return delta + q_frak + 2.0 * root_a * (
        3.0 * root_a + math.sqrt(2.0 * n + 1.0 + delta + q_frak))


def F_nE(delta, a_frak, q_frak, n, delta0, c_n):
    """Relative loss of the commutator bound under perturbations."""
    f = f_n(delta, a_frak, q_frak, n)
    ratio = f / delta0
    return ratio * ratio + (2.0 / c_n) * (
        math.sqrt(a_frak) + math.sqrt(2.0 * n + 1.0 + f) * math.sqrt(ratio))


@dataclass(frozen=True)
class PerturbationBudget:
    """Largest tested perturbation scales keeping the commutator bound."""

    delta: float          # the delta in (0, delta0) realizing the budget
    a_star: float
    q_star: float
    F_value: float
    delta0: float
    c_n: float

    def __post_init__(self):
        if not (self.a_star > 0.0 and self.q_star > 0.0):
            raise InvariantViolation("perturbation budget must be positive")
        if not self.F_value < 0.5:
            raise InvariantViolation("budget point does not satisfy F < 1/2")


def perturbation_budget(report):
    """Maximize a_star * q_star with F < 1/2 somewhere below delta0.

    Logarithmic scan in a, logarithmic bisection in q, with F taken at
    delta = 1e-6 delta0: f_n increases in delta and F_nE in f_n, so a larger
    delta only raises F. F increases in each perturbation argument, so the
    feasible region is downward closed and the scan is exhaustive at grid
    resolution. All quantities are scaled, hence b-independent.
    """
    n, delta0, c_n = report.window.n, report.window.delta, report.c_n
    delta = delta0 * 1e-6

    def feasible(a_frak, q_frak):
        return F_nE(delta, a_frak, q_frak, n, delta0, c_n) < 0.5

    if not feasible(BUDGET_FLOOR, BUDGET_FLOOR):
        raise InvariantViolation(
            "no feasible perturbation budget found; the guarantee fails"
        )
    best = None
    for a_frak in np.geomspace(BUDGET_FLOOR, BUDGET_CEIL, BUDGET_A_GRID):
        if not feasible(a_frak, BUDGET_FLOOR):
            break
        lo, hi = BUDGET_FLOOR, BUDGET_CEIL
        if feasible(a_frak, hi):
            lo = hi
        else:
            for _ in range(BUDGET_Q_BISECTS):
                mid = math.sqrt(lo * hi)
                if feasible(a_frak, mid):
                    lo = mid
                else:
                    hi = mid
        if best is None or a_frak * lo > best[0] * best[1]:
            best = (float(a_frak), float(lo))
    a_star, q_star = best
    f_val = F_nE(delta, a_star, q_star, n, delta0, c_n)
    return PerturbationBudget(delta=delta, a_star=a_star, q_star=q_star,
                              F_value=f_val, delta0=delta0, c_n=c_n)


# ---------------------------------------------------------------------------
# coarse 2D check


@dataclass(frozen=True)
class EdgeCurrent2D:
    """Currents of the 2D window eigenvectors against the quarter bound.

    artifact_count records sliced eigenvectors rejected by the fiber-support
    test: lattice states whose dominant y-momentum lies outside every band
    preimage. Their continuum energy sits at a Landau level outside the
    window; only the discrete dispersion error lifts them into the slice,
    so they do not represent window states.
    """

    energies: tuple
    currents: tuple
    bound: float
    slack: float
    passed: bool
    artifact_count: int = 0


def _grid_2d(report, lx, ly):
    window, b = report.window, report.window.b
    if lx is None:
        k_max = max(abs(k) for _, l, r in report.preimages for k in (l, r))
        omega_hi = window.interval()[1]
        lx = k_max / b + (math.sqrt(omega_hi) + 4.5) / math.sqrt(b)
    if ly is None:
        w_min = min(r - l for _, l, r in report.preimages)
        ly = 2.0 * math.pi * 3.0 / w_min
    return float(lx), float(ly)


def edge_current_2d(b, a, q, window, report, nx=127, ny=128,
                    lx=None, ly=None, n_eig=12,
                    slack_fraction=EDGE_SLACK_FRACTION):
    """Currents of 2D window eigenvectors on a periodic-in-y rectangle.

    Discretizes (p_x)^2 + (p_y - b|x|)^2 + q with Dirichlet walls in x and a
    periodic y of circumference ly, slices the spectrum around the window
    center, and evaluates J = <phi, (-(p_y - b|x|)) phi> per eigenvector.
    Only scalar perturbations run here; a must be zero or None.
    """
    if a not in (None, 0, 0.0):
        raise ConfigurationError(
            "only scalar (electric) perturbations are supported on the 2D grid"
        )
    # Only this cross-check is sparse: scipy.sparse stays off the import path.
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    if nx % 2 == 0:
        raise ConfigurationError("nx must be odd so a node sits on the barrier")
    lx, ly = _grid_2d(report, lx, ly)
    hx = 2.0 * lx / (nx + 1)
    hy = ly / ny
    xs = -lx + hx * np.arange(1, nx + 1)
    ys = hy * np.arange(ny)
    lap_x = sparse.diags_array(
        [np.full(nx, 2.0 / hx ** 2), np.full(nx - 1, -1.0 / hx ** 2),
         np.full(nx - 1, -1.0 / hx ** 2)], offsets=[0, 1, -1], format="csr")
    lap_y = sparse.diags_array(
        [np.full(ny, 2.0 / hy ** 2), np.full(ny - 1, -1.0 / hy ** 2),
         np.full(ny - 1, -1.0 / hy ** 2)], offsets=[0, 1, -1]).tolil()
    lap_y[0, ny - 1] = lap_y[ny - 1, 0] = -1.0 / hy ** 2
    s_y = sparse.diags_array(
        [np.full(ny - 1, 1.0 / (2.0 * hy)), np.full(ny - 1, -1.0 / (2.0 * hy))],
        offsets=[1, -1]).tolil()
    s_y[0, ny - 1] = -1.0 / (2.0 * hy)
    s_y[ny - 1, 0] = 1.0 / (2.0 * hy)
    lap_y, s_y = lap_y.tocsr(), s_y.tocsr()
    eye_x = sparse.eye_array(nx, format="csr")
    eye_y = sparse.eye_array(ny, format="csr")
    absx = sparse.diags_array([np.abs(xs)], offsets=[0], format="csr")
    h_op = (sparse.kron(lap_x, eye_y) + sparse.kron(eye_x, lap_y)
            + 2.0j * b * sparse.kron(absx, s_y)
            + sparse.kron(absx.power(2) * (b * b), eye_y)).tocsc()
    if q is not None:
        qxy = np.asarray([[float(q(x, y)) for y in ys] for x in xs])
        h_op = h_op + sparse.diags_array([qxy.ravel()], offsets=[0])
    h_op = h_op.astype(complex).tocsc()
    lo_e, hi_e = window.interval()
    vals, vecs = eigsh(h_op, k=n_eig, sigma=window.E, which="LM")
    keep = (vals >= lo_e) & (vals <= hi_e)
    if not keep.any():
        raise NumericalError(
            "no spectrum found inside the window at this grid; refine or widen"
        )
    v_y = (1.0j * sparse.kron(eye_x, s_y) + sparse.kron(absx * b, eye_y)).tocsr()
    bound = 0.25 * report.c_n * math.sqrt(b)
    slack = slack_fraction * bound
    margin = 2.0 * math.pi / ly
    energies, currents = [], []
    artifacts = 0
    for idx in np.nonzero(keep)[0]:
        phi = vecs[:, idx]
        phi = phi / np.linalg.norm(phi)
        weights = np.abs(np.fft.fft(phi.reshape(nx, ny), axis=1)) ** 2
        m_dom = int(np.argmax(weights.sum(axis=0)))
        if m_dom >= ny // 2:
            m_dom -= ny
        kappa = math.sin(2.0 * math.pi * m_dom / ny) / hy
        if not any(l - margin <= kappa <= r + margin
                   for _, l, r in report.preimages):
            artifacts += 1
            continue
        j_val = float(np.real(np.vdot(phi, v_y @ phi)))
        energies.append(float(vals[idx]))
        currents.append(j_val)
    if not energies:
        raise NumericalError(
            "no window state with in-preimage fiber support at this grid"
        )
    passed = all(j >= bound - slack for j in currents)
    return EdgeCurrent2D(energies=tuple(energies), currents=tuple(currents),
                         bound=bound, slack=slack, passed=passed,
                         artifact_count=artifacts)
