"""Band functions omega_j(k): tracing over a uniform k-grid, derivatives by
independent routes, and even-band minima with their effective masses.

Derivative routes: the Feynman-Hellmann route integrates 2(k - b|x|) psi^2
over the line; the boundary route evaluates (-2/b) [(omega - k^2) psi(0)^2
+ psi'(0)^2], which collapses to one term per parity. They agree to
discretization accuracy and both match finite differences of the traced band.
"""

import contextlib
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import fiber
from .errors import ConfigurationError, InvariantViolation, NumericalError
from .fiber import Parity

KAPPA_XTOL = 1e-10
BRENTQ_MAX_ITERATIONS = 100   # scipy.optimize.brentq's maxiter


@dataclass(frozen=True)
class BandTable:
    """Sampled band functions over a common k-grid.

    Each column is one (n_bands, len(ks)) array whose row j - 1 is band j.
    """

    b: float
    ks: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    domega_fh: np.ndarray = field(repr=False)
    domega_bd: np.ndarray = field(repr=False)
    psi0: np.ndarray = field(repr=False)
    dpsi0: np.ndarray = field(repr=False)
    parities: list = None                # per band: Parity


@dataclass(frozen=True)
class MinimumRecord:
    """An even band's unique minimum: location, energy, effective mass."""

    j: int                 # even-band ordinal; global band index 2j-1
    kappa: float
    energy: float
    beta: float
    psi0_at_kappa: float

    def __post_init__(self):
        if self.beta <= 0.0:
            raise InvariantViolation(f"effective mass must be positive, got {self.beta}")


def derivative_fh(pair):
    """Quadrature route: integral of 2(k - b|x|) psi^2 over the line."""
    return float(fiber.expectation(pair, 2.0 * (pair.k - pair.b * pair.grid.x)))


def derivative_boundary(pair):
    """Boundary route; one term per parity by construction."""
    b, k = pair.b, pair.k
    return float((-2.0 / b) * ((pair.omega - k * k) * pair.psi0 ** 2 + pair.dpsi0 ** 2))


def _columns(pair):
    """One table row: (omega, domega_fh, domega_bd, psi0, dpsi0) of a pair."""
    return (pair.omega, derivative_fh(pair), derivative_boundary(pair),
            pair.psi0, pair.dpsi0)


def _trace_row(b, k, n_bands):
    """One _columns row per band of the n_bands lowest bands at one k.

    Only the column values leave; the eigenvectors behind them are dropped
    here, so a traced grid costs a few floats per point, not a vector per
    band. The row extrapolates every column in h^2, not just the energy.
    """
    grids = fiber.first_levels(b, k, n_bands)
    return [list(map(fiber.refined, zip(*map(_columns, pairs))))
            for pairs in zip(*grids)]


@contextlib.contextmanager
def _k_map(jobs):
    """A map over independent solves (k-points, minima's ordinals, the
    precise units of asymptotics, or the 2D count sectors of counting): in
    order, serially or on forked worker processes.

    At most `jobs` workers, and no more than the CPUs this process may use.
    The pool is left (and its workers reaped) when the block exits, on an
    error too; a worker's exception re-raises as itself in the caller.
    """
    import multiprocessing     # here, so commands that never fork do not load it

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    workers = min(jobs, cpus)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield map
        return
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield pool.imap


def trace(b, k_min, k_max, n_bands=8, base_samples=81, jobs=1):
    """Sample the lowest n_bands band functions on the uniform k-grid
    linspace(k_min, k_max, base_samples), every column Richardson-refined.

    The samples must be distinct floats. jobs > 1 solves the k-points on up
    to that many forked worker processes; the table is the same, bit for
    bit, at every jobs.
    """
    ks = np.linspace(k_min, k_max, base_samples)
    if not (np.diff(ks) > 0.0).all():
        raise ConfigurationError(
            f"need k_min < k_max with {base_samples} distinct float k-samples between")
    row_at = functools.partial(_trace_row, b, n_bands=n_bands)
    with _k_map(jobs) as k_map:
        columns = np.array(list(k_map(row_at, ks.tolist()))).T
    return BandTable(b, ks, *columns,
                     parities=[Parity.of_band(j)[0] for j in range(1, n_bands + 1)])


def _brentq(f, a, b, fa, fb, xtol, rtol):
    """Root of f in [a, b] by Brent's method, given fa = f(a) and fb = f(b)
    of opposite signs (the caller checks them).

    An operation-for-operation port of the C loop behind scipy.optimize.brentq
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4),
    so it returns the same float to the last bit, without importing
    scipy.optimize; the caller's end values save brentq's two re-evaluations.
    """
    a, b, fa, fb, xtol, rtol = map(float, (a, b, fa, fb, xtol, rtol))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAX_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):   # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NumericalError(f"f({xcur}) is NaN in the root search")
    raise NumericalError(
        f"root search did not converge in {BRENTQ_MAX_ITERATIONS} iterations; "
        f"last value {xcur}"
    )


def minimum_bounds(j, b):
    """(kappa_max, energy_lo, energy_hi) of even band j's minimum at field b:
    kappa below the root of the level (4j - 3) b the band tends to, energy
    between the Landau levels (2j - 3) b (0 at j = 1) and (2j - 1) b."""
    energy_lo = (2.0 * (j - 1) - 1.0) * b if j > 1 else 0.0
    return math.sqrt((2.0 * (2 * j - 1) - 1.0) * b), energy_lo, (2.0 * j - 1.0) * b


def find_minimum(j, b):
    """Locate the minimum of even band j as the root of omega(k) - k^2.

    The bracket is (0, kappa_max) of minimum_bounds; the minimum energy is
    the square of the root, cross-checked against the direct eigenvalue
    there, and both are asserted inside minimum_bounds.
    """
    kappa_max, energy_lo, energy_hi = minimum_bounds(j, b)
    lo, hi = 1e-6 * math.sqrt(b), kappa_max

    def omega(pairs):
        return fiber.refined([pair.omega for pair in pairs])

    def g(k):
        return omega(fiber.band(b, k, 2 * j - 1, refine=True)) - k * k

    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 > g_hi):
        raise InvariantViolation(
            f"no sign change for band {2 * j - 1} minimum in ({lo:.3g}, {hi:.3g}): "
            f"g={g_lo:.3g}, {g_hi:.3g}"
        )
    kappa = _brentq(g, lo, hi, g_lo, g_hi, KAPPA_XTOL * math.sqrt(b), 8.0 * np.finfo(float).eps)
    pairs = fiber.band(b, kappa, 2 * j - 1, refine=True)
    energy, direct = kappa * kappa, omega(pairs)
    if abs(direct - energy) > 1e-8 * max(1.0, abs(energy)):
        raise NumericalError(
            f"minimum cross-check failed: omega({kappa})={direct} vs kappa^2={energy}"
        )
    if not (energy_lo < energy < energy_hi):
        raise InvariantViolation(
            f"band {2 * j - 1} minimum {energy} outside ({energy_lo}, {energy_hi})"
        )
    if not 0.0 < kappa < kappa_max:
        raise InvariantViolation(f"kappa {kappa} outside (0, {kappa_max})")
    psi0 = pairs[-1].psi0      # the fine grid's, not extrapolated
    beta = (2.0 * kappa / b) * psi0 ** 2
    return MinimumRecord(j=j, kappa=kappa, energy=energy, beta=beta,
                         psi0_at_kappa=psi0)


@dataclass(frozen=True)
class MonotonicityReport:
    """Violations of the decreasing/one-flip band shape, if any."""

    violations: list
    checked: int
    flip_ks: dict          # even band global index -> k where the sign flips


def monotonicity_report(table):
    """Check odd bands strictly decreasing, even bands single-sign-flip.

    Monotonicity is read at tolerance 1e-8 * b: past the minima the true
    slopes decay like exp(-k^2 / 4b) and soon drop below any floating-point
    resolution, so a zero tolerance would report solver noise as band shape.
    Violations are (band index, k) pairs.
    """
    tol = 1e-8 * table.b
    violations = []
    flip_ks = {}
    checked = 0
    ks = table.ks
    for j_idx, ws in enumerate(table.omega):
        parity = table.parities[j_idx]
        diffs = np.diff(ws)
        checked += len(diffs)
        if parity is Parity.ODD:
            for i in np.nonzero(diffs > tol)[0]:
                violations.append((j_idx + 1, ks[i + 1]))
        else:
            pos = np.nonzero(diffs > tol)[0]
            flip = pos[0] if len(pos) else len(diffs)
            if flip < len(diffs):
                flip_ks[j_idx + 1] = 0.5 * (ks[flip] + ks[flip + 1])
            for i in range(flip, len(diffs)):
                if diffs[i] < -tol:
                    violations.append((j_idx + 1, ks[i + 1]))
    return MonotonicityReport(violations=violations, checked=checked, flip_ks=flip_ks)


def table_minimum(table, band=1):
    """(k*, omega*) of one band from the table, parabola-refined at the argmin."""
    ks, ws = table.ks, table.omega[band - 1]
    i = int(np.argmin(ws))
    if i == 0 or i == len(ws) - 1:
        return float(ks[i]), float(ws[i])
    # parabola through the three samples around the discrete argmin
    p = np.polyfit(ks[i - 1:i + 2] - ks[i], ws[i - 1:i + 2], 2)
    offset = -p[1] / (2.0 * p[0])   # of the vertex from ks[i]
    w_star = np.polyval(p, offset)
    return float(offset + ks[i]), float(w_star)
