"""Asymptotic regimes of the band functions.

Deep on the barrier side (k << 0) the effective potential straightens into a
linear wedge and the bands follow Airy-zero predictions with an explicit,
(k,b)-independent error constant. On the open side (k >> 0) each even/odd
pair collapses onto a Landau level with exponentially small parity splitting.
The open-side gaps fall below double precision within a few magnetic lengths
past the minima, so that regime runs a dedicated high-precision path:
an Agmon-sized box, extended-precision Sturm bisection, and two-step
Richardson extrapolation.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bands, fiber, specfun
from .errors import ConfigurationError, NumericalError
from .fiber import Parity
from .specfun import AiryKind
from .tridiag import bisect_eigenvalue, richardson3

SPLITTING_FLOOR_FACTOR = 1e-13   # times b: below this a splitting is noise
RATE_SLACK = 0.05            # on the -1/4 upper-bound slope
AGMON_BUDGET = 22.0          # weight in the wall placement for precise solves
PRECISE_LEVELS = (1500, 3000, 6000)


def _airy_kind_for_band(j):
    """Even-parity bands probe zeros of Ai', odd-parity bands zeros of Ai."""
    parity, _ = Parity.of_band(j)
    return AiryKind.ZERO_OF_AI_PRIME if parity is Parity.EVEN else AiryKind.ZERO_OF_AI


@dataclass(frozen=True)
class AiryPrediction:
    """Wedge-model level and its error budget for one band at one k."""

    j: int
    k: float
    b: float
    kind: AiryKind
    predicted: float
    bound: float


@dataclass(frozen=True)
class AiryCheck:
    """Measured band energy against the wedge-model prediction."""

    prediction: AiryPrediction
    omega: float
    measured_error: float
    passed: bool


@dataclass(frozen=True)
class SplitSample:
    """One high-precision sample of a pair's gaps."""

    k: float
    gap_plus: float
    gap_minus: float
    splitting: float


@dataclass(frozen=True)
class SplittingFit:
    """Log-linear decay fit of the parity splitting against k^2/b."""

    rate: float
    r2: float
    passed: bool
    floor: float
    samples: tuple          # every SplitSample, retained or not
    retained: tuple         # the SplitSamples above the floor


def airy_prediction(b, k, j):
    """Wedge-model prediction k^2 - (2b|k|)^{2/3} z and its error bound.

    The bound is D * b^{4/3} (2|k|)^{-2/3} with D^2 the fourth moment of the
    squared Airy eigenfunction over its normalization — independent of (k,b).
    k < 0 and b > 0. A k^2 or b^{4/3} outside the float range leaves no bound
    to test against.
    """
    if not math.isfinite(k * k):
        raise NumericalError(f"k^2 overflows at k={k:g}")
    kind = _airy_kind_for_band(j)
    consts = specfun.airy_constants(kind, Parity.of_band(j)[1])
    sigma2 = (2.0 * b * abs(k)) ** (2.0 / 3.0)
    predicted = k * k - sigma2 * consts.z
    try:
        bound = consts.D * b ** (4.0 / 3.0) * (2.0 * abs(k)) ** (-2.0 / 3.0)
    except OverflowError:
        raise NumericalError(f"airy error bound overflows at b={b:g}") from None
    if not bound > 0.0:
        raise NumericalError(f"airy error bound underflows at b={b:g}, k={k:g}")
    return AiryPrediction(j=j, k=float(k), b=float(b), kind=kind,
                          predicted=predicted, bound=bound)


def _neighbor_spacing(pred):
    """Distance from this prediction to the nearest neighbor band's."""
    j, k, b = pred.j, pred.k, pred.b
    gaps = []
    if j > 1:
        gaps.append(abs(pred.predicted - airy_prediction(b, k, j - 1).predicted))
    gaps.append(abs(airy_prediction(b, k, j + 1).predicted - pred.predicted))
    return min(gaps)


def airy_check(b, k, j):
    """Measure |omega_j(k) - prediction| against the wedge-model bound.

    Requires the bound to be smaller than the spacing to the neighboring
    predictions; otherwise the bound says nothing about this band and the
    check refuses to run. Neighbors that coincide in float64, where k^2 has
    absorbed the Airy term, are a resolution limit instead.
    """
    pred = airy_prediction(b, k, j)
    spacing = _neighbor_spacing(pred)
    if not spacing > 0.0:
        raise NumericalError(
            f"k={k:g} is past the float64 resolution of the wedge model: "
            f"k^2 absorbs the Airy term, so neighbor predictions coincide")
    if not pred.bound < spacing:
        raise ConfigurationError(
            f"|k|={abs(k):g} is not deep enough in the wedge regime: bound "
            f"{pred.bound:.3g} >= neighbor spacing {spacing:.3g}"
        )
    omega = fiber.refined([pair.omega for pair in fiber.band(b, k, j, refine=True)])
    measured = abs(omega - pred.predicted)
    return AiryCheck(prediction=pred, omega=omega,
                     measured_error=measured, passed=bool(measured <= pred.bound))


def _precise_box(b, k, pair_j):
    """Wall placement for the open-side high-precision solve.

    The pair's states sit in a well centered at k/b; the wall goes far enough
    past the turning point that the Agmon weight kills the truncation error
    below extended-precision resolution. A level is read only at a k past
    kappa_j + b^(1/2) > 0, which omega_pair_precise checks first.
    """
    center = k / b
    width = (math.sqrt(2.0 * AGMON_BUDGET) + math.sqrt(2.0 * pair_j + 1.0))
    return center + width / math.sqrt(b)


def _precise_eigenvalue(b, k, parity, index, L, N, seed, vector):
    """Eigenvalue `index` of the parity sector in extended precision.

    seed and vector are a float64 eigenpair of the same sector. The bracket
    is centred on their Rayleigh quotient against the long-double stencil,
    which carries the seed's error down to long-double rounding. It starts
    at eps/2 times a bound on the stencil's norm, about twice the centre's
    error; bisect_eigenvalue moves an end that does not hold out, at most
    to 1e-6 max(1, |seed|) from the centre.
    """
    ld = np.longdouble
    d, e, _ = fiber.stencil(b, k, parity, L, N, dtype=ld)
    s = ld(seed)
    x = vector.astype(ld)
    y = (d - s) * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    centre = s + np.dot(x, y) / np.dot(x, x)
    widest = 1e-6 * max(1.0, abs(seed))
    radius = min(0.5 * np.finfo(ld).eps * (np.abs(d).max() + 2 * np.abs(e).max()),
                 ld(widest))
    return bisect_eigenvalue(d, e * e, index, centre - radius, centre + radius,
                             widest)


def _precise_level(b, j, unit):
    """Extended-precision omega of pair j in one (k, parity, N) unit.

    A float64 eigenpair seeds the bracket of the long-double bisection.
    """
    k, parity, N = unit
    L = _precise_box(b, k, j)
    w, v, _ = fiber.eigenpairs(b, k, parity, L, N, j - 1, j - 1)
    return _precise_eigenvalue(b, k, parity, j - 1, L, N, w[0], v[:, 0])


def omega_pair_precise(b, j, ks, jobs):
    """[(omega_plus, omega_minus)] of pair j at each k of ks, in extended
    precision.

    Solves both parity sectors on an Agmon-sized box at three grid steps and
    extrapolates twice, so gap structure is resolved down to the extended
    floating-point floor rather than double roundoff. The (k, parity, N)
    solves are independent: jobs > 1 runs them on up to that many forked
    worker processes, largest grids first so that no worker finishes on a
    long solve alone, and the pairs are the same, bit for bit, at every jobs.

    Samples must start past kappa_j + b^(1/2). As find_minimum asserts
    kappa_j^2 < (2j-1)b, a start at or past sqrt((2j-1)b) + b^(1/2) passes
    without kappa_j; below it kappa_j is solved first. A k whose square, or
    whose box's squared coarsest step, leaves the float range has no precise
    solve and is refused next. Both refusals come before the pool opens.
    """
    start, root_b = min(ks), math.sqrt(b)
    if start < math.sqrt((2 * j - 1) * b) + root_b:
        entry = bands.find_minimum(j, b).kappa + root_b
        if start < entry:
            raise ConfigurationError(
                f"samples must start past kappa_{j} + b^(1/2) = {entry:.6g}"
            )
    for k in ks:
        h = _precise_box(b, k, j) / PRECISE_LEVELS[0]
        if not (math.isfinite(k * k) and math.isfinite(h * h)):
            raise NumericalError(
                f"k={k:g} leaves the float range of the precise solve at "
                f"b={b:g}; use smaller k")
    parities = (Parity.EVEN, Parity.ODD)
    units = sorted(dict.fromkeys((k, parity, N) for k in ks for parity in parities
                                 for N in PRECISE_LEVELS),
                   key=lambda unit: -unit[2])
    with bands._k_map(jobs) as k_map:
        levels = dict(zip(units, k_map(functools.partial(_precise_level, b, j),
                                       units)))
    return [tuple(float(richardson3(*(levels[k, parity, N] for N in PRECISE_LEVELS)))
                  for parity in parities)
            for k in ks]


def splitting_fit(b, j, k_samples, jobs=1):
    """Least-squares decay rate of the parity splitting against k^2/b.

    Only the upper-bound consistency is asserted: the fitted slope must not
    exceed -1/4 + 0.05 (the claimed envelope decays like exp(-k^2/(4b));
    the actual splitting falls faster and no lower bound is claimed).
    Samples whose splitting sits below the floating floor carry no sign or
    magnitude information and are excluded, with the retained window kept
    in the result. A line through fewer than 3 distinct k checks nothing
    and is refused before any solve. jobs > 1 runs the precise solves of
    every sample on one pool of forked workers.
    """
    ks = sorted(float(k) for k in k_samples)
    if len(set(ks)) < 3:
        raise ConfigurationError("need at least 3 distinct k for a decay fit")
    pairs = omega_pair_precise(b, j, ks, jobs)
    floor = SPLITTING_FLOOR_FACTOR * b
    level = (2.0 * j - 1.0) * b
    samples = [SplitSample(k=k, gap_plus=level - omega_plus,
                           gap_minus=omega_minus - level,
                           splitting=omega_minus - omega_plus)
               for k, (omega_plus, omega_minus) in zip(ks, pairs)]
    retained = [s for s in samples if s.splitting > floor]
    if len(retained) < 3:
        raise NumericalError(
            f"splitting below the {floor:.3g} floor on all but "
            f"{len(retained)} samples; use smaller k"
        )
    xs = np.array([s.k * s.k / b for s in retained])
    ys = np.array([math.log(s.splitting / b) for s in retained])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    nonneg = all(s.splitting >= 0.0 for s in retained)
    passed = bool(slope <= -0.25 + RATE_SLACK and nonneg)
    return SplittingFit(rate=float(slope), r2=r2, passed=passed, floor=floor,
                        samples=tuple(samples), retained=tuple(retained))
