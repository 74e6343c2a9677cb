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
from scipy.linalg import eigh_tridiagonal

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
    A k^2 or b^{4/3} outside the float range leaves no bound to test against.
    """
    if not k < 0.0:
        raise ConfigurationError("the wedge regime needs k < 0")
    if not b > 0.0:
        raise ConfigurationError("field strength must be positive")
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


def _wedge_resolution(b, k, j):
    """Grid size for band j on the barrier side.

    The wall estimate carries the k^2 offset, so deep wedge solves outgrow
    the default resolution.
    """
    _, m = Parity.of_band(j)
    return max(fiber.DEFAULT_RESOLUTION,
               fiber.minimum_resolution(b, k, requested_levels=m))


def airy_check(b, k, j):
    """Measure |omega_j(k) - prediction| against the wedge-model bound.

    Requires the bound to be smaller than the spacing to the neighboring
    predictions; otherwise the bound says nothing about this band and the
    check refuses to run.
    """
    pred = airy_prediction(b, k, j)
    spacing = _neighbor_spacing(pred)
    if not pred.bound < spacing:
        raise ConfigurationError(
            f"|k|={abs(k):g} is not deep enough in the wedge regime: bound "
            f"{pred.bound:.3g} >= neighbor spacing {spacing:.3g}"
        )
    omega = fiber.refined([pair.omega for pair in
                           fiber.band(b, k, j, _wedge_resolution(b, k, j), refine=True)])
    measured = abs(omega - pred.predicted)
    return AiryCheck(prediction=pred, omega=omega,
                     measured_error=measured, passed=bool(measured <= pred.bound))


def _precise_box(b, k, pair_j):
    """Wall placement for the open-side high-precision solve.

    The pair's states sit in a well centered at k/b; the wall goes far enough
    past the turning point that the Agmon weight kills the truncation error
    below extended-precision resolution. k > 0, as _range_refusal checks.
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
    d, e = fiber.stencil(b, k, parity, L, N, dtype=ld)
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
    d, e = fiber.stencil(b, k, parity, L, N)
    try:
        w, v = eigh_tridiagonal(d, e, select="i", select_range=(j - 1, j - 1),
                                check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"precise seed eigensolve failed at b={b:g}, k={k:g}: "
            f"{exc}") from None
    return _precise_eigenvalue(b, k, parity, j - 1, L, N, w[0], v[:, 0])


def _range_refusal(b, j, ks):
    """The error that refuses ks before any stencil is formed, or None.

    The open side needs k > 0; a k whose square, or whose box's squared
    coarsest step, leaves the float range has no precise solve.
    """
    for k in ks:
        if not k > 0.0:
            return ConfigurationError("the open-side path needs k > 0")
        h = _precise_box(b, k, j) / PRECISE_LEVELS[0]
        if not (math.isfinite(k * k) and math.isfinite(h * h)):
            return NumericalError(
                f"k={k:g} leaves the float range of the precise solve at "
                f"b={b:g}; use smaller k")
    return None


def _pool_unit(b, j, unit):
    """One unit of the precise pool: kappa_j, the minimum of even band j,
    for None, else the _precise_level of a (k, parity, N) unit."""
    if unit is None:
        return bands.find_minimum(j, b).kappa
    return _precise_level(b, j, unit)


def omega_pair_precise(b, j, ks, jobs, check_kappa=None):
    """[(omega_plus, omega_minus)] of pair j at each k of ks, in extended
    precision.

    Solves both parity sectors on an Agmon-sized box at three grid steps and
    extrapolates twice, so gap structure is resolved down to the extended
    floating-point floor rather than double roundoff. A k that _range_refusal
    refuses forms no stencil. The (k, parity, N) solves are independent:
    jobs > 1 runs them on up to that many forked worker processes, largest
    grids first so that no worker finishes on a long solve alone, and the
    pairs are the same, bit for bit, at every jobs.

    check_kappa, if given, is called in the parent with kappa_j, which the
    pool solves as its first unit, beside the precise solves rather than
    before them. The refusal of ks waits for it, and no level is read before
    it returns; at jobs = 1 no precise solve runs before it.
    """
    refusal = _range_refusal(b, j, ks)
    if refusal is not None and check_kappa is None:
        raise refusal
    parities = (Parity.EVEN, Parity.ODD)
    units = [] if refusal is not None else sorted(
        dict.fromkeys((k, parity, N) for k in ks for parity in parities
                      for N in PRECISE_LEVELS),
        key=lambda unit: -unit[2])
    lead = [] if check_kappa is None else [None]
    with bands._k_map(jobs) as k_map:
        results = k_map(functools.partial(_pool_unit, b, j), lead + units)
        if check_kappa is not None:
            check_kappa(next(results))
        if refusal is not None:
            raise refusal
        levels = dict(zip(units, results))
    return [tuple(float(richardson3(*(levels[k, parity, N] for N in PRECISE_LEVELS)))
                  for parity in parities)
            for k in ks]


def splitting_fit(b, j, k_samples, kappa=None, jobs=1):
    """Least-squares decay rate of the parity splitting against k^2/b.

    Only the upper-bound consistency is asserted: the fitted slope must not
    exceed -1/4 + 0.05 (the claimed envelope decays like exp(-k^2/(4b));
    the actual splitting falls faster and no lower bound is claimed).
    Samples whose splitting sits below the floating floor carry no sign or
    magnitude information and are excluded, with the retained window kept
    in the result. A line through fewer than 3 distinct k checks nothing
    and is refused before any solve, and so are a b or j that find_minimum
    refuses. Without a kappa, the band minimum is the first unit of the
    precise pool; jobs > 1 runs it and the precise solves of every sample
    on one pool of forked workers.
    """
    ks = sorted(float(k) for k in k_samples)
    if len(set(ks)) < 3:
        raise ConfigurationError("need at least 3 distinct k for a decay fit")
    bands.check_minimum_args(j, b)

    def check_entry(kappa):
        entry = kappa + math.sqrt(b)
        if min(ks) < entry:
            raise ConfigurationError(
                f"samples must start past kappa_{j} + b^(1/2) = {entry:.6g}"
            )

    if kappa is None:
        pairs = omega_pair_precise(b, j, ks, jobs, check_kappa=check_entry)
    else:
        check_entry(kappa)
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
