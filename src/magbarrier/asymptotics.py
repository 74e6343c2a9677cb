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

    def __post_init__(self):
        if not self.bound > 0.0:
            raise ConfigurationError("airy error bound must be positive")


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
    A b whose b^{4/3} leaves the float range has no bound to test against.
    """
    if not k < 0.0:
        raise ConfigurationError("the wedge regime needs k < 0")
    if b <= 0.0:
        raise ConfigurationError("field strength must be positive")
    kind = _airy_kind_for_band(j)
    consts = specfun.airy_constants(kind, Parity.of_band(j)[1])
    sigma2 = (2.0 * b * abs(k)) ** (2.0 / 3.0)
    predicted = k * k - sigma2 * consts.z
    try:
        bound = consts.D * b ** (4.0 / 3.0) * (2.0 * abs(k)) ** (-2.0 / 3.0)
    except OverflowError:
        raise NumericalError(f"airy error bound overflows at b={b:g}") from None
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
    pair = fiber.band(b, k, j, _wedge_resolution(b, k, j), refine=True)
    measured = abs(pair.omega - pred.predicted)
    return AiryCheck(prediction=pred, omega=pair.omega,
                     measured_error=measured, passed=bool(measured <= pred.bound))


def _precise_box(b, k, pair_j):
    """Wall placement for the open-side high-precision solve.

    The pair's states sit in a well centered at k/b; the wall goes far enough
    past the turning point that the Agmon weight kills the truncation error
    below extended-precision resolution.
    """
    if not k > 0.0:
        raise ConfigurationError("the open-side path needs k > 0")
    center = k / b
    width = (math.sqrt(2.0 * AGMON_BUDGET) + math.sqrt(2.0 * pair_j + 1.0))
    return center + width / math.sqrt(b)


def _precise_eigenvalue(b, k, parity, index, L, N, seed):
    """Eigenvalue `index` of the parity sector in extended precision."""
    ld = np.longdouble
    d, e = fiber.stencil(b, k, parity, L, N, dtype=ld)
    lo = ld(seed) - ld(1e-6) * max(1.0, abs(seed))
    hi = ld(seed) + ld(1e-6) * max(1.0, abs(seed))
    return bisect_eigenvalue(d, e * e, index, lo, hi)


def omega_pair_precise(b, k, j):
    """(omega_plus, omega_minus) of pair j in extended precision.

    Solves both parity sectors on an Agmon-sized box at three grid steps and
    extrapolates twice, so gap structure is resolved down to the extended
    floating-point floor rather than double roundoff. A k whose square, or
    whose box's squared coarsest step, leaves the float range is refused
    before any stencil is formed.
    """
    L = _precise_box(b, k, j)
    h = L / PRECISE_LEVELS[0]
    if not (math.isfinite(k * k) and math.isfinite(h * h)):
        raise NumericalError(
            f"k={k:g} leaves the float range of the precise solve at b={b:g}; "
            "use smaller k")
    out = []
    for parity in (Parity.EVEN, Parity.ODD):
        values = []
        for N in PRECISE_LEVELS:
            d, e = fiber.stencil(b, k, parity, L, N)
            try:
                seed = eigh_tridiagonal(d, e, select="i", select_range=(j - 1, j - 1),
                                        check_finite=False, eigvals_only=True)[0]
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"precise seed eigensolve failed at b={b:g}, k={k:g}: "
                    f"{exc}") from None
            values.append(_precise_eigenvalue(b, k, parity, j - 1, L, N, seed))
        out.append(float(richardson3(*values)))
    return out[0], out[1]


_KAPPA_CACHE = {}


def _kappa(j, b):
    key = (j, float(b))
    if key not in _KAPPA_CACHE:
        _KAPPA_CACHE[key] = bands.find_minimum(j, b).kappa
    return _KAPPA_CACHE[key]


def splitting_fit(b, j, k_samples, kappa=None):
    """Least-squares decay rate of the parity splitting against k^2/b.

    Only the upper-bound consistency is asserted: the fitted slope must not
    exceed -1/4 + 0.05 (the claimed envelope decays like exp(-k^2/(4b));
    the actual splitting falls faster and no lower bound is claimed).
    Samples whose splitting sits below the floating floor carry no sign or
    magnitude information and are excluded, with the retained window kept
    in the result.
    """
    kappa = _kappa(j, b) if kappa is None else kappa
    ks = [float(k) for k in k_samples]
    if len(ks) < 3:
        raise ConfigurationError("need at least 3 samples for a decay fit")
    entry = kappa + math.sqrt(b)
    if min(ks) < entry:
        raise ConfigurationError(
            f"samples must start past kappa_{j} + b^(1/2) = {entry:.6g}"
        )
    floor = SPLITTING_FLOOR_FACTOR * b
    samples = []
    for k in sorted(ks):
        omega_plus, omega_minus = omega_pair_precise(b, k, j)
        level = (2.0 * j - 1.0) * b
        samples.append(SplitSample(k=k, gap_plus=level - omega_plus,
                                   gap_minus=omega_minus - level,
                                   splitting=omega_minus - omega_plus))
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
