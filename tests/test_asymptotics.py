"""Asymptotic-regime checks: wedge (Airy) side and oscillator side.

Oracles: Airy moments recomputed by composite Simpson on dense grids; the
wedge-model residual applied analytically through the Airy equation;
oscillator-side splittings cross-checked against the standard double-precision
solver where it can still resolve them, and against anchors frozen from the
extended-precision path (regression guards; the k=5 value is ~1.6e-10, far
below double-solver discretization error, so only the dedicated path sees it).
"""

import itertools
import math
import multiprocessing

import numpy as np
import pytest
from scipy import special

from magbarrier import asymptotics as asym
from magbarrier import bands, fiber, specfun
from magbarrier.errors import ConfigurationError, NumericalError
from magbarrier.fiber import Parity
from magbarrier.specfun import AiryKind

KAPPA_1 = 0.768183653380
Z_AI_1 = -2.33810741045976704
Z_AIP_1 = -1.01879297164747219

# anchors frozen from the extended-precision path (stable across runs)
SPLITTING_K3 = 8.394999e-04
SPLITTING_K4 = 1.017089e-06
SPLITTING_K5 = 1.567989e-10


def simpson_moment(kind, m, power):
    """Independent moment oracle: composite Simpson against scipy's airy."""
    if kind is AiryKind.ZERO_OF_AI:
        z = special.ai_zeros(m)[0][m - 1]
    else:
        z = special.ai_zeros(m)[1][m - 1]
    v = np.linspace(0.0, 25.0 + abs(z), 40001)
    f = v ** power * special.airy(v + z)[0] ** 2
    h = v[1] - v[0]
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum())


def wedge_residual(b, k, j):
    """|| (h(k) - prediction) Psi || for the normalized wedge-model state.

    The kinetic term is applied analytically through the Airy equation, so
    the residual carries no stencil error; it must equal ||b^2 x^2 Psi||
    because the full and wedge operators differ by exactly that multiplier.
    """
    pred = asym.airy_prediction(b, k, j)
    _, m = Parity.of_band(j)
    L, N = fiber._wall(b, k, m)
    h = L / N
    x = np.arange(N) * h
    consts = specfun.airy_constants(pred.kind, m)
    sigma = (2.0 * b * abs(k)) ** (1.0 / 3.0)
    norm_c = math.sqrt(sigma / (2.0 * consts.c))
    t = sigma * x + consts.z
    ai = special.airy(t)[0]
    psi = norm_c * ai

    def half_line_norm(values):
        w = values * values
        return math.sqrt(2.0 * h * (0.5 * w[0] + w[1:].sum()))

    assert abs(half_line_norm(psi) - 1.0) <= 1e-6
    v = (k - b * x) ** 2
    residual = half_line_norm(-norm_c * sigma * sigma * t * ai
                              + (v - pred.predicted) * psi)
    direct = half_line_norm(b * b * x * x * psi)
    assert abs(residual - direct) <= 1e-8 * max(1.0, direct)
    assert residual <= pred.bound * (1.0 + 1e-7)
    return residual


def pair_gaps(b, k, j):
    """(level - omega_plus, omega_minus - level) of pair j at its Landau level.

    Both are positive in exact arithmetic; past a few magnetic lengths the
    true gaps undercut even the extended-precision floor, where the signs
    are no longer meaningful but the magnitudes still are.
    """
    [(omega_plus, omega_minus)] = asym.omega_pair_precise(b, j, [k], jobs=1)
    level = (2.0 * j - 1.0) * b
    return level - omega_plus, omega_minus - level


def test_airy_prediction_zero_selection_and_formula():
    p1 = asym.airy_prediction(1.0, -20.0, 1)
    assert p1.kind is AiryKind.ZERO_OF_AI_PRIME
    assert abs(specfun.airy_zero(p1.kind, 1) - Z_AIP_1) < 1e-12
    sigma2 = (2.0 * 20.0) ** (2.0 / 3.0)
    assert abs(p1.predicted - (400.0 - sigma2 * Z_AIP_1)) < 1e-10
    p2 = asym.airy_prediction(1.0, -20.0, 2)
    assert p2.kind is AiryKind.ZERO_OF_AI
    assert abs(specfun.airy_zero(p2.kind, 1) - Z_AI_1) < 1e-12
    assert asym.airy_prediction(1.0, -20.0, 3).kind is AiryKind.ZERO_OF_AI_PRIME
    assert asym.airy_prediction(1.0, -20.0, 4).kind is AiryKind.ZERO_OF_AI
    # interlacing of the predictions mirrors the band order
    preds = [asym.airy_prediction(1.0, -20.0, j).predicted for j in range(1, 5)]
    assert all(a < b for a, b in zip(preds, preds[1:]))


def test_airy_bound_constant_matches_simpson_oracle():
    for j, kind, m in ((1, AiryKind.ZERO_OF_AI_PRIME, 1), (2, AiryKind.ZERO_OF_AI, 1)):
        d_oracle = math.sqrt(simpson_moment(kind, m, 4) / simpson_moment(kind, m, 0))
        p = asym.airy_prediction(1.0, -20.0, j)
        bound_oracle = d_oracle * (2.0 * 20.0) ** (-2.0 / 3.0)
        assert abs(p.bound - bound_oracle) <= 1e-8 * bound_oracle


def test_airy_check_passes_for_first_bands():
    c1 = asym.airy_check(1.0, -20.0, 1)
    assert c1.passed
    assert 0.0 < c1.measured_error <= c1.prediction.bound
    c2 = asym.airy_check(1.0, -20.0, 2)
    assert c2.passed
    assert c1.prediction.j == 1 and c1.prediction.k == -20.0


def test_airy_error_scales_like_k_to_minus_two_thirds():
    e20 = asym.airy_check(1.0, -20.0, 1).measured_error
    e40 = asym.airy_check(1.0, -40.0, 1).measured_error
    ratio = e20 / e40
    target = 2.0 ** (2.0 / 3.0)
    assert abs(ratio - target) <= 0.25 * target


def test_airy_bound_honored_across_fields_and_bands():
    # |k| b^{-1/2} >= 10 entry threshold
    for b, k, j in ((1.0, -15.0, 3), (1.0, -15.0, 4), (4.0, -24.0, 1), (4.0, -24.0, 2)):
        assert asym.airy_check(b, k, j).passed


def test_airy_check_refuses_shallow_k():
    with pytest.raises(ConfigurationError):
        asym.airy_check(1.0, -0.05, 1)


def test_airy_check_past_float_resolution_is_a_numerical_error(monkeypatch):
    # k^2 absorbs (2b|k|)^{2/3} z: every prediction rounds to the same float,
    # so the spacing is 0, and no fiber grid is sized
    def boom(*args, **kwargs):
        raise AssertionError("a fiber grid was sized")

    monkeypatch.setattr(fiber, "_wall", boom)
    for k in (-1e13, -1e150):
        assert asym._neighbor_spacing(asym.airy_prediction(1.0, k, 1)) == 0.0
        with pytest.raises(NumericalError, match="neighbor predictions coincide"):
            asym.airy_check(1.0, k, 1)


def test_airy_residual_saturates_bound():
    for j in (1, 2):
        r = wedge_residual(1.0, -15.0, j)
        p = asym.airy_prediction(1.0, -15.0, j)
        assert abs(r / p.bound - 1.0) <= 1e-6
        assert r > 0.0


def test_ho_check_signs_correct_at_k4():
    gap_plus, gap_minus = pair_gaps(1.0, 4.0, 1)
    assert gap_plus > 0.0 and gap_minus > 0.0


def test_ho_check_second_pair():
    gap_plus, gap_minus = pair_gaps(1.0, 4.0, 2)
    assert 0.0 < gap_plus < 1e-4 and 0.0 < gap_minus < 1e-4


def test_ho_check_deep_regime_gaps_below_1e10():
    gap_plus, gap_minus = pair_gaps(1.0, 8.0, 1)
    assert abs(gap_plus) < 1e-10
    assert abs(gap_minus) < 1e-10


def test_ho_check_monotone_approach():
    plus5, minus5 = pair_gaps(1.0, 5.0, 1)
    plus6, minus6 = pair_gaps(1.0, 6.0, 1)
    assert plus5 > plus6
    assert minus5 > minus6


def test_precise_path_agrees_with_standard_solver():
    # at k=3 the double-precision solver still resolves the pair cleanly
    [(omega_plus, omega_minus)] = asym.omega_pair_precise(1.0, 1, [3.0], jobs=1)
    grids = fiber.first_levels(1.0, 3.0, 2, refine=True)
    omega_even, omega_odd = (fiber.refined([p.omega for p in pairs])
                             for pairs in zip(*grids))
    assert abs(omega_even - omega_plus) <= 1e-8
    assert abs(omega_odd - omega_minus) <= 1e-8
    assert grids[-1][0].j == 1


def test_splitting_fit_rate_and_floor():
    fit = asym.splitting_fit(1.0, 1, np.arange(3.0, 6.01, 0.5))
    assert fit.passed
    assert fit.rate <= -0.20
    assert fit.r2 >= 0.99
    # the k=6 sample sits below the 1e-13 floor and is excluded
    assert len(fit.samples) == 7
    assert len(fit.retained) == 6
    assert (fit.retained[0].k, fit.retained[-1].k) == (3.0, 5.5)
    assert all(s.splitting >= 0.0 for s in fit.retained)
    by_k = {s.k: s.splitting for s in fit.samples}
    assert abs(by_k[3.0] - SPLITTING_K3) <= 1e-4 * SPLITTING_K3
    assert abs(by_k[4.0] - SPLITTING_K4) <= 1e-3 * SPLITTING_K4
    assert abs(by_k[5.0] - SPLITTING_K5) <= 1e-2 * SPLITTING_K5


def test_splitting_fit_oscillator_sandwich():
    fit = asym.splitting_fit(1.0, 1, np.arange(3.0, 5.51, 0.5))
    env = [math.exp(-s.k * s.k / 4.0) for s in fit.retained]
    c_fit = max(max(s.gap_plus, s.gap_minus) / e
                for s, e in zip(fit.retained, env))
    for s, e in zip(fit.retained, env):
        assert 0.0 < s.gap_plus <= 2.0 * c_fit * e
        assert 0.0 < s.gap_minus <= 2.0 * c_fit * e


def test_splitting_fit_scaling_law():
    ks = np.arange(3.0, 5.01, 0.5)
    fit1 = asym.splitting_fit(1.0, 1, ks)
    # power-of-two field: the scaled matrices are exact multiples, so the
    # fit reproduces to the last bit
    fit4 = asym.splitting_fit(4.0, 1, 2.0 * ks)
    assert fit4.rate == pytest.approx(fit1.rate, abs=1e-12)
    # irrational scale factor: reproduction is numerical, not structural
    fit2 = asym.splitting_fit(2.0, 1, math.sqrt(2.0) * ks)
    assert abs(fit2.rate - fit1.rate) <= 1e-3
    assert fit2.passed


def test_splitting_fit_below_floor_raises_range_error():
    with pytest.raises(NumericalError):
        asym.splitting_fit(1.0, 1, [7.0, 7.5, 8.0])


def test_splitting_fit_preconditions(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a solve ran")

    # the refusal comes before the band minimum is located or any pair is
    # solved; seven copies of one k would fit a line through one point
    monkeypatch.setattr(bands, "find_minimum", boom)
    monkeypatch.setattr(asym, "_precise_level", boom)
    for ks in ([3.0, 3.5], [3.0] * 7, [3.0, 3.5, 3.0, 3.5]):
        with pytest.raises(ConfigurationError, match="3 distinct k"):
            asym.splitting_fit(1.0, 1, ks)


def _bits(fit):
    """Every float of a fit as its hex string, so equal means equal bits."""
    fields = [value for s in fit.samples
              for value in (s.k, s.gap_plus, s.gap_minus, s.splitting)]
    return [float(value).hex() for value in (*fields, fit.rate, fit.r2)]


def test_splitting_fit_on_workers_is_bit_identical_to_serial(monkeypatch):
    # samples from k = 3, past sqrt(b) + sqrt(b) = 2, pass the entry check
    # without the band minimum at every jobs
    real, found = bands.find_minimum, []

    def spy(j, b):
        found.append((j, b))
        return real(j, b)

    monkeypatch.setattr(bands, "find_minimum", spy)
    ks = [3.0, 3.5, 4.0]
    serial = asym.splitting_fit(1.0, 1, ks, jobs=1)
    parallel = asym.splitting_fit(1.0, 1, ks, jobs=2)
    assert found == []
    assert _bits(parallel) == _bits(serial)
    assert parallel.passed == serial.passed
    assert multiprocessing.active_children() == []


def test_kappa_sits_below_the_landau_level_bound():
    # find_minimum asserts kappa_j^2 < (2j-1)b, so samples at or past
    # sqrt((2j-1)b) + sqrt(b) start past kappa_j + sqrt(b) without kappa_j
    for j, b in itertools.product((1, 2, 3), (0.25, 1.0, 4.0)):
        assert bands.find_minimum(j, b).kappa < math.sqrt((2 * j - 1) * b)


def test_precise_worker_error_surfaces_unchanged(monkeypatch):
    real = asym._precise_eigenvalue

    def planted(b, k, parity, index, L, N, seed, vector):
        if parity is Parity.ODD and N == asym.PRECISE_LEVELS[1]:
            raise NumericalError(f"planted at k={k:g}")
        return real(b, k, parity, index, L, N, seed, vector)

    # set before the pool forks, so the workers inherit it
    monkeypatch.setattr(asym, "_precise_eigenvalue", planted)
    messages = []
    for jobs in (1, 2):
        with pytest.raises(NumericalError) as info:
            asym.splitting_fit(1.0, 1, [3.0, 3.5, 4.0], jobs=jobs)
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages == ["planted at k=3"] * 2


def test_find_minimum_kappa_used_when_not_supplied(monkeypatch):
    # samples from k = 1.9, short of the bound sqrt(b) + sqrt(b) = 2: the fit
    # locates the band minimum once and starts its samples past that kappa
    real, found = bands.find_minimum, []

    def spy(j, b, *args, **kwargs):
        found.append(real(j, b, *args, **kwargs))
        return found[-1]

    monkeypatch.setattr(bands, "find_minimum", spy)
    fit = asym.splitting_fit(1.0, 1, [1.9, 3.0, 3.5])
    assert fit.passed
    assert len(found) == 1 and abs(found[0].kappa - KAPPA_1) <= 1e-6
    with pytest.raises(ConfigurationError, match="past kappa_1"):
        asym.splitting_fit(1.0, 1, [found[0].kappa + 0.9, 3.0, 3.5])


def test_minimum_error_surfaces_unchanged_at_every_jobs(monkeypatch):
    def planted(j, b, *args, **kwargs):
        raise NumericalError(f"planted minimum of band {2 * j - 1}")

    # samples short of the bound 2 need kappa_1, solved before the pool
    monkeypatch.setattr(bands, "find_minimum", planted)
    messages = []
    for jobs in (1, 2):
        with pytest.raises(NumericalError) as info:
            asym.splitting_fit(1.0, 1, [1.9, 3.0, 3.5], jobs=jobs)
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages == ["planted minimum of band 1"] * 2


def test_refused_entry_runs_no_precise_solve_serially(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a precise level was solved")

    # the entry check solves kappa_1 for samples short of the bound 2 and
    # refuses them before the pool
    monkeypatch.setattr(asym, "_precise_level", boom)
    for ks in ([1.0, 1.2, 1.4], [1.0, 3.0, 3.5]):
        with pytest.raises(ConfigurationError, match="past kappa_1"):
            asym.splitting_fit(1.0, 1, ks, jobs=1)
    # a range refusal comes after the entry check, and forms no stencil either
    with pytest.raises(NumericalError, match="leaves the float range"):
        asym.splitting_fit(1.0, 1, [3.0, 3.5, 1e200], jobs=1)
