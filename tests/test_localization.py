"""Gaussian envelope and strip-localization checks, with oscillator oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from magbarrier import bands, localization as loc, mourre
from magbarrier.errors import ConfigurationError

KAPPA_1 = 0.768183653380
LEVEL_1 = 0.590106125320


@pytest.fixture(scope="module")
def window_b1():
    table = bands.trace(1.0, -4.0, 6.0, n_bands=3, base_samples=81)
    _, hi = bands.table_minimum(table, 3)
    report = mourre.window_report(1, 0.5 * (1.0 + hi), 1.0, table)
    return table, report


@pytest.fixture(scope="module")
def window_b100():
    table = bands.trace(100.0, -40.0, 60.0, n_bands=3, base_samples=81)
    _, hi = bands.table_minimum(table, 3)
    report = mourre.window_report(1, 0.5 * (100.0 + hi), 100.0, table)
    return table, report


def test_turning_point_values():
    assert loc.turning_point(0.0, 1.0, 1.0) == 1.0
    # at an even-band minimum the energy is the square of the location,
    # so the onset sits at twice the minimum
    assert loc.turning_point(KAPPA_1, 1.0, LEVEL_1) == pytest.approx(
        2.0 * KAPPA_1, rel=1e-9)
    # a barrier-side k clips the orbit center to the barrier
    assert loc.turning_point(-2.0, 1.0, 1.0) == 1.0
    # scaling: x_n at (k sqrt(b), b omega) is the b=1 value over sqrt(b)
    for b in (4.0, 25.0):
        got = loc.turning_point(0.7 * math.sqrt(b), b, b * 2.3)
        assert got == pytest.approx(loc.turning_point(0.7, 1.0, 2.3)
                                    / math.sqrt(b), rel=1e-14)
    with pytest.raises(ConfigurationError):
        loc.turning_point(0.0, 1.0, -0.5)


def test_envelope_values_shape():
    env = loc.envelope_values(1.0, 1.0, np.array([1.0]))
    assert env[0] == pytest.approx((2.0 / math.pi) ** 0.25, rel=1e-15)
    xs = np.array([-2.0, 2.0, 0.0])
    env = loc.envelope_values(3.0, 0.5, xs)
    assert env[0] == env[1]                       # even in x
    # the envelope peaks on the ring |x| = x_n and decays on both sides
    assert env[0] < env[2] < (2.0 * 3.0 / math.pi) ** 0.25


def test_envelope_check_pure_oscillator():
    # at k = 0 the fiber operator is an exact oscillator; the even ground
    # state is the Gaussian pi^{-1/4} e^{-x^2/2}, so the ratio against the
    # envelope is 2^{-1/4} e^{1/2} e^{-x} beyond the onset x_n = 1
    pair = loc._solved_level(1.0, 0.0, 1)
    check = loc.envelope_check(pair)
    assert check.envelope_ok
    assert check.x_n == pytest.approx(1.0, abs=1e-6)
    onset_ratio = 2.0 ** -0.25 * math.exp(-0.5)
    assert onset_ratio - 2e-3 <= check.max_ratio <= onset_ratio + 1e-6
    xs, ratios = loc.ratio_profile(pair)
    window = (xs >= 1.0) & (xs <= 3.0)
    exact = 2.0 ** -0.25 * math.exp(0.5) * np.exp(-xs[window])
    assert np.max(np.abs(ratios[window] - exact)) < 1e-4
    # prefactor bound at the onset point itself
    psi_on = abs(float(np.interp(check.x_n, pair.grid.x, pair.psi)))
    assert psi_on <= (2.0 / math.pi) ** 0.25
    assert check.j == 1 and check.k == 0.0


def test_ratio_profile_monotone_decay():
    for b, k, j in [(1.0, 0.0, 1), (1.0, 0.7, 2), (1.0, -0.5, 1),
                    (1.0, 1.05, 2), (4.0, 1.4, 2)]:
        pair = loc._solved_level(b, k, j)
        _, ratios = loc.ratio_profile(pair)
        assert ratios[0] == ratios.max()
        assert np.all(np.diff(ratios) <= 1e-9 * ratios[:-1])


def test_envelope_check_guards():
    pair = loc._solved_level(1.0, 0.5, 1)
    with pytest.raises(ConfigurationError):
        loc.envelope_check(replace(pair, psi=2.0 * pair.psi))


def test_window_envelope_sweep(window_b1):
    _, report = window_b1
    checks = loc.window_envelope_sweep(report, n_samples=9)
    assert len(checks) == 2 * 9
    assert all(c.envelope_ok for c in checks)
    assert {c.j for c in checks} == {1, 2}
    assert max(c.max_ratio for c in checks) < 1.0


def test_envelope_scaling_b4(window_b1):
    # the b=4 problem at doubled k is the b=1 problem on an exactly halved
    # grid, so the whole ratio profile agrees to rounding
    c1 = loc.envelope_check(loc._solved_level(1.0, 0.7, 2))
    c4 = loc.envelope_check(loc._solved_level(4.0, 1.4, 2))
    assert c4.max_ratio == pytest.approx(c1.max_ratio, rel=1e-9)
    assert c4.x_n == pytest.approx(c1.x_n / 2.0, rel=1e-9)


def test_strip_split_oscillator_oracles():
    # k = 0: the even ground state gives inside = erf(sqrt(b) c), the odd
    # one erf(y) - 2 y e^{-y^2}/sqrt(pi) with y = sqrt(b) c
    for b in (1.0, 100.0):
        pair = loc._solved_level(b, 0.0, 1)
        for y in (0.3, 1.0, 2.5):
            cut = y / math.sqrt(b)
            inside, outside = loc.strip_split(pair, cut)
            assert inside == pytest.approx(float(erf(y)), abs=1e-6)
            assert abs(inside + outside - 1.0) < 1e-10
    pair2 = loc._solved_level(1.0, 0.0, 2)
    y = 0.8
    inside, outside = loc.strip_split(pair2, y)
    oracle = erf(y) - 2.0 * y * math.exp(-y * y) / math.sqrt(math.pi)
    assert inside == pytest.approx(float(oracle), abs=1e-6)
    assert abs(inside + outside - 1.0) < 1e-10


def test_strip_split_edges():
    pair = loc._solved_level(1.0, 0.0, 1)
    inside, outside = loc.strip_split(pair, len(pair.grid.x) * pair.grid.h + 1.0)
    assert inside == pytest.approx(1.0, abs=1e-12) and outside == 0.0
    with pytest.raises(ConfigurationError):
        loc.strip_split(pair, 0.0)
    # splitting exactly on a grid node keeps the partition exact
    on_node = float(pair.grid.x[137])
    inside, outside = loc.strip_split(pair, on_node)
    assert abs(inside + outside - 1.0) < 1e-12


def test_strip_fraction_scale_invariance():
    f1 = loc._strip_fraction(1.0, 0.0, 1, 0.8)
    f25 = loc._strip_fraction(25.0, 0.0, 1, 0.8 / 5.0)
    assert f25 == pytest.approx(f1, abs=1e-9)


def test_strip_mass_b100(window_b100):
    table, report = window_b100
    rng = np.random.default_rng(404)
    for _ in range(12):
        state = loc.normalized_random_state(report, rng)
        inside, bound, passed = loc.strip_mass(state, table, 0.25, 100.0)
        assert passed and inside >= bound
        assert inside <= 1.0 + 1e-9
    assert bound == pytest.approx(1.0 - math.sqrt(2.0) * math.exp(-100.0 ** 0.25),
                                  rel=1e-15)


def test_strip_mass_guards(window_b1, window_b100):
    table1, report1 = window_b1
    table100, _ = window_b100
    rng = np.random.default_rng(3)
    raw = mourre.random_state(report1, rng)     # not normalized
    with pytest.raises(ConfigurationError):
        loc.strip_mass(raw, table1, 0.25, 1.0)
    good = loc.normalized_random_state(report1, rng)
    with pytest.raises(ConfigurationError):
        loc.strip_mass(good, table100, 0.25, 1.0)   # table field mismatch
    for eps in (0.0, 0.5, -0.1):
        with pytest.raises(ConfigurationError):
            loc.strip_mass(good, table1, eps, 1.0)

