"""Spectral-window machinery: delta0 search, Mourre constants, edge currents,
perturbation budgets, and the coarse 2D cross-check."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from magbarrier import bands, mourre
from magbarrier.errors import ConfigurationError, InvariantViolation, NumericalError

# Frozen pipeline values (n=1 and n=2 windows at b=1, E mid-window).
D0_N1 = 0.8174307186
C1_N1 = 0.79456173
D0_N2 = 0.7234910956
C2_N2 = 0.92409972
LEVEL2_MIN = 2.634859402292   # second even-band minimum (precise solver)


@pytest.fixture(scope="module")
def table_b1():
    return bands.trace(1.0, -4.0, 6.0, n_bands=5, base_samples=81, refine=True)


@pytest.fixture(scope="module")
def table_b4():
    return bands.trace(4.0, -8.0, 12.0, n_bands=5, base_samples=81, refine=True)


@pytest.fixture(scope="module")
def table_b25():
    return bands.trace(25.0, -20.0, 30.0, n_bands=5, base_samples=81, refine=True)


@pytest.fixture(scope="module")
def e_mid(table_b1):
    return 0.5 * (1.0 + bands.table_minimum(table_b1, 3)[1])


@pytest.fixture(scope="module")
def report_b1(table_b1, e_mid):
    return mourre.window_report(1, e_mid, 1.0, table_b1)


@pytest.fixture(scope="module")
def report_n2(table_b1):
    e2 = 0.5 * (3.0 + bands.table_minimum(table_b1, 5)[1])
    return mourre.window_report(2, e2, 1.0, table_b1)


def test_distance_cap_readings():
    hi = LEVEL2_MIN
    # the cap is the larger of the two gaps, from either side
    assert mourre.distance_cap(1, 1.2, 1.0, hi) == pytest.approx(hi - 1.2, abs=1e-12)
    assert mourre.distance_cap(1, 2.5, 1.0, hi) == pytest.approx(1.5, abs=1e-12)
    # at the exact midpoint both gaps agree
    mid = 0.5 * (1.0 + hi)
    assert mourre.distance_cap(1, mid, 1.0, hi) == pytest.approx(mid - 1.0, abs=1e-12)


def test_window_ceiling_is_the_resolved_table_minimum(table_b1):
    assert mourre.window_ceiling(1, 1.0, table_b1) \
        == bands.table_minimum(table_b1, 3)[1]
    assert mourre.window_ceiling(2, 1.0, table_b1) \
        == bands.table_minimum(table_b1, 5)[1]
    # band 3's minimum at k = 1.62 is past this trace: an end sample
    short = bands.trace(1.0, -4.0, 0.5, n_bands=3, base_samples=11, refine=True)
    with pytest.raises(ConfigurationError, match="trace more samples"):
        mourre.window_ceiling(1, 1.0, short)


def test_find_delta0_mid_window(table_b1, e_mid):
    d0 = mourre.find_delta0(1, e_mid, 1.0, table_b1)
    hi = bands.table_minimum(table_b1, 3)[1]
    cap = mourre.distance_cap(1, e_mid, 1.0, hi)
    assert 0.0 < d0 < cap
    assert abs(d0 - D0_N1) < 1e-6
    # doubled window stays inside the spectral window
    assert 1.0 < e_mid - d0 and e_mid + d0 < hi
    # emptiness for the bands past 2n, checked at sample level
    for j in (3, 4, 5):
        assert table_b1.omega[j - 1].min() > e_mid + d0
    # slightly larger delta0 would push the doubled window past the top
    assert e_mid + 1.02 * d0 > hi


def test_find_delta0_shrinks_near_endpoints(table_b1, e_mid):
    d_mid = mourre.find_delta0(1, e_mid, 1.0, table_b1)
    d_low = mourre.find_delta0(1, 1.3, 1.0, table_b1)
    d_high = mourre.find_delta0(1, 2.5, 1.0, table_b1)
    hi = bands.table_minimum(table_b1, 3)[1]
    assert d_low < d_mid and d_high < d_mid
    assert d_low == pytest.approx(0.3, abs=2e-2)       # lower-edge bound E - e_1
    assert d_high <= hi - 2.5                          # upper-edge bound


def test_find_delta0_errors(table_b1):
    with pytest.raises(ConfigurationError):
        mourre.find_delta0(1, 0.9, 1.0, table_b1)      # below the window
    with pytest.raises(ConfigurationError):
        mourre.find_delta0(1, 2.7, 1.0, table_b1)      # above the window
    # E barely inside: no certifiable positive delta0 at this resolution
    with pytest.raises(NumericalError):
        mourre.find_delta0(1, 1.0 + 1e-12, 1.0, table_b1)


def test_find_delta0_b_invariance(table_b1, table_b4, e_mid):
    d1 = mourre.find_delta0(1, e_mid, 1.0, table_b1)
    d4 = mourre.find_delta0(1, 4.0 * e_mid, 4.0, table_b4)
    assert abs(d1 - d4) < 1e-6


def test_report_invariants(report_b1, e_mid):
    rep = report_b1
    assert rep.window.delta == pytest.approx(D0_N1, abs=1e-6)
    assert rep.window.n == 1 and rep.window.b == 1.0
    lo_e, hi_e = rep.window.interval()
    assert lo_e == pytest.approx(e_mid - rep.window.delta / 2.0, abs=1e-12)
    assert len(rep.preimages) == 2
    (j1, l1, r1), (j2, l2, r2) = rep.preimages
    assert (j1, j2) == (1, 2)
    assert l1 < r1 < l2 < r2
    assert all(c > 0.0 for c in rep.c_per_band)
    assert rep.c_n == min(rep.c_per_band)
    assert abs(rep.c_n - C1_N1) < 2e-3


def test_report_n2(report_n2):
    rep = report_n2
    assert rep.window.delta == pytest.approx(D0_N2, abs=1e-4)
    assert abs(rep.c_n - C2_N2) < 2e-3
    assert len(rep.preimages) == 4
    ends = [p for tup in rep.preimages for p in (tup[1], tup[2])]
    assert ends == sorted(ends)   # disjoint and ordered
    # the constant comes from the last band's tail-side preimage here
    assert rep.c_per_band.index(rep.c_n) == 3


def test_c_n_b_invariance(table_b1, table_b4, table_b25, e_mid):
    r1 = mourre.window_report(1, e_mid, 1.0, table_b1)
    r4 = mourre.window_report(1, 4.0 * e_mid, 4.0, table_b4)
    r25 = mourre.window_report(1, 25.0 * e_mid, 25.0, table_b25)
    assert abs(r1.c_n - r4.c_n) < 1e-4
    assert abs(r1.c_n - r25.c_n) < 1e-4
    # preimages agree in scaled units too
    for (j1, l1, rr1), (j25, l25, rr25) in zip(r1.preimages, r25.preimages):
        assert j1 == j25
        assert abs(l1 - l25 / 5.0) < 1e-4
        assert abs(rr1 - rr25 / 5.0) < 1e-4


def test_mourre_constant_custom_window(table_b1, e_mid, report_b1):
    # a narrower window has a no-smaller constant (infimum over a subset)
    narrow = mourre.EnergyWindow(n=1, E=e_mid,
                                 delta=0.5 * report_b1.window.delta, b=1.0)
    rep = mourre.mourre_constant(narrow, table_b1)
    assert rep.c_n >= report_b1.c_n - 1e-9
    assert rep.window == narrow


def test_f_n_formula():
    for delta in (0.0, 0.05, 0.3, 1.7):
        assert mourre.f_n(delta, 0.0, 0.0, 1) == delta
        assert mourre.f_n(delta, 0.0, 0.0, 3) == delta
    # hand-expanded value at (0.1, 0.01, 0.01), n=1
    expected = 0.1 + 0.01 + 2.0 * 0.1 * (0.3 + math.sqrt(3.0 + 0.1 + 0.01))
    assert mourre.f_n(0.1, 0.01, 0.01, 1) == pytest.approx(expected, rel=1e-15)
    # monotone increasing in each argument
    grid = [0.0, 0.01, 0.1, 0.5]
    for hold in grid:
        vals_d = [mourre.f_n(g, hold, hold, 2) for g in grid]
        vals_a = [mourre.f_n(hold, g, hold, 2) for g in grid]
        vals_q = [mourre.f_n(hold, hold, g, 2) for g in grid]
        for seq in (vals_d, vals_a, vals_q):
            assert all(x < y for x, y in zip(seq, seq[1:]))


def test_F_nE_formula():
    delta0, c_n = 0.4, 0.7
    for delta in (0.01, 0.1, 0.3):
        expected = (delta / delta0) ** 2 + (2.0 / c_n) * (
            math.sqrt(2 * 1 + 1 + delta) * math.sqrt(delta / delta0))
        assert mourre.F_nE(delta, 0.0, 0.0, 1, delta0, c_n) == pytest.approx(
            expected, rel=1e-14)
    # increasing in each perturbation argument
    base = mourre.F_nE(0.05, 1e-4, 1e-4, 1, delta0, c_n)
    assert mourre.F_nE(0.05, 2e-4, 1e-4, 1, delta0, c_n) > base
    assert mourre.F_nE(0.05, 1e-4, 2e-4, 1, delta0, c_n) > base
    # for small delta and zero perturbation, F drops below 1/2
    assert mourre.F_nE(1e-3 * delta0, 0.0, 0.0, 1, delta0, c_n) < 0.5


def test_perturbation_budget(report_b1, e_mid):
    bud = mourre.perturbation_budget(report_b1)
    assert bud.a_star > 0.0 and bud.q_star > 0.0
    assert bud.F_value < 0.5
    # recomputed F at the recorded point stays under 1/2
    assert mourre.F_nE(bud.delta, bud.a_star, bud.q_star, 1,
                       report_b1.window.delta, report_b1.c_n) < 0.5
    # the q bound is tight: 5% more q is infeasible for every delta below delta0
    deltas = np.geomspace(report_b1.window.delta * 1e-6,
                          report_b1.window.delta * (1.0 - 1e-9), 64)
    worst = min(mourre.F_nE(d, bud.a_star, 1.05 * bud.q_star, 1,
                            report_b1.window.delta, report_b1.c_n) for d in deltas)
    assert worst >= 0.5


@pytest.mark.parametrize("n", [1, 2])
def test_budget_delta_is_the_smallest_tested(report_b1, report_n2, n):
    # F increases in delta, so the budget sits at the bottom of (0, delta0)
    report = report_b1 if n == 1 else report_n2
    bud = mourre.perturbation_budget(report)
    assert bud.delta == report.window.delta * 1e-6
    values = [mourre.F_nE(d, bud.a_star, bud.q_star, n, report.window.delta,
                          report.c_n)
              for d in np.geomspace(bud.delta, report.window.delta, 16)]
    assert values == sorted(values) and values[0] == bud.F_value


def test_budget_b_invariance_and_n2(report_b1, report_n2, table_b4, e_mid):
    bud1 = mourre.perturbation_budget(report_b1)
    rep4 = mourre.window_report(1, 4.0 * e_mid, 4.0, table_b4)
    bud4 = mourre.perturbation_budget(rep4)
    assert abs(bud1.a_star - bud4.a_star) <= 1e-3 * bud1.a_star
    assert abs(bud1.q_star - bud4.q_star) <= 1e-3 * bud1.q_star
    bud2 = mourre.perturbation_budget(report_n2)
    assert bud2.a_star > 0.0 and bud2.q_star > 0.0 and bud2.F_value < 0.5


def test_budget_shrinks_with_delta0(report_b1, table_b1, e_mid):
    bud_mid = mourre.perturbation_budget(report_b1)
    rep_edge = mourre.window_report(1, 2.55, 1.0, table_b1)
    assert rep_edge.window.delta < 0.2 * report_b1.window.delta
    bud_edge = mourre.perturbation_budget(rep_edge)
    assert bud_edge.a_star * bud_edge.q_star < bud_mid.a_star * bud_mid.q_star
    # a degenerate constant empties the feasible grid region
    broken = mourre.MourreReport(window=report_b1.window,
                                 preimages=report_b1.preimages,
                                 c_per_band=(1e-7,), c_n=1e-7)
    with pytest.raises(InvariantViolation):
        mourre.perturbation_budget(broken)


def test_edge_current_gaussian_oracle(report_b1, table_b1):
    j_band, left, right = report_b1.preimages[0]
    width = right - left
    ks = np.linspace(left + 0.05 * width, right - 0.05 * width, 32769)
    center, spread = left + 0.5 * width, 0.1 * width
    beta = np.exp(-((ks - center) / spread) ** 2 / 2.0) * np.exp(0.3j * ks)
    state = mourre.FiberState(
        components=(mourre.component_from_beta(j_band, ks, beta),),
        report=report_b1)
    j_val = mourre.edge_current_fiber(state, table_b1)
    tab_k, tab_d = table_b1.ks, table_b1.domega_fh[j_band - 1]

    def integrand(k):
        amp2 = math.exp(-((k - center) / spread) ** 2)
        return amp2 * (-np.interp(k, tab_k, tab_d))

    knots = [float(k) for k in tab_k if ks[0] < k < ks[-1]]
    oracle, err = quad(integrand, ks[0], ks[-1], limit=500, points=knots,
                       epsabs=1e-13, epsrel=1e-12)
    assert abs(j_val - oracle) <= 1e-6 * abs(oracle)
    assert j_val >= 0.5 * report_b1.c_n * state.norm2()


def test_edge_current_200_random_states(report_b1, report_n2, table_b1):
    rng = np.random.default_rng(20260817)
    for rep in (report_b1, report_n2):
        b = rep.window.b
        for _ in range(200):
            state = mourre.random_state(rep, rng)
            j_val = mourre.edge_current_fiber(state, table_b1)  # asserts bound
            assert j_val >= 0.5 * rep.c_n * math.sqrt(b) * state.norm2()


def test_edge_current_concentration(report_b1, table_b1):
    j_band, left, right = report_b1.preimages[0]
    dense = np.linspace(left, right, 4001)
    vel = -np.interp(dense, table_b1.ks, table_b1.domega_fh[j_band - 1])
    k_star, v_max = dense[int(np.argmax(vel))], float(vel.max())
    ratios = []
    for spread in (0.3, 0.1, 0.03):
        s = spread * (right - left)
        ks = np.linspace(max(left, k_star - 4 * s), min(right, k_star + 4 * s), 801)
        beta = np.exp(-((ks - k_star) / s) ** 2 / 2.0)
        state = mourre.FiberState(
            components=(mourre.component_from_beta(j_band, ks, beta),),
            report=report_b1)
        ratios.append(mourre.edge_current_fiber(state, table_b1) / state.norm2())
    assert ratios[0] < ratios[1] < ratios[2] <= v_max + 1e-9
    assert abs(ratios[-1] - v_max) < 0.02 * v_max


def test_edge_current_two_band_linearity(report_b1, table_b1):
    rng = np.random.default_rng(11)
    state = mourre.random_state(report_b1, rng)
    assert len(state.components) == 2
    parts = [mourre.FiberState(components=(c,), report=report_b1)
             for c in state.components]
    j_parts = [mourre.edge_current_fiber(p, table_b1) for p in parts]
    assert mourre.edge_current_fiber(state, table_b1) == j_parts[0] + j_parts[1]


def test_free_evolution_exact_invariance(report_b1, table_b1):
    rng = np.random.default_rng(5)
    state = mourre.random_state(report_b1, rng)
    j0 = mourre.edge_current_fiber(state, table_b1)
    for t in (0.5, -2.3, 1717.25):
        evolved = mourre.evolve_free(state, t, table_b1)
        assert mourre.edge_current_fiber(evolved, table_b1) == j0
        assert evolved.norm2() == state.norm2()


def test_fiber_state_support_guards(report_b1, table_b1):
    j_band, left, right = report_b1.preimages[0]
    ks_bad = np.linspace(left, right + 0.05 * (right - left), 64)
    comp = mourre.component_from_beta(j_band, ks_bad, np.ones(64))
    with pytest.raises(ConfigurationError):
        mourre.edge_current_fiber(
            mourre.FiberState(components=(comp,), report=report_b1), table_b1)
    stray = mourre.component_from_beta(5, np.linspace(0.5, 0.6, 8), np.ones(8))
    with pytest.raises(ConfigurationError):
        mourre.edge_current_fiber(
            mourre.FiberState(components=(stray,), report=report_b1), table_b1)


def test_edge_current_2d_free_matches_fiber(report_b1, table_b1):
    res = mourre.edge_current_2d(1.0, None, None, report_b1.window, report_b1)
    assert res.passed
    assert len(res.energies) >= 3
    assert all(j >= res.bound - res.slack for j in res.currents)
    # fiber oracle at the box's discrete momenta
    lx, ly = mourre._grid_2d(report_b1, None, None)
    hy = ly / 128
    lo_e, hi_e = report_b1.window.interval()
    predictions = []
    for m in range(-64, 64):
        k = 2.0 * math.pi * m / ly
        kappa = math.sin(k * hy) / hy
        mu = 2.0 * (1.0 - math.cos(k * hy)) / hy ** 2
        for j_band, left, right in report_b1.preimages:
            if left - 0.2 <= kappa <= right + 0.2:
                omega = float(np.interp(kappa, table_b1.ks,
                                        table_b1.omega[j_band - 1]))
                energy = omega + (mu - kappa * kappa)
                if lo_e <= energy <= hi_e:
                    vel = -float(np.interp(kappa, table_b1.ks,
                                           table_b1.domega_fh[j_band - 1]))
                    predictions.append((energy, vel / 2.0))
    assert predictions
    for energy, current in zip(res.energies, res.currents):
        best = min(predictions, key=lambda p: abs(p[0] - energy))
        assert abs(best[0] - energy) < 0.02
        assert abs(best[1] - current) <= 0.05 * best[1]


def test_edge_current_2d_perturbed_and_guards(report_b1, e_mid):
    bud = mourre.perturbation_budget(report_b1)
    _, ly = mourre._grid_2d(report_b1, None, None)
    amp = 0.5 * bud.q_star  # b = 1, inside the budget

    def q_func(x, y):
        return amp * math.cos(2.0 * math.pi * y / ly) * math.exp(-x * x)

    res = mourre.edge_current_2d(1.0, None, q_func, report_b1.window, report_b1)
    assert res.passed
    with pytest.raises(ConfigurationError):
        mourre.edge_current_2d(1.0, 0.3, None, report_b1.window, report_b1)
    with pytest.raises(ConfigurationError):
        mourre.edge_current_2d(1.0, None, None, report_b1.window, report_b1,
                               nx=128)
    empty = mourre.EnergyWindow(n=1, E=e_mid, delta=1e-9, b=1.0)
    with pytest.raises(NumericalError):
        mourre.edge_current_2d(1.0, None, None, empty, report_b1)
