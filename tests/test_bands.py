"""Band tracing, derivative routes, minima, effective masses.

Frozen reference values were produced by an independent high-resolution
bisection solver with Richardson extrapolation (three grid levels) and
bracketed root refinement; they are good to the digit count shown.
"""

import dataclasses
import math
import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from magbarrier import bands, fiber
from magbarrier.errors import ConfigurationError, NumericalError
from magbarrier.fiber import Parity

KAPPA_1 = 0.768183653380
ENERGY_1 = 0.590106125320
KAPPA_2 = 1.623225000514
ENERGY_2 = 2.634859402292
ENERGY_3 = 4.644812754275
BETA_1 = 0.5855127449
PSI0_AT_KAPPA_1 = 0.61733464


@pytest.fixture(scope="module")
def figure_table():
    return bands.trace(1.0, -4.0, 6.0, n_bands=8, base_samples=81)


def test_trace_shape_matches_dispersion_picture(figure_table):
    t = figure_table
    assert len(t.omega) == 8
    # ordering at every k, read at the numerical floor: past the minima the
    # parity gaps die like exp(-k^2/b), far below eigensolver roundoff
    floor = 1e-9
    for i in range(len(t.ks)):
        ws = [t.omega[j, i] for j in range(8)]
        assert all(ws[a] < ws[a + 1] + floor for a in range(7))
    # all bands decreasing over the barrier side
    left = t.ks < -0.5
    for j in range(8):
        ws = t.omega[j]
        assert np.all(np.diff(ws[left]) < 0.0)
    # even bands turn upward after their minima, odd bands do not
    report = bands.monotonicity_report(t)
    assert report.violations == []
    for j, parity in enumerate(t.parities, start=1):
        if parity is Parity.EVEN:
            assert j in report.flip_ks
        else:
            assert j not in report.flip_ks
    assert abs(report.flip_ks[1] - KAPPA_1) <= 2.0 * (t.ks[1] - t.ks[0])


def test_trace_argmin_plateau_is_narrow(figure_table):
    for j, parity in enumerate(figure_table.parities):
        if parity is not Parity.EVEN:
            continue
        ws = figure_table.omega[j]
        ties = np.nonzero(ws <= ws.min())[0]
        assert len(ties) <= 2
        assert np.all(np.diff(ties) == 1)


def test_trace_odd_derivative_column_strictly_negative(figure_table):
    for j, parity in enumerate(figure_table.parities):
        if parity is Parity.ODD:
            assert all(d < 0.0 for d in figure_table.domega_bd[j])


def test_trace_derivative_cross_check_on_table(figure_table):
    for fh, bd in zip(figure_table.domega_fh.flat, figure_table.domega_bd.flat):
        assert abs(fh - bd) <= 1e-5 * max(1.0, abs(fh))


def test_trace_derivatives_match_finite_differences(figure_table):
    # Coarse-grid sanity over the whole figure: a wrong sign or factor in
    # either route would blow past this even where the stencil truncation
    # error peaks (the band knees).
    t = figure_table
    dk = t.ks[1] - t.ks[0]
    checked = 0
    for j in range(4):
        for i in range(2, len(t.ks) - 2, 3):
            ws = [t.omega[j, i + m] for m in (-2, -1, 0, 1, 2)]
            fd = (ws[0] - 8.0 * ws[1] + 8.0 * ws[3] - ws[4]) / (12.0 * dk)
            assert abs(t.domega_fh[j, i] - fd) <= 5e-3 * max(1.0, abs(fd))
            assert abs(t.domega_bd[j, i] - fd) <= 5e-3 * max(1.0, abs(fd))
            checked += 1
    assert checked > 20
    # At a converged stencil step the routes match finite differences to 1e-4,
    # including on the barrier side, near the first minimum, and at the knees.
    dk = 1e-2
    for k0 in (-3.0, -0.7, 0.3, 1.2, 2.0):
        t2 = bands.trace(1.0, k0 - 2 * dk, k0 + 2 * dk, n_bands=4,
                         base_samples=5, refine=True)
        for j in range(4):
            ws = t2.omega[j]
            fd = (ws[0] - 8.0 * ws[1] + 8.0 * ws[3] - ws[4]) / (12.0 * dk)
            assert abs(t2.domega_fh[j, 2] - fd) <= 1e-4 * max(1.0, abs(fd))
            assert abs(t2.domega_bd[j, 2] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_trace_single_point_consistent_with_fiber():
    t = bands.trace(1.0, -5e-4, 5e-4, n_bands=6, base_samples=3, refine=True)
    mid = np.argmin(np.abs(t.ks))
    for j, want in enumerate((1.0, 3.0, 5.0, 7.0, 9.0, 11.0)):
        assert t.omega[j, mid] == pytest.approx(want, abs=1e-6)


def test_derivative_routes_on_random_states():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(13):
        k = float(rng.uniform(-5.0, 5.0))
        for pairs in zip(*fiber.first_levels(1.0, k, 4, refine=True)):
            fh = fiber.refined([bands.derivative_fh(p) for p in pairs])
            bd = fiber.refined([bands.derivative_boundary(p) for p in pairs])
            assert abs(fh - bd) <= 1e-5 * max(1.0, abs(fh))
            checked += 1
    assert checked >= 50


def test_derivative_fh_against_fd_oracle_on_barrier_side():
    delta = 1e-2
    w = {}
    for m in (-2, -1, 0, 1, 2):
        pairs = fiber.band(1.0, -5.0 + m * delta, 1, refine=True)
        w[m] = fiber.refined([p.omega for p in pairs])
        if m == 0:
            fh = fiber.refined([bands.derivative_fh(p) for p in pairs])
    fd = (w[-2] - 8.0 * w[-1] + 8.0 * w[1] - w[2]) / (12.0 * delta)
    assert fh < 0.0
    assert fh == pytest.approx(fd, rel=1e-5)


def test_derivative_positive_past_minimum():
    pairs = fiber.band(1.0, 5.0, 1, refine=True)
    assert fiber.refined([bands.derivative_fh(p) for p in pairs]) > 0.0
    assert fiber.refined([bands.derivative_boundary(p) for p in pairs]) > 0.0


def test_derivative_at_k0_negative_and_consistent():
    delta = 1e-2
    w = {}
    for m in (-2, -1, 0, 1, 2):
        bands_at_k = list(zip(*fiber.first_levels(1.0, m * delta, 3, refine=True)))
        w[m] = [fiber.refined([p.omega for p in pairs]) for pairs in bands_at_k]
        if m == 0:
            fhs = [fiber.refined([bands.derivative_fh(p) for p in pairs])
                   for pairs in bands_at_k]
    for j in range(3):
        fd = (w[-2][j] - 8.0 * w[-1][j] + 8.0 * w[1][j] - w[2][j]) / (12.0 * delta)
        assert fhs[j] < 0.0
        # The potential's |x| corner puts an O(h^2) trapezoid term in the
        # quadrature route that the extrapolated band values do not carry.
        assert abs(fhs[j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_find_minimum_first_band():
    rec = bands.find_minimum(1, 1.0)
    assert 0.0 < rec.kappa < 1.0
    assert 0.0 < rec.energy < 1.0
    assert rec.kappa == pytest.approx(KAPPA_1, abs=2e-7)
    assert rec.energy == pytest.approx(ENERGY_1, abs=2e-7)
    assert rec.psi0_at_kappa == pytest.approx(PSI0_AT_KAPPA_1, abs=1e-5)


def test_find_minimum_scales_like_sqrt_b():
    r1 = bands.find_minimum(1, 1.0)
    r4 = bands.find_minimum(1, 4.0)
    assert r4.kappa == pytest.approx(2.0 * r1.kappa, rel=1e-6)
    assert r4.energy == pytest.approx(4.0 * r1.energy, rel=1e-6)


def test_find_minimum_higher_bands_in_windows():
    r2 = bands.find_minimum(2, 1.0)
    assert 1.0 < r2.energy < 3.0
    assert r2.energy == pytest.approx(ENERGY_2, abs=2e-6)
    r3 = bands.find_minimum(3, 1.0)
    assert 3.0 < r3.energy < 5.0
    assert r3.energy == pytest.approx(ENERGY_3, abs=1e-5)


def test_effective_mass_routes_agree():
    # the closed form against the frozen reference; c04 in test_acceptance
    # checks it against finite differences of the band
    rec = bands.find_minimum(1, 1.0)
    assert rec.beta == pytest.approx(BETA_1, abs=1e-4)
    assert rec.beta == pytest.approx(
        (2.0 * rec.kappa) * rec.psi0_at_kappa ** 2, rel=1e-6)


def test_effective_mass_is_b_independent():
    beta1 = bands.find_minimum(1, 1.0).beta
    beta4 = bands.find_minimum(1, 4.0).beta
    assert beta4 == pytest.approx(beta1, rel=1e-4)


def test_effective_mass_positive_first_four():
    for j in (1, 2, 3, 4):
        rec = bands.find_minimum(j, 1.0)
        assert rec.beta > 0.0


def test_monotonicity_detector_catches_corruption(figure_table):
    t = figure_table
    broken = t.omega.copy()
    # bump an odd band where it is flat, so the bump is the only rise
    broken[1, len(t.ks) - 2] += 1e-3
    corrupted = dataclasses.replace(t, omega=broken)
    report = bands.monotonicity_report(corrupted)
    assert any(j == 2 for j, _ in report.violations)


def test_bottom_of_spectrum_from_table():
    t = bands.trace(1.0, KAPPA_1 - 0.25, KAPPA_1 + 0.25, n_bands=1,
                    base_samples=51, refine=True)
    _, w_star = bands.table_minimum(t, band=1)
    assert w_star == pytest.approx(ENERGY_1, abs=1e-8)


def _table_bits(table):
    """Every number of a BandTable as bytes, plus its parities."""
    columns = (table.omega, table.domega_fh, table.domega_bd, table.psi0,
               table.dpsi0)
    return table.ks.tobytes(), np.array(columns).tobytes(), table.parities


def test_trace_rerun_is_bitwise_identical(figure_table):
    # the rerun solves its k-points on two forked workers
    again = bands.trace(1.0, -4.0, 6.0, n_bands=8, base_samples=81, jobs=2)
    assert len(again.omega) == 8 and len(again.ks) >= 81
    assert _table_bits(again) == _table_bits(figure_table)


@pytest.mark.parametrize("refine", [True, False])
def test_trace_on_workers_equals_serial_bitwise(refine):
    args = (1.0, -2.0, 3.0)
    kwargs = dict(n_bands=3, base_samples=23, refine=refine)
    serial = bands.trace(*args, **kwargs)
    assert _table_bits(bands.trace(*args, jobs=2, **kwargs)) == _table_bits(serial)
    assert multiprocessing.active_children() == []


def test_trace_samples_the_float_linspace():
    # an open-side range, where a curvature cut once added k-points
    want = np.linspace(2.0, 20.0, 41).tobytes()
    for jobs in (1, 2):
        table = bands.trace(1.0, 2.0, 20.0, n_bands=2, base_samples=41,
                            refine=False, jobs=jobs)
        assert table.ks.tobytes() == want
        assert table.omega.shape == (2, 41)


def test_trace_worker_error_surfaces_unchanged():
    # k = -1e5 sizes a fiber grid past the row budget
    args = (1.0, -1e5, 0.0)
    kwargs = dict(n_bands=8, base_samples=5)
    with pytest.raises(NumericalError, match="budget") as serial:
        bands.trace(*args, **kwargs)
    with pytest.raises(NumericalError) as parallel:
        bands.trace(*args, jobs=2, **kwargs)
    assert str(parallel.value) == str(serial.value)
    assert multiprocessing.active_children() == []


def test_trace_needs_distinct_float_samples():
    # three samples on a range of one float step would repeat a k-node
    with pytest.raises(ConfigurationError, match="3 distinct float k-samples"):
        bands.trace(1.0, 1.0, 1.0000000000000002, n_bands=1, base_samples=3)


# f(x) = s (c1 t + c2 t^3 + c3 tanh t + c4 (e^t - 1)) + c5 sin(w x), t = x - r:
# increasing in t when c5 = 0, so a bracket around r changes sign; with c5 the
# wiggle may add roots or take the sign change away (such draws are dropped).
_SMOOTH = st.tuples(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0]),
                    *[st.floats(0.0, 2.0)] * 4,
                    st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.floats(0.0, 10.0))
_XTOL = st.one_of(st.floats(0.1, 10.0).map(lambda b: bands.KAPPA_XTOL * math.sqrt(b)),
                  st.floats(1e-14, 1e-1))
_RTOL = st.one_of(st.just(8.0 * np.finfo(float).eps),
                  st.floats(4.0 * np.finfo(float).eps, 1e-6))


@seed(20261019)
@settings(max_examples=600, deadline=None, database=None)
@given(_SMOOTH, st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.booleans(),
       st.sampled_from(["interior", "a", "b"]), _XTOL, _RTOL,
       st.one_of(st.just(bands.BRENTQ_MAX_ITERATIONS), st.integers(1, 6)))
def test_brentq_port_is_scipy_brentq_bit_for_bit(coeffs, left, right, flip, zero_at,
                                                 xtol, rtol, cap):
    r, sign, c1, c2, c3, c4, c5, w = coeffs
    a, b = r - left, r + right
    if flip:
        a, b = b, a
    if zero_at != "interior":          # f is exactly 0 at that bracket end
        r, c5 = (a if zero_at == "a" else b), 0.0

    calls = []

    def f(x):
        calls.append(x)
        t = x - r
        return sign * (c1 * t + c2 * t ** 3 + c3 * math.tanh(t)
                       + c4 * math.expm1(t)) + c5 * math.sin(w * x)

    fa, fb = f(a), f(b)
    assume(fa * fb < 0.0 or zero_at != "interior")
    try:
        want = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=cap)
    except RuntimeError:               # not converged in cap iterations
        want = None
    scipy_calls, calls[:] = calls[4:], []   # brentq evaluates f(a), f(b) again
    with mock.patch.object(bands, "BRENTQ_MAX_ITERATIONS", cap):
        if want is None:
            with pytest.raises(NumericalError):
                bands._brentq(f, a, b, fa, fb, xtol, rtol)
        else:
            got = bands._brentq(f, a, b, fa, fb, xtol, rtol)
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert calls == scipy_calls            # the same points, in order


def test_root_search_that_does_not_converge_is_a_numerical_error(monkeypatch):
    # the CLI maps a NumericalError to exit 3; a bare RuntimeError was a traceback
    monkeypatch.setattr(bands, "BRENTQ_MAX_ITERATIONS", 2)
    with pytest.raises(NumericalError, match="did not converge in 2 iterations"):
        bands.find_minimum(1, 1.0)
