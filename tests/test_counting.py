"""Eigenvalue counting: reduced potential, 1D/2D inertia counts, asymptotics."""

import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from oracles import birman_schwinger_count
from scipy.linalg import lapack

from magbarrier import counting, fiber
from magbarrier.counting import Grid2DSpec
from magbarrier.errors import ConfigurationError, InvariantViolation, NumericalError
from magbarrier.fiber import Parity

KAPPA_1 = 0.768183653380
BETA_1 = 0.5855127449
E_1 = 0.590106125320


@pytest.fixture(scope="module")
def ground_b1():
    return fiber.solve(
        fiber.build_problem(1.0, KAPPA_1, Parity.EVEN, requested_levels=1), 1)[0]


@pytest.fixture(scope="module")
def reduced_b1(ground_b1):
    V = counting.standard_potential(1.0)
    return counting.reduced_potential(V, ground_b1, np.linspace(0.0, 500.0, 4001))


# ---------------------------------------------------------------------------
# potentials


def test_decay_potential_guards():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    for alpha in (0.0, 2.0, 2.5, -1.0):
        with pytest.raises(ConfigurationError):
            counting.DecayPotential(alpha=alpha, C=1.0, v1=one, v2=one)
    with pytest.raises(ConfigurationError):
        counting.DecayPotential(alpha=1.0, C=0.0, v1=one, v2=one)
    with pytest.raises(ConfigurationError):
        counting.standard_potential(1.0, amplitude=-2.0)


def test_standard_potential_respects_decay_bound():
    xs = np.linspace(-30.0, 30.0, 301)
    ys = np.linspace(-50.0, 50.0, 401)
    for alpha in (0.5, 1.0, 1.5):
        counting.standard_potential(alpha).validate_condition(xs, ys)


def test_condition_check_catches_violations():
    # C = 1 is too small for the y-factor: (1+y^2)^{-1/2} vs (1+|y|)^{-1}
    # differ by a factor sqrt(2) at |y| = 1.
    bad = counting.DecayPotential(
        alpha=1.0, C=1.0,
        v1=lambda x: (1.0 + np.abs(x)) ** -1.0,
        v2=lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5)
    with pytest.raises(InvariantViolation):
        bad.validate_condition(np.linspace(-2, 2, 21), np.linspace(-2, 2, 21))
    negative = counting.DecayPotential(
        alpha=1.0, C=1.0,
        v1=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        v2=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    with pytest.raises(InvariantViolation):
        negative.validate_condition(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))


# ---------------------------------------------------------------------------
# reduced potential


def test_reduced_potential_matches_quadrature(ground_b1, reduced_b1):
    V = counting.standard_potential(1.0)
    transverse = fiber.expectation(
        ground_b1, np.asarray(V.v1(ground_b1.grid.x), dtype=float))
    # separability factors the x-integral out of every sample exactly
    expected = V.v2(reduced_b1.ys) * transverse
    assert np.allclose(reduced_b1.values, expected, rtol=1e-12, atol=0.0)
    assert (reduced_b1.values >= 0.0).all()
    # the fitted tail coefficient converges to the x-quadrature value
    assert reduced_b1.ell == pytest.approx(transverse, rel=1e-3)
    assert reduced_b1.ell == pytest.approx(0.617623248, rel=1e-4)


def test_reduced_potential_tail_evaluation(reduced_b1):
    inside = reduced_b1.evaluate(3.7)
    assert inside == pytest.approx(
        np.interp(3.7, reduced_b1.ys, reduced_b1.values), rel=1e-14)
    far = 4000.0
    assert reduced_b1.evaluate(far) == pytest.approx(
        reduced_b1.ell / far, rel=1e-14)
    assert reduced_b1.evaluate(-far) == reduced_b1.evaluate(far)


def test_reduced_potential_needs_first_band(ground_b1):
    odd = fiber.solve(
        fiber.build_problem(1.0, KAPPA_1, Parity.ODD, requested_levels=1), 1)[0]
    V = counting.standard_potential(1.0)
    with pytest.raises(ConfigurationError):
        counting.reduced_potential(V, odd, np.linspace(0.0, 100.0, 801))
    with pytest.raises(ConfigurationError):
        counting.reduced_potential(V, ground_b1, np.linspace(0.0, 10.0, 5))


def test_oscillatory_tail_is_a_fit_error(ground_b1):
    V = counting.DecayPotential(
        alpha=1.0, C=2.0,
        v1=lambda x: (1.0 + np.abs(x)) ** -1.0,
        v2=lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
        * (0.75 + 0.25 * np.cos(np.asarray(y, dtype=float))))
    with pytest.raises(NumericalError, match="spread"):
        counting.reduced_potential(V, ground_b1, np.linspace(0.0, 500.0, 4001))


# ---------------------------------------------------------------------------
# closed-form constants


def test_counting_constant_1d_beta_known_values():
    # B(3/2, 1/2) = pi/2, so at alpha = 1 the constant is exactly ell/m
    for ell, m in ((1.0, 1.0), (4.0, 1.0), (1.0, 2.0), (0.37, 1.9)):
        assert counting.counting_constant_1d(1.0, ell, m) == pytest.approx(ell / m, rel=1e-13)


def test_counting_constant_1d_examples():
    assert counting.counting_constant_1d(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert counting.counting_constant_1d(1.0, 4.0, 1.0) == pytest.approx(4.0, rel=1e-12)
    assert counting.counting_constant_1d(1.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-12)
    for alpha in (2.0, 2.3, 0.0):
        with pytest.raises(ConfigurationError):
            counting.counting_constant_1d(alpha, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        counting.counting_constant_1d(1.0, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        counting.counting_constant_1d(1.0, 1.0, 0.0)


def test_counting_constant_2d_identity_and_scaling():
    for alpha, L in ((0.7, 0.3), (1.0, 1.0), (1.5, 2.0)):
        assert counting.counting_constant_2d(alpha, L, BETA_1) == \
            counting.counting_constant_1d(alpha, L, math.sqrt(BETA_1))
    assert counting.counting_constant_2d(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    halved = counting.counting_constant_2d(1.0, 1.0, 0.5 * BETA_1)
    full = counting.counting_constant_2d(1.0, 1.0, BETA_1)
    assert halved == pytest.approx(full * math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ConfigurationError):
        counting.counting_constant_2d(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# 1D counts


def test_inertia_routes_agree_on_random_tridiagonals():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        d = rng.normal(size=n) * 3.0
        e = rng.normal(size=n - 1)
        tau = float(rng.normal())
        matrix = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        dense = int((np.linalg.eigvalsh(matrix) < tau).sum())
        assert counting.tridiagonal_inertia(d, e, tau) == dense
        assert counting.bisection_count(d, e, tau) == dense


def _reference_inertia(d, e, tau):
    """The indexed scalar loop tridiagonal_inertia replaced (the oracle)."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    count = 0
    pivot = d[0] - tau
    if pivot <= 0.0:
        count += 1
    for i in range(1, len(d)):
        if pivot == 0.0:
            pivot = -1e-300
        pivot = (d[i] - tau) - e[i - 1] * e[i - 1] / pivot
        if pivot <= 0.0:
            count += 1
    return count


def _as_kind(kind, *arrays):
    if kind == "list":
        return [np.asarray(a, dtype=float).tolist() for a in arrays]
    return [np.asarray(a, dtype=kind) for a in arrays]


@st.composite
def integer_tridiagonals(draw):
    """Integer-valued (d, e, tau) as float64, long double or list inputs.

    Mostly-zero couplings make exact zero pivots, and so the clamp, common.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    e = draw(st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2]), min_size=n - 1,
                      max_size=n - 1))
    kind = draw(st.sampled_from(["float64", "longdouble", "list"]))
    return (*_as_kind(kind, d, e), float(draw(st.integers(-4, 4))))


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(integer_tridiagonals())
def test_inertia_equals_reference_loop_on_zero_pivots(system):
    assert counting.tridiagonal_inertia(*system) == _reference_inertia(*system)


@seed(20261018)
@settings(max_examples=24, deadline=None, database=None)
@given(st.sampled_from([1, 2, counting.INERTIA_CHUNK, counting.INERTIA_CHUNK + 1,
                        2 * counting.INERTIA_CHUNK + 1]),
       st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.sampled_from(["float64", "longdouble", "list"]))
def test_inertia_equals_reference_loop_across_chunk_edges(n, rng_seed,
                                                          integer, kind):
    rng = np.random.default_rng(rng_seed)
    if integer:
        d = rng.integers(-3, 4, size=n)
        e = rng.choice([-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=n - 1)
        tau = float(rng.integers(-4, 5))
    else:
        d = rng.normal(size=n) * 3.0
        e = rng.normal(size=n - 1)
        tau = float(rng.normal())
    d, e = _as_kind(kind, d, e)
    assert counting.tridiagonal_inertia(d, e, tau) == _reference_inertia(d, e, tau)


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    e = draw(st.lists(st.floats(-5.0, 5.0), min_size=n - 1, max_size=n - 1))
    return np.array(d), np.array(e), draw(st.floats(-20.0, 20.0))


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(tridiagonals())
def test_inertia_equals_bisection_count_property(system):
    d, e, tau = system
    eigs = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    # a tie with tau is decided by rounding, differently by the two routes
    assume(np.abs(eigs - tau).min() > 1e-9 * max(1.0, np.abs(eigs).max()))
    assert counting.tridiagonal_inertia(d, e, tau) == \
        counting.bisection_count(d, e, tau)


def test_count_1d_trend_anchors():
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    anchors = {3e-3: 17, 1e-3: 31, 3e-4: 57, 1e-4: 99}
    scaled = []
    for lam, expected in anchors.items():
        n = counting.count_1d(1.0, Q, lam, half_width=3.0 / lam,
                              verify_width=False)
        assert n == expected
        scaled.append(math.sqrt(lam) * n)
    # the scaled counts approach the closed-form limit 1 from below
    ordered = [scaled[list(anchors).index(l)] for l in sorted(anchors, reverse=True)]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))
    assert all(s < 1.0 for s in ordered)
    assert ordered[-1] == pytest.approx(0.990000, abs=1e-6)


def test_count_1d_free_operator_and_guards():
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
    for lam in (1e-3, 0.1, 2.0):
        assert counting.count_1d(1.0, zero, lam, half_width=50.0) == 0
    with pytest.raises(ConfigurationError):
        counting.count_1d(0.0, zero, 0.1, half_width=10.0)
    with pytest.raises(ConfigurationError):
        counting.count_1d(1.0, zero, 0.0, half_width=10.0)
    with pytest.raises(ConfigurationError):
        counting.count_1d(1.0, zero, 0.1)  # bare callable needs a width
    negative = lambda y: -np.ones_like(np.asarray(y, dtype=float))
    with pytest.raises(ConfigurationError):
        counting.count_1d(1.0, negative, 0.1, half_width=10.0)
    for h in (0.0, -0.05):
        with pytest.raises(ConfigurationError):
            counting.count_1d(1.0, zero, 0.1, half_width=10.0, h=h)


def test_count_1d_narrow_grid_is_a_resolution_error():
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    with pytest.raises(NumericalError, match="grid-converged"):
        counting.count_1d(1.0, Q, 1e-3, half_width=30.0)


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid array was allocated")


def test_count_1d_refuses_an_oversized_grid_before_allocating(monkeypatch):
    monkeypatch.setattr(counting, "_line_grid", _no_grid)
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    # the base grid fits the budget and only its 1.5x verify grid does not
    width = counting.MAX_ROWS_1D * counting.DEFAULT_H_1D / 2.4
    with pytest.raises(NumericalError, match="budget"):
        counting.count_1d(1.0, Q, 1e-3, half_width=width)
    with pytest.raises(AssertionError, match="allocated"):
        counting.count_1d(1.0, Q, 1e-3, half_width=width, verify_width=False)
    # turning points of 1e30 and past the float range
    for alpha in (0.1, 0.001):
        reduced = counting.ReducedPotential(alpha=alpha, ys=np.zeros(1),
                                            values=np.zeros(1), ell=1.0)
        with pytest.raises(NumericalError, match="budget"):
            counting.count_1d(1.0, reduced, 1e-3)


def test_turning_point_and_constant_past_the_float_range():
    assert counting.tail_turning_point(4.0, 1.0, 0.5) == 16.0
    assert counting.tail_turning_point(1.0, 1e-3, 0.001) == math.inf
    with pytest.raises(NumericalError, match="overflows"):
        counting.counting_constant_1d(0.001, 3.0, 1.0)


def test_count_1d_reduced_potential_path(reduced_b1):
    m = math.sqrt(BETA_1)
    n = counting.count_1d(m, reduced_b1, 1e-3)
    assert n == 25
    # every rung on the grid sized for the smallest lambda, so the counts'
    # monotonicity is a spectral fact rather than one about varying grids
    lams = [3e-3, 1e-3, 3e-4, 1e-4]
    width = counting.TURNING_FACTOR * (reduced_b1.ell / lams[-1]) \
        ** (1.0 / reduced_b1.alpha)
    curve = counting.fit_curve(lams, [
        counting.count_1d(m, reduced_b1, lam, half_width=width,
                          verify_width=False) for lam in lams])
    assert curve.counts == (14, 25, 46, 80)
    assert curve.fitted_exponent == pytest.approx(0.5, abs=0.05)


def test_birman_schwinger_integer_equality():
    rng = np.random.default_rng(20260817)
    for _ in range(20):
        n = int(rng.integers(120, 400))
        h = float(rng.uniform(0.05, 0.2))
        m = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(1e-3, 0.3))
        ys = (np.arange(n) - 0.5 * (n - 1)) * h
        q = np.zeros(n)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(0.2, 3.0)
            center = rng.uniform(-0.3, 0.3) * n * h
            width = rng.uniform(0.5, 3.0)
            q += amp * np.exp(-(((ys - center) / width) ** 2))
        d = 2.0 * m * m / (h * h) - q
        e = np.full(n - 1, -m * m / (h * h))
        direct = counting.tridiagonal_inertia(d, e, -lam)
        assert counting.bisection_count(d, e, -lam) == direct
        assert birman_schwinger_count(m, q, lam, h) == direct


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(st.floats(1e-3, 0.5), st.floats(1e-3, 0.5), st.floats(0.5, 2.0))
def test_count_1d_monotone_in_lambda_at_fixed_width(lam_a, lam_b, m):
    # one grid for both gaps, so a deeper threshold can only count more
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    lo, hi = sorted((lam_a, lam_b))
    n_lo, n_hi = (counting.count_1d(m, Q, lam, half_width=200.0, h=0.1,
                                    verify_width=False) for lam in (lo, hi))
    assert n_lo >= n_hi


# ---------------------------------------------------------------------------
# curves and the fit


def test_curve_invariants():
    with pytest.raises(InvariantViolation):
        counting.CountingCurve(lambdas=(1e-3, 1e-2), counts=(3, 1),
                               fitted_exponent=0.5, fitted_prefactor=1.0)
    with pytest.raises(InvariantViolation):
        counting.CountingCurve(lambdas=(1e-2, 1e-3), counts=(3, 1),
                               fitted_exponent=0.5, fitted_prefactor=1.0)
    with pytest.raises(InvariantViolation):
        counting.CountingCurve(lambdas=(1e-2, 1e-3), counts=(1, 2.5),
                               fitted_exponent=0.5, fitted_prefactor=1.0)
    # a positive decreasing ladder with nondecreasing counts constructs
    counting.CountingCurve(lambdas=(1e-2, 1e-3), counts=(1, 3),
                           fitted_exponent=0.5, fitted_prefactor=1.0)


def test_asymptotics_check_one_dimensional_example():
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    lams = [3e-3, 1e-3, 3e-4, 1e-4]
    counts = [counting.count_1d(1.0, Q, lam, half_width=3.0 / lam,
                                verify_width=False) for lam in lams]
    curve = counting.fit_curve(lams, counts)
    gap, ratio = counting.asymptotics_check(curve, 1.0, 1.0)
    assert gap < 0.05
    assert 0.85 <= ratio <= 1.15


def test_asymptotics_check_synthetic_power_law():
    ns = [4, 8, 16, 32, 64]
    amplitude, power = 2.0, 0.5
    lams = [(amplitude / n) ** (1.0 / power) for n in ns]
    curve = counting.fit_curve(lams, ns)
    gap, ratio = counting.asymptotics_check(curve, 1.0, amplitude)
    assert gap < 1e-12
    assert ratio == pytest.approx(1.0, rel=1e-12)


def test_asymptotics_check_degenerate_and_guards():
    with pytest.raises(NumericalError, match="degenerate"):
        counting.fit_curve([1e-2, 3e-3, 1e-3, 1e-4], [5, 5, 5, 5])
    with pytest.raises(ConfigurationError):
        counting.fit_curve([1e-2, 1e-3, 1e-4], [1, 2, 3])
    with pytest.raises(ConfigurationError):
        counting.fit_curve([1e-3, 8e-4, 6e-4, 4e-4], [1, 2, 3, 4])
    good = counting.fit_curve([1e-2, 3e-3, 1e-3, 1e-4], [2, 4, 7, 22])
    with pytest.raises(ConfigurationError):
        counting.asymptotics_check(good, 2.5, 1.0)
    with pytest.raises(ConfigurationError):
        counting.asymptotics_check(good, 1.0, 0.0)


# ---------------------------------------------------------------------------
# 2D counts


def _count(b, V, lam, **kw):
    """count_2d of the one-rung ladder [lam]."""
    (count,), _ = counting.count_2d(b, V, [lam], **kw)
    return count


def test_count_2d_matches_dense_eigensolve():
    b, hx, hy = 1.0, 0.1, 0.4
    nx, ny = 18, 30
    lx, y_width = nx * hx, 0.5 * ny * hy
    V = counting.standard_potential(1.0, amplitude=3.0)
    threshold = counting.discrete_threshold(b, lx, nx, hy)
    lam = 0.15
    spec = Grid2DSpec(hx=hx, hy=hy, lx=lx, y_width=y_width)
    block = _count(b, V, lam, spec=spec, threshold=threshold)

    xs = np.arange(-(nx - 1), nx) * hx
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    absx = np.abs(xs)
    n_full = len(xs) * ny
    H = np.zeros((n_full, n_full), dtype=complex)
    inv_hx2, inv_hy2 = 1.0 / hx ** 2, 1.0 / hy ** 2
    v1, v2 = V.v1(xs), V.v2(ys)
    for i in range(len(xs)):
        for j in range(ny):
            a = i * ny + j
            H[a, a] = 2.0 * inv_hx2 + (b * absx[i]) ** 2 \
                + 2.0 * inv_hy2 - v1[i] * v2[j]
            if i + 1 < len(xs):
                H[a, a + ny] = H[a + ny, a] = -inv_hx2
            if j + 1 < ny:
                H[a, a + 1] = -inv_hy2 + 1j * b * absx[i] / hy
                H[a + 1, a] = -inv_hy2 - 1j * b * absx[i] / hy
    dense = int((np.linalg.eigvalsh(H) < threshold - lam).sum())
    assert block == dense
    assert block > 0


def _eigvalsh_sweep(d_x, e_x, xs, b, v1_vals, v2_vals, hy, tau):
    """The block sweep with each Schur block's inertia from its eigenvalues."""
    n = len(d_x)
    base = d_x + 2.0 / (hy * hy) - tau
    beta = -1.0 / (hy * hy) + 1j * b * xs / hy
    idx = np.arange(n - 1)
    negatives = 0
    prev_inv = None
    for j, v2j in enumerate(v2_vals):
        block = np.zeros((n, n), dtype=complex)
        block[np.arange(n), np.arange(n)] = base - v1_vals * v2j
        block[idx, idx + 1] = e_x
        block[idx + 1, idx] = e_x
        if prev_inv is not None:
            block -= np.conj(beta)[:, None] * prev_inv * beta[None, :]
        eigs = np.linalg.eigvalsh(block)
        scale = np.abs(eigs).max()
        if scale == 0.0 or np.abs(eigs).min() < 1e-12 * scale:
            raise NumericalError("near-singular pivot block in the inertia sweep")
        negatives += int((eigs < 0.0).sum())
        if j != len(v2_vals) - 1:
            prev_inv = np.linalg.inv(block)
    return negatives


def _sector_eigenvalues(d_x, e_x, xs, b, v1_vals, v2_vals, hy):
    """Eigenvalues of the assembled block-tridiagonal sector operator."""
    n, ny = len(d_x), len(v2_vals)
    beta = -1.0 / (hy * hy) + 1j * b * xs / hy
    H = np.zeros((n * ny, n * ny), dtype=complex)
    for j, v2j in enumerate(v2_vals):
        rows = slice(j * n, (j + 1) * n)
        H[rows, rows] = np.diag(d_x + 2.0 / (hy * hy) - v1_vals * v2j) \
            + np.diag(e_x, 1) + np.diag(e_x, -1)
        if j + 1 < ny:
            below = slice((j + 1) * n, (j + 2) * n)
            H[rows, below] = np.diag(beta)
            H[below, rows] = np.diag(np.conj(beta))
    return np.linalg.eigvalsh(H)


@st.composite
def sectors(draw, ny=st.integers(1, 8)):
    n = draw(st.integers(1, 10))
    ny = draw(ny)

    def reals(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                      max_size=size)))

    return (reals(-20.0, 20.0, n), reals(-10.0, 10.0, n - 1),
            np.sort(reals(0.0, 3.0, n)), draw(st.floats(0.1, 4.0)),
            reals(0.0, 5.0, n), reals(0.0, 2.0, ny),
            draw(st.floats(0.2, 1.5)), draw(st.floats(-30.0, 60.0)))


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(sectors())
def test_sector_inertia_equals_eigvalsh_sweep_and_dense_count(sector):
    *system, tau = sector
    eigs = _sector_eigenvalues(*system)
    assume(np.abs(eigs - tau).min() > 1e-8 * max(1.0, np.abs(eigs).max()))
    try:
        oracle = _eigvalsh_sweep(*system, tau)
    except NumericalError:
        assume(False)  # a near-singular Schur block; the guard is tested below
    assert counting._sector_inertia(*system, tau) == oracle \
        == int((eigs < tau).sum())


def _mirrored(sector):
    """The sector with v2 made a palindrome from its first half."""
    *system, tau = sector
    v2 = system[5]
    ny = len(v2)
    system[5] = np.concatenate([v2[:(ny + 1) // 2], v2[:ny // 2][::-1]])
    return system, tau


@pytest.mark.parametrize("ny", range(1, 13))
@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_mirror_sweep_equals_eigvalsh_sweep_and_dense_count(ny, data):
    system, tau = _mirrored(data.draw(sectors(ny=st.just(ny))))
    assert np.array_equal(system[5], system[5][::-1])
    eigs = _sector_eigenvalues(*system)
    assume(np.abs(eigs - tau).min() > 1e-8 * max(1.0, np.abs(eigs).max()))
    try:
        oracle = _eigvalsh_sweep(*system, tau)
    except NumericalError:
        assume(False)  # a near-singular Schur block; the guard is tested below
    with mock.patch.object(counting, "_block_inertia",
                           wraps=counting._block_inertia) as blocks:
        count = counting._sector_inertia(*system, tau)
    # half the slices plus the join block; one block has no half to skip
    assert blocks.call_count == (ny // 2 + 1 if ny > 1 else 1)
    assert count == oracle == int((eigs < tau).sum())


def test_palindrome_off_by_one_ulp_takes_the_full_sweep():
    b, hy, ny = 1.0, 0.4, 9
    d_x, e_x = fiber.stencil(b, 0.0, Parity.EVEN, 1.8, 18)
    xs = np.arange(18, dtype=float) * 0.1
    V = counting.standard_potential(1.0, amplitude=3.0)
    v2 = V.v2((np.arange(ny) - 0.5 * (ny - 1)) * hy)
    skewed = v2.copy()
    skewed[-1] = np.nextafter(skewed[-1], 1.0)
    tau = 0.5
    for values, blocks_run in ((v2, ny // 2 + 1), (skewed, ny)):
        system = (d_x, e_x, xs, b, V.v1(xs), values, hy)
        with mock.patch.object(counting, "_block_inertia",
                               wraps=counting._block_inertia) as blocks:
            count = counting._sector_inertia(*system, tau)
        assert blocks.call_count == blocks_run
        assert count == _eigvalsh_sweep(*system, tau) \
            == int((_sector_eigenvalues(*system) < tau).sum())


def test_mirrored_inverse_is_the_triangle_sum_bit_for_bit():
    # the inverse zhetri leaves in the lower triangle, made Hermitian the
    # way the sweep did before it mirrored in place; a real block makes
    # exact zeros of both signs in the imaginary parts
    rng = np.random.default_rng(20261018)
    for n, real in ((1, False), (7, True), (40, False), (40, True)):
        a = rng.normal(size=(n, n)) + (0.0 if real else 1j) * rng.normal(size=(n, n))
        block = np.asarray(a + a.conj().T, dtype=complex)
        ldu, ipiv, _ = lapack.zhetrf(block, lower=1)
        raw, _ = lapack.zhetri(ldu, ipiv, lower=1)
        expected = np.tril(raw) + np.tril(raw, -1).conj().T
        negatives, inverse = counting._block_inertia(block)
        assert np.array_equal(np.ascontiguousarray(inverse).view(np.uint64),
                              expected.view(np.uint64))
        assert negatives == int((np.linalg.eigvalsh(block) < 0.0).sum())


@pytest.mark.parametrize("y_width", [6.0, 5.7])
def test_tau_on_a_sector_eigenvalue_is_refused_by_the_join_block(monkeypatch,
                                                                 y_width):
    b, hx, hy, lx, nx = 1.0, 0.1, 0.4, 1.8, 18
    V = counting.standard_potential(1.0, amplitude=3.0)
    ny = math.ceil(2.0 * y_width / hy)
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    by_parity = {}
    for parity in (Parity.EVEN, Parity.ODD):
        d_x, e_x = fiber.stencil(b, 0.0, parity, lx, nx)
        xs = np.arange(nx, dtype=float) * (lx / nx) if parity is Parity.EVEN \
            else np.arange(1, nx, dtype=float) * (lx / nx)
        by_parity[parity] = (d_x, e_x, xs, b, V.v1(xs), V.v2(ys), hy)
    even = _sector_eigenvalues(*by_parity[Parity.EVEN])
    odd = _sector_eigenvalues(*by_parity[Parity.ODD])
    tau = float(even[1])
    assert tau > 0.0 and np.abs(odd - tau).min() > 1e-6
    with mock.patch.object(counting, "_block_inertia",
                           wraps=counting._block_inertia) as blocks:
        with pytest.raises(NumericalError, match="singular"):
            counting._sector_inertia(*by_parity[Parity.EVEN], tau)
    assert blocks.call_count == ny // 2 + 1  # every half-sweep block passed

    threshold = 1.25 * tau
    lam = threshold - tau
    assert threshold - lam == tau
    taus = []
    sweep = counting._sector_inertia

    def recorded(*args):
        taus.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(counting, "_sector_inertia", recorded)
    spec = Grid2DSpec(hx=hx, hy=hy, lx=lx, y_width=y_width)
    shifted = tau * (1.0 + 1e-9)
    with pytest.warns(RuntimeWarning) as warned:
        count = _count(b, V, lam, spec=spec, threshold=threshold)
    assert taus == [tau, shifted, tau]
    assert [str(w.message) for w in warned] == [
        f"even sector counted at tau*(1 + 1e-9) = {shifted!r} "
        f"instead of tau = {tau!r}: near-singular Schur block"]
    assert count == int((even < shifted).sum()) + int((odd < tau).sum())


def test_near_singular_block_raises_and_count_2d_retries(monkeypatch):
    b, hx, hy, lx, y_width = 1.0, 0.1, 0.4, 1.8, 6.0
    V = counting.standard_potential(1.0, amplitude=3.0)
    nx, ny = 18, 30
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    v2 = V.v2(ys)
    by_parity = {}
    for parity in (Parity.EVEN, Parity.ODD):
        d_x, e_x = fiber.stencil(b, 0.0, parity, lx, nx)
        xs = np.arange(nx, dtype=float) * (lx / nx) if parity is Parity.EVEN \
            else np.arange(1, nx, dtype=float) * (lx / nx)
        by_parity[parity] = (d_x, e_x, xs, b, V.v1(xs), v2, hy)
    d_x, e_x, xs, _, v1, _, _ = by_parity[Parity.EVEN]
    # tau on the lowest eigenvalue of the first Schur block of the even sector
    first = np.diag(d_x + 2.0 / hy ** 2 - v1 * v2[0]) + np.diag(e_x, 1) \
        + np.diag(e_x, -1)
    tau = float(np.linalg.eigvalsh(first)[0])
    with pytest.raises(NumericalError, match="singular"):
        counting._sector_inertia(*by_parity[Parity.EVEN], tau)

    # threshold - lam recovers tau exactly (Sterbenz), so count_2d meets the
    # singular block on its first attempt and counts on the shifted retry
    threshold = 1.25 * tau
    lam = threshold - tau
    assert threshold - lam == tau
    taus = []
    sweep = counting._sector_inertia

    def recorded(*args):
        taus.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(counting, "_sector_inertia", recorded)
    spec = Grid2DSpec(hx=hx, hy=hy, lx=lx, y_width=y_width)
    with pytest.warns(RuntimeWarning) as shifted:
        count = _count(b, V, lam, spec=spec, threshold=threshold)
    assert taus == [tau, tau * (1.0 + 1e-9), tau]
    assert [str(w.message) for w in shifted] == [
        f"even sector counted at tau*(1 + 1e-9) = {tau * (1.0 + 1e-9)!r} "
        f"instead of tau = {tau!r}: near-singular Schur block"]
    eigs = np.concatenate([_sector_eigenvalues(*s) for s in by_parity.values()])
    assert np.abs(eigs - tau).min() > 1e-6
    assert count == int((eigs < tau).sum()) > 0


def test_ldl_negatives_reads_both_block_sizes():
    # D = [-1] + [[2, b], [b*, 3]] + [[-2, c], [c*, -3]] + [[1, g], [g*, 1]]:
    # 1 + 0 + 2 + 1 negatives; entries of L below D must be ignored
    ldu = np.zeros((7, 7), dtype=complex)
    ldu[np.arange(7), np.arange(7)] = [-1.0, 2.0, 3.0, -2.0, -3.0, 1.0, 1.0]
    couplings = {(2, 1): 1.0 + 1.0j, (4, 3): 2.0j, (6, 5): 3.0}
    D = np.diag(ldu.diagonal())
    for (i, k), value in couplings.items():
        ldu[i, k] = D[i, k] = value
        D[k, i] = np.conj(value)
    ldu[3, 0], ldu[6, 2] = 5.0, -7.0j
    ipiv = np.array([1, -3, -3, -5, -5, -7, -7], dtype=np.int32)
    assert counting._ldl_negatives(ldu, ipiv) == 4
    assert int((np.linalg.eigvalsh(D) < 0.0).sum()) == 4


def test_exactly_singular_block_raises():
    # a 1x1 block that is exactly zero stops zhetrf with info > 0
    with pytest.raises(NumericalError, match="singular"):
        counting._sector_inertia(np.array([1.0]), np.array([]), np.array([0.0]),
                                 1.0, np.array([0.0]), np.array([1.0]), 1.0, 3.0)


def test_count_2d_zero_potential_and_monotone_coupling():
    zero = counting.DecayPotential(
        alpha=1.0, C=1.0,
        v1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        v2=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=20.0)
    threshold = counting.discrete_threshold(1.0, 2.4, 24, 0.4)
    for lam in (0.05, 0.2, 0.45):
        assert _count(1.0, zero, lam, spec=spec, threshold=threshold) == 0
    single = _count(
        1.0, counting.standard_potential(1.0, amplitude=3.0), 0.15,
        spec=Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0),
        threshold=threshold)
    doubled = _count(
        1.0, counting.standard_potential(1.0, amplitude=6.0), 0.15,
        spec=Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0),
        threshold=threshold)
    assert 0 < single <= doubled


def test_count_2d_guards():
    V = counting.standard_potential(1.0)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0)
    with pytest.raises(ConfigurationError):
        _count(1.0, V, 0.0, spec=spec)
    with pytest.raises(ConfigurationError):
        _count(1.0, V, 0.7, spec=spec)  # above the band floor
    lopsided = counting.DecayPotential(
        alpha=1.0, C=2.0,
        v1=lambda x: (1.0 + np.abs(np.asarray(x, dtype=float) - 0.3)) ** -1.0,
        v2=lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5)
    with pytest.raises(ConfigurationError, match="even"):
        _count(1.0, lopsided, 0.15, spec=spec)
    tiny = Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0, max_unknowns=100)
    with pytest.raises(NumericalError, match="budget"):
        _count(1.0, V, 0.15, spec=tiny)
    with pytest.raises(ConfigurationError):
        Grid2DSpec(hx=-0.1)


def test_2d_grid_past_its_budget_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(counting, "discrete_threshold", _no_grid)
    monkeypatch.setattr(counting, "_sector_inertia", _no_grid)
    spec = Grid2DSpec(hy=0.8)
    # a y half-width of ~1e10, then one past the float range
    for alpha, match in ((0.2, "budget"), (0.001, "cannot be represented")):
        V = counting.standard_potential(alpha)
        with pytest.raises(NumericalError, match=match):
            _count(1.0, V, 6e-3, spec=spec, ell_hint=0.6)
        with pytest.raises(NumericalError, match=match):
            counting.counting_curve_2d(1.0, V, [0.06, 0.03, 0.012, 6e-3],
                                       spec=spec, ell_hint=0.6)


def test_count_2d_refinement_stability():
    V = counting.standard_potential(1.0)
    base = _count(1.0, V, 3e-2 * E_1)
    finer = Grid2DSpec(hx=counting.DEFAULT_HX_2D / 1.25,
                       hy=counting.DEFAULT_HY_2D / 1.25)
    assert (base, _count(1.0, V, 3e-2 * E_1, spec=finer)) == (5, 5)


def test_counting_curve_2d_small_ladder():
    V = counting.standard_potential(1.0)
    lams = [0.1 * E_1, 0.05 * E_1, 0.02 * E_1, 0.01 * E_1]
    curve, meta = counting.counting_curve_2d(1.0, V, lams)
    assert len(curve.counts) == 4
    assert all(b >= a for a, b in zip(curve.counts, curve.counts[1:]))
    assert meta["threshold"] == pytest.approx(E_1, abs=0.05)
    assert meta["unknowns"] <= Grid2DSpec().max_unknowns
    assert curve.fitted_exponent == pytest.approx(0.5, abs=0.25)


@lru_cache(maxsize=None)
def _small_threshold():
    """The lattice threshold of the small 2D grid: b = 1, lx = 1.8, hy = 0.4."""
    return counting.discrete_threshold(1.0, 1.8, 18, 0.4)


@pytest.mark.parametrize("y_width", [6.0, 5.7])  # ny = 30 and 29
@seed(20261018)
@settings(max_examples=20, deadline=None, database=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(1.0, 8.0))
def test_count_2d_monotone_in_lambda_on_one_grid(y_width, u, v, amplitude):
    threshold = _small_threshold()
    V = counting.standard_potential(1.0, amplitude=amplitude)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=1.8, y_width=y_width)
    lo, hi = sorted((u, v))
    n_lo, n_hi = (_count(1.0, V, f * threshold, spec=spec,
                         threshold=threshold) for f in (lo, hi))
    assert n_lo >= n_hi


@pytest.mark.parametrize("y_width", [6.0, 5.7])  # ny = 30 and 29
def test_counting_curve_2d_pool_matches_serial_and_count_2d(monkeypatch,
                                                            y_width):
    V = counting.standard_potential(1.0, amplitude=3.0)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=1.8, y_width=y_width)
    lams = [0.5, 0.2, 0.1, 0.04]
    serial, meta = counting.counting_curve_2d(1.0, V, lams, spec=spec)
    pooled, _ = counting.counting_curve_2d(1.0, V, lams, spec=spec, jobs=2)
    per_rung = tuple(_count(1.0, V, lam, spec=spec,
                            threshold=meta["threshold"])
                     for lam in lams)
    assert meta["unknowns"] == 35 * math.ceil(2.0 * y_width / 0.4)
    assert pooled.counts == serial.counts == per_rung
    # counts come back in the order of the lambdas given
    assert counting.count_2d(1.0, V, lams[::-1], spec=spec)[0] \
        == list(serial.counts[::-1])
    assert len(set(per_rung)) > 1

    # the odd sector of the third rung meets a singular block once: the
    # pool retries it and warns as count_2d does
    tau = meta["threshold"] - lams[2]
    shifted = tau * (1.0 + 1e-9)
    sweep = counting._sector_inertia
    refused = []

    def flaky(*args):
        if args[-1] == tau and len(args[0]) == 17 and not refused:
            refused.append(tau)
            raise NumericalError("near-singular pivot block in the inertia sweep")
        return sweep(*args)

    monkeypatch.setattr(counting, "_sector_inertia", flaky)
    with pytest.warns(RuntimeWarning) as warned:
        retried, _ = counting.counting_curve_2d(1.0, V, lams, spec=spec, jobs=2)
    assert refused == [tau]
    assert [str(w.message) for w in warned] == [
        f"odd sector counted at tau*(1 + 1e-9) = {shifted!r} "
        f"instead of tau = {tau!r}: near-singular Schur block"]
    assert retried.counts == serial.counts
