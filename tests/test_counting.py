"""Eigenvalue counting: reduced potential, 1D/2D inertia counts, asymptotics."""

import itertools
import math
import tracemalloc
from contextlib import contextmanager, nullcontext
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from oracles import birman_schwinger_count, whole_array_count_1d
from scipy.linalg import lapack
from scipy.optimize import minimize_scalar

from magbarrier import bands, cli, counting, fiber
from magbarrier.counting import Grid2DSpec
from magbarrier.errors import ConfigurationError, InvariantViolation, NumericalError
from magbarrier.fiber import Parity

KAPPA_1 = 0.768183653380
BETA_1 = 0.5855127449
E_1 = 0.590106125320


@pytest.fixture(scope="module")
def ground_b1():
    (ground,) = fiber.band(1.0, KAPPA_1, 1)
    return ground


@pytest.fixture(scope="module")
def reduced_b1(ground_b1):
    """The exact reduced potential Q(y) = <psi_1, v1 psi_1> v2(y) of count2d's
    potential at alpha = 1, b = 1, as Q, with its tail coefficient ell."""
    V = counting.DecayPotential(1.0)
    transverse = fiber.expectation(
        ground_b1, np.asarray(V.v1(ground_b1.grid.x), dtype=float))
    return SimpleNamespace(Q=lambda y: V.v2(y) * transverse,
                           ell=counting.tail_coefficient(V, ground_b1), alpha=1.0)


# ---------------------------------------------------------------------------
# potentials


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       st.floats(1e-300, 1e300), st.floats(-1e8, 1e8), st.floats(-1e8, 1e8))
def test_standard_potential_respects_decay_bound(alpha, amplitude, x, y):
    V = counting.DecayPotential(alpha, amplitude=amplitude)
    v1, v2 = float(V.v1(x)), float(V.v2(y))
    assert float(V.v1(-x)) == v1 and float(V.v2(-y)) == v2
    assert v1 >= 0.0 and v2 >= 0.0
    # (1+|y|)^2 <= 2 (1+y^2): the sharp constant A 2^{alpha/2}, attained at
    # x = 0, |y| = 1, up to the rounding of both sides
    bound = amplitude * 2.0 ** (alpha / 2.0) \
        * (1.0 + abs(x)) ** -alpha * (1.0 + abs(y)) ** -alpha
    assert v1 * v2 <= bound * (1.0 + 1e-12) + 1e-300


# ---------------------------------------------------------------------------
# reduced potential


def test_reduced_potential_matches_quadrature():
    # the ell count2d prints at b = 1, alpha = 1 (its JSON's 17 digits), read
    # from the sampled tail |y|^alpha Q over 50 <= y <= 500, which sits
    # within 2e-4 of its limit, the x-quadrature <psi_1, v1 psi_1>
    (ground,) = fiber.band(1.0, bands.find_minimum(1, 1.0).kappa, 1)
    V = counting.DecayPotential(1.0)
    ell = counting.tail_coefficient(V, ground)
    assert ell.hex() == (0.6176108829052861).hex()
    transverse = fiber.expectation(ground, np.asarray(V.v1(ground.grid.x),
                                                      dtype=float))
    assert ell == pytest.approx(transverse, rel=2e-4)
    assert ell < transverse


def test_tail_coefficient_refuses_an_underflowing_amplitude(ground_b1):
    # ell scales with the amplitude down to the smallest normal floats; at
    # the smallest subnormal amplitude every sample underflows to 0, and a
    # zero ell would give a zero counting constant
    unit = counting.tail_coefficient(counting.DecayPotential(1.0), ground_b1)
    tiny = counting.tail_coefficient(
        counting.DecayPotential(1.0, amplitude=1e-300), ground_b1)
    assert tiny == pytest.approx(1e-300 * unit, rel=1e-12)
    with pytest.raises(NumericalError, match="tail coefficient came out nonpositive"):
        counting.tail_coefficient(
            counting.DecayPotential(1.0, amplitude=5e-324), ground_b1)


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


def test_counting_constant_2d_identity_and_scaling():
    # the 2D prefactor is the 1D constant at the effective mass m = sqrt(beta1),
    # as count2d computes it; the 1/m factor makes it scale like beta1^{-1/2}
    def constant_2d(alpha, L, beta1):
        return counting.counting_constant_1d(alpha, L, math.sqrt(beta1))

    for alpha, L in ((0.7, 0.3), (1.0, 1.0), (1.5, 2.0)):
        assert constant_2d(alpha, L, BETA_1) * math.sqrt(BETA_1) == \
            pytest.approx(constant_2d(alpha, L, 1.0), rel=1e-13)
    assert constant_2d(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    halved = constant_2d(1.0, 1.0, 0.5 * BETA_1)
    full = constant_2d(1.0, 1.0, BETA_1)
    assert halved == pytest.approx(full * math.sqrt(2.0), rel=1e-12)


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


def _inertia_in_pieces(d, e, tau, cuts):
    """tridiagonal_inertia over the pieces of (d, e) that start at row 0 and
    at each row of `cuts`, joined by carry as count_1d joins its chunks."""
    bounds = [0, *cuts, len(d)]
    carry, count = [0.0, None], 0
    for lo, hi in zip(bounds, bounds[1:]):
        if lo:
            carry[0] = float(e[lo - 1])
        count += counting.tridiagonal_inertia(d[lo:hi], e[lo:hi - 1], tau, carry)
    return count


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([1, 2, 3, 7, 40, 1000]), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from(["float64", "longdouble", "list"]))
def test_inertia_pieces_joined_by_carry_equal_one_sweep(n, rng_seed, integer,
                                                        kind):
    rng = np.random.default_rng(rng_seed)
    if integer:
        d = rng.integers(-3, 4, size=n)
        e = rng.choice([-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0], size=n - 1)
        tau = float(rng.integers(-4, 5))
    else:
        d = rng.normal(size=n) * 3.0
        e = rng.normal(size=n - 1)
        tau = float(rng.normal())
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(
        0, 6))), replace=False).tolist()) if n > 1 else []
    d, e = _as_kind(kind, d, e)
    whole = counting.tridiagonal_inertia(d, e, tau)
    assert whole == _reference_inertia(d, e, tau)
    assert _inertia_in_pieces(d, e, tau, cuts) == whole


CHUNK = counting.INERTIA_CHUNK


@pytest.mark.parametrize("n, zero_rows, cuts", [
    (1, [0], []), (2, [0], [1]), (2, [1], [1]), (2, [0, 1], []),
    (10, [9], []),                        # the last row
    (13, [9], [10]),                      # the last row of a piece
    (13, [10], [10]),                     # the first row after a seam
    (13, [9, 10], [10]),
    (21, [19, 20], [10, 20]),             # a last piece of one row
])
def test_inertia_exact_zero_pivots_at_piece_seams_and_ends(n, zero_rows, cuts):
    # d[row] = tau with no coupling to the row before makes that pivot an
    # exact zero: it counts, and the clamp carries it into the next row,
    # across a seam through carry
    rng = np.random.default_rng(n + sum(zero_rows))
    d = rng.normal(size=n) * 3.0
    e = rng.normal(size=n - 1)
    tau = 0.5
    for row in zero_rows:
        d[row] = tau
        if row:
            e[row - 1] = 0.0
    got = counting.tridiagonal_inertia(d, e, tau)
    assert got == _reference_inertia(d, e, tau)
    assert _inertia_in_pieces(d, e, tau, cuts) == got
    if n <= 2:
        assert got == int((np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1)
                                              + np.diag(e, -1)) <= tau).sum())


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
        n = counting.count_1d(1.0, Q, lam, half_width=3.0 / lam)
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
    with pytest.raises(TypeError, match="half_width"):
        counting.count_1d(1.0, zero, 0.1)  # the caller sizes the line
    negative = lambda y: -np.ones_like(np.asarray(y, dtype=float))
    with pytest.raises(ConfigurationError):
        counting.count_1d(1.0, negative, 0.1, half_width=10.0)
    # a NaN is no nonnegative value either, even past a refusal already due
    far_nan = lambda y: np.where(np.asarray(y) > 2000.0, np.nan, 4e4)
    for Q in (lambda y: np.full(np.shape(y), np.nan), far_nan):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            counting.count_1d(1.0, Q, 0.1, half_width=3000.0)


def test_count_1d_narrow_grid_is_a_resolution_error():
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    with pytest.raises(NumericalError, match="stops short of the turning point"):
        counting.count_1d(1.0, Q, 1e-3, half_width=30.0)


def _bracket(m, Q, lam, half_width, h, pad):
    """(Dirichlet, whole, Neumann) counts below -lam: on the box, on the box
    padded by pad nodes each side (the same nodes inside), and on the box
    with its two outside links dropped."""
    s = m * m / (h * h)
    n = math.ceil(2.0 * half_width / h)
    counts = []
    for lo, drop in ((0, 0.0), (-pad, 0.0), (0, s)):
        ys = (np.arange(lo, n - lo) - 0.5 * (n - 1)) * h
        d = 2.0 * s - Q(ys)
        d[0] -= drop
        d[-1] -= drop
        counts.append(counting.tridiagonal_inertia(d, np.full(len(d) - 1, -s), -lam))
    return counts


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(m=st.floats(0.5, 2.0), amplitude=st.floats(0.2, 3.0),
       alpha=st.floats(0.3, 1.9), half_width=st.floats(1.0, 60.0),
       step=st.floats(0.05, 1.0), above=st.floats(1e-3, 2.0))
def test_count_1d_bracket_encloses_a_wider_box(m, amplitude, alpha, half_width,
                                               step, above):
    # a decreasing well, a box past its turning point (Q below lam at the
    # first node outside) and a step that resolves the bottom of the well
    Q = lambda y: amplitude * (1.0 + np.asarray(y, dtype=float) ** 2) ** (-alpha / 2.0)
    h = step * m / math.sqrt(amplitude)
    n = math.ceil(2.0 * half_width / h)
    lam = float(Q(0.5 * (n + 1) * h)) * (1.0 + above)
    lower, whole, upper = _bracket(m, Q, lam, half_width, h, pad=3 * n // 2)
    assert lower <= whole <= upper
    if lower == upper:
        assert counting.count_1d(m, Q, lam, half_width=half_width, h=h) == lower
    else:
        with pytest.raises(NumericalError, match="does not certify"):
            counting.count_1d(m, Q, lam, half_width=half_width, h=h)


def test_verified_count_1d_builds_one_line_grid(monkeypatch):
    # one pass over one grid: each chunk of nodes is built once, in order,
    # and feeds both bracket sweeps
    calls, line_nodes = [], counting._line_nodes

    def spy(n, h, start):
        calls.append((n, h, start))
        return line_nodes(n, h, start)

    monkeypatch.setattr(counting, "_line_nodes", spy)
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    assert counting.count_1d(1.0, Q, 3e-3, half_width=1000.0) == 17
    n = 40_000      # 2000 / DEFAULT_H_1D: two chunks and one seam
    assert calls == [(n, counting.DEFAULT_H_1D, start)
                     for start in range(0, n, CHUNK)]


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid array was allocated")


def test_count_1d_refuses_an_oversized_grid_before_allocating(monkeypatch):
    monkeypatch.setattr(counting, "_line_nodes", _no_grid)
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    # the budget counts the rows of the box that is built, and names that box
    width = 0.6 * fiber.MAX_ROWS * counting.DEFAULT_H_1D
    message = f"2.4e\\+07 rows at half-width {width:g} exceeds"
    with pytest.raises(NumericalError, match=message):
        counting.count_1d(1.0, Q, 1e-3, half_width=width)
    # turning points of 1e30 and past the float range
    for alpha in (0.1, 0.001):
        width = counting.TURNING_FACTOR * counting.tail_turning_point(
            1.0, 1e-3, alpha)
        with pytest.raises(NumericalError, match="budget"):
            counting.count_1d(1.0, lambda y: np.zeros_like(y), 1e-3,
                              half_width=width)
    # a box too narrow for one node, as a turning point that underflows to 0
    # gives, has no grid to count on
    for width in (0.0, -1.0):
        with pytest.raises(NumericalError, match=f"box \\|y\\| <= {width:g} "
                           "holds no node of the grid of step h=0.05"):
            counting.count_1d(1.0, Q, 1e-3, half_width=width)


def _node_table(values, h):
    """Q that takes values[i] at node i of the len(values)-node line grid of
    step h, and 0 off it; planted pivots need Q node by node."""
    n = len(values)

    def Q(y):
        i = np.rint(np.asarray(y, dtype=float) / h + 0.5 * (n - 1)).astype(np.int64)
        inside = (i >= 0) & (i < n)
        out = np.zeros(i.shape)
        out[inside] = values[i[inside]]
        return out

    return Q


def _seam_zero_table(n, row):
    """Q on n nodes, at m = 1, h = 0.5 and lam = 2, whose Dirichlet pivot at
    `row` is an exact zero: Q = 2 at node 0 starts the pivots at 8, Q = 0
    keeps them there (10 - 16/8), and Q = 4, 4, 2 ending at `row` steps
    them 4, 2, 0 (10 - Q - 16/p), every float exact. Q stays within the
    wavelength limit m^2/h^2 = 4."""
    values = np.zeros(n)
    values[0] = 2.0
    values[row - 2:row + 1] = [4.0, 4.0, 2.0]
    return _node_table(values, 0.5)


@st.composite
def line_counts(draw, chunk=CHUNK):
    """count_1d arguments on grids of 1, 2, a few and over 3 seams of
    `chunk`-row chunks: decreasing wells, some negative, under-resolved or
    stopping short of the turning point, and planted exact zero pivots on
    seam rows."""
    n = draw(st.sampled_from([1, 2, 7, 3 * chunk + 1])) if draw(st.booleans()) \
        else draw(st.integers(3 * chunk + 2, 4 * chunk))
    if n > 3 * chunk and draw(st.booleans()):
        row = draw(st.sampled_from([chunk - 1, chunk, 2 * chunk, 3 * chunk - 1,
                                    3 * chunk]))
        return 1.0, _seam_zero_table(n, row), 2.0, 0.25 * n, 0.5
    m = draw(st.floats(0.5, 2.0))
    amplitude = draw(st.floats(0.2, 3.0))
    alpha = draw(st.floats(0.3, 1.9))
    offset = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-3]))
    h = draw(st.floats(0.05, 1.2)) * m / math.sqrt(amplitude)
    half_width = 0.5 * n * h
    edge = amplitude * (1.0 + (0.5 * (n + 1) * h) ** 2) ** (-alpha / 2.0)
    lam = edge * draw(st.floats(0.5, 3.0))
    Q = lambda y: amplitude * (1.0 + np.asarray(y, dtype=float) ** 2) \
        ** (-alpha / 2.0) - offset
    return m, Q, lam, half_width, h


def _outcome(count, args):
    try:
        return count(*args)
    except (ConfigurationError, NumericalError) as exc:
        return type(exc), str(exc)


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
@given(line_counts())
def test_streamed_count_1d_equals_the_whole_array_oracle(args):
    assert _outcome(counting.count_1d, args) == _outcome(whole_array_count_1d, args)


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
@given(line_counts(chunk=7))
def test_count_1d_in_seven_row_chunks_equals_the_whole_array_oracle(args):
    # a short grid crosses many seams, each joined by carry
    with mock.patch.object(counting, "INERTIA_CHUNK", 7):
        streamed = _outcome(counting.count_1d, args)
    assert streamed == _outcome(whole_array_count_1d, args)


@pytest.mark.parametrize("row", [CHUNK - 1, CHUNK, 3 * CHUNK])
def test_planted_seam_pivot_is_an_exact_zero(row):
    # the Dirichlet recurrence of the table, row by row, from the steady 8
    Q = _seam_zero_table(3 * CHUNK + 5, row)
    q = Q((np.arange(3 * CHUNK + 5) - 0.5 * (3 * CHUNK + 4)) * 0.5)
    pivot = 8.0
    for i in range(row - 2, row + 1):
        pivot = (8.0 - q[i] + 2.0) - 16.0 / pivot
    assert pivot == 0.0 and q[row - 3] == 0.0
    # the Dirichlet count is in the outcome, as the count or in the text of
    # a bracket that does not certify it
    args = (1.0, Q, 2.0, 0.25 * len(q), 0.5)
    assert _outcome(counting.count_1d, args) \
        == _outcome(whole_array_count_1d, args)


def _traced_peak(count, *args):
    tracemalloc.start()
    try:
        count(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_1d_memory_is_a_few_chunks_at_any_box():
    # the default count1d ladder's deepest rung: 1.2 M rows, certified
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    args = (1.0, Q, 1e-4, 3e4)
    chunk_bytes = 8 * CHUNK
    assert _traced_peak(counting.count_1d, *args) < 8 * chunk_bytes
    # the whole-array count holds y, Q, d and e of 1.2 M rows at once
    assert _traced_peak(whole_array_count_1d, *args) > 100 * chunk_bytes


def test_line_box_reaches_past_a_slowly_decaying_level():
    # three turning points set the box of the default ladder; a heavy mass
    # at a shallow gap gets DECAY_LENGTHS decay lengths past one
    for lam in (1e-3, 3e-4, 1e-4):
        assert counting.line_half_width(1.0, lam, 1.0, 1.0) \
            == counting.TURNING_FACTOR * counting.tail_turning_point(1.0, lam, 1.0)
    width = counting.line_half_width(1.0, 0.3, 1.0, 3.0)
    assert width == 1.0 / 0.3 + counting.DECAY_LENGTHS * 3.0 / math.sqrt(0.3)
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    assert counting.count_1d(3.0, Q, 0.3, width) == 1
    with pytest.raises(NumericalError, match="Dirichlet 0 and Neumann 1 differ"):
        counting.count_1d(3.0, Q, 0.3, counting.TURNING_FACTOR / 0.3)


def test_turning_point_and_constant_past_the_float_range():
    assert counting.tail_turning_point(4.0, 1.0, 0.5) == 16.0
    assert counting.tail_turning_point(1.0, 1e-3, 0.001) == math.inf
    with pytest.raises(NumericalError, match="overflows"):
        counting.counting_constant_1d(0.001, 3.0, 1.0)


def test_count_1d_reduced_potential_path(reduced_b1):
    m = math.sqrt(BETA_1)
    n = counting.count_1d(m, reduced_b1.Q, 1e-3, half_width=counting.TURNING_FACTOR
                          * counting.tail_turning_point(reduced_b1.ell, 1e-3, 1.0))
    assert n == 25
    # every rung on the grid sized for the smallest lambda, so the counts'
    # monotonicity is a spectral fact rather than one about varying grids
    lams = [3e-3, 1e-3, 3e-4, 1e-4]
    width = counting.TURNING_FACTOR * (reduced_b1.ell / lams[-1]) \
        ** (1.0 / reduced_b1.alpha)
    counts = [counting.count_1d(m, reduced_b1.Q, lam, half_width=width)
              for lam in lams]
    assert counts == [14, 25, 46, 80]
    exponent, _ = counting.power_law_fit(lams, counts)
    assert exponent == pytest.approx(0.5, abs=0.05)


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
    # one grid for both gaps, so a deeper threshold can only count more; the
    # box reaches three turning points past the deepest, where both certify
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    lo, hi = sorted((lam_a, lam_b))
    n_lo, n_hi = (counting.count_1d(m, Q, lam, half_width=3000.0, h=0.1)
                  for lam in (lo, hi))
    assert n_lo >= n_hi


# ---------------------------------------------------------------------------
# curves and the fit


def test_curve_invariants():
    # a ladder is refused before any sweep unless free of repeated rungs;
    # its order does not matter
    assert counting.checked_ladder([1e-3, 1e-2, 1e-4, 1e-1]) \
        == [1e-1, 1e-2, 1e-3, 1e-4]
    with pytest.raises(ConfigurationError, match="repeated"):
        counting.checked_ladder([0.3, 0.3, 0.066, 0.03])
    # count1d's ladder need not be fit-worthy, only free of repeated rungs
    assert counting.distinct_ladder([1e-4, 1e-3]) == [1e-3, 1e-4]
    with pytest.raises(ConfigurationError, match="repeated"):
        counting.distinct_ladder([1e-3, 1e-3, 1e-4])


def test_count_2d_refuses_counts_that_decrease_with_lambda(monkeypatch):
    # planted sector counts that grow with lambda break the exact invariant
    threshold = _small_threshold()
    monkeypatch.setattr(counting, "_count_sector",
                        lambda unit: (round(10.0 * (threshold - unit[2])), 0,
                                      unit[2]))
    V = counting.DecayPotential(1.0)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=1.8, y_width=6.0)
    monkeypatch.setattr(counting, "discrete_threshold", lambda *grid: threshold)
    with pytest.raises(InvariantViolation, match="decrease"):
        counting.count_2d(1.0, V, [0.5, 0.2, 0.1, 0.04], spec=spec)
    # the same sectors on a one-rung ladder have nothing to compare
    assert counting.count_2d(1.0, V, [0.5], spec=spec)[0] == [10]


def test_asymptotics_check_one_dimensional_example():
    Q = lambda y: (1.0 + np.asarray(y, dtype=float) ** 2) ** -0.5
    lams = [3e-3, 1e-3, 3e-4, 1e-4]
    counts = [counting.count_1d(1.0, Q, lam, half_width=3.0 / lam)
              for lam in lams]
    exponent, prefactor = counting.power_law_fit(lams, counts)
    gap, ratio = abs(exponent - 0.5), prefactor / 1.0
    assert gap < 0.05
    assert 0.85 <= ratio <= 1.15


def test_asymptotics_check_synthetic_power_law():
    ns = [4, 8, 16, 32, 64]
    amplitude, power = 2.0, 0.5
    lams = [(amplitude / n) ** (1.0 / power) for n in ns]
    exponent, prefactor = counting.power_law_fit(lams, ns)
    gap, ratio = abs(exponent - 0.5), prefactor / amplitude
    assert gap < 1e-12
    assert ratio == pytest.approx(1.0, rel=1e-12)


def test_asymptotics_check_degenerate_and_guards():
    # a flat ladder has no slope: nothing is fitted, and the check fails
    assert counting.power_law_fit([1e-2, 3e-3, 1e-3, 1e-4], [5, 5, 5, 5]) \
        == (None, None)
    with pytest.raises(ConfigurationError):
        counting.checked_ladder([1e-2, 1e-3, 1e-4])
    with pytest.raises(ConfigurationError):
        counting.checked_ladder([1e-3, 8e-4, 6e-4, 4e-4])
    exponent, prefactor = counting.power_law_fit([1e-2, 3e-3, 1e-3, 1e-4],
                                                 [2, 4, 7, 22])
    assert exponent > 0.0 and prefactor > 0.0


# rungs 10^{-i/4} for increasing i, a quarter decade apart; runs of adjacent
# rungs make ladders whose nonzero part is too narrow to fit
_RUNGS = st.lists(st.sampled_from([1, 1, 4]), min_size=1, max_size=8).map(
    lambda gaps: np.cumsum(gaps).tolist())


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(_RUNGS, st.data())
def test_power_law_fit_is_the_polyfit_or_nothing(rungs, data):
    lams = [0.1 ** (i / 4.0) for i in rungs]
    counts = data.draw(st.lists(st.integers(0, 2) | st.integers(0, 60),
                                min_size=len(lams), max_size=len(lams)))
    fit = counting.power_law_fit(lams, counts)
    nonzero = [(lam, n) for lam, n in zip(lams, counts) if n > 0]
    if len({n for _, n in nonzero}) < 2:
        assert fit == (None, None)
        return
    x = np.log(np.array([lam for lam, _ in nonzero]))
    y = np.log(np.array([n for _, n in nonzero], dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    assert [v.hex() for v in fit] == \
        [float(-slope).hex(), math.exp(intercept).hex()]


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(_RUNGS, st.data())
def test_counting_curve_2d_fits_only_a_fit_worthy_nonzero_ladder(rungs, data):
    # ladder_fit, the fit count2d takes of count_2d's counts on a decreasing
    # ladder, fits only where the nonzero rungs pass the ladder check
    lams = [0.1 ** (i / 4.0) for i in rungs]
    steps = data.draw(st.lists(st.integers(0, 2), min_size=len(lams),
                               max_size=len(lams)))
    counts = np.cumsum(steps).tolist()
    nonzero = [lam for lam, n in zip(lams, counts) if n > 0]
    expected = (None, None) if counting._ladder_fault(nonzero) \
        else counting.power_law_fit(lams, counts)
    assert counting.ladder_fit(lams, counts) == expected


# ---------------------------------------------------------------------------
# 2D counts


def _count(b, V, lam, threshold=None, **kw):
    """count_2d of the one-rung ladder [lam], below `threshold` in place of
    the grid's discrete threshold if one is given."""
    with mock.patch.object(counting, "discrete_threshold",
                           lambda *grid: threshold) if threshold is not None \
            else nullcontext():
        (count,), _ = counting.count_2d(b, V, [lam], **kw)
    return count


@seed(20261019)
@settings(max_examples=30, deadline=None, database=None)
@given(st.floats(0.5, 3.0), st.sampled_from([0.4, 0.8]), st.integers(18, 300))
def test_discrete_threshold_matches_scipy_bounded_polish_of_its_scan(b, hy, nx):
    # the Hellmann-Feynman root against minimize_scalar's bounded polish of
    # the same scan: both are evaluations of the lattice band, so they differ
    # by the eigensolver's noise at ||T|| ~ 4/hx^2
    lx = (1.0 + math.sqrt(2.0) + 5.0) / math.sqrt(b)    # _grid_2d's default
    hx = lx / nx

    def value(k):
        return counting._lattice_value(b, lx, nx, hy, k)

    ks = np.linspace(0.0, math.pi / hy, counting.THRESHOLD_K_SAMPLES)
    vals = [value(k) for k in ks]
    i = int(np.argmin(vals))
    want = vals[i]
    if 0 < i < len(ks) - 1:
        polish = minimize_scalar(value, bounds=(ks[i - 1], ks[i + 1]),
                                 method="bounded", options={"xatol": 1e-9})
        want = min(want, polish.fun)
    got = counting.discrete_threshold(b, lx, nx, hy)
    assert abs(got - want) <= 16.0 * np.finfo(float).eps * 4.0 / hx ** 2


@pytest.mark.parametrize("b, hy, nx", [(1.0, 0.4, 48), (2.5, 0.8, 30)])
def test_lattice_slope_is_the_central_difference_of_the_lattice_value(b, hy, nx):
    lx, dk = 6.4 / math.sqrt(b), 1e-5
    for k in (0.1, 0.5, 0.9, 1.4, 2.2, 3.0):
        fd = (counting._lattice_value(b, lx, nx, hy, k + dk)
              - counting._lattice_value(b, lx, nx, hy, k - dk)) / (2.0 * dk)
        assert counting._lattice_slope(b, lx, nx, hy, k) == pytest.approx(fd, abs=1e-7)


def test_count_2d_matches_dense_eigensolve():
    b, hx, hy = 1.0, 0.1, 0.4
    nx, ny = 18, 30
    lx, y_width = nx * hx, 0.5 * ny * hy
    V = counting.DecayPotential(1.0, amplitude=3.0)
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


def _schur_complements(d_x, e_x, xs, b, v1_vals, v2_vals, hy, tau):
    """The Schur blocks S_j of the full sweep, formed densely with inv."""
    n = len(d_x)
    base = d_x + 2.0 / (hy * hy) - tau
    beta = -1.0 / (hy * hy) + 1j * b * xs / hy
    idx = np.arange(n - 1)
    prev_inv = None
    for j, v2j in enumerate(v2_vals):
        block = np.zeros((n, n), dtype=complex)
        block[np.arange(n), np.arange(n)] = base - v1_vals * v2j
        block[idx, idx + 1] = e_x
        block[idx + 1, idx] = e_x
        if prev_inv is not None:
            block -= np.conj(beta)[:, None] * prev_inv * beta[None, :]
        yield block
        if j != len(v2_vals) - 1:
            prev_inv = np.linalg.inv(block)


def _eigvalsh_sweep(*system):
    """The block sweep with each Schur block's inertia from its eigenvalues."""
    negatives = 0
    for block in _schur_complements(*system):
        eigs = np.linalg.eigvalsh(block)
        scale = np.abs(eigs).max()
        if scale == 0.0 or np.abs(eigs).min() < 1e-12 * scale:
            raise NumericalError("near-singular pivot block in the inertia sweep")
        negatives += int((eigs < 0.0).sum())
    return negatives


@contextmanager
def _sweep_spy():
    """Counts, over the sweeps run inside it, the dense Schur blocks
    (`blocks.call_count`), the zpbtrf calls that stopped at a slice that is
    not positive definite (`stops`), and the slices swept, banded or dense."""
    spy = SimpleNamespace(stops=0, slices=0)
    pbtrf = lapack.zpbtrf

    def spied(ab, **kwargs):
        factor, info = pbtrf(ab, **kwargs)
        n = ab.shape[0] - 1
        spy.stops += info > 0
        spy.slices += (info - 1) // n + 1 if info else ab.shape[1] // n
        return factor, info

    with mock.patch.object(lapack, "zpbtrf", spied), \
            mock.patch.object(counting, "_block_inertia",
                              wraps=counting._block_inertia) as spy.blocks:
        yield spy


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
    with _sweep_spy() as spy:
        count = counting._sector_inertia(*system, tau)
    # half the slices, dense only where zpbtrf stopped, plus the join block;
    # one slice has no half to skip and no join
    assert spy.slices == (ny // 2 if ny > 1 else 1)
    assert spy.blocks.call_count == spy.stops + (ny > 1)
    assert count == oracle == int((eigs < tau).sum())


def _chunk_caps(n):
    """SECTOR_CHUNK values that band 1 slice, 2 slices, and the default."""
    return (n * (n + 1), 2 * n * (n + 1), counting.SECTOR_CHUNK)


@seed(20261019)
@settings(max_examples=120, deadline=None, database=None)
@given(sectors(ny=st.integers(1, 12)), st.booleans())
def test_banded_sweep_equals_eigvalsh_sweep_at_every_chunk_size(sector,
                                                                mirrored):
    # chunks of one slice put a seam after every slice, so zpbtrf stops and
    # restarts, and the even-ny join, meet every chunk position
    system, tau = _mirrored(sector) if mirrored else (list(sector[:-1]),
                                                        sector[-1])
    eigs = _sector_eigenvalues(*system)
    assume(np.abs(eigs - tau).min() > 1e-8 * max(1.0, np.abs(eigs).max()))
    try:
        oracle = _eigvalsh_sweep(*system, tau)
    except NumericalError:
        assume(False)  # a near-singular Schur block; the guard is tested below
    for cap in _chunk_caps(len(system[0])):
        with mock.patch.object(counting, "SECTOR_CHUNK", cap):
            assert counting._sector_inertia(*system, tau) == oracle \
                == int((eigs < tau).sum())


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(sectors(ny=st.integers(1, 12)), st.booleans(), st.floats(0.0, 4.0))
def test_band_read_traces_equal_the_dense_schur_traces(sector, mirrored,
                                                       depth):
    # tau below the spectrum of T makes every S_j positive definite, so
    # zpbtrf never stops; depth sets how far below, and so kappa(S_j)
    system, _ = _mirrored(sector) if mirrored else (list(sector[:-1]), None)
    eigs = _sector_eigenvalues(*system)
    spread = max(eigs[-1] - eigs[0], 1.0)
    tau = eigs[0] - spread * 10.0 ** -depth
    ny = len(system[5])
    steps = ny // 2 if mirrored and ny > 1 else ny
    dense = [(np.trace(S).real, np.trace(np.linalg.inv(S)).real)
             for S in itertools.islice(_schur_complements(*system, tau), steps)]
    for cap in _chunk_caps(len(system[0])):
        seen = []
        guard = counting._band_guard

        def recorded(traces, *args):
            seen.extend(map(tuple, traces))
            return guard(traces, *args)

        with mock.patch.object(counting, "SECTOR_CHUNK", cap), \
                mock.patch.object(counting, "_band_guard", recorded):
            counting._sector_inertia(*system, tau)
        assert np.allclose(seen, dense, rtol=1e-10, atol=0.0)


def test_ill_conditioned_definite_slice_is_refused_from_the_band():
    # the sector twin of the dense block test below: slice 2 of 4 is a
    # positive definite Schur block of condition ~1e13, which zpbtrf factors
    # and reads a trace bound for; the bound hands it to eigvalsh, whose
    # rule refuses it, as _block_inertia refuses the same block
    n = 5
    d_x = np.array([1e14 + 1.0, 2.0, 2.0, 2.0, 2.0])
    v1 = np.array([1e14, 0.0, 0.0, 0.0, 0.0])
    system = (d_x, -np.ones(n - 1), np.linspace(0.0, 1.0, n), 1.0, v1,
              np.array([1.0, 1.0, 0.0, 1.0]), 1.0)
    tau = -10.0
    blocks = list(_schur_complements(*system, tau))
    eigs = np.linalg.eigvalsh(blocks[2])
    assert eigs.min() > 0.0 and 1e12 < eigs.max() / eigs.min() < 1e14
    with pytest.raises(NumericalError, match="near-singular"):
        counting._block_inertia(blocks[2])
    with _sweep_spy() as spy, \
            mock.patch.object(np.linalg, "eigvalsh",
                              wraps=np.linalg.eigvalsh) as eigvalsh:
        with pytest.raises(NumericalError, match="near-singular"):
            counting._sector_inertia(*system, tau)
    assert spy.stops == 0 and spy.slices == 4 and spy.blocks.call_count == 0
    assert eigvalsh.call_count == 1


def test_palindrome_off_by_one_ulp_takes_the_full_sweep():
    b, hy, ny = 1.0, 0.4, 9
    d_x, e_x, _ = fiber.stencil(b, 0.0, Parity.EVEN, 1.8, 18)
    xs = np.arange(18, dtype=float) * 0.1
    V = counting.DecayPotential(1.0, amplitude=3.0)
    v2 = V.v2((np.arange(ny) - 0.5 * (ny - 1)) * hy)
    skewed = v2.copy()
    skewed[-1] = np.nextafter(skewed[-1], 1.0)
    tau = 0.5
    for values, slices_run, joins in ((v2, ny // 2, 1), (skewed, ny, 0)):
        system = (d_x, e_x, xs, b, V.v1(xs), values, hy)
        with _sweep_spy() as spy:
            count = counting._sector_inertia(*system, tau)
        assert spy.slices == slices_run
        assert spy.blocks.call_count == spy.stops + joins
        assert count == _eigvalsh_sweep(*system, tau) \
            == int((_sector_eigenvalues(*system) < tau).sum())


def _hermitian(rng, eigenvalues):
    """A random complex Hermitian block with the given spectrum."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    block = (q * np.asarray(eigenvalues)) @ q.conj().T
    return np.ascontiguousarray(0.5 * (block + block.conj().T))


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["definite", "indefinite", "one small negative"]),
       st.floats(1e-8, 1e-2))
def test_block_inertia_equals_eigvalsh_count_on_random_blocks(n, rng_seed,
                                                              kind, small):
    rng = np.random.default_rng(rng_seed)
    eigenvalues = rng.uniform(0.1, 10.0, size=n)
    if kind == "indefinite":
        eigenvalues *= rng.choice([-1.0, 1.0], size=n)
        eigenvalues[0] = -eigenvalues[0]   # at least one of each sign when n > 1
    elif kind == "one small negative":
        eigenvalues[rng.integers(n)] = -small * eigenvalues.max()
    block = _hermitian(rng, eigenvalues)
    with mock.patch.object(lapack, "zhetri", wraps=lapack.zhetri) as bunch:
        negatives, inverse = counting._block_inertia(block)
    assert negatives == int((np.linalg.eigvalsh(block) < 0.0).sum()) \
        == int((eigenvalues < 0.0).sum())
    # definite or not, every block is inverted from its LDL^H factors, into
    # the lower triangle
    assert bunch.call_count == 1
    expected = np.linalg.inv(block)
    assert np.allclose(np.tril(inverse), np.tril(expected), rtol=0.0,
                       atol=1e-6 * np.abs(expected).max())


@seed(20261020)
@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 148), st.integers(0, 2 ** 32 - 1), st.booleans())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_inertia_never_reads_the_strict_upper_triangle(n, rng_seed,
                                                             definite):
    rng = np.random.default_rng(rng_seed)
    eigenvalues = rng.uniform(0.1, 10.0, size=n)
    if not definite:
        eigenvalues *= rng.choice([-1.0, 1.0], size=n)
    block = _hermitian(rng, eigenvalues)
    poisoned = block.copy()
    poisoned[np.triu_indices(n, 1)] = np.nan
    negatives, inverse = counting._block_inertia(block)
    # kappa_2 <= 100, so the guard clears the block without its eigenvalues
    with mock.patch.object(np.linalg, "eigvalsh") as eigvalsh:
        again, lower = counting._block_inertia(poisoned)
    assert eigvalsh.call_count == 0
    assert again == negatives == int((eigenvalues < 0.0).sum())
    assert np.array_equal(np.tril(lower).view(np.uint64),
                          np.tril(inverse).view(np.uint64))


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 8.0), st.booleans())
def test_frobenius_guard_bounds_kappa_and_never_passes_the_one_norm_bound(
        n, rng_seed, spread, definite):
    # ||S||_F ||S^-1||_F from the lower triangles: at least kappa_2, and at
    # most the n ||S||_1 ||S^-1||_1 the guard used before, so it clears
    # every block that bound cleared
    rng = np.random.default_rng(rng_seed)
    eigenvalues = np.geomspace(1.0, 10.0 ** spread, n)
    if not definite:
        eigenvalues *= rng.choice([-1.0, 1.0], size=n)
    block = _hermitian(rng, rng.permutation(eigenvalues))
    inverse = np.linalg.inv(block)
    bound = counting._frobenius(block) * counting._frobenius(inverse)
    one_norms = np.abs(block).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    kappa = np.abs(eigenvalues).max() / np.abs(eigenvalues).min()
    assert counting._frobenius(block) == pytest.approx(np.linalg.norm(block),
                                                       rel=1e-12)
    assert kappa * (1.0 - 1e-6) <= bound <= n * one_norms * (1.0 + 1e-12)


def test_ill_conditioned_definite_block_is_refused_after_bunch_kaufman():
    # zhetrf and zhetri factor and invert a positive definite block of
    # condition 1e13, but the condition guard refuses it
    rng = np.random.default_rng(20261019)
    block = _hermitian(rng, np.geomspace(1e-13, 1.0, 40))
    assert np.linalg.eigvalsh(block).min() > 0.0
    with mock.patch.object(lapack, "zhetri", wraps=lapack.zhetri) as bunch:
        with pytest.raises(NumericalError, match="near-singular"):
            counting._block_inertia(block)
    assert bunch.call_count == 1


def test_bunch_kaufman_runs_once_per_dense_block(tmp_path):
    # the count2d golden ladder, on one process so the spies see every block
    pbtrf = lapack.zpbtrf
    calls = {"stops": 0}

    def spied_pbtrf(band, **kwargs):
        factor, info = pbtrf(band, **kwargs)
        calls["stops"] += info > 0
        return factor, info

    argv = ["count2d", "--b", "1", "--hy", "0.8", "--lambdas",
            "0.3,0.14,0.066,0.03", "--jobs", "1", "--outdir", str(tmp_path)]
    with mock.patch.object(lapack, "zpbtrf", spied_pbtrf), \
            mock.patch.object(lapack, "zhetrf", wraps=lapack.zhetrf) as hetrf, \
            mock.patch.object(lapack, "zpotrf", wraps=lapack.zpotrf) as potrf:
        assert cli.main(argv) == 0
    # dense blocks: the slices where zpbtrf stopped, and the join of each of
    # the 4 rungs x 2 parities; no dense block tries Cholesky first
    assert calls["stops"] > 0
    assert hetrf.call_count == calls["stops"] + 8
    assert potrf.call_count == 0


@pytest.mark.parametrize("y_width", [6.0, 5.7])
def test_tau_on_a_sector_eigenvalue_is_refused_by_the_join_block(monkeypatch,
                                                                 y_width):
    b, hx, hy, lx, nx = 1.0, 0.1, 0.4, 1.8, 18
    V = counting.DecayPotential(1.0, amplitude=3.0)
    ny = math.ceil(2.0 * y_width / hy)
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    by_parity = {}
    for parity in (Parity.EVEN, Parity.ODD):
        d_x, e_x, _ = fiber.stencil(b, 0.0, parity, lx, nx)
        xs = np.arange(nx, dtype=float) * (lx / nx) if parity is Parity.EVEN \
            else np.arange(1, nx, dtype=float) * (lx / nx)
        by_parity[parity] = (d_x, e_x, xs, b, V.v1(xs), V.v2(ys), hy)
    even = _sector_eigenvalues(*by_parity[Parity.EVEN])
    odd = _sector_eigenvalues(*by_parity[Parity.ODD])
    tau = float(even[1])
    assert tau > 0.0 and np.abs(odd - tau).min() > 1e-6
    with _sweep_spy() as spy:
        with pytest.raises(NumericalError, match="singular"):
            counting._sector_inertia(*by_parity[Parity.EVEN], tau)
    # every half-sweep slice passed; the join block, dense, refused
    assert spy.slices == ny // 2
    assert spy.blocks.call_count == spy.stops + 1

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
    V = counting.DecayPotential(1.0, amplitude=3.0)
    nx, ny = 18, 30
    ys = (np.arange(ny) - 0.5 * (ny - 1)) * hy
    v2 = V.v2(ys)
    by_parity = {}
    for parity in (Parity.EVEN, Parity.ODD):
        d_x, e_x, _ = fiber.stencil(b, 0.0, parity, lx, nx)
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
    # with v1 zero the sectors hold the bare lattice operator, nothing of
    # which lies below its threshold: ny = 100 slices of hy = 0.4 on
    # |y| <= 20, both parities
    threshold = counting.discrete_threshold(1.0, 2.4, 24, 0.4)
    sectors = [fiber.stencil(1.0, 0.0, parity, 2.4, 24)
               for parity in (Parity.EVEN, Parity.ODD)]
    for lam in (0.05, 0.2, 0.45):
        assert sum(counting._sector_inertia(d_x, e_x, xs, 1.0, np.zeros(len(xs)),
                                            np.ones(100), 0.4, threshold - lam)
                   for d_x, e_x, xs in sectors) == 0
    single = _count(
        1.0, counting.DecayPotential(1.0, amplitude=3.0), 0.15,
        spec=Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0),
        threshold=threshold)
    doubled = _count(
        1.0, counting.DecayPotential(1.0, amplitude=6.0), 0.15,
        spec=Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0),
        threshold=threshold)
    assert 0 < single <= doubled


def test_count_2d_guards(monkeypatch):
    V = counting.DecayPotential(1.0)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=2.4, y_width=8.0)
    with pytest.raises(ConfigurationError):
        _count(1.0, V, 0.7, spec=spec)  # above the band floor
    monkeypatch.setattr(counting, "MAX_UNKNOWNS_2D", 100)
    with pytest.raises(NumericalError, match="budget of 100 unknowns"):
        _count(1.0, V, 0.15, spec=spec)


def test_2d_grid_past_its_budget_is_refused_before_allocating(monkeypatch,
                                                              reduced_b1):
    monkeypatch.setattr(counting, "discrete_threshold", _no_grid)
    monkeypatch.setattr(counting, "_sector_inertia", _no_grid)
    monkeypatch.setattr(fiber, "band", _no_grid)
    spec = Grid2DSpec(hy=0.8)
    # a y half-width of ~1e10, then one past the float range
    for alpha, match in ((0.2, "budget"), (0.001, "cannot be represented")):
        V = counting.DecayPotential(alpha)
        with pytest.raises(NumericalError, match=match):
            _count(1.0, V, 6e-3, spec=spec, ell=reduced_b1.ell)
        with pytest.raises(NumericalError, match=match):
            counting.count_2d(1.0, V, [0.06, 0.03, 0.012, 6e-3], spec=spec,
                              ell=reduced_b1.ell)
    # with neither a y half-width nor the tail coefficient nothing sizes y
    V = counting.DecayPotential(1.0)
    with pytest.raises(ConfigurationError, match="y_width"):
        _count(1.0, V, 6e-3, spec=spec)
    with pytest.raises(ConfigurationError, match="y_width"):
        counting.count_2d(1.0, V, [0.06, 0.03, 0.012, 6e-3], spec=spec)
    # a budget of ~1e310 unknowns, far past MAX_UNKNOWNS_2D, lets ~1e301
    # y-steps through to the underflow of hy^2
    monkeypatch.setattr(counting, "MAX_UNKNOWNS_2D", 10 ** 310)
    huge = Grid2DSpec(hy=1e-300)
    with pytest.raises(NumericalError, match=r"hy=1e-300 is too fine: hy\^2 underflows"):
        counting.count_2d(1.0, V, [0.06, 0.03, 0.012, 6e-3], spec=huge,
                          ell=reduced_b1.ell)


def test_count_2d_refinement_stability(reduced_b1):
    V = counting.DecayPotential(1.0)
    base = _count(1.0, V, 3e-2 * E_1, ell=reduced_b1.ell)
    finer = Grid2DSpec(hx=counting.DEFAULT_HX_2D / 1.25,
                       hy=counting.DEFAULT_HY_2D / 1.25)
    assert (base, _count(1.0, V, 3e-2 * E_1, spec=finer,
                         ell=reduced_b1.ell)) == (5, 5)


def test_counting_curve_2d_small_ladder(reduced_b1):
    V = counting.DecayPotential(1.0)
    lams = [0.1 * E_1, 0.05 * E_1, 0.02 * E_1, 0.01 * E_1]
    counts, meta = counting.count_2d(1.0, V, lams, ell=reduced_b1.ell)
    assert len(counts) == 4
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert meta["threshold"] == pytest.approx(E_1, abs=0.05)
    assert meta["unknowns"] <= counting.MAX_UNKNOWNS_2D
    exponent, _ = counting.ladder_fit(lams, counts)
    assert exponent == pytest.approx(0.5, abs=0.25)


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
    V = counting.DecayPotential(1.0, amplitude=amplitude)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=1.8, y_width=y_width)
    lo, hi = sorted((u, v))
    n_lo, n_hi = (_count(1.0, V, f * threshold, spec=spec,
                         threshold=threshold) for f in (lo, hi))
    assert n_lo >= n_hi


@pytest.mark.parametrize("y_width", [6.0, 5.7])  # ny = 30 and 29
def test_counting_curve_2d_pool_matches_serial_and_count_2d(monkeypatch,
                                                            tmp_path, y_width):
    V = counting.DecayPotential(1.0, amplitude=3.0)
    spec = Grid2DSpec(hx=0.1, hy=0.4, lx=1.8, y_width=y_width)
    lams = [0.5, 0.2, 0.1, 0.04]
    serial, meta = counting.count_2d(1.0, V, lams, spec=spec)
    pooled, _ = counting.count_2d(1.0, V, lams, spec=spec, jobs=2)
    per_rung = [_count(1.0, V, lam, spec=spec, threshold=meta["threshold"])
                for lam in lams]
    assert meta["unknowns"] == 35 * math.ceil(2.0 * y_width / 0.4)
    assert pooled == serial == per_rung
    # counts come back in the order of the lambdas given
    assert counting.count_2d(1.0, V, lams[::-1], spec=spec)[0] \
        == serial[::-1]
    assert len(set(per_rung)) > 1

    # the odd sector of the third rung meets a singular block once: a pool
    # worker retries it, and the parent warns as count_2d does; the refusal
    # is recorded in a file, which the worker process shares with the test
    tau = meta["threshold"] - lams[2]
    shifted = tau * (1.0 + 1e-9)
    sweep = counting._sector_inertia
    record = tmp_path / "refused"

    def flaky(*args):
        if args[-1] == tau and len(args[0]) == 17 and not record.exists():
            record.write_text(f"{tau!r}\n")
            raise NumericalError("near-singular pivot block in the inertia sweep")
        return sweep(*args)

    monkeypatch.setattr(counting, "_sector_inertia", flaky)
    with pytest.warns(RuntimeWarning) as warned:
        retried, _ = counting.count_2d(1.0, V, lams, spec=spec, jobs=2)
    refused = [float(line) for line in record.read_text().splitlines()]
    assert refused == [tau]
    assert [str(w.message) for w in warned] == [
        f"odd sector counted at tau*(1 + 1e-9) = {shifted!r} "
        f"instead of tau = {tau!r}: near-singular Schur block"]
    assert retried == serial
