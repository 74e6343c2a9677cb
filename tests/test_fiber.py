"""Fiber solves against closed forms: oscillator levels at k=0, scaling,
parity interleaving, boundary data, residual order.

Oracle: the residual of a solved state under a fourth-order stencil, which
the solver's second-order matrix does not share.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from magbarrier import asymptotics, counting, fiber, specfun, tridiag
from magbarrier.errors import ConfigurationError, InvariantViolation, NumericalError
from magbarrier.fiber import Parity


def omegas(grids):
    """The energy of each band of per-grid pair lists, read through refined."""
    return [fiber.refined([pair.omega for pair in pairs]) for pairs in zip(*grids)]


def test_even_levels_at_k0_are_odd_integers():
    grids = fiber.sector(1.0, 0.0, Parity.EVEN, 3, refine=True)
    for omega, want in zip(omegas(grids), (1.0, 5.0, 9.0)):
        assert omega == pytest.approx(want, abs=1e-6)


def test_odd_levels_at_k0():
    grids = fiber.sector(1.0, 0.0, Parity.ODD, 3, refine=True)
    for omega, want in zip(omegas(grids), (3.0, 7.0, 11.0)):
        assert omega == pytest.approx(want, abs=1e-6)


def test_quadratic_scaling_between_fields():
    for parity in Parity:
        (p4,) = fiber.sector(4.0, 2.0, parity, 3)
        (p1,) = fiber.sector(1.0, 1.0, parity, 3)
        w4 = [p.omega for p in p4]
        w1 = [p.omega for p in p1]
        for a, c in zip(w4, w1):
            assert a == pytest.approx(4.0 * c, rel=1e-7)


def residual_norm(pair):
    """|| (h(k) - omega) psi ||_L2 with a fourth-order stencil.

    The eigenvector itself is second-order accurate, so this norm decays like
    h^2 under refinement. Measured over interior nodes only: the effective
    potential has a corner at the origin (the third derivative of psi jumps
    there for k != 0), so a stencil across x = 0 would read the corner, and
    the two nodes before the wall have no centered stencil; the state is
    exponentially dead at the wall anyway.
    """
    psi, h = pair.psi, pair.grid.h
    n = len(psi)
    d2 = (-psi[0:n - 4] + 16.0 * psi[1:n - 3] - 30.0 * psi[2:n - 2]
          + 16.0 * psi[3:n - 1] - psi[4:n]) / (12.0 * h * h)
    v = (pair.k - pair.b * pair.grid.x[2:n - 2]) ** 2
    res = -d2 + (v - pair.omega) * psi[2:n - 2]
    return math.sqrt(2.0 * h * (res ** 2).sum())


# field strengths log-uniform over more than two decades
_fields = st.floats(math.log(0.2), math.log(50.0)).map(math.exp)


@seed(20261018)
@settings(max_examples=30, deadline=None, database=None)
@given(_fields, st.floats(-60.0, 8.0), st.integers(1, 6), st.booleans())
def test_scaling_law_property(b, q, j, refine):
    # omega_j(k; b) = b omega_j(k / sqrt(b); 1) at k = q sqrt(b); the grid
    # size depends on q alone, so past the default grid too
    k = q * math.sqrt(b)
    got = fiber.refined([p.omega for p in fiber.band(b, k, j, refine=refine)])
    want = b * fiber.refined([p.omega for p in
                              fiber.band(1.0, k / math.sqrt(b), j, refine=refine)])
    assert got == pytest.approx(want, rel=1e-8)


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(_fields, st.floats(-100.0, 100.0), st.integers(1, 8))
def test_wall_keeps_default_grid_where_it_resolves_the_wall(b, q, levels):
    # every solve that resolves the wall at DEFAULT_RESOLUTION keeps it; a
    # deeper one grows in steps of 500 to resolve it
    scaled_L, root_v = fiber._scaled_wall(b, q * math.sqrt(b), levels)
    L, N = fiber._wall(b, q * math.sqrt(b), levels)
    assert L == pytest.approx(scaled_L / math.sqrt(b), rel=1e-15)
    if scaled_L / fiber.DEFAULT_RESOLUTION * root_v <= fiber.WALL_PHASE:
        assert N == fiber.DEFAULT_RESOLUTION
    else:
        assert N > fiber.DEFAULT_RESOLUTION and N % 500 == 0
        assert scaled_L / N * root_v <= fiber.WALL_PHASE * (1.0 + 1e-12)
        assert scaled_L / (N - 500) * root_v > fiber.WALL_PHASE


@seed(20261018)
@settings(max_examples=30, deadline=None, database=None)
@given(_fields, st.floats(-8.0, 8.0))
def test_parity_interleaving_property(b, q):
    (pairs,) = fiber.first_levels(b, q * math.sqrt(b), 6)
    assert [p.j for p in pairs] == [1, 2, 3, 4, 5, 6]


def test_merge_at_k0_gives_oscillator_ladder():
    grids = fiber.first_levels(1.0, 0.0, 6, refine=True)
    pairs = grids[-1]
    wants = (1.0, 3.0, 5.0, 7.0, 9.0, 11.0)
    for omega, want in zip(omegas(grids), wants):
        assert omega == pytest.approx(want, abs=1e-6)
    assert [p.j for p in pairs] == [1, 2, 3, 4, 5, 6]


def test_merge_matches_airy_interlacing_at_negative_k():
    # far on the barrier side the parity pattern follows the Airy zeros
    (pairs,) = fiber.first_levels(1.0, -10.0, 6)
    zs = []
    for j in (1, 2, 3):
        zs.append((specfun.airy_zero(specfun.AiryKind.ZERO_OF_AI_PRIME, j), Parity.EVEN))
        zs.append((specfun.airy_zero(specfun.AiryKind.ZERO_OF_AI, j), Parity.ODD))
    zs.sort(key=lambda t: -t[0])  # higher zero = lower energy
    for pair, (_, parity) in zip(pairs, zs):
        assert Parity.of_band(pair.j)[0] is parity


def boundary_bits(pair):
    return np.array([pair.omega, pair.psi0, pair.dpsi0]).tobytes()


@seed(20261018)
@settings(max_examples=30, deadline=None, database=None)
@given(_fields, st.floats(-3.0, 3.0), st.integers(1, 6), st.booleans())
def test_band_matches_merged_levels_on_random_inputs(b, q, j, refine):
    k = q * math.sqrt(b)
    alone = fiber.band(b, k, j, refine=refine)
    merged = fiber.first_levels(b, k, j, refine=refine)
    assert len(alone) == len(merged) == (2 if refine else 1)
    for pair, pairs in zip(alone, merged):     # grid by grid, bit for bit
        other = pairs[j - 1]
        assert boundary_bits(pair) == boundary_bits(other)
        assert pair.j == other.j
    assert fiber.refined((alone[0],)) is alone[0]


def test_parity_of_band_inverts_global_index():
    for parity in Parity:
        for m in range(1, 40):
            assert Parity.of_band(parity.global_index(m)) == (parity, m)
    with pytest.raises(ConfigurationError):
        Parity.of_band(0)


def test_merge_single_level_lists():
    even = fiber.sector(1.0, 0.5, Parity.EVEN, 1)
    odd = fiber.sector(1.0, 0.5, Parity.ODD, 1)
    (merged,) = fiber.merge_parities(even, odd)
    assert [p.j for p in merged] == [1, 2]
    assert merged[0].omega < merged[1].omega


def test_merge_detects_order_flip():
    (even,) = fiber.sector(1.0, 0.5, Parity.EVEN, 2)
    (odd,) = fiber.sector(1.0, 0.5, Parity.ODD, 2)
    with pytest.raises(InvariantViolation, match="between bands 3 and 2"):
        fiber.merge_parities(([even[1]],), ([odd[0]],))


def test_boundary_data_parity_exact_zeros():
    (even,) = fiber.sector(1.0, 1.2, Parity.EVEN, 2)
    (odd,) = fiber.sector(1.0, 1.2, Parity.ODD, 2)
    for pair in even:
        assert pair.dpsi0 == 0.0
        assert pair.psi0 != 0.0
    for pair in odd:
        assert pair.psi0 == 0.0
        assert pair.dpsi0 != 0.0


def test_ground_state_boundary_value_is_gaussian_peak():
    _, (pair,) = fiber.sector(1.0, 0.0, Parity.EVEN, 1, refine=True)   # the fine grid
    assert pair.psi0 == pytest.approx(math.pi ** -0.25, abs=1e-5)


def test_never_both_boundary_values_zero():
    rng = np.random.default_rng(5)
    for _ in range(12):
        b = float(rng.uniform(0.5, 8.0))
        k = float(rng.uniform(-4.0, 4.0))
        for pair in fiber.first_levels(b, k, 4)[0]:
            assert pair.psi0 ** 2 + pair.dpsi0 ** 2 > 0.0


def test_normalization_and_orthonormality_within_parity():
    (pairs,) = fiber.sector(1.0, -1.7, Parity.EVEN, 4)
    for i, a in enumerate(pairs):
        for j, c in enumerate(pairs):
            w = a.psi * c.psi
            got = 2.0 * a.grid.h * (0.5 * w[0] + w[1:].sum())
            assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_ground_state_positive():
    for k in (-3.0, 0.0, 2.5):
        [(pair,)] = fiber.first_levels(1.0, k, 1)
        assert np.all(pair.psi >= -1e-10 * pair.psi.max())
        assert pair.psi[1:-5].min() > 0.0


def test_residual_second_order_under_doubling():
    L, _ = fiber._wall(1.0, 1.3, 2)
    coarse = fiber._assemble(1.0, 1.3, Parity.EVEN, 2, L, 1500)
    fine = fiber._assemble(1.0, 1.3, Parity.EVEN, 2, L, 3000)
    for pc, pf in zip(coarse, fine):
        order = math.log2(residual_norm(pc) / residual_norm(pf))
        assert order >= 1.9


def test_band_bounds_against_oscillator_levels():
    # odd bands sit strictly above their limit, even bands at or below for k >= 0
    for k in (-3.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        grids = fiber.first_levels(1.0, k, 4, refine=True)
        for pair, omega in zip(grids[-1], omegas(grids)):
            m = (pair.j + 1) // 2  # local index within the parity class
            if Parity.of_band(pair.j)[0] is Parity.ODD:
                assert omega > 2.0 * m - 1.0
            elif k >= 0.0:
                # even band m stays at or below oscillator level 2m-1
                assert omega <= 2.0 * (2 * m - 1) - 1.0 + 1e-8


def test_wall_margin_and_scaling():
    b, k = 1.0, 0.0
    L, N = fiber._wall(b, k, 3)
    assert N == fiber.DEFAULT_RESOLUTION
    omega3 = omegas(fiber.sector(b, k, Parity.EVEN, 3, refine=True))[-1]
    assert (k - b * L) ** 2 >= 4.0 * omega3
    L10, _ = fiber._wall(1.0, 10.0, 3)
    assert L10 > 10.0  # both wells enclosed
    L100, N100 = fiber._wall(100.0, 0.0, 3)
    assert L100 == pytest.approx(L / 10.0, rel=1e-12) and N100 == N


def test_wall_rejects_impossible_requests():
    # 300 levels outgrow the default grid, which grows with them
    _, N = fiber._wall(1.0, 0.0, 300)
    assert N > fiber.DEFAULT_RESOLUTION
    with pytest.raises(ConfigurationError):
        fiber.sector(1.0, 0.0, Parity.EVEN, 0)


def test_wall_refuses_grids_the_eigensolver_cannot_take(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a stencil was built")

    monkeypatch.setattr(fiber, "stencil", boom)
    # LAPACK squares the off-diagonal 1/h^2, which underflows at this field
    with pytest.raises(NumericalError, match="underflows"):
        fiber.sector(1e-160, 0.0, Parity.EVEN, 1)
    # the doubled grid of a refined solve would outgrow the row budget, and
    # a k outside the float range sizes no grid at all
    for k in (-1e5, 1e8, -math.inf, math.inf, math.nan):
        with pytest.raises(NumericalError, match="budget"):
            fiber.sector(1.0, k, Parity.EVEN, 1)
    # printed to 3 digits, not as an 11-digit integer
    with pytest.raises(NumericalError, match=r"needs 8\.89e\+10 rows"):
        fiber.sector(1.0, -1e5, Parity.EVEN, 1)


def test_wall_budget_counts_every_level_of_the_doubled_grid(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a stencil was built")

    monkeypatch.setattr(fiber, "stencil", boom)
    # eigh_tridiagonal returns one vector of 2N rows per level; 400 levels
    # at k = 0 fit (N = 24500), 450 (N = 27500) and 1000 (N = 60500) do not
    _, N = fiber._wall(1.0, 0.0, 400)
    assert N == 24500 and 2 * N * 400 <= fiber.MAX_ROWS
    for levels, rows in ((450, "5.5e+04"), (1000, "1.21e+05")):
        with pytest.raises(NumericalError, match=re.escape(
                f"needs {rows} rows x {levels} level(s), past the budget")):
            fiber.sector(1.0, 0.0, Parity.EVEN, levels)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(_fields, st.floats(-20.0, 20.0), st.sampled_from(Parity),
       st.floats(0.5, 60.0), st.integers(3, 9000))
def test_stencil_nodes_are_the_parity_node_rule_bit_for_bit(b, k, parity, L, N):
    # even nodes i L/N from i = 0, odd from i = 1: the expressions count_2d
    # and the lattice slope spelt out before the stencil returned its nodes
    d, e, x = fiber.stencil(b, k, parity, L, N)
    first = 0 if parity is Parity.EVEN else 1
    assert x.tobytes() == (np.arange(first, N) * (L / N)).tobytes()
    assert len(d) == len(x) == N - first and len(e) == len(x) - 1


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(_fields, st.floats(-8.0, 8.0), st.sampled_from(Parity),
       st.integers(0, 4), st.integers(0, 2), st.integers(200, 2000))
def test_eigenpairs_values_do_not_depend_on_vectors(b, q, parity, first, more, N):
    k = q * math.sqrt(b)
    L, _ = fiber._wall(b, k, first + more + 1)
    w, v, x = fiber.eigenpairs(b, k, parity, L, N, first, first + more)
    alone, none, x_alone = fiber.eigenpairs(b, k, parity, L, N, first,
                                            first + more, vectors=False)
    assert none is None and v.shape == (len(x), more + 1)
    assert alone.tobytes() == w.tobytes() and x_alone.tobytes() == x.tobytes()


@seed(20261020)
@settings(max_examples=30, deadline=None, database=None)
@given(_fields, st.floats(-8.0, 8.0), st.integers(1, 40), st.booleans())
def test_first_levels_energies_do_not_depend_on_vectors(b, q, n_bands, refine):
    k = q * math.sqrt(b)
    paired = fiber.first_levels(b, k, n_bands, refine)
    levels = fiber.first_levels(b, k, n_bands, refine, vectors=False)
    assert len(levels) == len(paired)
    for pairs, alone in zip(paired, levels):
        assert all(isinstance(level, fiber.Level) for level in alone)
        assert [(p.j, p.k, p.omega, p.grid.h) for p in pairs] \
            == [(p.j, p.k, p.omega, p.grid.h) for p in alone]


def test_every_sector_solve_reports_a_lapack_failure_as_numerical(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("planted")

    monkeypatch.setattr(fiber, "eigh_tridiagonal", fail)
    solves = [lambda: fiber.band(1.0, 0.5, 2),
              lambda: asymptotics._precise_level(1.0, 1, (4.0, Parity.ODD, 1500)),
              lambda: counting._lattice_value(1.0, 7.4, 148, 0.8, 0.5),
              lambda: counting._lattice_slope(1.0, 7.4, 148, 0.8, 0.5)]
    for solve in solves:
        with pytest.raises(NumericalError, match=r"^fiber eigensolve failed at "
                           r"b=1, k=\S+: planted$"):
            solve()


def test_sturm_count_consistent_with_solved_levels():
    L, _ = fiber._wall(1.0, 0.6, 3)
    pairs = fiber._assemble(1.0, 0.6, Parity.EVEN, 3, L, 1000)
    d, e, _ = fiber.stencil(1.0, 0.6, Parity.EVEN, L, 1000)
    e2 = (e * e).tolist()
    piv = tridiag.pivmin(d.tolist(), e2)
    for m, pair in enumerate(pairs):
        assert tridiag.sturm_count(d.tolist(), e2, pair.omega + 1e-9, piv) == m + 1
        got = tridiag.bisect_eigenvalue(d.tolist(), e2, m, 0.0, pair.omega + 1.0)
        # both routes are exact to eps * ||T||; compare at that floor
        assert got == pytest.approx(pair.omega, abs=1e-10)


def _reference_fix_sign(psi):
    """The scalar scan fiber._fix_sign replaced; the oracle below."""
    a = np.abs(psi)
    top = a.max()
    idx = None
    if a[0] >= a[1] and a[0] > 0.05 * top:
        idx = 0
    else:
        for i in range(1, len(a) - 1):
            if a[i] >= a[i - 1] and a[i] >= a[i + 1] and a[i] > 0.05 * top:
                idx = i
                break
    if idx is None:
        idx = int(np.argmax(a))
    if psi[idx] < 0.0:
        psi *= -1.0
    return psi


# small integers give plateaus, ties, all-equal vectors and exact zeros;
# floats around 0.05 of the peak probe the threshold; both signs everywhere
_entries = st.one_of(st.integers(-3, 3).map(float),
                     st.floats(-2.0, 2.0, allow_subnormal=False),
                     st.sampled_from([0.05, -0.05, 0.0499, 1.0, -1.0]))


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(_entries, min_size=2, max_size=40))
@example([1.0, 1.0])
@example([-1.0, -1.0])
@example([0.0, 0.0, 0.0])
@example([0.0, -1.0])
@example([0.01, -1.0, 0.01])
@example([0.0, -1.0, -1.0])
@example([1.0, -1.0, 1.0])
@example([0.04, -0.04, -1.0, 0.5])
@example([0.1, 0.2, -0.2, -2.0, 0.0])
def test_fix_sign_equals_reference_scan_property(values):
    psi = np.array(values)
    want = _reference_fix_sign(psi.copy())
    got = fiber._fix_sign(psi)
    assert got is psi                       # flipped in place
    assert got.tobytes() == want.tobytes()
