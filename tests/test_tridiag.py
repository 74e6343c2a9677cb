"""Sturm counting and bisection against closed forms and LAPACK."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import wide_bracket_eigenvalue
from scipy.linalg import eigh_tridiagonal

from magbarrier import asymptotics, fiber, tridiag
from magbarrier.errors import NumericalError
from magbarrier.fiber import Parity


def dirichlet_chain(n):
    """Free Laplacian on n interior points of (0,1): exact spectrum known."""
    h = 1.0 / (n + 1)
    d = np.full(n, 2.0 / h ** 2)
    e = np.full(n - 1, -1.0 / h ** 2)
    exact = 2.0 * (1.0 - np.cos(np.arange(1, n + 1) * math.pi / (n + 1))) / h ** 2
    return d, e, exact


def _reference_sturm_count(d, e2, sigma, piv):
    """The indexed scalar loop sturm_count replaced; the bit-identity oracle."""
    q = d[0] - sigma
    count = 1 if q < 0 else 0
    for i in range(1, len(d)):
        if abs(q) < piv:
            q = -piv if q < 0 else piv
        q = (d[i] - sigma) - e2[i - 1] / q
        if q < 0:
            count += 1
    return count


def test_sturm_count_matches_exact_spectrum():
    d, e, exact = dirichlet_chain(40)
    e2 = (e * e).tolist()
    dl = d.tolist()
    piv = tridiag.pivmin(dl, e2)
    for sigma in (0.0, exact[0] + 1.0, 0.5 * (exact[4] + exact[5]), exact[-1] + 1.0):
        want = int(np.sum(exact < sigma))
        assert tridiag.sturm_count(dl, e2, sigma, piv) == want


def test_bisect_eigenvalue_matches_closed_form():
    d, e, exact = dirichlet_chain(60)
    e2 = (e * e).tolist()
    dl = d.tolist()
    for idx in (0, 3, 30, 59):
        got = tridiag.bisect_eigenvalue(dl, e2, idx, 0.0, float(exact[-1] * 2.0))
        assert got == pytest.approx(exact[idx], rel=1e-13)


def test_bisect_bracket_errors():
    d, e, exact = dirichlet_chain(10)
    e2 = (e * e).tolist()
    with pytest.raises(NumericalError):
        tridiag.bisect_eigenvalue(d.tolist(), e2, 0, exact[2], exact[5])
    with pytest.raises(NumericalError):
        tridiag.bisect_eigenvalue(d.tolist(), e2, 5, 0.0, exact[1])


def test_longdouble_bisection_beats_double_resolution():
    # small chain so the closed form in longdouble is the reference
    n = 12
    h = np.longdouble(1.0) / (n + 1)
    d = np.full(n, 2.0, dtype=np.longdouble) / (h * h)
    e2 = (np.full(n - 1, 1.0, dtype=np.longdouble) / (h * h) ** 2)
    m = np.arange(1, n + 1, dtype=np.longdouble)
    pi_ld = np.arccos(np.longdouble(-1.0))
    exact = 2.0 * (1.0 - np.cos(m * pi_ld / (n + 1))) / (h * h)
    got = tridiag.bisect_eigenvalue(d, e2, 2, np.longdouble(0.0), exact[-1] * 2)
    rel = abs(float((got - exact[2]) / exact[2]))
    assert rel < 5e-18  # far below float64 eps


def test_counts_agree_with_lapack_inertia():
    rng = np.random.default_rng(11)
    d = rng.normal(size=50) * 3.0
    e = rng.normal(size=49)
    w = eigh_tridiagonal(d, e, eigvals_only=True)
    e2 = (e * e).tolist()
    piv = tridiag.pivmin(d.tolist(), e2)
    for sigma in np.linspace(w[0] - 1.0, w[-1] + 1.0, 17):
        assert tridiag.sturm_count(d.tolist(), e2, float(sigma), piv) == int(np.sum(w < sigma))


@st.composite
def sturm_problems(draw):
    """(d, e2, sigma, piv) as float64 arrays, long doubles or lists.

    Integer-valued entries make exact zero pivots common, so both clamps
    and both signs of a clamped pivot are reached; piv is the library's
    floor or a coarse one that clamps ordinary pivots too.
    """
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        d = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        e2 = [v * v for v in draw(st.lists(st.integers(-2, 2), min_size=n - 1,
                                           max_size=n - 1))]
        sigma = float(draw(st.integers(-4, 4)))
    else:
        d = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        e2 = draw(st.lists(st.floats(0.0, 25.0), min_size=n - 1, max_size=n - 1))
        sigma = draw(st.floats(-20.0, 20.0))
    kind = draw(st.sampled_from(["float64", "longdouble", "list"]))
    if kind == "list":
        d, e2 = [float(v) for v in d], [float(v) for v in e2]
    else:
        typ = np.dtype(kind).type
        d, e2, sigma = np.array(d, dtype=typ), np.array(e2, dtype=typ), typ(sigma)
    piv = draw(st.sampled_from([None, 0.5, 2.0]))
    return d, e2, sigma, tridiag.pivmin(d, e2) if piv is None else piv


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(sturm_problems())
def test_sturm_count_equals_reference_loop_property(problem):
    assert tridiag.sturm_count(*problem) == _reference_sturm_count(*problem)


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(sturm_problems(), st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-15]),
                                   st.floats(0.0, 40.0)))
def test_sturm_count_monotone_in_sigma_property(problem, step):
    # the invariant that makes every valid bisection bracket end on the
    # same adjacent pair, and so return the same bits
    d, e2, sigma, piv = problem
    sigma2 = sigma + type(sigma)(step)
    assert sigma2 >= sigma
    assert tridiag.sturm_count(d, e2, sigma, piv) <= tridiag.sturm_count(d, e2, sigma2, piv)


def _float64_pair(b, k, parity, index, L, N):
    d, e, _ = fiber.stencil(b, k, parity, L, N)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(index, index))
    return w[0], v[:, 0]


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
@pytest.mark.parametrize("b, k, j", [(1.0, 3.0, 1), (2.0, 5.5, 2)])
def test_longdouble_bisection_bit_equal_to_reference_driven(monkeypatch, parity,
                                                            b, k, j):
    # the open-side oscillator solve, at a grid small enough for the oracle
    L, N = asymptotics._precise_box(b, k, j), 400
    guess, vector = _float64_pair(b, k, parity, j - 1, L, N)
    got = asymptotics._precise_eigenvalue(b, k, parity, j - 1, L, N, guess, vector)
    monkeypatch.setattr(tridiag, "sturm_count", _reference_sturm_count)
    want = asymptotics._precise_eigenvalue(b, k, parity, j - 1, L, N, guess, vector)
    assert type(got) is np.longdouble and type(want) is np.longdouble
    assert got == want


# band minima kappa_j at b = 1; kappa_j(b) = sqrt(b) kappa_j(1)
KAPPA_AT_B1 = {1: 0.7681836530015678, 2: 1.6232250005248745, 3: 2.1551827658919107}


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(st.floats(0.5, 4.0), st.sampled_from([1, 2, 3]), st.floats(0.0, 2.0),
       st.sampled_from([Parity.EVEN, Parity.ODD]), st.integers(200, 800))
def test_rayleigh_bracket_bit_equal_to_wide_bracket_property(b, j, past, parity, N):
    k = math.sqrt(b) * (KAPPA_AT_B1[j] + 1.0 + past)
    L = asymptotics._precise_box(b, k, j)
    seed_value, vector = _float64_pair(b, k, parity, j - 1, L, N)
    got = asymptotics._precise_eigenvalue(b, k, parity, j - 1, L, N, seed_value, vector)
    want = wide_bracket_eigenvalue(b, k, parity, j - 1, L, N, seed_value)
    assert type(got) is np.longdouble
    assert got == want


def test_displaced_centre_grows_the_bracket_and_keeps_the_bits(monkeypatch):
    b, k, j, parity, N = 1.5, 4.0, 2, Parity.ODD, 500
    L = asymptotics._precise_box(b, k, j)
    d, e, _ = fiber.stencil(b, k, parity, L, N)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(j - 1, j))
    # mixing in the next eigenvector moves the Rayleigh quotient up by
    # mix^2 (w1 - w0) / (1 + mix^2): here 1e4 starting radii
    ld = np.longdouble
    radius = 4 * np.finfo(ld).eps * (np.abs(d).max() + 2 * np.abs(e).max())
    mix = math.sqrt(1e4 * float(radius) / (w[1] - w[0]))
    passes, real = [], tridiag.sturm_count

    def spy(*args):
        passes.append(args[2])
        return real(*args)

    monkeypatch.setattr(tridiag, "sturm_count", spy)
    centred = asymptotics._precise_eigenvalue(b, k, parity, j - 1, L, N, w[0], v[:, 0])
    plain = len(passes)
    displaced = asymptotics._precise_eigenvalue(b, k, parity, j - 1, L, N, w[0],
                                                v[:, 0] + mix * v[:, 1])
    # two more lo ends (256 and 65536 radii) and ~16 more halvings
    assert len(passes) - plain >= plain + 10
    assert min(passes[plain:]) < w[0] - 255 * float(radius)
    assert displaced == centred
    assert centred == wide_bracket_eigenvalue(b, k, parity, j - 1, L, N, w[0])


def test_bracket_that_never_holds_still_raises():
    # the eigenpair of level j - 1 seeds level j: no bracket of at most
    # 1e-6 |seed| holds it, whatever the centre
    b, k, j, parity, N = 1.0, 3.0, 1, Parity.EVEN, 300
    L = asymptotics._precise_box(b, k, j)
    seed_value, vector = _float64_pair(b, k, parity, j - 1, L, N)
    with pytest.raises(NumericalError, match="bisection bracket: eigenvalue 1 not below"):
        asymptotics._precise_eigenvalue(b, k, parity, j, L, N, seed_value, vector)
    with pytest.raises(NumericalError, match="bisection bracket: eigenvalue 1 not below"):
        wide_bracket_eigenvalue(b, k, parity, j, L, N, seed_value)


def test_richardson_kills_leading_orders():
    w0, a, b, c = 2.5, 0.7, -0.3, 0.9

    def w(h):
        return w0 + a * h ** 2 + b * h ** 4 + c * h ** 6

    h = 0.1
    r2 = tridiag.richardson2(w(h), w(h / 2))
    assert abs(r2 - w0) < abs(b) * h ** 4  # h^2 gone
    r3 = tridiag.richardson3(w(h), w(h / 2), w(h / 4))
    assert abs(r3 - w0) <= abs(c) * h ** 6  # h^2 and h^4 gone
