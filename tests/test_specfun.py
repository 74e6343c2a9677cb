"""Special-function kernel against independent oracles.

The oracles here do not call back into the implementation routes: the Airy
values the kernel reads from scipy.special.airy (Ai first, Ai' second) are
checked against the Maclaurin series, zeros by sign-change bracketing,
moments against doubled-resolution Simpson sums, Beta values against closed
forms.
"""

import math

import numpy as np
import pytest
from scipy import special

from magbarrier import specfun
from magbarrier.errors import ConfigurationError
from magbarrier.specfun import AiryKind

AI = AiryKind.ZERO_OF_AI
AIP = AiryKind.ZERO_OF_AI_PRIME


def airy_ai(x):
    return special.airy(x)[0]


def airy_ai_prime(x):
    return special.airy(x)[1]


def airy_series(x, n_terms=60):
    """Maclaurin series for Ai; converges fast for |x| <= 3."""
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    # f = sum x^{3n} prod(3m-2), g = sum x^{3n+1} prod(3m-1), over (3n)!/(3n+1)!
    f_term, g_term = 1.0, x
    total = ai0 * f_term + aip0 * g_term
    for n in range(1, n_terms):
        f_term *= x ** 3 * (3.0 * n - 2.0) / ((3.0 * n) * (3.0 * n - 1.0) * (3.0 * n - 2.0))
        g_term *= x ** 3 * (3.0 * n - 1.0) / ((3.0 * n + 1.0) * (3.0 * n) * (3.0 * n - 1.0))
        total += ai0 * f_term + aip0 * g_term
    return total


def test_airy_ai_at_zero_matches_series_constant():
    want = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert abs(airy_ai(0.0) - want) <= 1e-12
    assert abs(airy_ai(0.0) - 0.3550280538878172) <= 1e-12


def test_airy_ai_matches_series_on_core_interval():
    for x in (-2.5, -1.0, -0.3, 0.7, 1.5, 2.5):
        assert abs(airy_ai(x) - airy_series(x)) <= 1e-12


def test_airy_ai_prime_matches_series_derivative():
    # centered difference of the series itself, tiny step, high-order
    h = 1e-5
    for x in (-1.2, 0.4, 1.8):
        want = (airy_series(x - 2 * h) - 8 * airy_series(x - h)
                + 8 * airy_series(x + h) - airy_series(x + 2 * h)) / (12 * h)
        assert abs(airy_ai_prime(x) - want) <= 1e-10


def test_airy_decay_sign_and_order():
    v = airy_ai(10.0)
    assert 0.0 < v < 1e-9


def test_airy_ode_residual_under_finite_differencing():
    h = 2e-3
    for x in np.concatenate((np.array([-5.0, 0.0, 5.0]), np.linspace(-8.0, 8.0, 33))):
        stencil = (-airy_ai(x - 2 * h) + 16 * airy_ai(x - h)
                   - 30 * airy_ai(x) + 16 * airy_ai(x + h)
                   - airy_ai(x + 2 * h)) / (12 * h * h)
        assert abs(stencil - x * airy_ai(x)) < 1e-9


def test_airy_zero_frozen_values():
    assert abs(specfun.airy_zero(AI, 1) - (-2.33810741045976704)) <= 1e-9
    assert abs(specfun.airy_zero(AIP, 1) - (-1.01879297164747219)) <= 1e-9


def test_airy_zero_is_a_sign_change_bracket():
    for kind, fn in ((AI, airy_ai), (AIP, airy_ai_prime)):
        for j in (1, 2, 5):
            z = specfun.airy_zero(kind, j)
            assert abs(fn(z)) < 1e-12
            assert fn(z - 1e-7) * fn(z + 1e-7) < 0.0


def test_airy_zero_ordering_negative_decreasing():
    for kind in (AI, AIP):
        zs = [specfun.airy_zero(kind, j) for j in range(1, 12)]
        assert all(z < 0.0 for z in zs)
        assert all(zs[i + 1] < zs[i] for i in range(len(zs) - 1))


def test_airy_zero_capability_limits():
    with pytest.raises(ConfigurationError):
        specfun.airy_zero(AI, 0)
    with pytest.raises(ConfigurationError):
        specfun.airy_zero(AI, 65)
    assert specfun.airy_zero(AI, 64) < specfun.airy_zero(AI, 63)


def simpson_moment(kind, j, power, n):
    """Composite Simpson oracle on [0, 25 + |z|] with n+1 nodes (n even)."""
    z = specfun.airy_zero(kind, j)
    v = np.linspace(0.0, 25.0 + abs(z), n + 1)
    f = v ** power * airy_ai(v + z) ** 2
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (v[1] - v[0]) / 3.0 * (w * f).sum()


@pytest.mark.parametrize("kind,j,power", [(AI, 1, 0), (AI, 1, 4), (AIP, 1, 0),
                                          (AIP, 1, 4), (AI, 3, 0), (AIP, 2, 4),
                                          (AI, 16, 4), (AIP, 5, 0), (AIP, 64, 0),
                                          (AI, 64, 4)])
def test_airy_moment_against_doubled_simpson(kind, j, power):
    got = specfun.airy_moment(kind, j, power)
    coarse = simpson_moment(kind, j, power, 20000)
    fine = simpson_moment(kind, j, power, 40000)
    assert abs(fine - coarse) <= 1e-10 * abs(fine)  # oracle self-consistency
    assert got > 0.0
    assert abs(got - fine) <= 1e-9 * abs(fine)


def test_airy_moment_power_domain():
    with pytest.raises(ConfigurationError):
        specfun.airy_moment(AI, 1, 2)


def test_airy_constants_assembles_d_definitionally():
    for kind in (AI, AIP):
        cst = specfun.airy_constants(kind, 1)
        m4 = specfun.airy_moment(kind, 1, 4)
        m0 = specfun.airy_moment(kind, 1, 0)
        assert cst.D == pytest.approx(math.sqrt(m4 / m0), rel=1e-14)
        assert cst.z < 0.0 and cst.c > 0.0 and cst.D > 0.0
