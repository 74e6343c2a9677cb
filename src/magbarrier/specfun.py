"""Special-function kernel: Airy zeros and moment integrals.

Airy values come from scipy.special. What this module pins down is the
set of conventions everything downstream relies on: Airy zeros are negative
and strictly decreasing in j, the Ai' zeros belong to even states and the Ai
zeros to odd ones, and half-line moments are taken against Ai(v + z)^2.
"""

import enum
import math
from dataclasses import dataclass

from scipy import special

from .errors import ConfigurationError

AIRY_ZERO_MAX_J = 64
MOMENT_POWERS = (0, 4)


class AiryKind(enum.Enum):
    """Which Airy zero family a band belongs to."""

    ZERO_OF_AI = "ai"          # Dirichlet at 0: odd states
    ZERO_OF_AI_PRIME = "aip"   # Neumann at 0: even states


_ZERO_CACHE = {}


def airy_zero(kind, j):
    """j-th zero (j >= 1) of Ai or Ai'; negative, strictly decreasing in j."""
    if j < 1:
        raise ConfigurationError("airy zero index starts at 1")
    if j > AIRY_ZERO_MAX_J:
        raise ConfigurationError(f"airy zero index {j} exceeds capability {AIRY_ZERO_MAX_J}")
    kind = AiryKind(kind)
    if kind not in _ZERO_CACHE or len(_ZERO_CACHE[kind]) < j:
        a, ap, _, _ = special.ai_zeros(max(j, 16))
        # scipy's tables drift to ~1e-11 at larger j; two Newton polishes
        # bring every zero to machine precision (Ai'' = x Ai for the primes)
        for _ in range(2):
            ai, aip, _, _ = special.airy(a)
            a = a - ai / aip
            ai, aip, _, _ = special.airy(ap)
            ap = ap - aip / (ap * ai)
        _ZERO_CACHE[AiryKind.ZERO_OF_AI] = a
        _ZERO_CACHE[AiryKind.ZERO_OF_AI_PRIME] = ap
    return float(_ZERO_CACHE[kind][j - 1])


def airy_moment(kind, j, power):
    """Half-line moment integral(0, inf) v^power * Ai(v + z_{kind,j})^2 dv.

    power 0 is the normalization c_{X,j}; power 4 the numerator of D_{X,j}^2.
    Closed form: I_n = integral(z, inf) x^n Ai(x)^2 dx obeys, by parts with
    Ai'' = x Ai (Albright, J. Phys. A 10, 485, 1977),
    (2n+1) I_n = n(n-1)(n-2)/2 I_{n-3}
                 - [x^{n+1} Ai^2 - x^n Ai'^2 + n x^{n-1} Ai Ai' - n(n-1)/2 x^{n-2} Ai^2](z),
    and the moment is sum_m C(power, m) (-z)^{power-m} I_m.
    """
    if power not in MOMENT_POWERS:
        raise ConfigurationError(f"moment power must be one of {MOMENT_POWERS}")
    z = airy_zero(kind, j)
    ai, aip, _, _ = special.airy(z)
    moments = []
    for n in range(power + 1):
        # the x^{n-1} and x^{n-2} terms carry a factor n or n(n-1), so a
        # negative power of z is always multiplied by 0
        edge = (z ** (n + 1) * ai * ai - z ** n * aip * aip
                + n * z ** (n - 1) * ai * aip - n * (n - 1) / 2 * z ** (n - 2) * ai * ai)
        lower = n * (n - 1) * (n - 2) / 2 * moments[n - 3] if n >= 3 else 0.0
        moments.append((lower - edge) / (2 * n + 1))
    return float(sum(math.comb(power, m) * (-z) ** (power - m) * moments[m]
                     for m in range(power + 1)))


@dataclass(frozen=True)
class AiryConstants:
    """Zero, normalization, and error constant for one (kind, j)."""

    kind: AiryKind
    j: int
    z: float
    c: float
    D: float

    def __post_init__(self):
        if not (self.z < 0.0 and self.c > 0.0 and self.D > 0.0):
            raise ConfigurationError("airy constants must satisfy z < 0, c > 0, D > 0")


def airy_constants(kind, j):
    """Assemble (z, c, D) with D = sqrt(moment4 / moment0)."""
    kind = AiryKind(kind)
    z = airy_zero(kind, j)
    c = airy_moment(kind, j, 0)
    m4 = airy_moment(kind, j, 4)
    return AiryConstants(kind=kind, j=j, z=z, c=c, D=math.sqrt(m4 / c))
