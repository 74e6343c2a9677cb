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

from .errors import ConfigurationError, NumericalError

AIRY_ZERO_MAX_J = 64
MOMENT_POWERS = (0, 4)
MOMENT_REL_TOL = 1.0e-10


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
    Relative accuracy 1e-10 or a NumericalError carrying the achieved bound.
    """
    if power not in MOMENT_POWERS:
        raise ConfigurationError(f"moment power must be one of {MOMENT_POWERS}")
    z = airy_zero(kind, j)
    # Ai(s)^2 < 1e-21 beyond s = 20, so the tail past v = 25 + |z| is dead.
    upper = 25.0 + abs(z)

    def integrand(v):
        ai = special.airy(v + z)[0]
        return v ** power * ai * ai

    # Only `airy` integrates: scipy.integrate stays off the import path.
    from scipy.integrate import quad

    val, err = quad(integrand, 0.0, upper, epsabs=1e-15, epsrel=1e-12, limit=200)
    if not (val > 0.0) or err > MOMENT_REL_TOL * val:
        raise NumericalError(
            f"airy moment quadrature achieved {err:.3e} on value {val:.6e}, "
            f"needs rel {MOMENT_REL_TOL:g}"
        )
    return val


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
