"""Gaussian decay envelopes and strip localization of edge states.

Every fiber eigenstate is dominated, beyond its classical turning point
x_n = (max(k, 0) + sqrt(omega)) / b, by the Gaussian envelope
(2b/pi)^{1/4} exp(-b (|x| - x_n)^2 / 2); and any normalized window state
keeps all but an exponentially small fraction of its mass inside the strip
|x| <= b^{epsilon - 1/2} once the field is strong enough. Both statements
are checked here pointwise from fresh fiber solves.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fiber, mourre
from .errors import ConfigurationError

ENVELOPE_TOL = 1e-6
# Relative level under sup|psi| below which eigenvector samples are rounding
# noise rather than information about the true tail; the envelope ratio is
# only meaningful above it.
PSI_NOISE_FLOOR = 1e-12
NORM_TOL = 1e-9


def turning_point(k, b, omega):
    """Envelope onset x_n = (max(k, 0) + sqrt(omega)) / b.

    Smallest point with (b|x| - k)^2 - omega >= b^2 (|x| - x_n)^2 for all
    |x| >= x_n when the orbit center k/b sits on the barrier side; for
    k < 0 the center is clipped to the barrier. The bound depends on the
    band only through omega.
    """
    if omega < 0.0:
        raise ConfigurationError("band energy must be nonnegative")
    return (max(k, 0.0) + math.sqrt(omega)) / b


def envelope_values(b, x_n, xs):
    """The Gaussian envelope (2b/pi)^{1/4} e^{-b(|x|-x_n)^2/2} at points xs."""
    xs = np.abs(np.asarray(xs, dtype=float))
    return (2.0 * b / math.pi) ** 0.25 * np.exp(-0.5 * b * (xs - x_n) ** 2)


@dataclass(frozen=True)
class LocalizationCheck:
    """Envelope comparison for one fiber eigenstate."""

    j: int
    k: float
    x_n: float
    max_ratio: float

    @property
    def envelope_ok(self):
        return self.max_ratio <= 1.0 + ENVELOPE_TOL


def ratio_profile(pair, x_n=None):
    """(xs, |psi|/envelope) at the grid nodes past the envelope onset.

    Nodes where |psi| has fallen under PSI_NOISE_FLOOR * sup|psi| are
    excluded: the eigensolver resolves the tail over about twelve decades,
    below which the samples are rounding noise and the ratio against a
    doubly-exponentially small envelope would be meaningless.
    """
    if x_n is None:
        x_n = turning_point(pair.k, pair.b, pair.omega)
    xs = pair.grid.x
    amp = np.abs(pair.psi)
    sel = (xs >= x_n) & (amp >= PSI_NOISE_FLOOR * amp.max())
    if not sel.any():
        raise ConfigurationError(
            "no resolved samples beyond the envelope onset; wall too close"
        )
    return xs[sel], amp[sel] / envelope_values(pair.b, x_n, xs[sel])


def envelope_check(pair):
    """LocalizationCheck of one solved eigenstate against its envelope."""
    total = fiber.expectation(pair, np.ones_like(pair.grid.x))
    if abs(total - 1.0) > NORM_TOL:
        raise ConfigurationError(f"pair is not normalized: ||psi||^2 = {total!r}")
    x_n = turning_point(pair.k, pair.b, pair.omega)
    _, ratios = ratio_profile(pair, x_n=x_n)
    max_ratio = float(ratios.max())
    return LocalizationCheck(j=pair.j, k=pair.k, x_n=x_n, max_ratio=max_ratio)


def window_envelope_sweep(report, n_samples=9):
    """Envelope checks at n_samples k-points across every preimage band of a
    validated window."""
    b = report.window.b
    checks = []
    for j, left, right in report.preimages:
        for k in np.linspace(left, right, n_samples):
            checks.append(envelope_check(_solved_level(b, float(k), j)))
    return checks


# ---------------------------------------------------------------------------
# strip localization


@lru_cache(maxsize=1024)
def _solved_level(b, k, j):
    """One solved global band j at (b, k), cached across states."""
    return fiber.band(b, k, j)[0]


def strip_split(pair, cut):
    """(inside, outside) mass of the state against the strip |x| <= cut.

    The straddled grid cell is split with psi^2 interpolated linearly, so the
    two parts sum to the full discrete norm exactly and the complement
    identity is inherited from the solver's normalization.
    """
    if cut <= 0.0:
        raise ConfigurationError("strip half-width must be positive")
    grid, h = pair.grid, pair.grid.h
    n = len(grid.x)
    f = pair.psi * pair.psi
    full = 2.0 * h * (0.5 * f[0] + f[1:].sum())
    if cut >= n * h:
        return float(full), 0.0
    m = min(int(cut / h), n - 1)
    f_next = f[m + 1] if m + 1 <= n - 1 else 0.0
    t = (cut - grid.x[m]) / h
    f_cut = f[m] + (f_next - f[m]) * t
    inside_half = (cut - grid.x[m]) * 0.5 * (f[m] + f_cut)
    if m >= 1:
        inside_half += h * (0.5 * f[0] + f[1:m].sum() + 0.5 * f[m])
    x_next = grid.x[m] + h
    outside_half = (x_next - cut) * 0.5 * (f_cut + f_next)
    if m + 1 <= n - 1:
        outside_half += h * (0.5 * f[m + 1] + f[m + 2:].sum())
    return 2.0 * float(inside_half), 2.0 * float(outside_half)


@lru_cache(maxsize=4096)
def _strip_fraction(b, k, j, cut):
    return strip_split(_solved_level(b, k, j), cut)[0]


def strip_mass(state, table, epsilon, b):
    """(inside, bound, pass): mass in |x| <= b^{epsilon - 1/2} vs the bound.

    inside = sum_j int |beta_j(k)|^2 (int_strip psi_j(x,k)^2 dx) dk from
    fresh fiber solves at the state's own k samples; the bound is
    1 - sqrt(2) e^{-b^epsilon}. Normalization is a precondition; a failing
    bound is reported through pass, not raised, since the guarantee only
    starts above an empirical field threshold.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigurationError("epsilon must lie in (0, 1/2)")
    if table.b != b or state.report.window.b != b:
        raise ConfigurationError("state, table, and b disagree on the field")
    if abs(state.norm2() - 1.0) > NORM_TOL:
        raise ConfigurationError("strip mass needs a normalized state")
    cut = b ** (epsilon - 0.5)
    inside = 0.0
    for comp in state.components:
        fractions = np.array([
            _strip_fraction(b, float(k), comp.j, cut)
            for k in comp.ks
        ])
        inside += float(np.trapezoid(comp.amp2 * fractions, comp.ks))
    bound = 1.0 - math.sqrt(2.0) * math.exp(-b ** epsilon)
    return inside, bound, inside >= bound


def normalized_random_state(report, rng, n_points=33):
    """A random window state rescaled to unit norm for strip checks."""
    state = mourre.random_state(report, rng, n_points=n_points)
    total = state.norm2()
    comps = tuple(
        mourre.BandComponent(j=c.j, ks=c.ks, amp2=c.amp2 / total, phase=c.phase)
        for c in state.components
    )
    return mourre.FiberState(components=comps, report=report)
