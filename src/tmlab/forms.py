"""Scalar functionals: quadratic forms, exponential integrals, Orlicz norm.

The central objects are the remainder-corrected quadratic form

    Q(u) = int_B |grad u|^2 dx - psi(u)

with psi either a potential term int_B V u^2 dx or a multiple of a squared
L^p norm (p > 2), and the exponential functional

    J(u) = int_B exp(c u^2) dx,   c = 4 pi by default.

Also provided: both sides of the Onofri inequality on the disk,

    log((1/pi) int_B e^u) + ((1/pi) int_B e^u)^(-1)
        <=  1 + (1/(16 pi)) * Q(u),

the Luxemburg gauge norm of the Orlicz space generated by
exp(4 pi s^2) - 1 (to relative 1e-10, by safeguarded secant steps on
the gauge integral), and the subadditivity gap of
F(t) = log t + 1/t.

J is overflow-safe: if any quadrature cell's exponent exceeds 700 the
result is reported as math.inf rather than silently saturating, because
divergence detection downstream relies on honest overflow reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .potentials import Potential, parse_potential, spec_float
from .radial import (RadialFunction, exact_sum, gradient_norm_sq,
                     integral_weighted, lp_norm)

FOUR_PI = 4.0 * math.pi
EXP_OVERFLOW = 700.0


class Remainder:
    """Base class for the subtracted functional psi(u)."""

    def psi(self, u: RadialFunction) -> float:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class NoRemainder(Remainder):
    def psi(self, u: RadialFunction) -> float:
        return 0.0

    def spec_string(self) -> str:
        return "none"


@dataclass(frozen=True)
class PotentialRemainder(Remainder):
    potential: Potential

    def psi(self, u: RadialFunction) -> float:
        return integral_weighted(u, self.potential)

    def spec_string(self) -> str:
        return f"potential:{self.potential.spec_string()}"


@dataclass(frozen=True)
class LpRemainder(Remainder):
    lam: float
    p: float

    def __post_init__(self):
        if self.p <= 2:
            raise InvalidInputError("Lp remainder needs p > 2")

    def psi(self, u: RadialFunction) -> float:
        return self.lam * lp_norm(u, self.p) ** 2

    def spec_string(self) -> str:
        return f"lp:{self.lam:g}:{self.p:g}"


def parse_form(text: str) -> Remainder:
    """CLI syntax: none | lp:<lam>:<p> | potential:<spec> | <potential spec>."""
    t = text.strip()
    if t.lower() == "none":
        return NoRemainder()
    head, _, rest = t.partition(":")
    if head.lower() == "lp":
        lam_s, _, p_s = rest.partition(":")
        return LpRemainder(spec_float(text, lam_s), spec_float(text, p_s))
    if head.lower() == "potential":
        return PotentialRemainder(parse_potential(rest))
    return PotentialRemainder(parse_potential(t))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def eval_Q(form: Remainder, u: RadialFunction) -> float:
    """Q(u) = gradient energy minus remainder; may be negative."""
    return gradient_norm_sq(u) - form.psi(u)


def eval_J(u: RadialFunction, coeff: float = FOUR_PI) -> float:
    """J(u) = 2 pi int exp(coeff * u(r)^2) r dr; math.inf on overflow."""
    s = u.samples()
    expo = coeff * s * s
    if np.max(expo) > EXP_OVERFLOW:
        return math.inf
    return exact_sum(np.exp(expo) * u.grid.cap_areas)


def onofri_lhs(u: RadialFunction) -> float:
    """log A + 1/A with A the disk average of e^u.

    Accepts non-Dirichlet profiles (constants are useful test inputs).
    log A = m + log(mean e^(u - m)) with m = max u, so A may overflow
    (1/A then underflows to 0).  The average uses the quadrature's own
    disk measure, so u == 0 gives exactly 1.0.
    """
    s = u.samples()
    areas = u.grid.cap_areas
    m = float(np.max(s))
    log_a = m + math.log(exact_sum(np.exp(s - m) * areas) / exact_sum(areas))
    return log_a + math.exp(-log_a)


def onofri_rhs(u: RadialFunction, form: Remainder) -> float:
    """1 + Q(u) / (16 pi)."""
    return 1.0 + eval_Q(form, u) / (16.0 * math.pi)


def orlicz_integral(u: RadialFunction, t: float) -> float:
    """2 pi int (exp(4 pi (u/t)^2) - 1) r dr; math.inf on overflow."""
    s = u.samples() / t
    expo = FOUR_PI * s * s
    if np.max(expo) > EXP_OVERFLOW:
        return math.inf
    return exact_sum(np.expm1(expo) * u.grid.cap_areas)


_GAUGE_REL_TOL = 1e-10  # relative bracket width where luxemburg_norm stops


def luxemburg_norm(u: RadialFunction) -> float:
    """Gauge norm: smallest t > 0 with orlicz_integral(u, t) <= 1, to
    relative 1e-10.  Returns 0 for the zero profile.

    f(t) = orlicz_integral(u, t) is decreasing, and every term of it has
    d log / d log t <= -2.  The bracket starts at a = 0 (no point with
    f > 1 known yet) and b = 10 max|u|, where |u/b| <= 1/10 and the areas
    sum to pi, so f(b) <= pi expm1(4 pi / 100) ~ 0.42 < 1.  Each step is a
    secant step on (log t, log f) toward f = 1 through the last two
    finite evaluations, its slope clamped to <= -2 (slope -2 from one
    point), landing a quarter tolerance beyond the estimated root so the
    bracket closes from both sides.  A step outside (a, b), or one after
    two steps that did not halve the bracket, is replaced by the midpoint
    (b / 4 while a = 0, else sqrt(a b)): log f is strongly convex on
    centre-cap spikes, where plain secant steps stall.  The result is the
    bracket's upper end, so orlicz_integral(u, result) <= 1 as computed.
    """
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    a, b = 0.0, 10.0 * peak
    ft = orlicz_integral(u, b)
    last = (math.log(b), math.log(ft)) if ft > 0.0 else None
    prev = None
    widths = [math.inf, math.inf]  # bracket widths two steps and one ago
    while b - a > _GAUGE_REL_TOL * b:
        t = math.nan
        if last is not None:
            slope = -2.0
            if prev is not None and prev[0] != last[0]:
                slope = min((last[1] - prev[1]) / (last[0] - prev[0]), -2.0)
            step = -last[1] / slope
            t = math.exp(last[0] + step
                         + math.copysign(0.25 * _GAUGE_REL_TOL, step))
        if not a < t < b or b - a > 0.5 * widths[0]:
            t = 0.25 * b if a == 0.0 else math.sqrt(a * b)
        widths = [widths[1], b - a]
        ft = orlicz_integral(u, t)
        if ft > 1.0:
            a = t
        else:
            b = t
        if 0.0 < ft < math.inf:
            prev, last = last, (math.log(t), math.log(ft))
    return b


def subadditive_gap(t1: float, t2: float) -> float:
    """F(t1) + F(t2) - F(t1 + t2) for F(t) = log t + 1/t (nonnegative)."""
    if t1 <= 0 or t2 <= 0:
        raise InvalidInputError("subadditivity check needs positive inputs")

    def f(t):
        return math.log(t) + 1.0 / t

    return f(t1) + f(t2) - f(t1 + t2)
