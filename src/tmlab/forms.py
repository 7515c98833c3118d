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
exp(4 pi s^2) - 1, and the scalar subadditivity check for
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
                     integral_weighted, lp_norm, mids_with_cap)

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
    um, areas = mids_with_cap(u)
    expo = coeff * um * um
    if np.max(expo) > EXP_OVERFLOW:
        return math.inf
    return exact_sum(np.exp(expo) * areas)


def onofri_lhs(u: RadialFunction) -> float:
    """log A + 1/A with A the disk average of e^u.

    Accepts non-Dirichlet profiles (constants are useful test inputs).
    The average uses the quadrature's own disk measure, so u == 0 gives
    exactly 1.0.
    """
    um, areas = mids_with_cap(u)
    total = exact_sum(areas)
    m = float(np.max(um))
    if m > EXP_OVERFLOW:
        # A overflows; evaluate log A in shifted form, 1/A underflows to 0.
        log_a = m + math.log(exact_sum(np.exp(um - m) * areas) / total)
        return log_a
    a = exact_sum(np.exp(um) * areas) / total
    return math.log(a) + 1.0 / a


def onofri_rhs(u: RadialFunction, form: Remainder) -> float:
    """1 + Q(u) / (16 pi)."""
    return 1.0 + eval_Q(form, u) / (16.0 * math.pi)


def orlicz_integral(u: RadialFunction, t: float) -> float:
    """2 pi int (exp(4 pi (u/t)^2) - 1) r dr; math.inf on overflow."""
    um, areas = mids_with_cap(u)
    um = um / t
    expo = FOUR_PI * um * um
    if np.max(expo) > EXP_OVERFLOW:
        return math.inf
    return exact_sum(np.expm1(expo) * areas)


# Relative margin of the bisection replay in luxemburg_norm.  The computed
# orlicz_integral is monotone in t except within a few ulps (expm1 is only
# faithfully rounded); 1e-12 is thousands of ulps, so a midpoint this far
# beyond an evaluated point is decided by that point's value.
_REPLAY_MARGIN = 1e-12
_SECANT_STEPS = 12
_BISECTION_REL_TOL = 1e-10  # relative width at which luxemburg_norm stops


def _root_bracket(u: RadialFunction, a, b: float, fb: float):
    """Tightest evaluated a < b with orlicz_integral(u, a) > 1 >=
    orlicz_integral(u, b) after a few secant steps on (log t, log f)
    toward f = 1; `a` is None while no point with f > 1 is known.

    Every step stays strictly inside the bracket.  log f has slope <= -2
    in log t, so from b alone the slope -2 step b sqrt(f(b)) cannot pass
    the root.  Each step lands 2 margins beyond the secant estimate, away
    from the last point, so the root ends up between close points on
    both sides; the steps stop once those are 8 margins apart.
    """
    last = (math.log(b), math.log(fb)) if fb > 0.0 else None
    prev = None
    for _ in range(_SECANT_STEPS):
        floor = 0.0 if a is None else a
        if b - floor <= 8.0 * _REPLAY_MARGIN * b:
            break
        t = math.nan
        if last is not None:
            slope = -2.0
            if prev is not None and prev[0] != last[0]:
                slope = min((last[1] - prev[1]) / (last[0] - prev[0]), -2.0)
            step = -last[1] / slope
            t = math.exp(last[0] + step
                         + math.copysign(2.0 * _REPLAY_MARGIN, step))
        if not floor < t < b:
            t = 0.25 * b if a is None else math.sqrt(a * b)
        ft = orlicz_integral(u, t)
        if ft > 1.0:
            a = t
        else:
            b = t
        if 0.0 < ft < math.inf:
            prev, last = last, (math.log(t), math.log(ft))
    return a, b


def luxemburg_norm(u: RadialFunction) -> float:
    """Gauge norm: smallest t > 0 with orlicz_integral(u, t) <= 1.

    The integral is strictly decreasing in t, so bisection is safe once
    bracketed.  Returns 0 for the zero profile.

    The bisection runs from lo = 1e-12 and hi expanded by 4 until
    orlicz_integral(u, hi) <= 1, but most of its evaluations are skipped
    and the result is the same bit for bit.  _root_bracket first finds
    evaluated points a < b around the root, f(a) > 1 >= f(b) with
    f = orlicz_integral(u, .).  The bisection is then replayed: a
    midpoint below a (1 - margin) sets lo without an evaluation, one
    above b (1 + margin) sets hi, and only those in between are
    evaluated.  A skipped decision is the one an evaluation would give:
    every term (e^(c/t^2) - 1) area of the integral has
    d log / d log t <= -2, so a relative move of the margin (1e-12)
    changes f by at least twice that, and each computed step (division
    by t, squaring, scaling, expm1, multiplying by the areas, the
    correctly rounded exact_sum) is monotone in t except within a few
    ulps of expm1's faithful rounding.  So f(mid) > 1 below a and
    f(mid) <= 1 above b as computed, too.  About 9 evaluations replace
    the bisection's 37 on the audit's profiles.
    """
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    lo = 1e-12
    hi = max(1.0, 10.0 * peak)
    a = None
    while (f_hi := orlicz_integral(u, hi)) > 1.0:
        a = hi
        hi *= 4.0
        if hi > 1e30:
            raise InvalidInputError("Luxemburg bracket expansion failed")
    a, b = _root_bracket(u, a, hi, f_hi)
    below = -math.inf if a is None else a * (1.0 - _REPLAY_MARGIN)
    above = b * (1.0 + _REPLAY_MARGIN)
    while hi - lo > _BISECTION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid < below:
            lo = mid
        elif mid > above:
            hi = mid
        elif orlicz_integral(u, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def subadditive_gap(t1: float, t2: float) -> float:
    """F(t1) + F(t2) - F(t1 + t2) for F(t) = log t + 1/t (nonnegative)."""
    if t1 <= 0 or t2 <= 0:
        raise InvalidInputError("subadditivity check needs positive inputs")

    def f(t):
        return math.log(t) + 1.0 / t

    return f(t1) + f(t2) - f(t1 + t2)


def subadditivity_check(t1: float, t2: float) -> bool:
    """F(t1 + t2) <= F(t1) + F(t2)."""
    return subadditive_gap(t1, t2) >= 0.0
