"""Catalogue of radial potentials V(r) on the unit disk.

The potentials supported here are the standard test cases for
Hardy-Moser-Trudinger remainder terms:

    constant      V(r) = lam
    leray         V(r) = 1 / (4 r^2 log(1/r)^2)
    gamma:g       V(r) = 1 / (4 r^2 log(1/r)^2 max(log(1/r)^g, 1))
    wangye        V(r) = 1 / (1 - r^2)^2
    tabulated     samples on a radial grid, interpolated linearly in log r

sample(pot, r) evaluates V for psi's quadrature and for both admissibility
screens, with one rule for a non-finite value.  Two screens are provided:

  * class-V membership: r -> (1 - r^2)^2 V(r) is nonincreasing (the
    weighted monotonicity that makes hyperbolic rearrangement applicable);
  * a Kato-type vanishing test at the origin:
    r^2 log(1/r)^(2+alpha) V(r) -> 0 along r = 10^-m.

Both are numeric and advisory: the raw diagnostic sequence is always
returned so borderline cases can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularEvaluationError
from .radial import RadialFunction, RadialGrid, log_inv, one_minus_r_sq


class Potential:
    """Base class; subclasses implement vectorized __call__(r)."""

    name = "potential"
    # Radii where V or its derivative jumps; the shooting mesh puts a cell
    # edge on each, so no cell straddles a kink.
    breakpoints = ()

    def __call__(self, r):
        raise NotImplementedError

    def spec_string(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstantPotential(Potential):
    lam: float

    name = "constant"

    def __call__(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.lam)

    def spec_string(self) -> str:
        return f"constant:{self.lam:g}"


class LerayPotential(Potential):
    """Borderline 2-D Hardy weight 1/(4 r^2 log(1/r)^2)."""

    name = "leray"

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        L = log_inv(r)
        return 1.0 / (4.0 * r * r * L * L)


@dataclass(frozen=True)
class GammaPotential(Potential):
    """Leray weight damped by max(log(1/r)^gamma, 1) near the origin."""

    gamma: float

    name = "gamma"
    breakpoints = (math.exp(-1.0),)  # the damping switches on at r = 1/e

    def __post_init__(self):
        if self.gamma <= 0:
            raise InvalidInputError("gamma must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        L = log_inv(r)
        # Evaluate both branches and take the max: the switch at r = 1/e
        # then cannot produce a rounding discontinuity.  L^gamma may
        # overflow near the origin: V is then 0, its true value < 1e-280.
        with np.errstate(over="ignore"):
            damp = np.maximum(np.power(L, self.gamma, where=L > 0,
                                       out=np.ones_like(L)), 1.0)
        return 1.0 / (4.0 * r * r * L * L * damp)

    def spec_string(self) -> str:
        return f"gamma:{self.gamma:g}"


class WangYePotential(Potential):
    """Boundary Hardy weight 1/(1 - r^2)^2."""

    name = "wangye"

    def __call__(self, r):
        q = one_minus_r_sq(r)
        return 1.0 / (q * q)


class TabulatedPotential(Potential):
    """Nonnegative samples on a radial grid, interpolated linearly in log r.

    Outside the tabulated radius range the boundary samples are extended
    constantly.
    """

    name = "tabulated"

    def __init__(self, radii, values):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.size < 2 or not np.all(np.diff(radii) > 0):
            raise InvalidInputError("tabulated radii must be increasing")
        if np.any((radii <= 0) | (radii > 1)):
            raise InvalidInputError("tabulated radii must lie in (0, 1]")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise InvalidInputError("tabulated values must be finite and >= 0")
        self.radii = radii
        self.values = values
        self._log_r = np.log(radii)
        self.breakpoints = radii  # the interpolant's kinks

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(np.log(r), self._log_r, self.values)


def finite_float(text: str) -> float:
    """Flag type: a float other than nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def spec_float(spec: str, field: str) -> float:
    """A number field of a CLI spec; a malformed or non-finite one is a
    usage error."""
    try:
        return finite_float(field)
    except ValueError as exc:
        raise InvalidInputError(f"spec {spec!r}: {exc}") from exc


def parse_potential(text: str) -> Potential:
    """Parse CLI syntax: constant:<lam>, leray, gamma:<g>, wangye,
    tabulated:<path.csv>; leray and wangye take no argument."""
    head, sep, arg = text.strip().partition(":")
    head = head.lower()
    if head == "constant":
        return ConstantPotential(spec_float(text, arg))
    if head == "leray" and not sep:
        return LerayPotential()
    if head == "gamma":
        return GammaPotential(spec_float(text, arg))
    if head == "wangye" and not sep:
        return WangYePotential()
    if head == "tabulated":
        prof = RadialFunction.from_csv(arg)
        return TabulatedPotential(prof.grid.nodes, prof.values)
    raise InvalidInputError(f"unknown potential spec {text!r}")


def sample(pot, r) -> np.ndarray:
    """V at the radii r as floats.  The first non-finite value raises
    SingularEvaluationError naming its radius."""
    v = np.asarray(pot(r), dtype=float)
    bad = ~np.isfinite(v)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularEvaluationError(r[i], v[i])
    return v


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

CLASS_V_SLACK = 1e-12  # check_class_v's rounding slack, relative to max(1, g)
KATO_TINY = 1e-6  # check_kato: h below this counts as vanished
KATO_SLOPE_TOL = 0.02  # check_kato: least decay of log h against log m


@dataclass
class ClassVReport:
    ok: bool
    violation_index: int | None = None
    violation_radii: tuple[float, float] | None = None
    violation_values: tuple[float, float] | None = None


def check_class_v(pot: Potential, grid: RadialGrid) -> ClassVReport:
    """Is g(r) = (1 - r^2)^2 V(r) nonincreasing at the grid nodes?

    CLASS_V_SLACK is relative to max(1, |g|) and absorbs floating rounding
    of (1 - r^2)^2 near r = 1.  On failure the first offending node pair is
    reported.
    """
    r = grid.nodes[:-1]  # V may be singular at r = 1 exactly
    g = sample(pot, r) * one_minus_r_sq(r) ** 2
    tol = CLASS_V_SLACK * np.maximum(1.0, np.abs(g[:-1]))
    bad = g[1:] > g[:-1] + tol
    if np.any(bad):
        i = int(np.argmax(bad))
        return ClassVReport(False, i, (float(r[i]), float(r[i + 1])),
                            (float(g[i]), float(g[i + 1])))
    return ClassVReport(True)


@dataclass
class KatoReport:
    ok: bool
    radii: np.ndarray
    values: np.ndarray


def check_kato(pot: Potential, alpha: float) -> KatoReport:
    """Does h(r) = r^2 log(1/r)^(2+alpha) V(r) vanish as r -> 0?

    h is sampled along r = 10^-m, m = 2..12.  The verdict is True when h
    is decreasing over the last five samples and either has dropped below
    KATO_TINY or trends to zero with a log-log slope below
    -KATO_SLOPE_TOL.  The raw sequence is always returned; the boolean is
    advisory (tabulated potentials have no formula to inspect).
    """
    if alpha <= 0:
        raise InvalidInputError("alpha must be positive")
    m = np.arange(2, 13)
    r = 10.0 ** (-m.astype(float))
    L = np.log(1.0 / r)
    h = r * r * L ** (2.0 + alpha) * sample(pot, r)
    tail = h[-5:]
    if np.max(tail) < KATO_TINY:
        return KatoReport(True, r, h)
    decreasing = bool(np.all(np.diff(tail) < 0))
    if not decreasing:
        return KatoReport(False, r, h)
    if tail[-1] < KATO_TINY:
        return KatoReport(True, r, h)
    # Slow decay (e.g. a negative power of log 1/r): detect via the
    # log-log slope of h against m over the tail.
    slope = np.polyfit(np.log(m[-5:].astype(float)), np.log(tail), 1)[0]
    return KatoReport(bool(slope < -KATO_SLOPE_TOL), r, h)
