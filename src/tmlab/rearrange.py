"""Decreasing rearrangement of radial profiles on the Poincare disk.

The rearrangement is taken with respect to a radial measure mu given by a
closed-form cumulative function M(r) = mu(B_r):

    hyperbolic   dmu = 4 dx / (1 - r^2)^2,   M(r) = 4 pi r^2 / (1 - r^2)
    euclidean    dmu = dx,                   M(r) = pi r^2

For a nonnegative piecewise-linear profile f the distribution function
lambda(t) = mu{f > t} is computed exactly by a sorted sweep: the cells
wholly above t are a suffix sum of their measures, and each cell that
straddles t adds its part up to the linear crossing radius (against the
closed-form M).  The rearranged profile

    f#(r) = inf{ t : lambda(t) <= M(r) }

is sampled along the inverse curve rho(t) = M^{-1}(lambda(t)).  The result
is returned on its own grid made of those radii, so plateaus of f are
reproduced exactly and steep ramps come back with measure-matched widths.
That construction keeps the three classical comparison facts visible at
the discrete level:

    mu{f# > t} = mu{f > t}                      (equimeasurability)
    int f g dmu <= int f# g# dmu                (Hardy-Littlewood)
    int |grad f#|^2 dx <= int |grad f|^2 dx     (Polya-Szego)

The hyperbolic M diverges at r = 1, so hyperbolic distribution functions
and mu-integrals are truncated at the profile's last interior node; the
profiles fed to these routines should vanish near the boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .radial import (RadialFunction, RadialGrid, exact_sum, gradient_norm_sq,
                     one_minus_r_sq)

class RadialMeasure:
    """Radial measure with closed-form cumulative M and inverse."""

    def __init__(self, kind: str):
        if kind not in ("hyperbolic", "euclidean"):
            raise InvalidInputError(f"unknown measure kind {kind!r}")
        self.kind = kind

    def density(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "hyperbolic":
            q = one_minus_r_sq(r)
            return 8.0 * math.pi * r / (q * q)
        return 2.0 * math.pi * r

    def M(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "hyperbolic":
            return 4.0 * math.pi * r * r / one_minus_r_sq(r)
        return math.pi * r * r

    def M_inv(self, m):
        m = np.asarray(m, dtype=float)
        if self.kind == "hyperbolic":
            return np.sqrt(m / (4.0 * math.pi + m))
        return np.sqrt(m / math.pi)

    def __repr__(self):
        return f"RadialMeasure({self.kind!r})"


def hyperbolic_measure() -> RadialMeasure:
    return RadialMeasure("hyperbolic")


def euclidean_measure() -> RadialMeasure:
    return RadialMeasure("euclidean")


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def _domain_stop(f: RadialFunction, measure: RadialMeasure) -> int:
    """Index of the last cell included in mu computations.

    Hyperbolic measure: the final cell [nodes[-2], 1] has infinite measure
    and is dropped (the working domain is [0, nodes[-2]]).
    """
    n_cells = len(f.grid) - 1
    if measure.kind == "hyperbolic":
        return n_cells - 1
    return n_cells


def distribution_function(f: RadialFunction, measure: RadialMeasure,
                          levels, strict: bool = True) -> np.ndarray:
    """mu{f > t} (strict) or mu{f >= t} for each level t, exactly.

    Exact for the piecewise-linear interpolant of f with respect to the
    (possibly truncated) measure; the center disk r < nodes[0] counts as
    a plateau at the first node value.

    A sorted sweep: a cell lies wholly in the level set when its lower
    value lo exceeds t (or equals it, non-strict), so with the cells
    sorted by lo the whole cells of each level are a suffix sum of dM.
    A cell straddles the contiguous run of sorted levels in [lo, hi)
    (strict) or (lo, hi); only those (level, cell) pairs have their
    linear crossing radius and M evaluated, and their cut shares are
    added per level with a bincount.  A constant cell straddles no
    level, so it contributes all or nothing.  Time and memory are
    O((levels + cells) log cells + pairs); each level's value does not
    depend on the other levels of the call.
    """
    if np.any(f.values < 0):
        raise InvalidInputError("rearrangement input must be nonnegative")
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    nodes = f.grid.nodes
    vals = f.values
    stop = _domain_stop(f, measure)
    a, b = nodes[:stop], nodes[1:stop + 1]
    fa, fb = vals[:stop], vals[1:stop + 1]
    Ma, Mb = measure.M(a), measure.M(b)
    lo = np.minimum(fa, fb)
    hi = np.maximum(fa, fb)
    side = "right" if strict else "left"

    by_lo = np.argsort(lo, kind="stable")
    suffix = np.append(np.cumsum((Mb - Ma)[by_lo][::-1])[::-1], 0.0)
    whole = suffix[np.searchsorted(lo[by_lo], levels, side=side)]

    by_level = np.argsort(levels, kind="stable")
    t_sorted = levels[by_level]
    first = np.searchsorted(t_sorted, lo, side="left" if strict else "right")
    count = np.maximum(np.searchsorted(t_sorted, hi, side="left") - first, 0)
    cell = np.repeat(np.arange(stop), count)
    pos = np.arange(cell.size) - np.repeat(np.cumsum(count) - count - first,
                                           count)
    ca, cfa, cfb = a[cell], fa[cell], fb[cell]
    r_cross = ca + (b[cell] - ca) * (cfa - t_sorted[pos]) / (cfa - cfb)
    M_cross = measure.M(np.clip(r_cross, ca, b[cell]))
    cut = np.where(cfa > cfb, M_cross - Ma[cell], Mb[cell] - M_cross)
    straddled = np.empty(levels.size)
    straddled[by_level] = np.bincount(pos, weights=cut, minlength=levels.size)

    cap_in = (vals[0] > levels) if strict else (vals[0] >= levels)
    return whole + straddled + np.where(cap_in, measure.M(nodes[0]), 0.0)


def rearrange_decreasing(f: RadialFunction, measure: RadialMeasure,
                         levels: int = 2048) -> RadialFunction:
    """Nonincreasing profile equimeasurable with f (w.r.t. the measure).

    Levels are equispaced over f's value range, refined where their
    radii spread, plus every node value (kinks are sampled exactly) and
    two-sided values at plateaus (flat pieces are reproduced exactly).
    """
    if levels < 2:
        raise InvalidInputError(f"levels must be at least 2, got {levels}")
    if np.any(f.values < 0):
        raise InvalidInputError("rearrangement input must be nonnegative")
    vmin = float(np.min(f.values))
    vmax = float(np.max(f.values))
    if vmax == vmin:
        return RadialFunction(f.grid, f.values.copy(),
                              dirichlet=(vmax == 0.0))

    grid_levels = np.linspace(vmin, vmax, levels)
    sample = np.unique(np.concatenate([grid_levels, f.values]))[::-1]
    # Values held on a set of positive measure: constant cells, plus the
    # center cap where the profile extends constantly (keeping the cap
    # makes rearrangement exactly the identity on monotone inputs).
    stop = _domain_stop(f, measure)
    fa, fb = f.values[:stop], f.values[1:stop + 1]
    plateau_vals = np.append(fa[fa == fb], f.values[0])

    rho_strict = measure.M_inv(
        distribution_function(f, measure, sample, strict=True))
    # Where f is nearly flat off its plateaus, rho(t) bends like a square
    # root and equispaced levels fall too far apart in rho for f#, linear
    # in r between them: a gap wider than 1/levels gets levels * width more.
    gap = np.diff(rho_strict)
    wide = np.flatnonzero((gap > 1.0 / levels)
                          & ~np.isin(sample[:-1], plateau_vals))
    if wide.size:
        extra = np.concatenate([np.linspace(sample[j], sample[j + 1],
                                            int(gap[j] * levels) + 2)[1:-1]
                                for j in wide])
        rho_extra = distribution_function(f, measure, extra, strict=True)
        order = np.argsort(np.concatenate([sample, extra]))[::-1]
        sample = np.concatenate([sample, extra])[order]
        rho_strict = np.concatenate(
            [rho_strict, measure.M_inv(rho_extra)])[order]

    # Each plateau level enters twice, at mu{f > t} and then mu{f >= t};
    # a point is kept where its radius is a strict new running maximum.
    twice = np.isin(sample, plateau_vals)
    at = np.repeat(np.arange(sample.size), np.where(twice, 2, 1))
    second = np.flatnonzero(np.diff(at, prepend=-1) == 0)
    rho = rho_strict[at]
    rho[second] = measure.M_inv(
        distribution_function(f, measure, sample[twice], strict=False))
    keep = rho > np.maximum.accumulate(np.append(0.0, rho))[:-1]
    rho_pts, val_pts = rho[keep], sample[at][keep]

    if not rho_pts.size:
        return RadialFunction(f.grid, np.full(len(f.grid), vmax),
                              dirichlet=(vmax == 0.0))
    if rho_pts[-1] < 1.0:
        rho_pts = np.append(rho_pts, 1.0)
        val_pts = np.append(val_pts, vmin)
    else:
        val_pts[-1] = vmin
    return RadialFunction(RadialGrid(rho_pts), val_pts,
                          dirichlet=(vmin == 0.0))


def check_equimeasurable(f: RadialFunction, g: RadialFunction,
                         measure: RadialMeasure, levels: int = 256) -> float:
    """max over sampled levels t of |mu{f > t} - mu{g > t}|.

    Levels are strict cell midpoints of (0, max value), avoiding the exact
    jump values of either profile.
    """
    if levels < 2:
        raise InvalidInputError(f"levels must be at least 2, got {levels}")
    tmax = max(float(np.max(f.values)), float(np.max(g.values)))
    if tmax <= 0.0:
        return 0.0
    t = (np.arange(levels) + 0.5) / levels * tmax
    lf = distribution_function(f, measure, t, strict=True)
    lg = distribution_function(g, measure, t, strict=True)
    return float(np.max(np.abs(lf - lg)))


# ---------------------------------------------------------------------------
# mu-integrals and the classical comparison gaps
# ---------------------------------------------------------------------------

_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.34785484513745385, 0.6521451548625461,
                   0.6521451548625461, 0.34785484513745385])
_MU_MAX_WIDTH = 0.005  # widest cell _mu_quadrature integrates unsplit


def _mu_quadrature(F, nodes: np.ndarray, measure: RadialMeasure) -> float:
    """int F dmu over the cells of `nodes` by 4-point Gauss per cell.

    Cells wider than _MU_MAX_WIDTH are subdivided first so the density's
    curvature cannot leak into the result; the rule is then effectively
    exact for piecewise-polynomial F (products and small powers of
    piecewise-linear profiles).  The center cap, where F is constant,
    uses the exact cap measure.
    """
    refined = [nodes]
    wide = np.diff(nodes) > _MU_MAX_WIDTH
    for i in np.nonzero(wide)[0]:
        m = int(math.ceil((nodes[i + 1] - nodes[i]) / _MU_MAX_WIDTH))
        refined.append(np.linspace(nodes[i], nodes[i + 1], m + 1)[1:-1])
    pts = np.unique(np.concatenate(refined))
    a, b = pts[:-1], pts[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for x, w in zip(_GL4_X, _GL4_W):
        r = mid + x * half
        total += w * exact_sum(np.asarray(F(r), dtype=float)
                               * measure.density(r) * half)
    return total + float(F(np.asarray([pts[0]]))[0]) * measure.M(pts[0])


def mu_integral(f: RadialFunction, measure: RadialMeasure,
                power: float = 1.0) -> float:
    """int f^power dmu (Gauss per cell against the measure density).

    Hyperbolic measure: the integral runs over [0, nodes[-2]]; a nonzero
    value there with power < 2 would make the true integral diverge, and
    math.inf is returned in that case.
    """
    nodes = f.grid.nodes
    stop = _domain_stop(f, measure)
    total = _mu_quadrature(lambda r: f(r) ** power, nodes[:stop + 1], measure)
    if measure.kind == "hyperbolic" and f.values[stop] > 0:
        if power < 2.0:
            return math.inf
        # Tail estimate on the dropped rim cell, f linear to f(1).
        xs = np.geomspace(1e-16, 1.0 - nodes[stop], 64)
        rr = 1.0 - xs
        ft = np.interp(rr, nodes, f.values)
        total += exact_sum(np.diff(measure.M(rr[::-1])) *
                           0.5 * (ft[::-1][:-1]**power + ft[::-1][1:]**power))
    return total


def mu_product_integral(f: RadialFunction, g: RadialFunction,
                        measure: RadialMeasure) -> float:
    """int f g dmu on the union of the two grids (truncated hyperbolic)."""
    nodes = np.unique(np.concatenate([f.grid.nodes, g.grid.nodes]))
    if measure.kind == "hyperbolic":
        nodes = nodes[nodes <= max(f.grid.nodes[-2], g.grid.nodes[-2])]
    return _mu_quadrature(lambda r: f(r) * g(r), nodes, measure)


def hardy_littlewood_gap(f: RadialFunction, g: RadialFunction,
                         measure: RadialMeasure) -> float:
    """int f# g# dmu - int f g dmu (nonnegative up to grid error)."""
    fs = rearrange_decreasing(f, measure)
    gs = rearrange_decreasing(g, measure)
    return mu_product_integral(fs, gs, measure) - \
        mu_product_integral(f, g, measure)


def polya_szego_gap(f: RadialFunction) -> float:
    """Dirichlet energy drop under hyperbolic rearrangement (>= 0 up to
    grid error)."""
    fs = rearrange_decreasing(f, hyperbolic_measure())
    return gradient_norm_sq(f) - gradient_norm_sq(fs)
