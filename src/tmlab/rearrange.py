"""Decreasing rearrangement of radial profiles on the Poincare disk.

The rearrangement is taken with respect to a radial measure mu given by a
closed-form cumulative function M(r) = mu(B_r) and its inverse, one
record per measure in MEASURES:

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

The test suite checks all three against its oracles (tests/oracles.py).

The hyperbolic M diverges at r = 1, so that measure is `truncated`: its
distribution functions stop at the profile's last interior node, and the
profiles fed to these routines should vanish near the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .radial import RadialFunction, RadialGrid, one_minus_r_sq

# Equispaced levels of rearrange_decreasing, read at call time; more of
# them shrink the equimeasurability deviation.
LEVELS = 2048


@dataclass(frozen=True)
class RadialMeasure:
    """A radial measure mu by its closed-form cumulative M(r) = mu(B_r)
    and inverse M_inv; a `truncated` measure drops the final cell
    [nodes[-2], 1], whose measure is infinite (the working domain is
    [0, nodes[-2]])."""
    name: str
    M: Callable = field(repr=False)
    M_inv: Callable = field(repr=False)
    truncated: bool


# The measures of the module docstring, by their --measure name.
MEASURES = {m.name: m for m in (
    RadialMeasure("hyperbolic",
                  lambda r: 4.0 * math.pi * r * r / one_minus_r_sq(r),
                  lambda m: np.sqrt(m / (4.0 * math.pi + m)), True),
    RadialMeasure("euclidean", lambda r: math.pi * r * r,
                  lambda m: np.sqrt(m / math.pi), False))}


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def distribution_function(f: RadialFunction, measure: RadialMeasure,
                          levels, strict: bool = True) -> np.ndarray:
    """mu{f > t} (strict) or mu{f >= t} for each level t, exactly.

    Exact for the piecewise-linear interpolant of f with respect to the
    measure, over [0, nodes[-2]] when it is `truncated`; the center disk
    r < nodes[0] counts as a plateau at the first node value.

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
    stop = len(f.grid) - 1 - measure.truncated
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


def rearrange_decreasing(f: RadialFunction, measure: RadialMeasure
                         ) -> RadialFunction:
    """Nonincreasing profile equimeasurable with f (w.r.t. the measure).

    LEVELS levels are equispaced over f's value range, refined where
    their radii spread, plus every node value (kinks are sampled exactly)
    and two-sided values at plateaus (flat pieces are reproduced exactly).
    """
    if np.any(f.values < 0):
        raise InvalidInputError("rearrangement input must be nonnegative")
    vmin = float(np.min(f.values))
    vmax = float(np.max(f.values))
    if vmax == vmin:
        return RadialFunction(f.grid, f.values.copy(),
                              dirichlet=(vmax == 0.0))

    grid_levels = np.linspace(vmin, vmax, LEVELS)
    sample = np.unique(np.concatenate([grid_levels, f.values]))[::-1]
    # Values held on a set of positive measure: constant cells, plus the
    # center cap where the profile extends constantly (keeping the cap
    # makes rearrangement exactly the identity on monotone inputs).
    stop = len(f.grid) - 1 - measure.truncated
    fa, fb = f.values[:stop], f.values[1:stop + 1]
    plateau_vals = np.append(fa[fa == fb], f.values[0])

    rho_strict = measure.M_inv(
        distribution_function(f, measure, sample, strict=True))
    # Where f is nearly flat off its plateaus, rho(t) bends like a square
    # root and equispaced levels fall too far apart in rho for f#, linear
    # in r between them: a gap wider than 1/LEVELS gets LEVELS * width more.
    gap = np.diff(rho_strict)
    wide = np.flatnonzero((gap > 1.0 / LEVELS)
                          & ~np.isin(sample[:-1], plateau_vals))
    if wide.size:
        extra = np.concatenate([np.linspace(sample[j], sample[j + 1],
                                            int(gap[j] * LEVELS) + 2)[1:-1]
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
    # M_inv of the whole disk's measure may round a few ulps below 1:
    # that radius is the rim, not the start of a cell ulps wide.
    rho[rho > 1.0 - 4.0 * np.finfo(float).epsneg] = 1.0
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
