"""Seeded random profile generators used by audits and property sweeps.

All samplers take a numpy Generator so sweeps are reproducible; audits
document their sampler so reported slacks can be regenerated.
"""

from __future__ import annotations

import numpy as np

from .radial import RadialFunction, RadialGrid

MAX_BUMPS = 4  # bump_profile sums 1..MAX_BUMPS Gaussians
BUMP_AMP = 1.0  # bump heights are drawn from [0.2, BUMP_AMP]
MAX_STEPS = 5  # step_profile has 1..MAX_STEPS plateau edges
STEP_SUPPORT = (0.02, 0.9)  # radii where plateau edges fall
STEP_VMAX = 2.0  # plateau levels are drawn from [0, STEP_VMAX]
STEP_RAMP = 1e-3  # width of the ramp after each plateau edge


def bump_profile(rng: np.random.Generator, grid: RadialGrid) -> RadialFunction:
    """Sum of 1..MAX_BUMPS smooth radial Gaussians with random centers,
    widths and signs, pinned to zero at r = 1 (Dirichlet) by subtracting
    the boundary value along the ramp r."""
    r = grid.nodes
    vals = np.zeros_like(r)
    for _ in range(int(rng.integers(1, MAX_BUMPS + 1))):
        center = rng.uniform(0.0, 0.9)
        width = rng.uniform(0.05, 0.35)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        height = rng.uniform(0.2, BUMP_AMP)
        vals += sign * height * np.exp(-((r - center) / width) ** 2)
    vals -= vals[-1] * r
    vals[-1] = 0.0
    return RadialFunction(grid, vals, dirichlet=True)


def nonneg_profile(rng: np.random.Generator,
                   grid: RadialGrid) -> RadialFunction:
    u = bump_profile(rng, grid)
    vals = np.abs(u.values)
    vals[-1] = 0.0
    return RadialFunction(grid, vals, dirichlet=True)


def step_profile(rng: np.random.Generator) -> RadialFunction:
    """Random nonnegative step profile on its own compact grid.

    Plateau boundaries are drawn inside STEP_SUPPORT and connected by
    ramps of width STEP_RAMP; the profile vanishes identically beyond the
    support (so hyperbolic integrals stay finite).
    """
    lo, hi = STEP_SUPPORT
    n_steps = int(rng.integers(1, MAX_STEPS + 1))
    edges = np.sort(rng.uniform(lo, hi, n_steps))
    # Enforce a gap so ramps do not overlap.
    for i in range(1, edges.size):
        edges[i] = max(edges[i], edges[i - 1] + 3.0 * STEP_RAMP)
    edges = edges[edges < hi]
    if edges.size == 0:
        edges = np.array([0.5 * (lo + hi)])
    levels = rng.uniform(0.0, STEP_VMAX, edges.size + 1)
    levels[-1] = 0.0
    nodes = [edges[0] * 0.1]
    vals = [levels[0]]
    for e, nxt in zip(edges, levels[1:]):
        nodes.extend([e, e + STEP_RAMP])
        vals.extend([vals[-1], nxt])
    nodes.append(1.0)
    vals.append(0.0)
    return RadialFunction(RadialGrid(np.asarray(nodes)),
                          np.asarray(vals), dirichlet=True)
