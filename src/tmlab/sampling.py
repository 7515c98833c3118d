"""Seeded random profile generators used by audits and property sweeps.

All samplers take a numpy Generator so sweeps are reproducible; audits
document their sampler so reported slacks can be regenerated.
"""

from __future__ import annotations

import numpy as np

from .radial import RadialFunction, RadialGrid

MAX_BUMPS = 4  # bump_profile sums 1..MAX_BUMPS Gaussians
BUMP_AMP = 1.0  # bump heights are drawn from [0.2, BUMP_AMP]


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
