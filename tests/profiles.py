"""Test-only profile builders: profiles from a constant or a callable."""

import numpy as np

from tmlab.radial import RadialFunction


def constant(grid, c: float) -> RadialFunction:
    """The constant profile c, Dirichlet only when c == 0."""
    return RadialFunction(grid, np.full(len(grid), float(c)),
                          dirichlet=(c == 0.0))


def from_callable(grid, f) -> RadialFunction:
    """The Dirichlet profile f(nodes), set to 0 at r = 1."""
    vals = np.array(f(grid.nodes), dtype=float)
    vals[-1] = 0.0
    return RadialFunction(grid, vals, dirichlet=True)
