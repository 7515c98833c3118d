import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tmlab.groundstate import shoot, transform_s
from tmlab.potentials import (ConstantPotential, GammaPotential,
                              LerayPotential, WangYePotential)
from tmlab.probe import estimate_lambda_1, estimate_lambda_p
from tmlab.radial import RadialGrid


@pytest.fixture(scope="session")
def grid():
    return RadialGrid.default()


@pytest.fixture(scope="session")
def grid_2048():
    return RadialGrid.default(2048)


@pytest.fixture(scope="session")
def grid_1024():
    return RadialGrid.default(1024)


@pytest.fixture(scope="session")
def lambda1(grid):
    value, eigenfunction = estimate_lambda_1(grid)
    return value, eigenfunction


@pytest.fixture(scope="session")
def lambda4_estimate(grid_1024):
    return estimate_lambda_p(4.0, grid_1024, seed=11)


@pytest.fixture(scope="session")
def gs_cache(grid):
    """Ground-state analyses reused across tests."""
    cache = {}
    for key, pot in [("zero", ConstantPotential(0.0)),
                     ("const2", ConstantPotential(2.0)),
                     ("leray", LerayPotential()),
                     ("gamma05", GammaPotential(0.5)),
                     ("wangye", WangYePotential())]:
        cache[key] = transform_s(pot, shoot(pot, grid))
    return cache
