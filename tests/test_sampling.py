import numpy as np

from oracles import step_profile
from tmlab.sampling import bump_profile, nonneg_profile


def test_bump_profiles_dirichlet(grid):
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = bump_profile(rng, grid)
        assert u.dirichlet and u.values[-1] == 0.0
        assert np.all(np.isfinite(u.values))


def test_nonneg_profiles(grid):
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = nonneg_profile(rng, grid)
        assert np.all(u.values >= 0)


def test_step_profiles_valid():
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = step_profile(rng)
        assert f.grid.nodes[-1] == 1.0
        assert f.values[-1] == 0.0
        assert np.all(f.values >= 0)
        # support stays inside the disk so hyperbolic integrals converge
        assert f.values[-2] == 0.0


def test_samplers_reproducible(grid):
    a = bump_profile(np.random.default_rng(7), grid)
    b = bump_profile(np.random.default_rng(7), grid)
    assert np.array_equal(a.values, b.values)
