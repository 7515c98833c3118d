import math

import numpy as np
import pytest

from oracles import LAMBDA_1, bessel_j0, leray_sqrt_log_residual, shoot_rk45
from tmlab import groundstate
from tmlab.errors import (InvalidInputError, NodalSolutionError,
                          StepFailureError)
from tmlab.groundstate import (GROUND_STATE, INDEFINITE, WEAKLY_COERCIVE,
                               classify_coercivity,
                               ground_state_analysis, jacobi_identity_residual,
                               shoot)
from tmlab.potentials import (ConstantPotential, GammaPotential,
                              LerayPotential, Potential, TabulatedPotential,
                              WangYePotential)
from tmlab.radial import RadialFunction, RadialGrid
from tmlab.sampling import bump_profile


def test_shoot_zero_potential(gs_cache, grid):
    gs = gs_cache["zero"]
    assert np.allclose(gs.phi.values, 1.0, atol=1e-12)
    assert gs.phi_at_1 == pytest.approx(1.0, abs=1e-12)


def test_shoot_constant_matches_bessel(gs_cache, grid):
    # phi(r) = J0(sqrt(lam) r) for the constant potential
    gs = gs_cache["const2"]
    s = math.sqrt(2.0)
    sample = grid.nodes[:: 256]
    expected = np.array([bessel_j0(s * r) for r in sample])
    assert np.max(np.abs(gs.phi(sample) - expected)) < 1e-7
    assert gs.phi_at_1 == pytest.approx(bessel_j0(s), abs=1e-7)
    assert gs.phi_at_1 > 0


def test_shoot_nodal_detection(grid):
    # sqrt(lam) beyond the first Bessel zero: solution crosses zero
    lam = 2.0 * LAMBDA_1
    with pytest.raises(NodalSolutionError) as err:
        shoot(ConstantPotential(lam), grid)
    expected_radius = math.sqrt(LAMBDA_1 / lam)
    assert err.value.radius == pytest.approx(expected_radius, abs=1e-3)


def test_leray_ground_state_closed_form():
    # the closed-form profile sqrt(log 1/r) solves the equation exactly
    r = np.geomspace(1e-4, 1.0 - 1e-4, 4001)
    residual = leray_sqrt_log_residual(r)
    assert np.max(np.abs(residual)) < 1e-6


def test_transform_zero_potential(gs_cache, grid):
    gs = gs_cache["zero"]
    assert np.max(np.abs(gs.s_table.values - math.e * grid.nodes)) < 1e-6
    assert gs.s_at_1 == pytest.approx(math.e, abs=1e-6)
    # anchored: log s(1/e) = 0, with 1/e at log r = -1
    log_r = np.log(gs.phi.grid.nodes)
    assert np.interp(-1.0, log_r, gs.log_s) == pytest.approx(0.0, abs=1e-12)


def test_transform_leray_divergent(gs_cache):
    gs = gs_cache["leray"]
    assert gs.s_divergent
    assert math.isinf(gs.s_at_1)
    # borderline pattern: log s keeps gaining ~const per decade of 1 - r
    assert gs.diagnostics["inc_last_decade"] > 0.2


def test_transform_constant_finite(gs_cache):
    gs = gs_cache["const2"]
    assert not gs.s_divergent
    assert math.isfinite(gs.s_at_1)
    # anchored: log s(1/e) = 0, with 1/e at log r = -1
    log_r = np.log(gs.phi.grid.nodes)
    assert np.interp(-1.0, log_r, gs.log_s) == pytest.approx(0.0, abs=1e-12)


def test_stretch_invariants_weakly_coercive(gs_cache, grid):
    for key in ("zero", "const2", "gamma05", "wangye"):
        gs = gs_cache[key]
        s = gs.s_table.values
        assert np.all(np.diff(s) > 0), key
        assert gs.gamma_fit > 0, key
        # s(r) <= r s(1): the stretch rate 1/(r phi^2) dominates 1/r, so
        # s grows relatively faster than r and the ratio peaks at the rim
        if math.isfinite(gs.s_at_1):
            assert np.all(s[:-1] <= grid.nodes[:-1] * gs.s_at_1 * (1 + 1e-9)), key


def test_jacobi_identity_trivials(gs_cache, grid):
    gs = gs_cache["zero"]
    zero = RadialFunction.zero(grid)
    assert jacobi_identity_residual(gs, zero) == 0.0
    rng = np.random.default_rng(3)
    u = bump_profile(rng, grid)
    # with phi identically 1 the identity collapses
    assert jacobi_identity_residual(gs, u) < 1e-12


def test_jacobi_identity_constant_potential(gs_cache, grid):
    gs = gs_cache["const2"]
    u = RadialFunction.from_callable(grid, lambda r: 1.0 - r)
    res = jacobi_identity_residual(gs, u)
    assert res < 1e-4
    # refinement shrinks the defect
    g2 = RadialGrid.default(8192)
    gs2 = ground_state_analysis(ConstantPotential(2.0), g2)
    u2 = RadialFunction.from_callable(g2, lambda r: 1.0 - r)
    assert jacobi_identity_residual(gs2, u2) < res


def test_jacobi_identity_random_profiles(gs_cache, grid):
    # the identity must hold across the weakly coercive catalogue
    for key in ("const2", "gamma05", "wangye"):
        gs = gs_cache[key]
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            u = bump_profile(rng, grid)
            worst = max(worst, jacobi_identity_residual(gs, u))
        assert worst < 1e-3, key


def test_jacobi_requires_dirichlet(gs_cache, grid):
    with pytest.raises(InvalidInputError):
        jacobi_identity_residual(gs_cache["const2"],
                                 RadialFunction.constant(grid, 1.0))


def test_classification_catalogue(grid):
    assert classify_coercivity(ConstantPotential(0.5 * LAMBDA_1),
                               grid).classification == WEAKLY_COERCIVE
    assert classify_coercivity(LerayPotential(),
                               grid).classification == GROUND_STATE
    assert classify_coercivity(ConstantPotential(2.0 * LAMBDA_1),
                               grid).classification == INDEFINITE
    assert classify_coercivity(GammaPotential(0.5),
                               grid).classification == WEAKLY_COERCIVE
    assert classify_coercivity(WangYePotential(),
                               grid).classification == WEAKLY_COERCIVE


def test_classification_critical_constant(grid):
    # exactly at the first eigenvalue the rim value collapses to zero:
    # the eigenfunction itself is the ground state
    res = classify_coercivity(ConstantPotential(LAMBDA_1), grid)
    assert res.classification == GROUND_STATE
    assert res.result.phi_at_1 <= 1e-6


def test_monotone_comparison(grid):
    # V1 <= V2 with V2 weakly coercive forces V1 weakly coercive
    pairs = [(WangYePotential(), GammaPotential(0.5)),
             (ConstantPotential(1.0), ConstantPotential(3.0))]
    for v1, v2 in pairs:
        r = grid.nodes[1:-1:97]
        assert np.all(np.asarray(v1(r)) <= np.asarray(v2(r)) * (1 + 1e-12))
        assert classify_coercivity(v2, grid).classification == WEAKLY_COERCIVE
        assert classify_coercivity(v1, grid).classification == WEAKLY_COERCIVE


def test_phi_normalization(gs_cache):
    for key in ("const2", "gamma05", "wangye"):
        phi = gs_cache[key].phi.values
        assert np.max(phi) == pytest.approx(1.0, abs=1e-12)
        assert np.all(phi[:-1] > 0)


def test_kato_tagging(gs_cache):
    assert gs_cache["leray"].kato_ok is False
    assert gs_cache["wangye"].kato_ok is True


def tabulated_gamma05(table_grid):
    """gamma:0.5 sampled at the grid nodes (the rim value repeated at
    r = 1, where V is infinite), interpolated linearly in log r."""
    vals = GammaPotential(0.5)(table_grid.nodes[:-1])
    return TabulatedPotential(table_grid.nodes, np.append(vals, vals[-1]))


def refined_grid(grid, k):
    """Every cell of `grid` below nodes[-2] cut into k equal pieces in
    log r; node k*i is nodes[i] up to the rounding of exp(log r)."""
    t = np.log(grid.nodes[:-1])
    fine = (t[:-1, None] + np.diff(t)[:, None] * (np.arange(k) / k)).ravel()
    return RadialGrid(np.append(np.exp(np.append(fine, t[-1])), 1.0))


def test_shoot_matches_rk45_reference(grid, monkeypatch):
    pytest.importorskip("scipy.integrate")
    pots = {"constant": ConstantPotential(2.0), "leray": LerayPotential(),
            "gamma05": GammaPotential(0.5), "wangye": WangYePotential(),
            "tabulated": tabulated_gamma05(grid)}
    for key, pot in pots.items():
        new = classify_coercivity(pot, grid)
        with monkeypatch.context() as m:
            m.setattr(groundstate, "shoot", shoot_rk45)
            old = classify_coercivity(pot, grid)
        assert new.classification == old.classification, key
        assert abs(new.result.phi_at_1 - old.result.phi_at_1) <= 1e-8, key


@pytest.mark.parametrize("table_n", [4096, 1000])
def test_tabulated_copy_integrates_to_mesh_accuracy(grid, table_n):
    # The table is gamma:0.5 at its nodes; its kinks are mesh edges (on
    # the grid's own nodes, or off them through `breakpoints`), so the
    # shot converges as for a smooth V: the default grid agrees with a
    # 16x-refined one (RK45 stepped across the kinks and was 3.7e-6 off).
    # Between its nodes the table differs from gamma:0.5 itself.
    table_grid = RadialGrid.default(table_n)
    table = tabulated_gamma05(table_grid)
    exact = GammaPotential(0.5)(table_grid.nodes[:-1])
    assert np.max(np.abs(table(table_grid.nodes[:-1]) / exact - 1.0)) <= 1e-8
    k = 16
    coarse = shoot(table, grid).phi.values
    fine = shoot(table, refined_grid(grid, k)).phi.values
    fine = np.append(fine[:-1:k], fine[-1])
    assert np.max(np.abs(coarse / fine - 1.0)) <= 1e-8


def test_coarse_grid_shoots_on_the_default_mesh(grid):
    coarse_grid = RadialGrid.default(512)
    shared, i_coarse, i_default = np.intersect1d(
        coarse_grid.nodes, grid.nodes, return_indices=True)
    assert shared.size >= 3
    for pot in (ConstantPotential(2.0), GammaPotential(0.5),
                WangYePotential()):
        coarse = shoot(pot, coarse_grid).phi.values[i_coarse]
        default = shoot(pot, grid).phi.values[i_default]
        assert np.max(np.abs(coarse / default - 1.0)) <= 1e-8, pot


class _NaNPotential(Potential):
    def __call__(self, r):
        return np.full(np.shape(r), math.nan)


def test_nan_potential_is_step_failure(grid):
    with pytest.raises(StepFailureError):
        shoot(_NaNPotential(), grid)
    # an integrator failure is no verdict
    with pytest.raises(StepFailureError):
        classify_coercivity(_NaNPotential(), grid)


def test_shoot_vectorizes_potential_evaluation(grid):
    # One vectorized evaluation for all Gauss points, one for check_kato.
    calls = []

    class Counting(Potential):
        def __call__(self, r):
            calls.append(np.size(r))
            return LerayPotential()(r)

    shoot(Counting(), grid)
    assert len(calls) == 2
