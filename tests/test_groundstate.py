import math
import re

import numpy as np
import pytest

from oracles import (LAMBDA_1, bessel_j0, jacobi_identity_residual,
                     leray_sqrt_log_residual, negative_constant_log_s1,
                     shoot_recurrence, shoot_rk45)
from profiles import constant, from_callable
from tmlab import groundstate
from tmlab.errors import (InvalidInputError, NodalSolutionError,
                          StepFailureError)
from tmlab.forms import PotentialRemainder, eval_Q
from tmlab.groundstate import (GROUND_STATE, INDEFINITE, WEAKLY_COERCIVE,
                               classify_coercivity, shoot, transform_s)
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
    assert np.max(np.abs(np.exp(gs.log_s) - math.e * grid.nodes)) < 1e-6
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
        s = np.exp(gs.log_s)
        assert np.all(np.diff(s) > 0), key
        assert gs.gamma_fit > 0, key
        # s(r) <= r s(1): the stretch rate 1/(r phi^2) dominates 1/r, so
        # s grows relatively faster than r and the ratio peaks at the rim
        if math.isfinite(gs.s_at_1):
            assert np.all(s[:-1] <= grid.nodes[:-1] * gs.s_at_1 * (1 + 1e-9)), key


def test_centre_fit_in_log_space(gs_cache, grid):
    # exp(median(log s - log r)) moves the linear-domain median of s / r
    # by at most 1e-11 relative (an even count's midpoint average), and
    # log s(r) <= 1 + log r near the centre since phi <= 1.
    small = grid.nodes <= grid.nodes[0] * 10.0
    for key, gs in gs_cache.items():
        linear = np.median(np.exp(gs.log_s[small]) / grid.nodes[small])
        assert gs.gamma_fit == pytest.approx(linear, rel=1e-11), key
        assert gs.log_gamma <= 1.0, key


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
    u = from_callable(grid, lambda r: 1.0 - r)
    res = jacobi_identity_residual(gs, u)
    assert res < 1e-4
    # refinement shrinks the defect
    g2 = RadialGrid.default(8192)
    gs2 = transform_s(ConstantPotential(2.0),
                      shoot(ConstantPotential(2.0), g2))
    u2 = from_callable(g2, lambda r: 1.0 - r)
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
                                 constant(grid, 1.0))


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


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_stretch_alone_gives_every_reading(n):
    # A divergent stretch is the only GroundStateDetected criterion; a
    # vanishing rim value forces it.  Over the catalogue no finite
    # stretch comes with phi(1) <= 1e-6, save constants within about
    # 1.5e-6 of lambda_1 from below: coercive forms (c < lambda_1) whose
    # log s(1) exceeds 4e5.  They read WeaklyCoercive with s(1) = inf
    # (they once overflowed, so no rim threshold ever decided them).
    grid = RadialGrid.default(n)
    band = [LAMBDA_1 * (1.0 - eps) for eps in (1e-6, 5e-7)]
    constants = [*np.linspace(0.0, 5.7, 12), *np.linspace(5.7, 5.783, 8),
                 *band, LAMBDA_1 * (1.0 + 1e-6)]
    pots = ([ConstantPotential(c) for c in constants]
            + [GammaPotential(g) for g in np.geomspace(0.02, 50.0, 16)]
            + [LerayPotential(), WangYePotential()])
    for pot in pots:
        res = classify_coercivity(pot, grid)
        gs = res.result
        if gs is None:
            assert pot == ConstantPotential(constants[-1])
            continue
        assert (res.classification == GROUND_STATE) == gs.s_divergent, pot
        if gs.phi_at_1 <= 1e-6 and not gs.s_divergent:
            assert pot.lam in band, pot
            assert res.classification == WEAKLY_COERCIVE
            assert gs.s_at_1 == math.inf


def test_large_gamma_damping_underflows_quietly(grid):
    # log(1/r)^300 overflows near the origin, where V is below 1e-280;
    # the warning filter turns any overflow warning into a failure.
    pot = GammaPotential(300.0)
    res = classify_coercivity(pot, grid)
    assert res.classification == WEAKLY_COERCIVE
    assert res.result.kato_ok
    u = bump_profile(np.random.default_rng(0), grid)
    assert math.isfinite(eval_Q(PotentialRemainder(pot), u))


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
    coarse = shoot(table, grid).values
    fine = shoot(table, refined_grid(grid, k)).values
    fine = np.append(fine[:-1:k], fine[-1])
    assert np.max(np.abs(coarse / fine - 1.0)) <= 1e-8


def test_coarse_grid_shoots_on_the_default_mesh(grid):
    coarse_grid = RadialGrid.default(512)
    shared, i_coarse, i_default = np.intersect1d(
        coarse_grid.nodes, grid.nodes, return_indices=True)
    assert shared.size >= 3
    for pot in (ConstantPotential(2.0), GammaPotential(0.5),
                WangYePotential()):
        coarse = shoot(pot, coarse_grid).values[i_coarse]
        default = shoot(pot, grid).values[i_default]
        assert np.max(np.abs(coarse / default - 1.0)) <= 1e-8, pot


class _NaNPotential(Potential):
    def __call__(self, r):
        return np.full(np.shape(r), math.nan)


def test_nan_potential_is_step_failure(grid):
    for shooter in (shoot, shoot_recurrence):
        with pytest.raises(StepFailureError):
            shooter(_NaNPotential(), grid)
    # an integrator failure is no verdict
    with pytest.raises(StepFailureError):
        classify_coercivity(_NaNPotential(), grid)


class _CutOff(Potential):
    """The constant lam below r = edge and NaN from there on; the edge is
    a breakpoint, so a mesh cell starts exactly on it."""

    def __init__(self, lam, edge):
        self.lam, self.breakpoints = lam, (edge,)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.breakpoints[0], self.lam, math.nan)


def test_crossing_before_a_nan_cell_is_nodal(grid):
    # 2 lambda_1 crosses zero at r = 1/sqrt(2), before V turns NaN at 0.9:
    # the first bad phi is the crossing, a verdict.
    pot = _CutOff(2.0 * LAMBDA_1, 0.9)
    with pytest.raises(NodalSolutionError) as new:
        shoot(pot, grid)
    with pytest.raises(NodalSolutionError) as old:
        shoot_recurrence(pot, grid)
    assert new.value.radius == pytest.approx(old.value.radius, rel=1e-12)
    assert new.value.radius == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_nan_cell_after_positive_phi_is_step_failure(grid):
    # phi = J0(sqrt(2) r) > 0 up to r = 0.5, where V turns NaN: the first
    # bad phi follows a non-finite cell, which the failure names.
    pot = _CutOff(2.0, 0.5)
    with pytest.raises(StepFailureError) as old:
        shoot_recurrence(pot, grid)
    assert str(old.value) == "non-finite propagator on the cell at r = 0.5"
    with pytest.raises(StepFailureError, match=re.escape(str(old.value))):
        shoot(pot, grid)
    with pytest.raises(StepFailureError, match=re.escape(str(old.value))):
        classify_coercivity(pot, grid)


def test_shoot_vectorizes_potential_evaluation(grid):
    # One vectorized evaluation for all Gauss points; check_kato's runs in
    # transform_s.
    calls = []

    class Counting(Potential):
        def __call__(self, r):
            calls.append(np.size(r))
            return LerayPotential()(r)

    shoot(Counting(), grid)
    assert len(calls) == 1


def scan_strata(seed):
    """The potentials of the benchmark's scan plan for one seed, drawn in
    its order: a constant per stratum lambda_1 (0.1 k +- 0.03), k = 1..9
    (below lambda_1) and 11..20 (above), then a gamma:g per log-uniform
    stratum of [0.1, 8].  Returns (below lambda_1 and gamma, above)."""
    rng = np.random.default_rng([seed, 1])
    below, above = [], []
    for k in [*range(1, 10), *range(11, 21)]:
        pot = ConstantPotential(LAMBDA_1 * (0.1 * k + rng.uniform(-0.03, 0.03)))
        (below if k < 10 else above).append(pot)
    edges = np.linspace(math.log(0.1), math.log(8.0), 13)
    gammas = [GammaPotential(math.exp(rng.uniform(lo, hi)))
              for lo, hi in zip(edges[:-1], edges[1:])]
    return below + gammas, above


def relative_gap(new, old):
    return float(np.max(np.abs(new / old - 1.0)))


def test_shoot_matches_recurrence_on_catalogue_and_scan_strata(grid):
    # The prefix product reorders the recurrence's roundoff only.
    pots = [ConstantPotential(0.0), ConstantPotential(2.0), LerayPotential(),
            GammaPotential(0.5), WangYePotential(), tabulated_gamma05(grid),
            ConstantPotential(-50.0), GammaPotential(300.0)]
    pots += [pot for seed in range(10) for pot in scan_strata(seed)[0]]
    for pot in pots:
        gap = relative_gap(shoot(pot, grid).values,
                           shoot_recurrence(pot, grid).values)
        assert gap <= 1e-12, pot


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_shoot_matches_recurrence_next_to_lambda_1(grid, monkeypatch, eps):
    # As phi(1) -> 0 the roundoff is amplified like 1/eps (1.6e-12 at
    # eps = 1e-3, 1.2e-8 at 1e-7), but the reading is the recurrence's.
    pot = ConstantPotential(LAMBDA_1 * (1.0 - eps))
    new = classify_coercivity(pot, grid)
    monkeypatch.setattr(groundstate, "shoot", shoot_recurrence)
    old = classify_coercivity(pot, grid)
    assert new.classification == old.classification
    assert relative_gap(new.result.phi.values,
                        old.result.phi.values) <= 1e-14 / eps


def test_shoot_matches_recurrence_nodal_radius(grid):
    pots = [ConstantPotential(LAMBDA_1 * f) for f in (1.01, 2.0, 10.0)]
    pots += [pot for seed in range(10) for pot in scan_strata(seed)[1]]
    for pot in pots:
        with pytest.raises(NodalSolutionError) as new:
            shoot(pot, grid)
        with pytest.raises(NodalSolutionError) as old:
            shoot_recurrence(pot, grid)
        assert new.value.radius == pytest.approx(old.value.radius,
                                                 rel=1e-12), pot


@pytest.mark.parametrize("c", [1e2, 1e3, 3e3, 1e4])
def test_negative_constant_stretch_matches_bessel(grid, c):
    # For V = -c, 1/phi^2 at the centre is about I_0(sqrt c)^2 (1e84 at
    # c = 1e4), far above its values near the rim, which log s(1) sums;
    # only the grid error may remain.
    exact = negative_constant_log_s1(c)
    pot = ConstantPotential(-c)
    for g, rel in ((grid, 0.1), (RadialGrid.default(16384), 5e-3)):
        gs = transform_s(pot, shoot(pot, g))
        assert gs.log_s_at_1 == pytest.approx(exact, rel=rel), len(g)


@pytest.mark.parametrize("lam, where", [(-1e6, "shoot"),
                                        (-2e5, "transform_s")])
def test_overflowing_phi_is_step_failure(grid, lam, where):
    # phi(1)/phi(0) ~ I_0(sqrt(-lam)): e^1000 overflows the shot itself;
    # at e^447 phi/max phi ~ 3e-193 near the centre, and 1/phi^2 does.
    pot = ConstantPotential(lam)
    if where == "shoot":
        with pytest.raises(StepFailureError, match="overflows"):
            shoot(pot, grid)
    else:
        phi = shoot(pot, grid)
        with pytest.raises(StepFailureError, match="overflows"):
            transform_s(pot, phi)
    with pytest.raises(StepFailureError, match="overflows"):
        classify_coercivity(pot, grid)


@pytest.mark.parametrize("c", [6.4e25, 7e25, 1e26, 1e27, 1e30, 1e308])
def test_strongly_indefinite_constant_is_nodal(grid, c):
    # On the first cell h sqrt(r^2 c) > pi: the Magnus propagator
    # overflows there, and the shot once failed as numerical.  Sturm
    # comparison with sin(sqrt(m) (t - t0)), m = r0^2 c, puts a zero of
    # phi by t0 + pi / sqrt(m).
    pot = ConstantPotential(c)
    r0 = grid.nodes[0]
    with pytest.raises(NodalSolutionError) as exc:
        shoot(pot, grid)
    assert exc.value.radius == pytest.approx(
        r0 * math.exp(math.pi / (r0 * math.sqrt(c))), rel=1e-12)
    assert classify_coercivity(pot, grid).classification == INDEFINITE


def test_nodal_radius_within_sturm_bound(grid):
    # phi, positive at r0 = nodes[0], vanishes by r0 exp(pi / (r0 sqrt c))
    # (Sturm comparison on r >= r0).  From about 1e22 to 6e25 the shot
    # once interpolated the zero linearly across a cell on which phi had
    # oscillated and read a radius up to 2e-3 past that bound.
    r0 = grid.nodes[0]
    for c in np.logspace(16, 308, 147):
        with pytest.raises(NodalSolutionError) as exc:
            shoot(ConstantPotential(c), grid)
        bound = r0 * math.exp(math.pi / (r0 * math.sqrt(c)))
        assert (r0 * (1 - 1e-12) <= exc.value.radius
                <= bound * (1 + 1e-12)), c
