import math

import numpy as np
import pytest

from oracles import check_equimeasurable, rearranged_potential
from tmlab.errors import InvalidInputError, SingularEvaluationError
from tmlab.forms import PotentialRemainder
from tmlab.groundstate import KATO_ALPHA
from tmlab.potentials import (ConstantPotential, GammaPotential,
                              LerayPotential, TabulatedPotential,
                              WangYePotential, check_class_v, check_kato,
                              parse_potential)
from tmlab.radial import RadialFunction, RadialGrid
from tmlab.rearrange import MEASURES


def test_eval_examples():
    r = 1.0 / math.e
    assert LerayPotential()(np.array([r]))[0] == \
        pytest.approx(math.e**2 / 4.0, rel=1e-12)
    # at r = 1/e the damping branch is max(1, 1) = 1
    assert GammaPotential(0.7)(np.array([r]))[0] == \
        pytest.approx(math.e**2 / 4.0, rel=1e-12)
    assert ConstantPotential(3.5)(np.array([0.123, 0.9]))[0] == 3.5
    assert WangYePotential()(np.array([0.0]))[0] == 1.0


def test_gamma_needs_positive_exponent():
    with pytest.raises(InvalidInputError):
        GammaPotential(0.0)


def test_parse_roundtrip(tmp_path, grid_1024):
    assert isinstance(parse_potential("leray"), LerayPotential)
    assert parse_potential("constant:2.5").lam == 2.5
    assert parse_potential("gamma:0.5").gamma == 0.5
    assert isinstance(parse_potential("wangye"), WangYePotential)
    prof = RadialFunction(grid_1024, 1 + grid_1024.nodes, dirichlet=False)
    path = tmp_path / "tab.csv"
    prof.to_csv(path)
    tab = parse_potential(f"tabulated:{path}")
    assert isinstance(tab, TabulatedPotential)
    assert tab(np.array([0.5]))[0] == pytest.approx(1.5, rel=1e-6)
    with pytest.raises(InvalidInputError):
        parse_potential("hardy:3")


def test_class_v_catalogue(grid):
    assert check_class_v(ConstantPotential(2.0), grid).ok
    assert check_class_v(WangYePotential(), grid).ok  # g identically 1
    for gamma in (0.25, 0.5):
        assert check_class_v(GammaPotential(gamma), grid).ok
    assert check_class_v(LerayPotential(), grid).ok


def test_class_v_gamma_boundary(grid):
    # The weighted-monotonicity condition for the damped weight reduces,
    # at the branch switch r = 1/e, to gamma <= 4 r^2/(1-r^2) = 4/(e^2-1).
    # The screen must resolve that boundary empirically.
    boundary = 4.0 / (math.e**2 - 1.0)  # ~0.62578
    assert check_class_v(GammaPotential(boundary - 0.02), grid).ok
    report = check_class_v(GammaPotential(boundary + 0.02), grid)
    assert not report.ok
    # violation sits left of the branch switch
    assert report.violation_radii[0] < 1.0 / math.e
    assert not check_class_v(GammaPotential(1.0), grid).ok


def test_class_v_violation_located(grid_1024):
    # grows toward r = 1 faster than the weight decays
    r = grid_1024.nodes
    tab = TabulatedPotential(r, 1.0 / (1.0 - np.minimum(r, 1 - 1e-12))**3)
    report = check_class_v(tab, grid_1024)
    assert not report.ok
    assert report.violation_radii is not None
    lo, hi = report.violation_radii
    g = lambda x: (1 - x * x)**2 * tab(np.array([x]))[0]
    assert g(hi) > g(lo)


def test_kato_examples():
    # damped borderline weight: h = L^(alpha-gamma)/4 -> 0 slowly
    rep = check_kato(GammaPotential(0.5), 0.25)
    assert rep.ok
    assert rep.values[-1] == pytest.approx(
        math.log(1e12) ** (-0.25) / 4.0, rel=1e-12)
    # bare borderline weight: h = L^alpha / 4 grows
    for alpha in (0.25, 1.0):
        assert not check_kato(LerayPotential(), alpha).ok
    # constant: h = lam r^2 L^3 -> 0 fast
    rep_c = check_kato(ConstantPotential(2.0), 1.0)
    assert rep_c.ok and rep_c.values[-1] < 1e-6
    assert check_kato(ConstantPotential(0.0), 1.0).ok
    assert check_kato(WangYePotential(), 0.5).ok
    with pytest.raises(InvalidInputError):
        check_kato(ConstantPotential(1.0), -1.0)


def test_one_non_finite_value_one_report():
    # V is NaN at r* = 1e-4 alone, a radius that psi's quadrature (the
    # cap sample of a grid starting at 2 r*), the class-V screen (a node)
    # and the Kato screen (m = 4) all sample: each names r* and nan.
    r_star = 10.0 ** -4.0

    def pot(r):
        return np.where(r == r_star, np.nan, 1.0)

    calls = [
        lambda: PotentialRemainder(pot).psi(
            RadialFunction.zero(RadialGrid([2 * r_star, 0.5, 1.0]))),
        lambda: check_class_v(pot, RadialGrid([r_star, 0.5, 1.0])),
        lambda: check_kato(pot, KATO_ALPHA)]
    for call in calls:
        with pytest.raises(SingularEvaluationError) as err:
            call()
        assert err.value.abscissa == r_star
        assert math.isnan(err.value.value)


def test_pointwise_domination(grid):
    r = grid.nodes[:-1]
    wy = WangYePotential()(r)
    vg = GammaPotential(0.5)(r)
    assert np.all(wy <= vg * (1 + 1e-12))
    leray = LerayPotential()(r)
    assert np.all(vg <= leray * (1 + 1e-12))
    inner = r < 1.0 / math.e - 1e-12
    assert np.all(vg[inner] < leray[inner])


def test_rearranged_potential_monotone_identity(grid_1024):
    # Node values are reproduced exactly for monotone inputs;
    # between nodes the tabulation carries ordinary chord error.
    pot = ConstantPotential(3.0)
    out = rearranged_potential(pot, grid_1024)
    r = grid_1024.nodes[(grid_1024.nodes > 0.01) & (grid_1024.nodes < 0.99)]
    assert np.allclose(out(r), 3.0, atol=1e-10)

    gam = GammaPotential(0.5)
    out2 = rearranged_potential(gam, grid_1024)
    assert np.allclose(out2(r), gam(r), rtol=1e-9)


def test_rearranged_potential_increasing_g(grid_1024):
    # g(r) = r^2 is increasing: output must be its equimeasurable
    # nonincreasing version and must pass the class-V screen
    r = grid_1024.nodes
    rr = np.minimum(r, 1 - 1e-12)
    pot = TabulatedPotential(r, rr**2 / (1 - rr**2)**2)
    out = rearranged_potential(pot, grid_1024)
    assert check_class_v(out, grid_1024).ok
    g_in = RadialFunction(grid_1024, rr**2, dirichlet=False)
    out_r = out.radii
    g_out = RadialFunction(RadialGrid(out_r),
                           out(out_r) * (1 - np.minimum(out_r, 1 - 1e-12)**2)**2,
                           dirichlet=False)
    dev = check_equimeasurable(g_in, g_out, MEASURES["hyperbolic"], levels=200)
    # measures at the truncation rim are ~1e9, so compare relatively
    scale = MEASURES["hyperbolic"].M(grid_1024.nodes[-2])
    assert dev < 1e-6 * scale


def test_rearranged_potential_idempotent(grid_1024):
    r = grid_1024.nodes
    rr = np.minimum(r, 1 - 1e-12)
    pot = TabulatedPotential(r, rr**2 / (1 - rr**2)**2)
    once = rearranged_potential(pot, grid_1024)
    twice = rearranged_potential(once, grid_1024)
    probe_r = np.linspace(0.05, 0.95, 80)
    assert np.allclose(twice(probe_r), once(probe_r), rtol=1e-6, atol=1e-9)
