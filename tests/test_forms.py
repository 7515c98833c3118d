import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LAMBDA_1, luxemburg_norm_bisection, moser_j_oracle
from tmlab import forms
from tmlab.errors import InvalidInputError
from tmlab.forms import (FOUR_PI, LpRemainder, NoRemainder,
                         PotentialRemainder, eval_J, eval_Q, luxemburg_norm,
                         onofri_lhs, onofri_rhs, orlicz_integral, parse_form,
                         subadditive_gap)
from tmlab.potentials import ConstantPotential, GammaPotential
from tmlab.probe import moser_function
from tmlab.radial import (RadialFunction, RadialGrid, gradient_norm_sq,
                          integral_weighted, lp_norm)
from tmlab.sampling import bump_profile, nonneg_profile


def test_eval_q_examples(grid, lambda1):
    rng = np.random.default_rng(2)
    vals = rng.normal(size=len(grid))
    vals[-1] = 0.0
    u = RadialFunction(grid, vals)
    assert eval_Q(NoRemainder(), u) == gradient_norm_sq(u)
    zero = RadialFunction.zero(grid)
    for form in (NoRemainder(), PotentialRemainder(ConstantPotential(2.0)),
                 LpRemainder(1.0, 4.0)):
        assert eval_Q(form, zero) == 0.0
    # an over-critical constant drives Q negative on the eigenfunction
    lam_est, eig = lambda1
    form = PotentialRemainder(ConstantPotential(1.5 * LAMBDA_1))
    assert eval_Q(form, eig) < 0.0


def test_lp_remainder_validation():
    with pytest.raises(InvalidInputError):
        LpRemainder(1.0, 2.0)
    assert LpRemainder(0.5, 3.0).p == 3.0


def test_parse_form(grid):
    assert isinstance(parse_form("none"), NoRemainder)
    lp = parse_form("lp:1.5:4")
    assert (lp.lam, lp.p) == (1.5, 4.0)
    pf = parse_form("potential:gamma:0.5")
    assert isinstance(pf.potential, GammaPotential)
    bare = parse_form("constant:2.0")
    assert bare.potential.lam == 2.0


def test_eval_j_trivials(grid):
    zero = RadialFunction.zero(grid)
    assert eval_J(zero) == pytest.approx(math.pi, rel=1e-14)
    assert eval_J(zero, 0.0) == pytest.approx(math.pi, rel=1e-14)


def test_eval_j_moser_oracle(grid):
    for k in (2, 8, 64, 1024, 16384):
        m = moser_function(grid, k)
        for coeff in (FOUR_PI, 1.1 * FOUR_PI):
            assert eval_J(m, coeff) == \
                pytest.approx(moser_j_oracle(k, coeff), rel=2e-4)


def test_eval_j_monotone_in_coeff_and_u(grid):
    m = moser_function(grid, 32)
    assert eval_J(m, FOUR_PI) <= eval_J(m, 1.05 * FOUR_PI)
    bigger = RadialFunction(grid, 1.1 * m.values)
    assert eval_J(m) <= eval_J(bigger)


def test_eval_j_overflow_flag(grid):
    # exponent above 700 in any cell reports +inf instead of saturating
    m = moser_function(grid, 1024).scaled(12.0)
    assert math.isinf(eval_J(m, FOUR_PI))
    assert not math.isinf(eval_J(m.scaled(0.1), FOUR_PI))


def test_onofri_lhs_examples(grid):
    zero = RadialFunction.zero(grid)
    assert onofri_lhs(zero) == 1.0
    for c in (-2.0, 0.5, 3.0):
        u = RadialFunction.constant(grid, c)
        assert onofri_lhs(u) == pytest.approx(c + math.exp(-c), rel=1e-13)
    bump = RadialFunction.from_callable(
        grid, lambda r: 3.0 * np.exp(-(r / 0.3) ** 2) * (1 - r))
    assert onofri_lhs(bump) > 1.0


def test_onofri_rhs_examples(grid):
    zero = RadialFunction.zero(grid)
    assert onofri_rhs(zero, NoRemainder()) == 1.0
    rng = np.random.default_rng(3)
    vals = rng.normal(size=len(grid))
    vals[-1] = 0.0
    u = RadialFunction(grid, vals)
    assert onofri_rhs(u, NoRemainder()) == \
        pytest.approx(1.0 + gradient_norm_sq(u) / (16 * math.pi), rel=1e-14)


def test_onofri_rhs_arithmetic(grid):
    # engineer |grad u|^2 = 16 pi with ||u||_2^2 = 1.6 pi: the unit-constant
    # remainder then gives 1 + 1 - 0.1 = 1.9
    base = RadialFunction.from_callable(grid, lambda r: 1 - r**2)
    sharp = RadialFunction.from_callable(grid, lambda r: (1 - r**2) ** 6)

    def ratio(t):
        u = RadialFunction(grid, base.values + t * sharp.values)
        return lp_norm(u, 2) ** 2 / gradient_norm_sq(u)

    lo, hi = 0.0, 8.0
    assert ratio(lo) > 0.1 > ratio(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ratio(mid) > 0.1:
            lo = mid
        else:
            hi = mid
    u = RadialFunction(grid, base.values + 0.5 * (lo + hi) * sharp.values)
    u = u.scaled(math.sqrt(16 * math.pi / gradient_norm_sq(u)))
    rhs = onofri_rhs(u, PotentialRemainder(ConstantPotential(1.0)))
    assert rhs == pytest.approx(1.9, abs=1e-9)


def test_onofri_original_inequality(grid):
    rng = np.random.default_rng(7)
    from tmlab.sampling import bump_profile
    for _ in range(50):
        u = bump_profile(rng, grid)
        assert onofri_lhs(u) <= onofri_rhs(u, NoRemainder()) + 1e-12


def test_luxemburg_trivials(grid):
    assert luxemburg_norm(RadialFunction.zero(grid)) == 0.0


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3).flatmap(lambda c: st.sampled_from([c, -c])))
def test_luxemburg_homogeneity(grid, seed, c):
    u = nonneg_profile(np.random.default_rng(seed), grid)
    assert luxemburg_norm(u.scaled(c)) == pytest.approx(
        abs(c) * luxemburg_norm(u), rel=1e-8)


def _spike(rng, cap_exp):
    """Profile peaked on a centre cap of radius 10^-cap_exp: deep caps
    drive orlicz_integral into its overflow branch during the search."""
    nodes = np.append(np.geomspace(10.0 ** -cap_exp, 0.9, 40), 1.0)
    depth = np.log(nodes) / np.log(nodes[0])
    vals = rng.uniform(0.5, 2.0) * depth ** rng.uniform(0.5, 4.0)
    vals[-1] = 0.0
    return RadialFunction(RadialGrid(nodes), vals)


def _assert_gauge(u, t):
    """t agrees with plain bisection to 2e-10 relative and is the upper
    end of a bracket of relative width 1e-10 around the root."""
    assert t == pytest.approx(luxemburg_norm_bisection(u), rel=2e-10, abs=0)
    assert orlicz_integral(u, t) <= 1.0 < orlicz_integral(u, t * (1 - 1e-10))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0),
       st.sampled_from(["bump", "spike"]), st.floats(8.0, 150.0))
def test_luxemburg_agrees_with_bisection(seed, log_scale, kind, cap_exp):
    rng = np.random.default_rng(seed)
    u = (bump_profile(rng, RadialGrid.default(512)) if kind == "bump"
         else _spike(rng, cap_exp))
    u = u.scaled(10.0 ** log_scale)
    _assert_gauge(u, luxemburg_norm(u))


def _count_integrals(monkeypatch, u):
    calls = []
    real = forms.orlicz_integral

    def counted(v, t):
        calls.append(t)
        return real(v, t)

    monkeypatch.setattr(forms, "orlicz_integral", counted)
    value = luxemburg_norm(u)
    monkeypatch.setattr(forms, "orlicz_integral", real)
    return value, len(calls)


def test_luxemburg_evaluation_count(grid, monkeypatch):
    u = nonneg_profile(np.random.default_rng(5), grid)
    value, calls = _count_integrals(monkeypatch, u)
    assert calls <= 14
    _assert_gauge(u, value)


def test_luxemburg_spike_budget(monkeypatch):
    # log f is strongly convex on centre-cap spikes; plain secant steps
    # stall there, and only the halving rule keeps the count bounded
    rng = np.random.default_rng(2024)
    worst = 0
    for _ in range(200):
        u = _spike(rng, rng.uniform(8.0, 150.0)).scaled(
            10.0 ** rng.uniform(-3.0, 3.0))
        value, calls = _count_integrals(monkeypatch, u)
        assert orlicz_integral(u, value) <= 1.0
        worst = max(worst, calls)
    assert worst <= 60


def test_luxemburg_start_bracket(grid):
    # the search starts at b = 10 max|u|, where |u/b| <= 1/10 and the
    # areas sum to pi: a constant attains the bound pi expm1(4 pi / 100)
    bound = math.pi * math.expm1(FOUR_PI / 100.0)
    assert bound < 1.0
    for c in (1e-3, 0.7, 3.0, 1e4):
        u = RadialFunction.constant(grid, c)
        assert orlicz_integral(u, 10.0 * c) == pytest.approx(bound, rel=1e-12)


def test_luxemburg_step_closed_form():
    # sharp indicator of a disk of radius rho: t solves
    # pi rho^2 (e^(4 pi / t^2) - 1) = 1
    rho = 0.5
    nodes = np.array([1e-8, rho, rho * (1 + 1e-10), 1.0])
    vals = np.array([1.0, 1.0, 0.0, 0.0])
    u = RadialFunction(RadialGrid(nodes), vals)
    expected = math.sqrt(4 * math.pi / math.log(1 + 1 / (math.pi * rho**2)))
    assert luxemburg_norm(u) == pytest.approx(expected, rel=1e-7)
    # the gauge integral at the norm sits at its threshold
    assert orlicz_integral(u, luxemburg_norm(u)) == pytest.approx(1.0, rel=1e-6)


def test_subadditivity_examples():
    assert subadditive_gap(1.0, 1.0) == pytest.approx(2.0 - (math.log(2) + 0.5))
    assert subadditive_gap(1.0, 1e-12) >= 0.0  # right side blows up
    rng = np.random.default_rng(13)
    for t1, t2 in rng.uniform(1e-6, 100.0, size=(200, 2)):
        assert subadditive_gap(t1, t2) >= -1e-12
    with pytest.raises(InvalidInputError):
        subadditive_gap(-1.0, 2.0)


def test_holder_step(grid):
    # int u^(p-2) phi^2 <= ||u||_p^(p-2) ||phi||_p^2 on random pairs
    rng = np.random.default_rng(17)
    for p in (3.0, 4.0, 6.0):
        for _ in range(20):
            u = nonneg_profile(rng, grid)
            phi = nonneg_profile(rng, grid)
            lhs = integral_weighted(phi, lambda r: u(r) ** (p - 2))
            rhs = lp_norm(u, p) ** (p - 2) * lp_norm(phi, p) ** 2
            assert rhs - lhs >= -1e-10 * max(1.0, rhs)


def test_refined_onofri_counterexample(grid, lambda1):
    """The remainder-corrected Onofri bound fails on eigenfunction
    multiples; this pins the counterexample.

    Second-order balance around u = 0 along u = c u1 (||u1||_2 = 1):
    the left side grows like (mean u1)^2 c^2 / 2 ~ 0.110 c^2 while the
    plain right side grows like lambda_1 c^2 / (16 pi) ~ 0.115 c^2 --
    a 4 percent margin that any nonzero quadratic remainder erases.
    The original inequality (no remainder) must keep holding.
    """
    lam_est, eig = lambda1
    u1 = eig.scaled(1.0 / lp_norm(eig, 2))
    form = PotentialRemainder(ConstantPotential(0.5 * LAMBDA_1))
    for c in (0.2, 0.5, 1.0, -0.5):
        u = u1.scaled(c)
        assert onofri_rhs(u, form) - onofri_lhs(u) < -1e-3
        assert onofri_rhs(u, NoRemainder()) - onofri_lhs(u) > 0.0


def test_adimurthi_druet_chain(grid):
    rng = np.random.default_rng(19)
    form = PotentialRemainder(GammaPotential(0.5))
    tested = 0
    for _ in range(40):
        u = nonneg_profile(rng, grid)
        u = u.scaled(rng.uniform(0.2, 1.0) / math.sqrt(gradient_norm_sq(u)))
        psi = form.psi(u)
        if not 0.0 < psi < 1.0:
            continue
        tested += 1
        assert (1.0 + psi) * (1.0 - psi) < 1.0
        j_lo = eval_J(u, FOUR_PI * (1 + psi))
        j_hi = eval_J(u, FOUR_PI / (1 - psi))
        assert j_hi >= j_lo - 1e-9
    assert tested >= 10
