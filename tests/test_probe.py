import argparse
import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (LAMBDA_1, bessel_j0, classify_growth_two_fits,
                     disk_extremal, estimate_lambda_p_descent, j0_first_zero,
                     j_gradient_expr, lane_emden_lambda_p,
                     pav_nonincreasing_stack,
                     polya_szego_gap, reduced_stiffness, thomas_solve,
                     tridiag_product)
from tmlab import cli, probe
from tmlab.errors import InvalidInputError
from tmlab.forms import (LpRemainder, NoRemainder, PotentialRemainder,
                         Remainder, eval_J, eval_Q, parse_form)
from tmlab.groundstate import (WEAKLY_COERCIVE, classify_coercivity, shoot,
                               transform_s)
from tmlab.potentials import (ConstantPotential, GammaPotential,
                              LerayPotential, Potential, TabulatedPotential,
                              WangYePotential)
from tmlab.probe import (BOUNDED, DIVERGENT, INCONCLUSIVE, TrialFamily,
                         estimate_lambda_1, estimate_lambda_p,
                         ground_state_family, maximize_J_constrained,
                         moser_family, moser_function, probe_supremum)
from tmlab.probe import _pav_nonincreasing
from tmlab.radial import (RadialGrid, cell_stiffness, energy_solve,
                          gradient_norm_sq, lp_norm, mass, tridiag_apply,
                          tridiagonal, value_gradient)
from tmlab.rearrange import MEASURES, rearrange_decreasing
from tmlab.sampling import bump_profile


def test_moser_formula(grid):
    k = 16
    m = moser_function(grid, k)
    lk = math.log(k)
    r = float(grid.nodes[2048])  # a ramp-region node; values are exact there
    assert r > 1.0 / k
    assert m(r) == pytest.approx(math.log(1 / r) / math.sqrt(2 * math.pi * lk),
                                 rel=1e-12)
    assert m.values[-1] == 0.0
    assert m(grid.nodes[0]) == pytest.approx(math.sqrt(lk / (2 * math.pi)),
                                             rel=1e-9)
    assert gradient_norm_sq(m) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(InvalidInputError):
        moser_function(grid, 1)


def test_wk_cutoff_values(gs_cache):
    # u_k / phi = w_k(s) = clip((2 log k - log s) / log k, 0, 1)
    gs = gs_cache["leray"]
    fam = ground_state_family(gs)
    k = 9.0
    lk = math.log(k)
    log_s = gs.log_s[:-1]
    u = fam.make(k)
    w = u.values[:-1] / gs.phi.values[:-1]
    below, above = log_s < lk, log_s > 2 * lk
    ramp = ~below & ~above
    assert below.any() and ramp.any() and above.any()
    assert np.all(w[below] == 1.0)
    assert np.allclose(w[ramp], (2 * lk - log_s[ramp]) / lk, rtol=1e-13,
                       atol=1e-15)
    assert np.all(w[above] == 0.0)
    assert u.values[-1] == 0.0
    # an s beyond the double range, log s = 1e6 or inf: no warning
    far = gs.log_s.copy()
    far[-3:-1] = (1e6, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = ground_state_family(replace(gs, log_s=far)).make(k)
    assert u.values[-3:].tolist() == [0.0, 0.0, 0.0]


def test_ground_state_family_leray(gs_cache):
    gs = gs_cache["leray"]
    fam = ground_state_family(gs)
    assert fam.params[0] == 2.0
    assert 64.0 in fam.params
    u64 = fam.make(64.0)
    assert u64.dirichlet
    # the row's Q is the profile's own form value
    form = PotentialRemainder(LerayPotential())
    rows = {r.k: r for r in probe_supremum(form, fam).rows}
    assert rows[64.0].Q == eval_Q(form, u64)
    # profile follows phi on the plateau region
    mask = gs.log_s < math.log(32.0)
    assert np.allclose(u64.values[mask], gs.phi.values[mask], atol=1e-12)


@pytest.mark.parametrize("n", [4096, 16384])
def test_ground_state_family_q_is_eval_q(n):
    # Each gsapprox row's Q is eval_Q of its own profile, and it sits at
    # the continuum energy 2 pi / log k of the log cutoff at both n: a
    # discontinuous cutoff would carry a one-cell energy growing with n.
    grid = RadialGrid.default(n)
    for pot in (LerayPotential(), GammaPotential(0.5), ConstantPotential(2.0),
                WangYePotential()):
        fam = ground_state_family(transform_s(pot, shoot(pot, grid)))
        form = PotentialRemainder(pot)
        rows = probe_supremum(form, fam).rows
        assert rows, pot.spec_string()
        for row in rows:
            assert row.Q == eval_Q(form, fam.make(row.k))
            ratio = row.Q * math.log(row.k) / (2 * math.pi)
            assert 0.99 <= ratio <= 1.0, (pot.spec_string(), row.k, ratio)


def test_probe_classical_bounded(grid):
    rep = probe_supremum(NoRemainder(), moser_family(grid))
    assert rep.verdict == BOUNDED
    js = [r.J for r in rep.rows]
    assert all(math.isfinite(j) for j in js)
    # normalization invariance: Q of the normalized profile is 1
    for row in rep.rows[:4]:
        m = moser_function(grid, int(row.k))
        scaled = m.scaled(1.0 / math.sqrt(row.Q))
        assert eval_Q(NoRemainder(), scaled) == pytest.approx(1.0, abs=1e-8)


def test_probe_sharp_exponent_separation(grid):
    fam = moser_family(grid)
    assert probe_supremum(NoRemainder(), fam).verdict == BOUNDED
    assert probe_supremum(NoRemainder(), fam, 4.4 * math.pi).verdict == DIVERGENT


def test_probe_leray_ground_state_family(gs_cache):
    rep = probe_supremum(PotentialRemainder(LerayPotential()),
                         ground_state_family(gs_cache["leray"]))
    assert rep.verdict == DIVERGENT


def test_probe_negative_form_shortcut(grid):
    # over-critical constant: the spread-out profile witnesses Q <= 0
    rep = probe_supremum(PotentialRemainder(ConstantPotential(2 * LAMBDA_1)),
                         moser_family(grid))
    assert rep.verdict == DIVERGENT
    assert rep.rows[-1].Q <= 0.0


def test_probe_lp_remainder(grid, lambda4_estimate):
    lam4 = lambda4_estimate.value
    rep = probe_supremum(LpRemainder(0.5 * lam4, 4.0), moser_family(grid))
    assert rep.verdict == BOUNDED
    # above the constant: the minimizer itself drives Q negative
    minimizer = lambda4_estimate.minimizer
    over_form = LpRemainder(1.5 * lam4, 4.0)
    fam = TrialFamily("witness", [1], lambda k: minimizer)
    rep2 = probe_supremum(over_form, fam)
    assert rep2.verdict == DIVERGENT


def test_family_defect_is_not_a_row_note(grid):
    # An error while building a profile is no row note: it propagates.
    def broken(k):
        raise TypeError("defect")

    fam = TrialFamily("broken", [2, 4], broken)
    with pytest.raises(TypeError):
        probe_supremum(NoRemainder(), fam)
    bad = TrialFamily("bad", [1, 2, 4], lambda k: moser_function(grid, k))
    with pytest.raises(InvalidInputError):
        probe_supremum(NoRemainder(), bad)


# Verdicts of the Moser sweep k = 2^1 .. 2^m for m = 5 .. 14 on the
# default grid, one letter per m.  gamma:0.5 (S finite) reads Divergent
# at m = 5, 6: a known misreading, which a five-row sweep keeps.
PREFIX_VERDICTS = {"none": "BBBBBBBBBB", "lp:1.0:4": "BBBBBBBBBB",
                   "wangye": "BBBBBBBBBB", "gamma:0.5": "DDBBBBBBBB"}


@pytest.mark.parametrize("spec", sorted(PREFIX_VERDICTS))
def test_short_sweep_is_inconclusive(grid, spec):
    # Two to four rows once read Divergent (`none` at 2^1 .. 2^2) or
    # Bounded: too few slopes to tell growth from saturation.
    rows = probe_supremum(parse_form(spec), moser_family(grid)).rows
    verdicts = ""
    for m in range(1, 15):
        reading = probe.classify_growth(
            [r.k for r in rows[:m]], [r.J for r in rows[:m]])
        verdict = reading[0]
        if m < probe.MIN_GROWTH_ROWS:
            assert reading == (INCONCLUSIVE, "short", {}), m
        else:
            verdicts += verdict[0]
    assert verdicts == PREFIX_VERDICTS[spec]


@pytest.mark.parametrize("spec, rows", [
    ("constant:4", 2), ("constant:5", 6), ("constant:5.7", 14),
    ("gamma:1", 2), ("constant:1", 0), ("constant:-1", 0)])
def test_finite_stretch_family_is_inconclusive(grid, spec, rows):
    # Below lambda_1 the stretch s(1) is finite and the ladder stops at
    # k^2 <= s(1), so the family is finite: these once read Divergent
    # (or, with no k left, raised a usage error).  Its rows stay, each J
    # a lower bound for S.
    pot = parse_form(spec).potential
    verdict = classify_coercivity(pot, grid)
    assert verdict.classification == WEAKLY_COERCIVE
    rep = probe_supremum(PotentialRemainder(pot),
                         ground_state_family(verdict.result))
    assert (rep.verdict, rep.rule, rep.evidence) == (
        INCONCLUSIVE, "finite-stretch", {})
    assert [r.k for r in rep.rows] == [2.0 ** m for m in range(1, rows + 1)]


# The three booleans behind a "growth-fit" verdict.
GROWTH_TESTS = ("monotone", "strong", "sustained")


def test_growth_flat_sweep_is_bounded():
    # Vanishing increments are no growth: the slope rule reads Bounded.
    ks = [2.0 ** m for m in range(1, 15)]
    verdict, rule, evidence = probe.classify_growth(ks, [12.5] * 14)
    assert (verdict, rule) == (BOUNDED, "growth-fit")
    # The evidence names why: no increment is positive, and no slope is
    # strong or sustained.
    assert {k: evidence[k] for k in GROWTH_TESTS} == {
        "monotone": False, "strong": False, "sustained": False}
    assert evidence["slopes"] == [0.0] * 7


def test_one_fit_matches_two_fit_classifier(grid, gs_cache):
    # The slope rule alone, with no fit, reads the two-fit reference's
    # verdict on every prefix of 5 or more rows of the catalogue's sweeps
    # at 4 pi: the Moser family under each form and the ground-state
    # family of each potential.
    sweeps = [probe_supremum(parse_form(spec), moser_family(grid)).rows
              for spec in ("none", "constant:2.0", "leray", "gamma:0.5",
                           "wangye", "lp:1.0:4")]
    sweeps += [probe_supremum(PotentialRemainder(gs.potential),
                              ground_state_family(gs)).rows
               for gs in gs_cache.values()]
    compared = 0
    for rows in sweeps:
        for m in range(probe.MIN_GROWTH_ROWS, len(rows) + 1):
            ks, js = [r.k for r in rows[:m]], [r.J for r in rows[:m]]
            verdict, rule, _ = probe.classify_growth(ks, js)
            assert verdict == classify_growth_two_fits(ks, js)[0], (ks, js)
            assert rule == "growth-fit"
            compared += 1
    assert compared == 64


def test_growth_late_jump_is_divergent():
    # Monotone with a sustained last slope (0.059): Divergent.  The jump
    # from 10 to 30 defeats every fit, and once a power fit's residual
    # held this sweep back as Inconclusive; the slopes alone decide.
    ks = [2.0 ** m for m in range(7, 15)]
    js = [10, 10.01, 10.02, 30, 30.01, 30.02, 31.2, 32.5]
    verdict, rule, evidence = probe.classify_growth(ks, js)
    assert (verdict, rule) == (DIVERGENT, "growth-fit")
    assert {k: evidence[k] for k in GROWTH_TESTS} == {
        "monotone": True, "strong": False, "sustained": True}


def test_growth_fit_overflow_is_silent():
    # A sweep that reaches J ~ 1e240 (a --coeff above 4 pi can) raises no
    # RuntimeWarning, and the verdict is read as usual.
    ks = probe.K_LADDER[:8]
    js = [10.0 ** (30 * m) for m in range(1, 9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict, rule, evidence = probe.classify_growth(ks, js)
    assert (verdict, rule) == (DIVERGENT, "growth-fit")
    assert evidence["strong"]


def test_pav_projection():
    y = np.array([3.0, 1.0, 2.0, 0.5, 0.6, 0.0])
    z = _pav_nonincreasing(y)
    assert np.all(np.diff(z) <= 1e-12)
    # projection is the closest nonincreasing sequence: pooling averages
    assert z[1] == pytest.approx(1.5)
    assert z[2] == pytest.approx(1.5)
    mono = np.array([5.0, 4.0, 2.0, 1.0])
    assert np.array_equal(_pav_nonincreasing(mono), mono)


# Few distinct values make ties and plateaus common; the shapes cover
# sorted (nothing to pool) and reversed (everything pools) input.
_pav_inputs = st.tuples(
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]),
                       st.floats(-1e6, 1e6, allow_nan=False)),
             min_size=1, max_size=600),
    st.sampled_from(["raw", "sorted", "reversed", "plateaus"]))


@settings(deadline=None)
@given(_pav_inputs)
def test_pav_bit_identical_to_stack_loop(case):
    values, shape = case
    y = np.array(values)
    if shape == "sorted":
        y = np.sort(y)
    elif shape == "reversed":
        y = np.sort(y)[::-1].copy()
    elif shape == "plateaus":
        y = np.repeat(y, 3)[:600]
    z = _pav_nonincreasing(y)
    assert np.array_equal(z, pav_nonincreasing_stack(y))
    assert np.all(np.diff(z) <= 0.0)
    assert np.array_equal(_pav_nonincreasing(z), z)


@st.composite
def _lambda_p_shaped(draw):
    """A descent step's PAV input: a nonincreasing profile minus a
    perturbation concentrated in its last tenth, clipped at 0."""
    n = draw(st.integers(2, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = np.sort(rng.uniform(0.0, draw(st.floats(1e-3, 1e3)), n))[::-1]
    pert = np.zeros(n)
    tail = n - max(n // 10, 1)
    pert[tail:] = rng.normal(0.0, draw(st.floats(1e-6, 10.0)), n - tail)
    return np.maximum(base - pert, 0.0)


@settings(deadline=None, max_examples=40)
@given(_lambda_p_shaped())
def test_pav_bit_identical_on_lambda_p_inputs(y):
    assert np.array_equal(_pav_nonincreasing(y), pav_nonincreasing_stack(y))


@settings(deadline=None, max_examples=12)
@given(st.integers(16, 4096),
       st.sampled_from(["none", "gamma:0.5", "constant:-30", "lp:1.0:4"]))
def test_maximizer_gradient_matches_old_expression(n, spec):
    # Every J-gradient of the ascent, F'(u_s) = exp(4 pi s^2) 8 pi s,
    # equals the expression it replaced bit for bit.
    seen = []

    def spy(u, df):
        seen.append(df.tobytes() == j_gradient_expr(u).tobytes())
        return value_gradient(u, df)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probe, "value_gradient", spy)
        maximize_J_constrained(parse_form(spec), RadialGrid.default(n))
    assert seen and all(seen)


def test_maximize_monotone_in_lambda(grid):
    values = []
    for frac in (0.2, 0.5, 0.8):
        form = PotentialRemainder(ConstantPotential(frac * LAMBDA_1))
        values.append(maximize_J_constrained(form, grid).best_j)
    assert values[0] <= values[1] <= values[2]


def test_maximize_leray_divergence_evidence(grid):
    res = maximize_J_constrained(PotentialRemainder(LerayPotential()), grid)
    assert res.best_j > probe.DIVERGENCE_J_THRESHOLD


def test_maximize_above_lambda_1_stops_without_overflow(grid):
    # Above lambda_1 a Moser start already has J > 1e6.  The ascent once
    # climbed on to J ~ 1e181 and overflowed in the stiffness solve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = maximize_J_constrained(parse_form("constant:6.5"), grid)
    assert res.best_j > probe.DIVERGENCE_J_THRESHOLD
    assert res.iterations < probe.MAXIMIZE_BUDGET


def test_maximize_q_witness_is_infinite(grid):
    # Far above lambda_1 every Moser profile has Q <= 0: J = inf, and the
    # search ends before its first gradient.
    res = maximize_J_constrained(parse_form("constant:20"), grid)
    assert res.best_j == math.inf
    assert res.iterations == 0
    assert eval_Q(parse_form("constant:20"), res.profile) <= 0.0


@pytest.mark.parametrize("spec", ["leray", "gamma:0.1"])
def test_maximize_stops_at_first_j_above_threshold(grid, monkeypatch, spec):
    # Each ascent step scores one candidate; the last scored value is the
    # first above the threshold, and no gradient is taken after it.
    seen = []

    def spy(u, coeff):
        seen.append(eval_J(u, coeff))
        return seen[-1]

    monkeypatch.setattr(probe, "eval_J", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = maximize_J_constrained(parse_form(spec), grid)
    ascent = seen[len(seen) - res.iterations:]
    assert 0 < res.iterations < probe.MAXIMIZE_BUDGET
    assert max(ascent[:-1]) <= probe.DIVERGENCE_J_THRESHOLD < ascent[-1]
    assert res.best_j == ascent[-1]


class CountingPotential(Potential):
    """Another potential, counting the evaluations it answers."""

    def __init__(self, pot):
        self.pot = pot
        self.calls = 0

    def __call__(self, r):
        self.calls += 1
        return self.pot(r)


class FreshForm(Remainder):
    """A potential form that samples V afresh for every profile."""

    def __init__(self, pot):
        self.pot = pot

    def psi(self, u):
        return PotentialRemainder(self.pot).psi(u)

    def spec_string(self):
        return PotentialRemainder(self.pot).spec_string()


@pytest.mark.parametrize("key", ["gamma05", "leray"])
def test_probe_samples_v_once_per_sweep(gs_cache, grid, key):
    # leray's sweep is over its ground-state family, gamma:0.5's over
    # the Moser family; each row's Q is eval_Q of its profile.
    gs = gs_cache[key]
    family = (ground_state_family(gs) if key == "leray"
              else moser_family(grid))
    pot = CountingPotential(gs.potential)
    form = PotentialRemainder(pot)
    report = probe_supremum(form, family)
    assert pot.calls == 1
    assert len(report.rows) >= 5
    for row in report.rows:
        assert row.Q == eval_Q(PotentialRemainder(gs.potential),
                               family.make(row.k))
    assert probe_supremum(FreshForm(pot), family) == report


def test_maximize_samples_v_once_per_call(grid_1024):
    pot = CountingPotential(GammaPotential(0.5))
    res = maximize_J_constrained(PotentialRemainder(pot), grid_1024)
    assert pot.calls == 1
    assert res.iterations > 0
    again = maximize_J_constrained(FreshForm(pot), grid_1024)
    assert pot.calls > 100
    assert (again.best_j, again.iterations) == (res.best_j, res.iterations)
    assert np.array_equal(again.profile.values, res.profile.values)


@pytest.mark.parametrize("ineq", sorted(cli.AUDITS))
def test_audit_samples_v_once(grid_1024, monkeypatch, ineq):
    pot = CountingPotential(GammaPotential(0.5))
    forms = iter([PotentialRemainder(pot), FreshForm(pot)])
    monkeypatch.setattr(cli, "parse_form", lambda spec: next(forms))
    args = argparse.Namespace(form="counting", ineq=ineq, seed=3,
                              samples=12, slack_tol=1e-8)
    out = cli.cmd_audit(args, grid_1024)
    assert pot.calls == 1
    again = cli.cmd_audit(args, grid_1024)
    assert pot.calls > 12
    # Bit for bit, nan notes included.
    assert repr(again.rows) == repr(out.rows)


def test_form_resamples_on_each_grid_switch(grid, grid_1024):
    # Grid A, then B, then A: three samplings, each Q a fresh form's.
    pot = CountingPotential(GammaPotential(0.5))
    form = PotentialRemainder(pot)
    us = [moser_function(g, 16) for g in (grid, grid_1024, grid)]
    qs = [eval_Q(form, u) for u in us]
    assert pot.calls == 3
    assert qs == [eval_Q(PotentialRemainder(GammaPotential(0.5)), u)
                  for u in us]
    # The samples are no part of the form's value.
    twin = PotentialRemainder(pot)
    assert form == twin and hash(form) == hash(twin)
    assert repr(form) == repr(twin)


def test_form_shared_across_threads_keeps_fresh_bits():
    # Threads on two grids share one form: a sampling may be repeated,
    # but no Q may pair a profile with the other grid's samples.
    pot = GammaPotential(0.5)
    form = PotentialRemainder(pot)
    us = [moser_function(RadialGrid.default(n), 16) for n in (64, 128)]
    want = [eval_Q(PotentialRemainder(pot), u) for u in us]
    bad = []

    def work(i):
        for j in range(300):
            k = (i + j) % 2
            if eval_Q(form, us[k]) != want[k]:
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.fixture(scope="module")
def maximized_none(grid):
    return maximize_J_constrained(NoRemainder(), grid)


def test_maximize_exceeds_carleson_chang(grid, maximized_none):
    # Carleson-Chang (1986): the disk supremum exceeds pi (1 + e).
    res = maximized_none
    assert res.best_j > math.pi * (1.0 + math.e)
    best = max(r.J
               for r in probe_supremum(NoRemainder(), moser_family(grid)).rows)
    assert res.best_j >= best
    assert eval_Q(NoRemainder(), res.profile) <= 1.0 + 1e-9
    assert res.best_j <= probe.DIVERGENCE_J_THRESHOLD


def test_maximize_accepts_ascent_steps(maximized_none):
    # The Euclidean-gradient ascent accepted none of its steps here.
    assert 0 < maximized_none.accepted <= maximized_none.iterations
    # Pinned bit for bit: a change in the ascent's arithmetic shows here.
    # The gradient with the center cap's term gives this; without it
    # (cells only) the ascent reached 13.831147323624913.
    assert maximized_none.best_j == 13.831147323625224
    assert maximized_none.accepted == maximized_none.iterations == 399


@pytest.mark.parametrize("spec, best_j, iterations, accepted", [
    ("constant:2.0", 39.95203208912225, 388, 129),
    # A Gaussian start wins on these three: the first on constant:1 and
    # lp:1.0:4, the third on constant:5.0.
    ("constant:1", 21.00048331770934, 394, 190),
    ("constant:5.0", 33783.02050125306, 340, 54),
    ("lp:1.0:4", 24.715761720996174, 396, 213),
], ids=["constant:2.0", "constant:1", "constant:5.0", "lp:1.0:4"])
def test_maximize_reuses_the_direction_of_rejected_steps(
        grid, monkeypatch, spec, best_j, iterations, accepted):
    # A rejected step leaves u as it was, so only a start or an accepted
    # step solves for a new direction.  The search is pinned bit for bit,
    # so a change to its fixed starts shows here.
    solves = []

    def counting_solve(ke, g):
        solves.append(g.size)
        return energy_solve(ke, g)

    monkeypatch.setattr(probe, "energy_solve", counting_solve)
    res = maximize_J_constrained(parse_form(spec), grid)
    starts = 7  # three Moser plateaus, the log spike, three Gaussian bumps
    assert (res.best_j, res.iterations, res.accepted) == (
        best_j, iterations, accepted)
    assert len(solves) <= res.accepted + starts


@pytest.fixture(scope="module")
def disk_extremal_j():
    a_star, j_star = disk_extremal()
    assert a_star == pytest.approx(0.92624450200, rel=1e-9)
    return j_star


def test_disk_extremal_oracle(disk_extremal_j):
    # Above the Carleson-Chang concentration level pi (1 + e).
    assert disk_extremal_j == pytest.approx(13.83159065978564, rel=1e-9)
    assert disk_extremal_j > math.pi * (1.0 + math.e)


def test_maximize_is_tight_against_the_extremal(maximized_none,
                                                disk_extremal_j):
    # 3.2e-5 relative below J* on the default grid.
    assert maximized_none.best_j >= disk_extremal_j * (1.0 - 1e-4)


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_energy_solve_matches_thomas(n):
    grid = RadialGrid.default(n)
    ad, ao = reduced_stiffness(grid)
    ke = cell_stiffness(grid)
    rng = np.random.default_rng(n)
    for _ in range(10):
        g = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 6.0)
        w, energy = energy_solve(ke, g)
        ref = thomas_solve(ad, ao, g[:-1])
        assert w[-1] == 0.0
        assert np.max(np.abs(w[:-1] - ref) / np.abs(ref)) < 1e-10
        assert energy == pytest.approx(
            float(w[:-1] @ tridiag_product(ad, ao, w[:-1])), rel=1e-10)
        # In the cone bit for bit: nonnegative and nonincreasing.
        assert np.all(w >= 0.0) and np.all(np.diff(w) <= 0.0)
    assert energy_solve(ke, np.zeros(n))[1] == 0.0


@pytest.mark.parametrize("n", [1024, 4096])
def test_tridiagonal_form_matches_eval_Q(n):
    # Q(u) = u^T (A - M_V) u: A from the cell stiffness, M_V the mass of
    # the cap-and-midpoint sampling.  The bound is the roundoff of the
    # tridiagonal product (worst seen 4.1e-12).
    grid = RadialGrid.default(n)
    stiffness = tridiagonal(cell_stiffness(grid), -1.0)
    rng = np.random.default_rng(n)
    profiles = [moser_function(grid, k) for k in (2, 64, 4096)]
    profiles += [bump_profile(rng, grid) for _ in range(4)]
    profiles.append(estimate_lambda_1(grid)[1])
    table = RadialGrid.default(512)
    tab = GammaPotential(0.5)(table.nodes[:-1])
    catalogue = {"none": None, "constant": ConstantPotential(2.0),
                 "leray": LerayPotential(), "gamma": GammaPotential(0.5),
                 "wangye": WangYePotential(),
                 "tabulated": TabulatedPotential(table.nodes,
                                                 np.append(tab, tab[-1]))}
    for name, pot in catalogue.items():
        form = NoRemainder() if pot is None else PotentialRemainder(pot)
        for u in profiles:
            x = u.values
            q = float(x @ tridiag_apply(stiffness, x))
            if pot is not None:
                q -= float(x @ tridiag_apply(mass(grid, pot(grid.sample_r)),
                                             x))
            assert abs(q - eval_Q(form, u)) <= 1e-11 * gradient_norm_sq(u), \
                name


@pytest.mark.parametrize("spec", ["none", "constant:2.0", "leray"])
def test_ascent_stays_in_the_monotone_cone(grid, monkeypatch, spec):
    # Every profile the maximizer scores, starts and ascent candidates
    # alike, passes eval_Q: each must be nonnegative and nonincreasing,
    # as the maximizer relies on that cone being invariant.
    outside = []

    def spy(form, u):
        v = u.values
        outside.append(bool(np.any(v < 0.0) or np.any(v[1:] > v[:-1])))
        return eval_Q(form, u)

    monkeypatch.setattr(probe, "eval_Q", spy)
    res = maximize_J_constrained(parse_form(spec), grid)
    assert len(outside) >= res.iterations > 0
    assert not any(outside)


def test_lambda1_against_bessel(grid, grid_2048, lambda1):
    value, eig = lambda1
    assert value == pytest.approx(LAMBDA_1, abs=1e-3)
    err_fine = abs(value - LAMBDA_1)
    coarse, _ = estimate_lambda_1(grid_2048)
    assert abs(coarse - LAMBDA_1) / err_fine >= 3.5
    # eigenfunction shape matches J0(j01 r)
    j01 = j0_first_zero()
    sample = grid.nodes[::128][:-1]
    expected = np.array([bessel_j0(j01 * r) for r in sample])
    assert np.max(np.abs(eig(sample) - expected)) < 1e-3


def test_lambda1_pinned(grid_1024):
    # Computed with the closed-form stiffness solve and the mass of the
    # cap-and-midpoint sampling; the mass without the cap gave
    # 5.783009870057342, 2.7e-14 relative away, which
    # test_lambda1_against_bessel cannot tell apart.
    assert estimate_lambda_1(grid_1024)[0] == 5.783009870057497


def test_lambda4_pinned(lambda4_estimate):
    # Computed with the element-by-element stack PAV; the batched
    # projection keeps its arithmetic, so the descent and values are exact.
    # The spread moved from 21.362422514531325 when lp_norm summed the
    # center cap with the cells (one correctly rounded sum).
    assert lambda4_estimate.value == 6.906189276603689
    assert lambda4_estimate.spread == 21.362422514531346


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lambda_p_matches_descent_reference(seed):
    # Reusing the descent direction across rejected steps changes no bit.
    grid = RadialGrid.default(512)
    got = estimate_lambda_p(4, grid, seed=seed)
    want = estimate_lambda_p_descent(4, grid, seed=seed)
    assert got.value == want.value
    assert got.spread == want.spread
    assert got.local_minima == want.local_minima
    assert np.array_equal(got.minimizer.values, want.minimizer.values)


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_lambda_p_above_lane_emden(p):
    # The estimate is the quotient of a profile on the grid, so it stays
    # above the continuum value; the descent ends 0.8-2.9% above it.
    exact = lane_emden_lambda_p(p)
    value = estimate_lambda_p(p, RadialGrid.default(512)).value
    assert exact <= value <= 1.05 * exact


def test_lambda_p_limits(grid_1024, lambda4_estimate):
    lam1_coarse, _ = estimate_lambda_1(grid_1024)
    near2 = estimate_lambda_p(2.01, grid_1024, seed=3)
    assert abs(near2.value - lam1_coarse) / lam1_coarse < 0.02
    # p = 4: strictly below the feasible competitor built from the
    # first eigenfunction
    _, eig = estimate_lambda_1(grid_1024)
    competitor = gradient_norm_sq(eig) / lp_norm(eig, 4.0) ** 2
    assert lambda4_estimate.value < competitor
    with pytest.raises(InvalidInputError):
        estimate_lambda_p(2.0, grid_1024)


def test_lambda_p_minimizer_shape(lambda4_estimate):
    u = lambda4_estimate.minimizer
    assert np.all(u.values >= 0)
    assert np.all(np.diff(u.values) <= 1e-12)
    # rearrangement cannot improve an already monotone minimizer
    us = rearrange_decreasing(u, MEASURES["hyperbolic"])
    assert abs(polya_szego_gap(u, us)) < 1e-6
