import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (LAMBDA_1, bessel_j0, disk_extremal,
                     estimate_lambda_p_descent, j0_first_zero,
                     lane_emden_lambda_p, pav_nonincreasing_stack,
                     reduced_stiffness, simpson, thomas_solve,
                     tridiag_product)
from tmlab import probe
from tmlab.errors import InvalidInputError
from tmlab.forms import (LpRemainder, NoRemainder, PotentialRemainder, eval_J,
                         eval_Q, parse_form)
from tmlab.groundstate import GROUND_STATE, classify_coercivity
from tmlab.potentials import (ConstantPotential, GammaPotential,
                              LerayPotential, TabulatedPotential,
                              WangYePotential)
from tmlab.probe import (BOUNDED, DIVERGENT, INCONCLUSIVE, TrialFamily,
                         WkCutoff, estimate_lambda_1, estimate_lambda_p,
                         ground_state_family, maximize_J_constrained,
                         moser_family, moser_function, probe_supremum)
from tmlab.probe import _pav_nonincreasing
from tmlab.radial import (RadialGrid, cell_stiffness, energy_solve,
                          gradient_norm_sq, lp_norm, mass, tridiag_apply,
                          tridiagonal)
from tmlab.rearrange import polya_szego_gap
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


def test_wk_cutoff_values():
    k = 9.0
    w = WkCutoff(k)
    assert w(np.array([0.0]))[0] == 1.0
    assert w(np.array([k * k]))[0] == 0.0
    assert w(np.array([k]))[0] == pytest.approx(math.log(k) / k, rel=1e-14)
    assert w(np.array([2 * k * k]))[0] == 0.0
    with pytest.raises(InvalidInputError):
        WkCutoff(1.0)


def test_wk_ramp_energy_closed_form():
    # independent quadrature of 2 pi (dw/ds)^2 s ds over the ramp
    for k in (4.0, 64.0, 300.0):
        w = WkCutoff(k)
        quad = 2 * math.pi * simpson(lambda s: (1.0 / (k * s)) ** 2 * s,
                                     k, k * k, 40001)
        closed = 2 * math.pi * math.log(k) / k**2
        assert w.ramp_energy() == pytest.approx(closed, rel=1e-14)
        assert quad == pytest.approx(closed, rel=1e-6)


def test_ground_state_family_leray(gs_cache):
    gs = gs_cache["leray"]
    fam = ground_state_family(gs)
    assert fam.params[0] == 2.0
    assert 64.0 in fam.params
    u64 = fam.make(64.0)
    assert u64.dirichlet
    # transform-side form value equals the ramp energy
    q = fam.q_eval(PotentialRemainder(LerayPotential()), u64, 64.0)
    assert q == pytest.approx(2 * math.pi * math.log(64) / 64**2, rel=1e-14)
    assert q < 1e-2
    # profile follows phi on the plateau region
    mask = np.exp(gs.log_s) < 32.0
    assert np.allclose(u64.values[mask], gs.phi.values[mask], atol=1e-12)


def test_probe_classical_bounded(grid):
    rep = probe_supremum(NoRemainder(), moser_family(grid))
    assert rep.verdict == BOUNDED
    js = [r.j_normalized for r in rep.rows]
    assert all(math.isfinite(j) for j in js)
    # normalization invariance: Q of the normalized profile is 1
    for row in rep.rows[:4]:
        m = moser_function(grid, int(row.k))
        scaled = m.scaled(1.0 / math.sqrt(row.q))
        assert eval_Q(NoRemainder(), scaled) == pytest.approx(1.0, abs=1e-8)


def test_probe_sharp_exponent_separation(grid):
    fam = moser_family(grid)
    assert probe_supremum(NoRemainder(), fam).verdict == BOUNDED
    assert probe_supremum(NoRemainder(), fam, 4.4 * math.pi).verdict == DIVERGENT


def test_probe_leray_ground_state_family(gs_cache):
    rep = probe_supremum(PotentialRemainder(LerayPotential()),
                         ground_state_family(gs_cache["leray"]))
    assert rep.verdict == DIVERGENT
    assert any(r.overflow or r.j_normalized > 1e6 for r in rep.rows)


def test_probe_negative_form_shortcut(grid):
    # over-critical constant: the spread-out profile witnesses Q <= 0
    rep = probe_supremum(PotentialRemainder(ConstantPotential(2 * LAMBDA_1)),
                         moser_family(grid))
    assert rep.verdict == DIVERGENT
    assert rep.rows[-1].q <= 0.0


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
    # Only the lab's own errors are per-row notes; a defect propagates.
    def broken(k):
        raise TypeError("defect")

    fam = TrialFamily("broken", [2, 4], broken)
    with pytest.raises(TypeError):
        probe_supremum(NoRemainder(), fam)
    bad = TrialFamily("bad", [1, 2, 4], lambda k: moser_function(grid, k))
    rep = probe_supremum(NoRemainder(), bad)
    assert rep.rows[0].error.startswith("InvalidInputError")


def test_probe_report_serialization(grid):
    rep = probe_supremum(NoRemainder(), moser_family(grid, [2, 4, 8]))
    d = rep.to_json_dict()
    assert d["verdict"] == rep.verdict
    assert len(d["rows"]) == 3
    assert rep.CSV_HEADER[:3] == ("k", "Q", "J")
    rows = rep.csv_rows()
    assert len(rows) == 3
    assert all(len(row) == len(rep.CSV_HEADER) for row in rows)


def test_growth_flat_sweep_is_bounded():
    ks = [2.0 ** m for m in range(1, 15)]
    verdict, fit = probe.classify_growth(ks, [12.5] * 14, [False] * 14)
    assert (verdict, fit.model) == (BOUNDED, "flat")


def test_growth_late_jump_is_inconclusive():
    # Monotone with a sustained last slope (0.059), but the jump from 10
    # to 30 defeats every fit: neither Divergent nor Bounded.
    ks = [2.0 ** m for m in range(7, 15)]
    js = [10, 10.01, 10.02, 30, 30.01, 30.02, 31.2, 32.5]
    verdict, _ = probe.classify_growth(ks, js, [False] * 8)
    assert verdict == INCONCLUSIVE


def test_growth_fit_overflow_is_silent(grid):
    # The ground-state sweep of gamma:0.113 reaches J ~ 1e240, whose
    # squared residuals overflow to inf: a legitimate value, so no
    # RuntimeWarning, and the verdict is the one read before.
    pot = GammaPotential(0.113)
    verdict = classify_coercivity(pot, grid)
    assert verdict.classification == GROUND_STATE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = probe_supremum(PotentialRemainder(pot),
                                ground_state_family(verdict.result))
    assert report.verdict == DIVERGENT
    assert math.isinf(report.fit.residual)


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


def test_maximize_matches_family(grid):
    res = maximize_J_constrained(NoRemainder(), grid, budget=160, seed=1)
    best = max(r.j_normalized
               for r in probe_supremum(NoRemainder(), moser_family(grid)).rows)
    assert res.best_j >= best - 1e-9
    assert not res.divergence_evidence
    assert eval_Q(NoRemainder(), res.profile) <= 1.0 + 1e-9


def test_maximize_monotone_in_lambda(grid):
    values = []
    for frac in (0.2, 0.5, 0.8):
        form = PotentialRemainder(ConstantPotential(frac * LAMBDA_1))
        values.append(maximize_J_constrained(form, grid, budget=90,
                                             seed=2).best_j)
    assert values[0] <= values[1] <= values[2]


def test_maximize_leray_divergence_evidence(grid):
    res = maximize_J_constrained(PotentialRemainder(LerayPotential()),
                                 grid, budget=120, seed=1)
    assert res.divergence_evidence
    assert res.best_j > 1e6


def test_maximize_above_lambda_1_stops_without_overflow(grid):
    # Above lambda_1 a Moser start already has J > 1e6.  The ascent once
    # climbed on to J ~ 1e181 and overflowed in the stiffness solve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = maximize_J_constrained(parse_form("constant:6.5"), grid)
    assert res.divergence_evidence
    assert res.best_j > probe.DIVERGENCE_J_THRESHOLD
    assert res.iterations < 400


def test_maximize_q_witness_is_infinite(grid):
    # Far above lambda_1 every Moser profile has Q <= 0: J = inf, and the
    # search ends before its first gradient.
    res = maximize_J_constrained(parse_form("constant:20"), grid)
    assert res.best_j == math.inf and res.divergence_evidence
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
    assert 0 < res.iterations < 400
    assert max(ascent[:-1]) <= probe.DIVERGENCE_J_THRESHOLD < ascent[-1]
    assert res.best_j == ascent[-1] and res.divergence_evidence


@pytest.fixture(scope="module")
def maximized_none(grid):
    return maximize_J_constrained(NoRemainder(), grid)


def test_maximize_exceeds_carleson_chang(grid, maximized_none):
    # Carleson-Chang (1986): the disk supremum exceeds pi (1 + e).
    res = maximized_none
    assert res.best_j > math.pi * (1.0 + math.e)
    best = max(r.j_normalized
               for r in probe_supremum(NoRemainder(), moser_family(grid)).rows)
    assert res.best_j >= best
    assert eval_Q(NoRemainder(), res.profile) <= 1.0 + 1e-9
    assert not res.divergence_evidence


def test_maximize_accepts_ascent_steps(maximized_none):
    # The Euclidean-gradient ascent accepted none of its steps here.
    assert 0 < maximized_none.accepted <= maximized_none.iterations
    # Pinned bit for bit: a change in the ascent's arithmetic shows here.
    # The gradient with the center cap's term gives this; without it
    # (cells only) the ascent reached 13.831147323624913.
    assert maximized_none.best_j == 13.831147323625224
    assert maximized_none.accepted == maximized_none.iterations == 399


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
    near2 = estimate_lambda_p(2.01, grid_1024, seed=3, n_starts=8,
                              iterations=80)
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
    assert abs(polya_szego_gap(u)) < 1e-6
