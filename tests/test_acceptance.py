"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math

import numpy as np
import pytest

from oracles import (LAMBDA_1, check_equimeasurable, hardy_littlewood_gap,
                     jacobi_identity_residual, leray_sqrt_log_residual,
                     mu_integral, polya_szego_gap, simpson, step_profile)
from tmlab.cli import main as cli_main
from tmlab.forms import (LpRemainder, NoRemainder, PotentialRemainder,
                         eval_Q, luxemburg_norm, onofri_lhs, onofri_rhs)
from tmlab.groundstate import (GROUND_STATE, INDEFINITE, WEAKLY_COERCIVE,
                               classify_coercivity, shoot, transform_s)
from tmlab.potentials import (ConstantPotential, GammaPotential,
                              LerayPotential, WangYePotential, sample)
from tmlab.probe import (BOUNDED, DIVERGENT, estimate_lambda_1,
                         ground_state_family, moser_family, probe_supremum)
from tmlab.radial import (RadialFunction, RadialGrid, integral_weighted,
                          lp_norm)
from tmlab.rearrange import MEASURES, rearrange_decreasing
from tmlab.sampling import bump_profile, nonneg_profile


def _report(n, text):
    print(f"ACCEPTANCE {n:2d}: PASS - {text}")


def test_c01_leray_ground_state_residual():
    r = np.geomspace(1e-4, 1.0 - 1e-4, 20001)
    residual = np.abs(leray_sqrt_log_residual(r))
    assert np.max(residual) < 1e-6
    _report(1, f"sqrt-log profile solves the borderline equation "
               f"(max residual {np.max(residual):.2e})")


def test_c02_lambda1_recovery(grid, grid_2048, lambda1):
    value, _ = lambda1
    err = abs(value - LAMBDA_1)
    assert err < 1e-3
    coarse, _ = estimate_lambda_1(grid_2048)
    ratio = abs(coarse - LAMBDA_1) / err
    assert ratio >= 3.5
    _report(2, f"lambda_1 err {err:.2e}, refinement ratio {ratio:.2f}")


def test_c03_transform_closed_form(gs_cache, grid):
    gs = gs_cache["zero"]
    dev = float(np.max(np.abs(np.exp(gs.log_s) - math.e * grid.nodes)))
    assert dev < 1e-6
    err = abs(math.exp(gs.log_s_at_1) - math.e)
    assert err < 1e-6
    _report(3, f"V=0 stretch matches e*r (max dev {dev:.2e}, "
               f"s(1) err {err:.2e})")


def test_c04_jacobi_identity(gs_cache, grid):
    gs = gs_cache["const2"]
    rng = np.random.default_rng(4)
    worst = 0.0
    profiles = [bump_profile(rng, grid) for _ in range(20)]
    for u in profiles:
        worst = max(worst, jacobi_identity_residual(gs, u))
    assert worst < 1e-3
    g2 = RadialGrid.default(8192)
    gs2 = transform_s(ConstantPotential(2.0),
                      shoot(ConstantPotential(2.0), g2))
    rng2 = np.random.default_rng(4)
    worst2 = max(jacobi_identity_residual(
        gs2, bump_profile(rng2, g2)) for _ in range(5))
    assert worst2 < worst
    _report(4, f"worst relative residual {worst:.2e} at n=4096, "
               f"{worst2:.2e} at n=8192")


def test_c05_coercivity_supremum_dichotomy(grid, lambda1):
    lam1 = lambda1[0]
    cases = [
        (ConstantPotential(0.5 * lam1), WEAKLY_COERCIVE, BOUNDED, "moser"),
        (LerayPotential(), GROUND_STATE, DIVERGENT, "gsapprox"),
        (GammaPotential(0.5), WEAKLY_COERCIVE, BOUNDED, "moser"),
        (WangYePotential(), WEAKLY_COERCIVE, BOUNDED, "moser"),
        (ConstantPotential(2.0 * lam1), INDEFINITE, DIVERGENT, "moser"),
    ]
    for pot, expect_class, expect_probe, family_kind in cases:
        verdict = classify_coercivity(pot, grid)
        assert verdict.classification == expect_class, pot.spec_string()
        if family_kind == "gsapprox":
            family = ground_state_family(verdict.result)
        else:
            family = moser_family(grid)
        rep = probe_supremum(PotentialRemainder(pot), family)
        assert rep.verdict == expect_probe, pot.spec_string()
    _report(5, "classifier and probe agree on the five-potential table")


def test_c06_sharp_exponent_separation(grid):
    fam = moser_family(grid)
    rep = probe_supremum(NoRemainder(), fam)
    assert rep.verdict == BOUNDED
    js = [r.J for r in rep.rows]
    assert all(math.isfinite(j) for j in js)
    incs = np.abs(np.diff(js[-8:]))
    assert np.all(np.diff(incs[-4:]) < 0)    # trailing increments decay
    assert np.max(incs) < 0.02 * js[-1]      # and are already small
    rep44 = probe_supremum(NoRemainder(), fam, 4.4 * math.pi)
    assert rep44.verdict == DIVERGENT
    _report(6, "4pi sweep bounded with decaying increments; "
               "4.4pi sweep classified divergent")


def test_c07_rearrangement_suite():
    rng = np.random.default_rng(7)
    hyp = MEASURES["hyperbolic"]
    worst = {"equi": 0.0, "hl": math.inf, "ps": math.inf, "lp": 0.0}
    for i in range(200):
        f = step_profile(rng)
        fs = rearrange_decreasing(f, hyp)
        worst["equi"] = max(worst["equi"],
                            check_equimeasurable(f, fs, hyp, 128))
        if i < 100:  # pair sweep for the product inequality
            g = step_profile(rng)
            gs = rearrange_decreasing(g, hyp)
            worst["hl"] = min(worst["hl"],
                              hardy_littlewood_gap(f, fs, g, gs, hyp))
        worst["ps"] = min(worst["ps"], polya_szego_gap(f, fs))
        for p in (1, 2, 4):
            a = mu_integral(f, hyp, p)
            b = mu_integral(fs, hyp, p)
            worst["lp"] = max(worst["lp"], abs(a - b) / max(1.0, a))
    assert worst["equi"] < 1e-3
    assert worst["hl"] >= -1e-6
    assert worst["ps"] >= -1e-4
    assert worst["lp"] < 1e-3
    _report(7, f"200 step profiles: equimeasurability {worst['equi']:.1e}, "
               f"HL gap >= {worst['hl']:.1e}, PS gap >= {worst['ps']:.1e}, "
               f"Lp drift {worst['lp']:.1e}")


def test_c08_refined_onofri_audits(grid, lambda1, lambda4_estimate):
    # NOTE: the remainder-corrected bound is genuinely false
    # (test_forms.py::test_refined_onofri_counterexample pins eigenfunction
    # multiples violating it for every listed form while the plain bound
    # holds).  The audit is implemented faithfully and left to report what
    # the sampled sweep finds.
    lam1 = lambda1[0]
    forms = {
        "gamma05": PotentialRemainder(GammaPotential(0.5)),
        "wangye": PotentialRemainder(WangYePotential()),
        "constant": PotentialRemainder(ConstantPotential(0.5 * lam1)),
        "lp4": LpRemainder(0.5 * lambda4_estimate.value, 4.0),
    }
    zero = RadialFunction.zero(grid)
    violations = {}
    for name, form in forms.items():
        assert onofri_rhs(zero, form) - onofri_lhs(zero) == 0.0
        rng = np.random.default_rng(0)
        bad = 0
        for _ in range(100):
            u = bump_profile(rng, grid)
            if onofri_rhs(u, form) - onofri_lhs(u) < -1e-8:
                bad += 1
        violations[name] = bad
    assert all(v == 0 for v in violations.values()), (
        f"refined-bound violations found: {violations}; the corrected "
        "bound is genuinely false -- see test_forms.py::"
        "test_refined_onofri_counterexample for the deterministic witness")
    _report(8, "refined bound audits clean on all four forms")


def test_c09_holder_step(grid):
    rng = np.random.default_rng(9)
    worst = math.inf
    for p in (3.0, 4.0, 6.0):
        for _ in range(67):
            u = nonneg_profile(rng, grid)
            phi = nonneg_profile(rng, grid)
            lhs = integral_weighted(
                phi, sample(lambda r: u(r) ** (p - 2), grid.sample_r))
            rhs = lp_norm(u, p) ** (p - 2) * lp_norm(phi, p) ** 2
            worst = min(worst, (rhs - lhs) / max(1.0, rhs))
    assert worst >= -1e-10
    _report(9, f"201 random pairs, p in {{3,4,6}}: relative slack "
               f">= {worst:.1e}")


def test_c10_orlicz_bound(grid, lambda1, lambda4_estimate):
    lam1 = lambda1[0]
    forms = {
        "gamma05": PotentialRemainder(GammaPotential(0.5)),
        "wangye": PotentialRemainder(WangYePotential()),
        "constant": PotentialRemainder(ConstantPotential(0.5 * lam1)),
        "lp4": LpRemainder(0.5 * lambda4_estimate.value, 4.0),
    }
    c_emp = {}
    for name, form in forms.items():
        rng = np.random.default_rng(10)
        best = math.inf
        for _ in range(200):
            u = bump_profile(rng, grid)
            orl = luxemburg_norm(u)
            best = min(best, eval_Q(form, u) / (orl * orl))
        assert best > 0.0, name
        c_emp[name] = best
    # gauge-norm homogeneity
    rng = np.random.default_rng(11)
    u = nonneg_profile(rng, grid)
    base = luxemburg_norm(u)
    for c in rng.uniform(1e-3, 1e3, 8):
        assert luxemburg_norm(u.scaled(c)) == \
            pytest.approx(c * base, rel=1e-8)
    _report(10, "empirical constants " +
            ", ".join(f"{k}={v:.3f}" for k, v in c_emp.items()) +
            "; homogeneity to 1e-8")


def test_c11_wk_energy_law(gs_cache):
    # closed-form cutoff energy 2 pi / log k against an independent
    # quadrature of 2 pi int_k^{k^2} (1/(s log k))^2 s ds
    for k in (4.0, 64.0, 1024.0):
        lk = math.log(k)
        quad = 2 * math.pi * simpson(lambda s: 1.0 / (s * lk * lk), k, k * k,
                                     80001)
        assert abs(quad - 2 * math.pi / lk) / (2 * math.pi / lk) < 1e-6
    # composed borderline family: each profile's form value sits at the
    # cutoff energy while the sweep diverges
    gs = gs_cache["leray"]
    family = ground_state_family(gs)
    form = PotentialRemainder(LerayPotential())
    rep = probe_supremum(form, family)
    ratios = [r.Q * math.log(r.k) / (2 * math.pi) for r in rep.rows]
    assert ratios and all(0.99 <= x <= 1.0 for x in ratios)
    assert rep.verdict == DIVERGENT
    _report(11, f"cutoff energy matches 2 pi/log(k); composed family "
                f"Q log(k)/(2 pi) in [{min(ratios):.4f}, {max(ratios):.4f}], "
                f"Divergent")


def test_c12_determinism(tmp_path):
    pairs = []
    for args in (["audit", "--ineq", "onofri", "--form", "none",
                  "--samples", "25", "--seed", "12"],
                 ["probe", "--form", "none", "--family", "moser",
                  "--kmax-pow", "8", "--format", "json"],
                 ["groundstate", "--potential", "constant:2.0",
                  "--grid-n", "1024"]):
        a = tmp_path / f"a{len(pairs)}.out"
        b = tmp_path / f"b{len(pairs)}.out"
        assert cli_main(args + ["--out", str(a)]) in (0, 1)
        assert cli_main(args + ["--out", str(b)]) in (0, 1)
        pairs.append((a, b))
    for a, b in pairs:
        assert a.read_bytes() == b.read_bytes()
    _report(12, "three command families byte-identical on rerun")
