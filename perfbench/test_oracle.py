"""Tests of the benchmark's own checker.

    python3 -m pytest perfbench/test_oracle.py -q      (from the repo root)

Each wrong output below must be reported as a failure that is not a
known baseline failure, so the run counts it and reads correct=false.
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
from workloads import LAMBDA_1, cli_ops, scan_plan  # noqa: E402


def op(name):
    workload = "heavy" if name in ("audit_orlicz", "rearrange",
                                   "lambda_p") else "quick"
    return next(o for o in cli_ops(workload, 0) if o["name"] == name)


def test_flipped_verdict_fails():
    assert oracle.check_cli(op("probe_none"), 0, "verdict=Bounded\n",
                            {}, None) == []
    assert oracle.check_cli(op("probe_none"), 0, "verdict=Divergent\n",
                            {}, None)
    assert oracle.check_cli(op("groundstate_leray"), 0,
                            "classification=WeaklyCoercive (x)\n", {}, None)
    entry = {"spec": "constant:2.9", "family": "constant", "param": 0.5}
    assert oracle.check_scan(entry, "probe", "Bounded") == []
    assert oracle.check_scan(entry, "probe", "Divergent")
    assert not oracle.known_failure(entry, "probe", "Divergent")
    leray = {"spec": "leray", "family": "leray", "param": None}
    assert oracle.check_scan(leray, "groundstate", "WeaklyCoercive")
    assert not oracle.known_failure(leray, "groundstate", "WeaklyCoercive")


def test_known_failures_are_narrow():
    above = {"spec": "constant:6.4", "family": "constant", "param": 1.107}
    assert oracle.check_scan(above, "probe", "Bounded")
    assert oracle.known_failure(above, "probe", "Bounded")
    # Only the Moser probe's miss is known: a wrong class is not.
    assert not oracle.known_failure(above, "groundstate", "WeaklyCoercive")
    gamma = {"spec": "gamma:2", "family": "gamma", "param": 2.0}
    assert not oracle.known_failure(gamma, "probe", "Divergent")


def test_lambda_1_off_by_1e_2_fails():
    good = f"lambda_1={LAMBDA_1 + 2e-5!r}\n"
    bad = f"lambda_1={LAMBDA_1 + 1e-2!r}\n"
    assert oracle.check_cli(op("lambda_1"), 0, good, {}, None) == []
    assert oracle.check_cli(op("lambda_1"), 0, bad, {}, None)


def test_wrong_exit_code_fails():
    refined = op("audit_refined_gamma")
    assert oracle.check_cli(refined, 1, "min_slack=-0.1 violations=1\n",
                            {}, None) == []
    assert oracle.check_cli(refined, 0, "min_slack=-0.1 violations=1\n",
                            {}, None)
    assert oracle.check_cli(refined, 1, "min_slack=0.1 violations=0\n",
                            {}, None)
    assert oracle.check_cli(op("probe_lp"), 2, "", {}, None)
    # A true inequality must show no violation even with a matching code.
    assert oracle.check_cli(op("audit_onofri"), 1,
                            "min_slack=-1 violations=1\n", {}, None)


def test_reference_mismatch_fails():
    text = "min_slack=0.5 violations=0\n"
    ref = {"min_slack": 0.5, "violations": 0.0}
    assert oracle.check_cli(op("audit_onofri"), 0, text, {}, ref) == []
    assert oracle.check_cli(op("audit_onofri"), 0, text, {},
                            {**ref, "min_slack": 0.5 + 1e-5})


def test_maximizer_profile_with_q_above_1_fails():
    from tmlab.forms import NoRemainder, eval_J, eval_Q
    from tmlab.probe import MaximizeResult, moser_function
    from tmlab.radial import RadialGrid

    grid = RadialGrid.default()
    form = NoRemainder()
    m = moser_function(grid, 128)
    u = m.scaled(1.0 / math.sqrt(eval_Q(form, m)))
    best = eval_J(u)
    sound = MaximizeResult(best, u, False, 1)
    assert oracle.check_maximizer(
        oracle.maximizer_facts(sound, grid, form, best)) == []
    big = u.scaled(1.1)
    over = MaximizeResult(eval_J(big), big, False, 1)
    why = oracle.check_maximizer(oracle.maximizer_facts(over, grid, form,
                                                        best))
    assert any("exceeds 1" in w for w in why)
    # A value that the profile does not reproduce, or below Moser, fails.
    assert oracle.check_maximizer(oracle.maximizer_facts(
        MaximizeResult(best * 1.01, u, False, 1), grid, form, best))
    assert oracle.check_maximizer(oracle.maximizer_facts(
        sound, grid, form, best * 1.01))


def test_scan_plan_is_seeded_and_avoids_lambda_1():
    assert scan_plan(3) == scan_plan(3)
    assert scan_plan(3) != scan_plan(4)
    ratios = [e["param"] for e in scan_plan(5) if e["family"] == "constant"]
    assert len(ratios) == 19 and min(abs(r - 1.0) for r in ratios) >= 0.07
