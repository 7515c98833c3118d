import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from profiles import from_callable
import tmlab
from tmlab.cli import COMMANDS, main
from tmlab.radial import RadialFunction, RadialGrid
from tmlab.rearrange import MEASURES, rearrange_decreasing


def run(args):
    return main(args)


def test_eval_zero(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    code = run(["eval", "--u", "zero", "--form", "none",
                "--out", str(out), "--grid-n", "1024"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Q=0" in printed
    header, row = out.read_text().splitlines()[-2:]
    assert header == "Q,J,onofri_lhs,onofri_rhs,luxemburg"
    vals = dict(zip(header.split(","), map(float, row.split(","))))
    assert vals["J"] == pytest.approx(math.pi, rel=1e-12)
    assert vals["onofri_lhs"] == 1.0


def test_eval_moser_with_constant(tmp_path, capsys):
    out = tmp_path / "ev.json"
    code = run(["eval", "--u", "moser:8", "--form", "constant:2.0",
                "--out", str(out), "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert 0.0 < data["data"]["Q"] < 1.0
    assert math.isfinite(data["data"]["J"])
    assert data["meta"]["version"]


def test_eval_profile_from_file(tmp_path):
    grid = RadialGrid.default(512)
    prof = from_callable(grid, lambda r: (1 - r) ** 2)
    src = tmp_path / "prof.csv"
    prof.to_csv(src)
    out = tmp_path / "ev.csv"
    assert run(["eval", "--u", f"file:{src}", "--form", "gamma:0.5",
                "--out", str(out)]) == 0


def test_eval_rejects_non_finite_profile(tmp_path, capsys):
    grid = RadialGrid.default(512)
    src = tmp_path / "prof.csv"
    from_callable(grid, lambda r: 1 - r).to_csv(src)
    lines = src.read_text().splitlines()
    lines[100] = lines[100].split(",")[0] + ",nan"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ev.csv"
    assert run(["eval", "--u", f"file:{src}", "--form", "none",
                "--out", str(out)]) == 2
    assert "non-finite value in data row 100" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors(tmp_path):
    assert run(["eval", "--u", "bogus", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["eval", "--u", "file:/does/not/exist.csv",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["nonsense"]) == 2


def test_groundstate_verdicts(tmp_path, capsys):
    for pot, expected in [("leray", "GroundStateDetected"),
                          ("constant:2.0", "WeaklyCoercive"),
                          ("constant:12.0", "Indefinite")]:
        out = tmp_path / "gs.csv"
        code = run(["groundstate", "--potential", pot, "--out", str(out)])
        assert code == 0  # any verdict is a success
        assert expected in capsys.readouterr().out
        text = out.read_text()
        assert f"classification={expected}" in text
        assert text.splitlines()[2] == "r,phi,s"
        footers = [line[2:].partition("=")[0]
                   for line in text.splitlines()[3:] if line.startswith("# ")]
        assert footers == (["classification", "detail"]
                           if expected == "Indefinite" else
                           ["phi_at_1", "s_at_1", "log_s_at_1",
                            "classification", "kato_ok", "gamma_fit",
                            "log_gamma"])


def test_probe_commands(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(["probe", "--form", "none", "--family", "moser",
                "--kmax-pow", "10", "--out", str(out),
                "--format", "json"]) == 0
    assert "verdict=Bounded" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["data"]["verdict"] == "Bounded"
    assert len(data["data"]["rows"]) == 10

    assert run(["probe", "--form", "potential:leray", "--family", "gsapprox",
                "--out", str(tmp_path / "p2.json"), "--format", "json"]) == 0
    assert "verdict=Divergent" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # With no remainder S is finite (Moser 1971); this once read Divergent,
    # probing the form `none` with the ground states of leray.
    ["probe", "--form", "none", "--family", "gsapprox", "--potential", "leray"],
    ["probe", "--form", "none", "--family", "gsapprox"],
    ["probe", "--form", "lp:1.0:4", "--family", "gsapprox"],
    # --seed was accepted and ignored by these commands.
    ["eval", "--u", "zero", "--seed", "1"],
    ["groundstate", "--potential", "leray", "--seed", "1"],
    ["probe", "--form", "none", "--seed", "1"],
    ["rearrange", "--u", "zero", "--seed", "1"],
    # leray, wangye and zero take no argument; these once ignored it.
    ["groundstate", "--potential", "leray:5"],
    ["groundstate", "--potential", "wangye:abc"],
    ["eval", "--u", "zero:7"],
    ["eval", "--u", "zero", "--form", "potential:leray:junk"],
])
def test_flags_without_meaning_are_usage_errors(tmp_path, argv, capsys):
    assert run(argv + ["--grid-n", "64", "--out", str(tmp_path / "o")]) == 2
    assert "verdict=" not in capsys.readouterr().out


def test_probe_report_serialization(tmp_path):
    out = tmp_path / "p"
    argv = ["probe", "--form", "none", "--kmax-pow", "3", "--grid-n", "1024",
            "--out", str(out)]
    assert run(argv + ["--format", "json"]) == 0
    data = json.loads(out.read_text())["data"]
    assert sorted(data) == ["evidence", "family", "form", "rows", "rule",
                            "verdict"]
    assert [row["k"] for row in data["rows"]] == [2.0, 4.0, 8.0]
    assert all(sorted(row) == ["J", "Q", "k"] for row in data["rows"])
    assert (data["rule"], data["evidence"]) == ("short", {})
    assert run(argv + ["--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "k,Q,J"
    assert lines[6:] == [f"# verdict={data['verdict']}", "# rule=short"]


# One argv per reading rule, in firing order, with the verdict it reads.
PROBE_RULES = [
    (["potential:constant:7", "--family", "gsapprox"], "Divergent", "nodal"),
    (["potential:constant:20"], "Divergent", "indefinite-direction"),
    (["potential:constant:1", "--family", "gsapprox"], "Inconclusive",
     "finite-stretch"),
    (["none", "--coeff", "2000"], "Divergent", "overflow"),
    (["none", "--kmax-pow", "3"], "Inconclusive", "short"),
    (["none"], "Bounded", "growth-fit"),
    (["potential:leray", "--family", "gsapprox"], "Divergent", "growth-fit"),
]


@pytest.mark.parametrize("form, verdict, rule", PROBE_RULES,
                         ids=[f"{r}-{v}" for _, v, r in PROBE_RULES])
def test_every_probe_rule_writes_one_file_shape(tmp_path, form, verdict,
                                                rule):
    # The nodal reading once wrote a second file shape (no rows, family,
    # form or column of errors): every probe file now holds the report,
    # its CSV the rows k, Q, J and the footers verdict, rule and the
    # rule's evidence under their own names.
    out = tmp_path / "p"
    argv = ["probe", "--form"] + form + ["--out", str(out)]
    assert run(argv + ["--format", "json"]) == 0
    data = json.loads(out.read_text())["data"]
    assert sorted(data) == ["evidence", "family", "form", "rows", "rule",
                            "verdict"]
    assert (data["verdict"], data["rule"]) == (verdict, rule)
    assert run(argv + ["--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "k,Q,J"
    assert len(lines) == 3 + len(data["rows"]) + 2 + len(data["evidence"])
    footers = [line[2:].split("=", 1)[0] for line in lines[3:]
               if line.startswith("# ")]
    assert footers[:2] == ["verdict", "rule"]
    assert sorted(footers[2:]) == sorted(data["evidence"])


def test_kmax_pow_bounds_the_ground_state_family(tmp_path, capsys):
    # gsapprox once swept its own fixed ladder whatever --kmax-pow said.
    out = tmp_path / "p.json"
    for kmax, rows in (("3", 3), ("14", 8)):
        assert run(["probe", "--form", "leray", "--family", "gsapprox",
                    "--kmax-pow", kmax, "--format", "json",
                    "--out", str(out)]) == 0
        got = json.loads(out.read_text())["data"]["rows"]
        assert [row["k"] for row in got] == [2.0 ** m for m in
                                            range(1, rows + 1)]


def test_probe_lp_form(tmp_path, capsys):
    assert run(["probe", "--form", "lp:1.0:4", "--family", "moser",
                "--kmax-pow", "8",
                "--out", str(tmp_path / "p3.csv")]) == 0
    assert "verdict=Bounded" in capsys.readouterr().out


def test_audit_onofri(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    code = run(["audit", "--ineq", "onofri", "--form", "none",
                "--samples", "50", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert "violations=0" in capsys.readouterr().out
    assert "# violations=0" in out.read_text()


def test_audit_refined_and_orlicz(tmp_path, capsys):
    # the boundary Hardy remainder audits clean at this seed
    assert run(["audit", "--ineq", "onofri-refined", "--form", "wangye",
                "--samples", "40", "--seed", "0",
                "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["audit", "--ineq", "orlicz", "--form", "wangye",
                "--samples", "25", "--seed", "5",
                "--out", str(tmp_path / "o.csv")]) == 0
    printed = capsys.readouterr().out
    assert "empirical_C=" in printed


def test_orlicz_audit_honours_slack_tol(tmp_path, capsys):
    # Every audit counts a violation at slack < -slack_tol; orlicz once
    # counted ratio <= 0 whatever --slack-tol said.  Above lambda_1 the
    # ratio Q / ||u||_Lux^2 is negative on 12 of these 20 bumps.
    argv = ["audit", "--ineq", "orlicz", "--form", "constant:60",
            "--samples", "20", "--seed", "0", "--grid-n", "512",
            "--out", str(tmp_path / "o.csv")]
    assert run(argv + ["--slack-tol", "1e3"]) == 0
    assert "violations=0" in capsys.readouterr().out
    assert run(argv + ["--slack-tol", "1e-8"]) == 1
    assert "violations=12" in capsys.readouterr().out


def test_audit_violation_exit_code(tmp_path, capsys):
    # the damped borderline weight admits genuine counterexamples to the
    # refined inequality; the audit must report them and exit 1
    code = run(["audit", "--ineq", "onofri-refined", "--form", "gamma:0.5",
                "--samples", "100", "--seed", "0",
                "--out", str(tmp_path / "v.csv")])
    assert code == 1
    assert "violations=" in capsys.readouterr().out
    assert "# violations=" in (tmp_path / "v.csv").read_text()


def test_audit_adimurthi_druet_rows(tmp_path, capsys):
    # A remainder with 0 < psi < 1 on every bump reaches the scalar and
    # exponential comparisons, which `--form none` never does.
    out = tmp_path / "ad.csv"
    assert run(["audit", "--ineq", "adimurthi-druet", "--form", "gamma:0.5",
                "--samples", "20", "--grid-n", "1024", "--seed", "0",
                "--out", str(out)]) == 0
    assert "violations=0" in capsys.readouterr().out
    body = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")]
    assert body[0] == "sample,psi,scalar_slack,J_slack,note"
    assert len(body) == 21
    for line in body[1:]:
        _, psi, scalar, j_slack, note = line.split(",")
        psi, scalar, j_slack = float(psi), float(scalar), float(j_slack)
        assert note == ""
        assert 0.0 < psi < 1.0
        assert j_slack > 0.0
        assert abs(scalar - psi * psi) <= 1e-15


def test_rearrange_command(tmp_path):
    out = tmp_path / "re.csv"
    assert run(["rearrange", "--u", "moser:8", "--measure", "hyperbolic",
                "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")]
    assert body[0] == "r,value"
    vals = np.array([float(l.split(",")[1]) for l in body[1:]])
    assert np.all(np.diff(vals) <= 1e-12)


def test_rearranged_profile_reads_back(tmp_path):
    # The CLI's profile files carry `#` provenance lines, which the
    # profile reader once took for data.
    grid = RadialGrid.default(512)
    prof = from_callable(
        grid, lambda r: np.exp(-((r - 0.4) / 0.2) ** 2) * (1 - r))
    src, out = tmp_path / "in.csv", tmp_path / "sharp.csv"
    prof.to_csv(src)
    assert run(["rearrange", "--u", f"file:{src}", "--out", str(out)]) == 0
    back = RadialFunction.from_csv(out)
    want = rearrange_decreasing(prof, MEASURES["hyperbolic"])
    assert np.array_equal(back.grid.nodes, want.grid.nodes)
    assert np.array_equal(back.values, want.values)
    assert run(["eval", "--u", f"file:{out}",
                "--out", str(tmp_path / "e.csv")]) == 0


def test_readme_flag_table_matches_commands():
    # The README's "Command line" table lists each command's own flags,
    # in the order of its help.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", readme, re.M)
    table = {name: re.findall(r"`(--[a-z-]+)", cell) for name, cell in rows}
    assert table == {name: [flag for flag, _ in command.flags]
                     for name, command in COMMANDS.items()}


def test_readme_probe_rules_name_every_model():
    # Each verdict constant followed by a string literal in tmlab.probe or
    # tmlab.cli (`DIVERGENT, "overflow"`) names a reading rule; the
    # README's rules list, classify_growth's docstring and the probe
    # module docstring name exactly those rules, so none drifts when the
    # rules change.
    src = Path(tmlab.__file__).parent
    trees = [ast.parse((src / name).read_text())
             for name in ("probe.py", "cli.py")]
    verdicts = {"BOUNDED", "DIVERGENT", "INCONCLUSIVE"}
    rules = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        items = (node.elts if isinstance(node, ast.Tuple)
                 else node.args if isinstance(node, ast.Call) else [])
        rules |= {b.value for a, b in zip(items, items[1:])
                  if getattr(a, "id", None) in verdicts
                  and isinstance(b, ast.Constant)
                  and isinstance(b.value, str)}
    assert rules == {"nodal", "indefinite-direction", "finite-stretch",
                     "overflow", "short", "growth-fit"}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("A probe reads its verdict", 1)[1].split("\n\n")[1]
    assert set(re.findall(r"\(`([a-z-]+)`\)", listed)) == rules
    doc = next(ast.get_docstring(node) for node in ast.walk(trees[0])
               if isinstance(node, ast.FunctionDef)
               and node.name == "classify_growth")
    assert set(re.findall(r'\("([a-z-]+)"\)', doc)) == rules
    module_doc = ast.get_docstring(trees[0])
    assert set(re.findall(r'"([a-z-]+)"', module_doc)) == rules


def test_readme_examples_run(tmp_path, monkeypatch):
    # Every command of the README's command-line block, on a small grid,
    # in a directory holding the profile.csv it reads.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("tm-lab ")]
    assert len(examples) == 14
    monkeypatch.chdir(tmp_path)
    from_callable(RadialGrid.default(256),
                                 lambda r: (1 - r) ** 2).to_csv("profile.csv")
    for argv in examples:
        code = run(argv + ["--grid-n", "256"])
        assert code in ((0, 1) if argv[0] == "audit" else (0,)), argv


def test_lambda_command(tmp_path, capsys):
    assert run(["lambda", "--which", "1", "--grid-n", "2048",
                "--out", str(tmp_path / "l.csv")]) == 0
    printed = capsys.readouterr().out
    assert "lambda_1=5.78" in printed


def test_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["audit", "--ineq", "onofri", "--form", "none", "--samples",
            "30", "--seed", "11"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 512, "samples": 10, "seed": 4}))
    out = tmp_path / "a.csv"
    code = run(["--config", str(cfg), "audit", "--ineq", "onofri",
                "--form", "none", "--out", str(out)])
    assert code == 0
    assert '"grid_n": 512' in out.read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid_n": 512, "bogus_key": 1}))
    assert run(["--config", str(bad), "audit", "--ineq", "onofri",
                "--form", "none", "--out", str(out)]) == 2
    # A flag on the command line beats the file, abbreviated or not.
    cfg.write_text(json.dumps({"grid_n": 512, "samples": 7}))
    for flag in (["--samples", "3"], ["--samp", "3"], ["--samp=3"]):
        assert run(["--config", str(cfg), "audit", "--ineq", "onofri",
                    "--form", "none", "--out", str(out)] + flag) == 0
        text = out.read_text()
        assert '"samples": 3' in text, flag
        assert text.splitlines()[-3].startswith("2,"), flag
    # The file's flags follow the command itself, even when the file is
    # named like the command.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "audit").write_text(json.dumps({"samples": 4}))
    assert run(["--config", "audit", "audit", "--ineq", "onofri",
                "--grid-n", "512", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-3].startswith("3,")


def test_config_sets_required_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "o.csv"

    def echoed():
        return json.loads(out.read_text().splitlines()[1].split("=", 1)[1])

    cfg.write_text(json.dumps({"u": "moser:8", "grid_n": 512}))
    assert run(["--config", str(cfg), "eval", "--out", str(out)]) == 0
    assert echoed()["u"] == "moser:8"
    # A flag on the command line still wins.
    assert run(["--config", str(cfg), "eval", "--u", "moser:16",
                "--out", str(out)]) == 0
    assert echoed()["u"] == "moser:16"
    cfg.write_text(json.dumps({"ineq": "onofri", "samples": 5,
                               "grid_n": 512}))
    assert run(["--config", str(cfg), "audit", "--out", str(out)]) == 0
    assert echoed()["ineq"] == "onofri"
    assert run(["--config", str(cfg), "audit", "--ineq", "orlicz",
                "--out", str(out)]) == 0
    assert echoed()["ineq"] == "orlicz"
    # Without the file the flag is required, and an abbreviated --config
    # is refused rather than ignored.
    assert run(["audit", "--out", str(out)]) == 2
    assert run(["--conf", str(cfg), "audit", "--out", str(out)]) == 2


def test_config_values_typed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "a.csv"
    args = ["--config", str(cfg), "audit", "--ineq", "onofri",
            "--form", "none", "--out", str(out)]
    # The text a flag accepts is accepted from the file too.
    cfg.write_text(json.dumps({"grid_n": "512", "samples": "10"}))
    assert run(args) == 0
    echoed = json.loads(out.read_text().splitlines()[1].split("=", 1)[1])
    assert echoed["samples"] == 10 and echoed["grid_n"] == 512
    # Anything the flag would reject is a usage error, never a traceback;
    # argparse's message names the flag.
    for bad, says in (({"samples": "ten"}, "argument --samples: invalid"),
                      ({"samples": 2.5}, "argument --samples: invalid"),
                      ({"samples": 0}, "argument --samples: 0 is not in 1.."),
                      ({"samples": True}, "not a flag value"),
                      ({"samples": [10]}, "not a flag value"),
                      ({"format": "xml"}, "argument --format: invalid choice"),
                      ({"func": "x"}, "unknown config keys")):
        cfg.write_text(json.dumps(bad))
        assert run(args) == 2, bad
        assert says in capsys.readouterr().err, bad


def test_provenance_headers(tmp_path):
    out = tmp_path / "ev.csv"
    run(["eval", "--u", "zero", "--out", str(out), "--grid-n", "512"])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# tool=tm-lab version=")
    assert lines[1].startswith("# config=")
    echoed = json.loads(lines[1].split("=", 1)[1])
    assert echoed["grid_n"] == 512
    assert "out" not in echoed


def test_integrator_failure_is_numerical(tmp_path, monkeypatch, capsys):
    # A propagator that is not finite is a numerical failure (exit 3),
    # never a verdict.  V = -1e300 is finite, but the first cell's
    # propagator overflows: the message once said only that V is not
    # finite there.  (V = +1e300 reads Indefinite: a zero is certified.)
    out = tmp_path / "gs.csv"
    assert run(["groundstate", "--potential", "constant:-1e300",
                "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite propagator" in err
    assert "propagator overflows" in err
    # A potential that is NaN everywhere leaves no finite propagator.
    from tmlab.potentials import ConstantPotential

    monkeypatch.setattr(ConstantPotential, "__call__",
                        lambda self, r: np.full(np.shape(r), math.nan))
    assert run(["groundstate", "--potential", "constant:2.0",
                "--out", str(out)]) == 3
    assert "non-finite propagator" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["constant:-1e6", "constant:-2e5"])
def test_overflowing_shot_is_numerical(tmp_path, capsys, spec):
    # phi grows like I_0(sqrt(-c) r).  At -1e6 it overflows: the NaN
    # profile once exited 2 as bad input.  At -2e5 phi/max phi underflows
    # near the centre: the stretch once read nan with exit 0 and a
    # WeaklyCoercive verdict.  Both are numerical failures now.
    out = tmp_path / "gs.csv"
    assert run(["groundstate", "--potential", spec, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "overflows" in captured.err
    assert "classification" not in captured.out
    assert not out.exists()


def test_stretch_beyond_double_range_reads_in_log(tmp_path, capsys):
    # s(1) overflows just below lambda_1; its logarithm does not.
    out = tmp_path / "gs.csv"
    assert run(["groundstate", "--potential", "constant:5.78318",
                "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("classification=WeaklyCoercive (log s(1) = ")
    footer = dict(ln[2:].split("=", 1) for ln in out.read_text().splitlines()
                  if ln.startswith("# ") and "=" in ln)
    assert footer["s_at_1"] == "inf"
    log_s = float(footer["log_s_at_1"])
    assert 709.8 < log_s < math.inf
    assert f"log s(1) = {log_s:.6g}," in line


def test_centre_fit_below_double_range_reads_in_log(tmp_path, capsys):
    # gamma = exp(-499851) underflows; its logarithm does not (the
    # footer once read gamma_fit=0 alone).
    out = tmp_path / "gs.csv"
    assert run(["groundstate", "--potential", "constant:-50",
                "--out", str(out)]) == 0
    footer = dict(ln[2:].split("=", 1) for ln in out.read_text().splitlines()
                  if ln.startswith("# ") and "=" in ln)
    assert footer["gamma_fit"] == "0"
    assert -5.0e5 < float(footer["log_gamma"]) < -4.9e5


# The p-th powers of ||u||_p at p = 1e300 overflow (max |u| > 1) or all
# underflow to 0 (max |u| < 1).  These once printed a verdict, a
# violation, lambda_p = 0 or Q = -inf / Q = 1 (psi = 0).
@pytest.mark.parametrize("argv", [
    ["probe", "--form", "lp:1:1e300"],
    ["audit", "--ineq", "orlicz", "--form", "lp:1:1e300", "--samples", "20"],
    ["lambda", "--which", "p", "--p", "1e300"],
    ["eval", "--u", "moser:1024", "--form", "lp:1:1e300"],
    ["eval", "--u", "moser:2", "--form", "lp:1:1e300"],
])
def test_lp_norm_out_of_range_is_numerical(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--grid-n", "256", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ||u||_1e+300")
    assert not captured.out and not out.exists()


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"samples": 10}]))
    assert run(["--config", str(cfg), "audit", "--ineq", "onofri",
                "--out", str(tmp_path / "a.csv")]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_directory_is_usage_error(tmp_path, capsys):
    assert run(["--config", str(tmp_path), "audit", "--ineq", "onofri",
                "--out", str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_directory_is_usage_error(tmp_path, capsys):
    assert run(["eval", "--u", "zero", "--grid-n", "512",
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unexpected_exception_exits_3(tmp_path, monkeypatch, capsys):
    import tmlab.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(cli, "eval_Q", broken)
    assert run(["eval", "--u", "zero", "--grid-n", "512",
                "--out", str(tmp_path / "e.csv")]) == 3
    assert "KeyError" in capsys.readouterr().err


def test_defect_in_trial_family_exits_3(tmp_path, monkeypatch, capsys):
    # A defect while building a trial profile is no verdict either.
    import tmlab.probe as probe

    def broken(grid, k):
        raise TypeError("defect")

    monkeypatch.setattr(probe, "moser_function", broken)
    assert run(["probe", "--form", "none", "--family", "moser",
                "--grid-n", "64", "--out", str(tmp_path / "p.csv")]) == 3
    assert "TypeError" in capsys.readouterr().err


def test_value_error_in_kernel_exits_3(tmp_path, monkeypatch, capsys):
    import tmlab.cli as cli

    def domain_error(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(cli, "eval_Q", domain_error)
    assert run(["eval", "--u", "zero", "--grid-n", "512",
                "--out", str(tmp_path / "e.csv")]) == 3
    assert "math domain error" in capsys.readouterr().err


def test_parse_errors_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "e.csv")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("r,value\n0.5,abc\n1,0\n")
    one_col = tmp_path / "one.csv"
    one_col.write_text("r\n0.5\n1\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"grid-n": 512,,}')
    for argv in (["eval", "--u", "zero", "--form", "lp:x:4"],
                 ["eval", "--u", "zero", "--form", "constant:"],
                 ["eval", "--u", "moser:abc"],
                 ["eval", "--u", f"file:{bad_csv}"],
                 ["eval", "--u", f"file:{one_col}"],
                 ["--config", str(bad_json), "eval", "--u", "zero"]):
        assert run(argv + ["--out", out]) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_eval_nan_is_numerical_failure(tmp_path, capsys):
    # Energy and remainder both overflow to inf, and Q = inf - inf.
    grid = RadialGrid(np.linspace(0.01, 1.0, 50))
    vals = np.full(50, 1e200)
    vals[-1] = 0.0
    src = tmp_path / "big.csv"
    RadialFunction(grid, vals).to_csv(src)
    out = tmp_path / "ev.csv"
    with np.errstate(over="ignore"):
        code = run(["eval", "--u", f"file:{src}", "--form", "constant:2.0",
                    "--out", str(out)])
    assert code == 3
    assert "NaN for Q, onofri_rhs" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_skips_scipy_integrate(tmp_path):
    # Shooting included, the package runs on numpy alone, and the
    # maximizer's fixed starts load no numpy.random.
    code = ("import sys; from tmlab.cli import main; "
            "rc = main(['groundstate', '--potential', 'leray', '--out', "
            f"{str(tmp_path / 'gs.csv')!r}]); "
            "from tmlab.forms import NoRemainder; "
            "from tmlab.probe import maximize_J_constrained; "
            "from tmlab.radial import RadialGrid; "
            "maximize_J_constrained(NoRemainder(), RadialGrid.default(256)); "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m == 'numpy.random']; "
            "print(loaded); sys.exit(rc if rc else bool(loaded))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(tmlab.__path__[0])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "GroundStateDetected" in proc.stdout


# The exit-code contract over random argv.  Each command's options are
# drawn from the README's ranges; at most one of them is then replaced by
# a value that is invalid by construction (non-finite, a non-positive
# count, a negative seed or tolerance, or an unknown spec), and such a
# draw must exit 2.
_non_finite = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf",
                               "Infinity", "1e999"])
_non_positive = st.integers(-5, 0).map(str)


def _num(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(repr)


_potential = st.one_of(
    st.just("leray"), st.just("wangye"),
    _num(0.0, 5.0).map("constant:{}".format),
    _num(0.1, 8.0).map("gamma:{}".format))
_bad_potential = st.one_of(
    _non_finite.map("constant:{}".format), _non_finite.map("gamma:{}".format),
    # leray and wangye take no argument
    st.sampled_from(["hardy", "bogus:1", "leray:5", "wangye:abc", "leray:"]))
_form = st.one_of(
    st.just("none"), _potential, _potential.map("potential:{}".format),
    st.tuples(_num(0.0, 2.0), _num(2.0, 8.0, exclude_min=True))
    .map("lp:{0[0]}:{0[1]}".format))
_bad_form = st.one_of(
    _bad_potential, _bad_potential.map("potential:{}".format),
    _non_finite.map("lp:{}:4".format), _non_finite.map("lp:1:{}".format),
    st.sampled_from(["lq:1:4", "bogus"]))
_profile = st.one_of(st.just("zero"),
                     st.integers(2, 256).map("moser:{}".format))
_bad_profile = st.sampled_from(["spline:3", "bogus", "zero:7"])
_seed = st.integers(0, 1000).map(str)
_negative = st.integers(-5, -1).map(str)
# A negative --slack-tol would count samples of positive slack as
# violations.
_negative_float = _num(-1e3, -1e-300)

# command and its fixed options -> {flag: (valid values, invalid values
# or None)}.  --p and --seed mean something only with --which p.
_COMMANDS = {
    "eval": {"--u": (_profile, _bad_profile), "--form": (_form, _bad_form),
             "--coeff": (_num(1.0, 4 * math.pi), _non_finite)},
    "groundstate": {"--potential": (_potential, _bad_potential)},
    "probe": {"--form": (_form, _bad_form),
              "--coeff": (_num(1.0, 4 * math.pi), _non_finite),
              "--kmax-pow": (st.integers(2, 14).map(str), _non_positive)},
    "audit": {"--ineq": (st.sampled_from(["onofri", "onofri-refined",
                                          "adimurthi-druet", "orlicz"]), None),
              "--form": (_form, _bad_form),
              "--samples": (st.integers(1, 4).map(str), _non_positive),
              "--slack-tol": (_num(0.0, 1e-6), _non_finite | _negative_float),
              "--seed": (_seed, _negative)},
    "rearrange": {"--u": (_profile, _bad_profile),
                  "--measure": (st.sampled_from(["hyperbolic", "euclidean"]),
                                None)},
    "lambda --which=1": {},
    "lambda --which=p": {"--p": (_num(2.5, 6.0), _non_finite),
                         "--seed": (_seed, _negative)},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    slots = _COMMANDS[command]
    values = {flag: draw(valid) for flag, (valid, _) in slots.items()}
    corruptible = [flag for flag, (_, bad) in slots.items() if bad is not None]
    bad_flag = draw(st.none() | st.sampled_from(corruptible)) \
        if corruptible else None
    if bad_flag is not None:
        values[bad_flag] = draw(slots[bad_flag][1])
    # --flag=value keeps a value such as "-inf" from reading as a flag.
    argv = [*command.split(), "--grid-n", "64",
            "--format", draw(st.sampled_from(["csv", "json"]))]
    argv += [f"{flag}={value}" for flag, value in values.items()]
    return argv, bad_flag


def _bad_spec(command, flag, spec):
    """A case whose only invalid value is the literal `spec` for `flag`."""
    return [*command, "--grid-n", "64", "--format", "csv",
            f"{flag}={spec}"], flag


# A fixed draw sequence, so each run times the same 40 commands; the
# draws reach none of the literal bad specs, so each is an example.
@settings(deadline=None, max_examples=40, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
@example(_bad_spec(["groundstate"], "--potential", "hardy"))
@example(_bad_spec(["groundstate"], "--potential", "bogus:1"))
@example(_bad_spec(["groundstate"], "--potential", "leray:5"))
@example(_bad_spec(["groundstate"], "--potential", "wangye:abc"))
@example(_bad_spec(["groundstate"], "--potential", "leray:"))
@example(_bad_spec(["probe"], "--form", "lq:1:4"))
@example(_bad_spec(["probe"], "--form", "bogus"))
@example(_bad_spec(["eval", "--form=none"], "--u", "spline:3"))
@example(_bad_spec(["eval", "--form=none"], "--u", "zero:7"))
@example(_bad_spec(["audit", "--ineq=onofri"], "--slack-tol", "-1"))
def test_exit_code_contract(tmp_path, case):
    argv, bad_flag = case
    out = tmp_path / "out"
    code = run(argv + ["--out", str(out)])
    if bad_flag is not None:
        assert code == 2, argv
        return
    assert code in ((0, 1) if argv[0] == "audit" else (0,)), argv
    # The file is in the format asked for.
    if argv[argv.index("--format") + 1] == "json":
        json.loads(out.read_text())
    else:
        assert out.read_text().startswith("# tool=tm-lab"), argv


# Valid specs at the edges of the fuzzed ranges, at the default grid: a
# constant just below lambda_1 (s(1) beyond the double range), a strongly
# negative constant (log s ~ -5e5 near the centre) and gamma exponents
# whose damping log(1/r)^gamma overflows.  Each once exited 3.
@pytest.mark.parametrize("spec", ["constant:5.78", "constant:5.783",
                                  "constant:-50", "gamma:250", "gamma:1000"])
@pytest.mark.parametrize("command", [
    ["groundstate", "--potential"], ["probe", "--family", "moser", "--form"],
    ["probe", "--family", "gsapprox", "--form"],
    ["eval", "--u", "moser:8", "--form"]], ids=["groundstate", "moser",
                                              "gsapprox", "eval"])
def test_edge_specs_exit_zero(tmp_path, spec, command):
    out = tmp_path / "o"
    argv = command + [spec, "--out", str(out)]
    assert run(argv + ["--format", "json"]) == 0, argv
    json.loads(out.read_text(), parse_constant=_reject_constant)
    assert run(argv + ["--format", "csv"]) == 0, argv
    assert out.read_text().startswith("# tool=tm-lab version="), argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, check", [
    # NaN and +-inf are not RFC 8259 JSON: they are written null / "inf".
    (["audit", "--ineq", "adimurthi-druet", "--form", "none", "--samples",
      "3"], lambda d: d["min_slack"] is None),  # no sample has 0 < psi < 1
    (["probe", "--form", "none", "--coeff", "2000"],
     lambda d: d["rows"][-1]["J"] == "inf"),  # an overflowing sweep
    # These once wrote CSV under --format json ...
    (["groundstate", "--potential", "leray"], lambda d: d["s_at_1"] == "inf"),
    (["groundstate", "--potential", "constant:12.0"],
     lambda d: d["classification"] == "Indefinite" and d["rows"] == []),
    (["rearrange", "--u", "moser:8"], lambda d: len(d["rows"]) > 1),
    # ... and this JSON under --format csv.
    (["probe", "--form", "potential:constant:12.0", "--family", "gsapprox"],
     lambda d: d["verdict"] == "Divergent"),
])
def test_output_is_in_the_format_asked(tmp_path, argv, check):
    out = tmp_path / "o"
    argv = argv + ["--grid-n", "256", "--out", str(out)]
    assert run(argv + ["--format", "json"]) == 0
    assert check(json.loads(out.read_text(),
                            parse_constant=_reject_constant)["data"])
    assert run(argv + ["--format", "csv"]) == 0
    assert out.read_text().startswith("# tool=tm-lab version=")


@pytest.mark.parametrize("argv", [
    ["probe", "--form", "none", "--coeff", "nan"],
    ["lambda", "--which", "p", "--p", "inf"],
    # A verdict comes from the stretch alone; there is no rim threshold.
    ["groundstate", "--potential", "leray", "--delta-phi", "1e-2"],
    ["eval", "--u", "zero", "--form", "gamma:inf"],
    ["eval", "--u", "zero", "--form", "lp:1:inf"],
    ["eval", "--u", "zero", "--coeff", "nan"],
    ["audit", "--ineq", "onofri", "--samples", "0"],
    ["audit", "--ineq", "onofri", "--samples", "-3"],
    ["probe", "--form", "none", "--kmax-pow", "0"],
    # lambda_1 reads neither; both were once echoed and ignored.
    ["lambda", "--which", "1", "--seed", "5"],
    ["lambda", "--which", "1", "--p", "3"],
    # 2^1024 is not a finite double (it once exited 3).
    ["probe", "--form", "none", "--kmax-pow", "1024"],
])
def test_non_finite_and_non_positive_are_usage_errors(tmp_path, argv):
    # Each of these once printed a verdict or numbers (or exited 3).
    assert run(argv + ["--grid-n", "64", "--out", str(tmp_path / "o")]) == 2


def test_negative_seed_is_usage_error(tmp_path, capsys):
    # A negative seed once reached np.random.default_rng and exited 3
    # with its traceback.
    out = str(tmp_path / "o")
    assert run(["audit", "--ineq", "onofri", "--form", "none", "--samples",
                "5", "--seed", "-1", "--grid-n", "64", "--out", out]) == 2
    assert run(["lambda", "--which", "p", "--seed=-1", "--grid-n", "64",
                "--out", out]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert run(["--config", str(cfg), "lambda", "--which", "p",
                "--grid-n", "64", "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
