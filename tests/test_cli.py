import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tmlab
from tmlab.cli import COMMANDS, main
from tmlab.radial import RadialFunction, RadialGrid


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
    prof = RadialFunction.from_callable(grid, lambda r: (1 - r) ** 2)
    src = tmp_path / "prof.csv"
    prof.to_csv(src)
    out = tmp_path / "ev.csv"
    assert run(["eval", "--u", f"file:{src}", "--form", "gamma:0.5",
                "--out", str(out)]) == 0


def test_eval_rejects_non_finite_profile(tmp_path, capsys):
    grid = RadialGrid.default(512)
    src = tmp_path / "prof.csv"
    RadialFunction.from_callable(grid, lambda r: 1 - r).to_csv(src)
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
                           ["phi_at_1", "s_at_1", "classification",
                            "kato_ok", "gamma_fit"])


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
])
def test_flags_without_meaning_are_usage_errors(tmp_path, argv, capsys):
    assert run(argv + ["--grid-n", "64", "--out", str(tmp_path / "o")]) == 2
    assert "verdict=" not in capsys.readouterr().out


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


def test_audit_violation_exit_code(tmp_path, capsys):
    # the damped borderline weight admits genuine counterexamples to the
    # refined inequality; the audit must report them and exit 1
    code = run(["audit", "--ineq", "onofri-refined", "--form", "gamma:0.5",
                "--samples", "100", "--seed", "0",
                "--out", str(tmp_path / "v.csv")])
    assert code == 1
    assert "violations=" in capsys.readouterr().out
    assert "# violations=" in (tmp_path / "v.csv").read_text()


def test_rearrange_command(tmp_path):
    out = tmp_path / "re.csv"
    assert run(["rearrange", "--u", "moser:8", "--measure", "hyperbolic",
                "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")]
    assert body[0] == "r,value"
    vals = np.array([float(l.split(",")[1]) for l in body[1:]])
    assert np.all(np.diff(vals) <= 1e-12)


def test_readme_flag_table_matches_commands():
    # The README's "Command line" table lists each command's own flags,
    # in the order of its help.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", readme, re.M)
    table = {name: re.findall(r"`(--[a-z-]+)", cell) for name, cell in rows}
    assert table == {name: [flag for flag, _ in command.flags]
                     for name, command in COMMANDS.items()}


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


def test_config_file(tmp_path, capsys):
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
    # Anything the flag would reject is a usage error, never a traceback.
    for bad in ({"samples": "ten"}, {"samples": 2.5}, {"samples": True},
                {"samples": [10]}, {"format": "xml"}, {"func": "x"}):
        cfg.write_text(json.dumps(bad))
        assert run(args) == 2, bad
    assert "invalid value" in capsys.readouterr().err


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
    # A potential that is NaN everywhere leaves the shooter no finite
    # propagator: a numerical failure (exit 3), never a verdict.
    from tmlab.potentials import ConstantPotential

    monkeypatch.setattr(ConstantPotential, "__call__",
                        lambda self, r: np.full(np.shape(r), math.nan))
    out = tmp_path / "gs.csv"
    assert run(["groundstate", "--potential", "constant:2.0",
                "--out", str(out)]) == 3
    assert "non-finite propagator" in capsys.readouterr().err


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
    # Shooting included, the package runs on numpy alone.
    code = ("import sys; from tmlab.cli import main; "
            "rc = main(['groundstate', '--potential', 'leray', '--out', "
            f"{str(tmp_path / 'gs.csv')!r}]); "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "print(loaded); sys.exit(rc if rc else bool(loaded))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(tmlab.__path__[0])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "GroundStateDetected" in proc.stdout


# The exit-code contract over random argv.  Each command's options are
# drawn from the README's ranges; at most one of them is then replaced by
# a value that is invalid by construction (non-finite, a non-positive
# count, a negative seed or an unknown spec), and such a draw must exit 2.
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
    st.sampled_from(["hardy", "bogus:1"]))
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
_bad_profile = st.sampled_from(["spline:3", "bogus"])
_seed = st.integers(0, 1000).map(str)
_negative = st.integers(-5, -1).map(str)

# command and its fixed options -> {flag: (valid values, invalid values
# or None)}.  --p and --seed mean something only with --which p.
_COMMANDS = {
    "eval": {"--u": (_profile, _bad_profile), "--form": (_form, _bad_form),
             "--coeff": (_num(1.0, 4 * math.pi), _non_finite)},
    "groundstate": {"--potential": (_potential, _bad_potential),
                    "--delta-phi": (_num(1e-8, 1e-2), _non_finite)},
    "probe": {"--form": (_form, _bad_form),
              "--coeff": (_num(1.0, 4 * math.pi), _non_finite),
              "--kmax-pow": (st.integers(2, 14).map(str), _non_positive)},
    "audit": {"--ineq": (st.sampled_from(["onofri", "onofri-refined",
                                          "adimurthi-druet", "orlicz"]), None),
              "--form": (_form, _bad_form),
              "--samples": (st.integers(1, 4).map(str), _non_positive),
              "--slack-tol": (_num(0.0, 1e-6), _non_finite),
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


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, check", [
    # NaN and +-inf are not RFC 8259 JSON: they are written null / "inf".
    (["audit", "--ineq", "adimurthi-druet", "--form", "none", "--samples",
      "3"], lambda d: d["min_slack"] is None),  # no sample has 0 < psi < 1
    (["probe", "--form", "none", "--kmax-pow", "1"],
     lambda d: d["fit"]["residual"] is None),  # a one-row sweep
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
    ["groundstate", "--potential", "leray", "--delta-phi", "nan"],
    ["eval", "--u", "zero", "--form", "gamma:inf"],
    ["eval", "--u", "zero", "--form", "lp:1:inf"],
    ["eval", "--u", "zero", "--coeff", "nan"],
    ["audit", "--ineq", "onofri", "--samples", "0"],
    ["audit", "--ineq", "onofri", "--samples", "-3"],
    ["probe", "--form", "none", "--kmax-pow", "0"],
    # lambda_1 reads neither; both were once echoed and ignored.
    ["lambda", "--which", "1", "--seed", "5"],
    ["lambda", "--which", "1", "--p", "3"],
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
