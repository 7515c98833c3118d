"""Command-line front end.

Commands
--------
eval         functional values (Q, J, Onofri sides, Luxemburg norm) of a profile
groundstate  shooting analysis of a potential: phi, stretch s, verdict
probe        trial-family sweep of the constrained exponential supremum
audit        randomized inequality audits with per-sample slack records
rearrange    decreasing rearrangement of a profile CSV
lambda       Rayleigh-quotient estimates (first eigenvalue / L^p constant)

Every command takes --grid-n, --out and --format (csv or json) and writes
its result in that format; `audit` and `lambda --which p` also take --seed.
Exit codes: 0 success (any verdict), 1 inequality violation found,
2 usage error, 3 numerical failure.  Identical configuration and seed
produce byte-identical output files; every file carries a provenance
header (config echo, grid size, tool version).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import InvalidInputError, TmLabError
from .forms import (FOUR_PI, PotentialRemainder, eval_J, eval_Q,
                    luxemburg_norm, onofri_lhs, onofri_rhs, parse_form)
from .groundstate import classify_coercivity
from .potentials import finite_float, parse_potential
from .probe import (DIVERGENT, K_LADDER, ProbeReport, ProbeRow,
                    estimate_lambda_1, estimate_lambda_p, ground_state_family,
                    moser_family, moser_function, probe_supremum)
from .radial import DEFAULT_N, RadialFunction, RadialGrid, gradient_norm_sq
from .rearrange import MEASURES, rearrange_decreasing
from .sampling import bump_profile

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(x) -> str:
    if not isinstance(x, float):
        return str(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _json_safe(x):
    """`x` with NaN as null and +-inf as "inf"/"-inf", so it is strict JSON."""
    if isinstance(x, float) and not math.isfinite(x):
        return None if math.isnan(x) else _fmt(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


@dataclass
class Output:
    """What a command produces: a table for the output file and a stdout line.

    The CSV file holds `header`, `rows` and `footer` (as `# key=value`
    lines).  The JSON file holds `payload`, by default
    {"rows": [one dict per row], **footer}.
    """
    line: str
    header: tuple = ()
    rows: list = field(default_factory=list)
    footer: dict = field(default_factory=dict)
    payload: dict | None = None
    code: int = 0


def _emit(args: argparse.Namespace, out: Output) -> int:
    # The echo describes the computation, not the destination: the output
    # path is excluded so reruns into different files stay byte-identical.
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "out" and v is not None}
    with open(args.out, "w", newline="\n") as fh:
        if args.format == "json":
            data = out.payload
            if data is None:
                data = {"rows": [dict(zip(out.header, row)) for row in out.rows],
                        **out.footer}
            meta = {"tool": "tm-lab", "version": __version__, "config": config}
            json.dump(_json_safe({"meta": meta, "data": data}), fh,
                      sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
        else:
            fh.write(f"# tool=tm-lab version={__version__}\n")
            fh.write("# config=" + json.dumps(config, sort_keys=True) + "\n")
            fh.write(",".join(out.header) + "\n")
            for row in out.rows:
                fh.write(",".join(map(_fmt, row)) + "\n")
            for key, val in out.footer.items():
                fh.write(f"# {key}={_fmt(val)}\n")
    print(out.line)
    return out.code


def _record(values: dict) -> Output:
    """A single named record: one CSV row, a flat JSON object."""
    return Output(" ".join(f"{k}={_fmt(float(v))}" for k, v in values.items()),
                  tuple(values), [tuple(values.values())], payload=values)


def _load_profile(spec: str, grid: RadialGrid) -> RadialFunction:
    head, sep, arg = spec.strip().partition(":")
    if head == "zero" and not sep:  # zero takes no argument
        return RadialFunction.zero(grid)
    if head == "moser":
        try:
            k = int(arg)
        except ValueError as exc:
            raise InvalidInputError(f"profile spec {spec!r}: {exc}") from exc
        return moser_function(grid, k)
    if head == "file":
        return RadialFunction.from_csv(arg)
    raise InvalidInputError(f"unknown profile spec {spec!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args, grid: RadialGrid) -> Output:
    u = _load_profile(args.u, grid)
    form = parse_form(args.form)
    values = {
        "Q": eval_Q(form, u),
        "J": eval_J(u, args.coeff),
        "onofri_lhs": onofri_lhs(u),
        "onofri_rhs": onofri_rhs(u, form),
        "luxemburg": luxemburg_norm(u),
    }
    # inf is a legitimate J; NaN (say inf - inf) is a numerical failure.
    bad = [k for k, v in values.items() if math.isnan(v)]
    if bad:
        raise FloatingPointError(f"eval: NaN for {', '.join(bad)}")
    return _record(values)


def cmd_groundstate(args, grid: RadialGrid) -> Output:
    pot = parse_potential(args.potential)
    verdict = classify_coercivity(pot, grid)
    line = f"classification={verdict.classification} ({verdict.detail})"
    gs = verdict.result
    if gs is None:
        return Output(line, ("r", "phi", "s"),
                      footer={"classification": verdict.classification,
                              "detail": verdict.detail})
    # The s column caps log s at 700 (a vanishing rim value passes it).
    rows = list(zip(grid.nodes.tolist(), gs.phi.values.tolist(),
                    np.exp(np.minimum(gs.log_s, 700.0)).tolist()))
    return Output(line, ("r", "phi", "s"), rows,
                  {"phi_at_1": gs.phi_at_1, "s_at_1": gs.s_at_1,
                   "log_s_at_1": gs.log_s_at_1,
                   "classification": verdict.classification,
                   "kato_ok": gs.kato_ok, "gamma_fit": gs.gamma_fit,
                   "log_gamma": gs.log_gamma})


def cmd_probe(args, grid: RadialGrid) -> Output:
    form = parse_form(args.form)
    ks = [2 ** m for m in range(1, args.kmax_pow + 1)]
    if args.family == "moser":
        report = probe_supremum(form, moser_family(grid, ks), args.coeff)
    else:
        # The family approximates the ground state of the form's own
        # potential; against any other form its energies mean nothing.
        if not isinstance(form, PotentialRemainder):
            raise InvalidInputError(f"--family gsapprox needs a potential "
                                    f"form, not {args.form!r}")
        res = classify_coercivity(form.potential, grid)
        if res.result is None:
            report = ProbeReport(args.family, form.spec_string(), [],
                                 DIVERGENT, "nodal", {"detail": res.detail})
        else:
            report = probe_supremum(
                form, ground_state_family(res.result, ks), args.coeff)
    line = f"verdict={report.verdict}"
    if report.rule == "nodal":
        line += f" (indefinite form: {report.evidence['detail']})"
    return Output(line, tuple(f.name for f in fields(ProbeRow)),
                  [astuple(r) for r in report.rows],
                  {"verdict": report.verdict, "rule": report.rule,
                   **report.evidence}, asdict(report))


def _onofri_row(u, form, rng):
    lhs = onofri_lhs(u)
    rhs = onofri_rhs(u, form)
    return lhs, rhs, rhs - lhs, ""


def _adimurthi_druet_row(u, form, rng):
    gn = math.sqrt(gradient_norm_sq(u))
    u = u.scaled(rng.uniform(0.2, 1.0) / gn)
    psi = form.psi(u)
    if not 0.0 < psi < 1.0:
        return psi, math.nan, math.nan, "psi-outside-(0,1)"
    j_lo = eval_J(u, FOUR_PI * (1.0 + psi))
    j_hi = eval_J(u, FOUR_PI / (1.0 - psi))
    if math.isinf(j_hi):
        slack = math.inf if not math.isinf(j_lo) else 0.0
    else:
        slack = j_hi - j_lo
    return psi, 1.0 - (1.0 + psi) * (1.0 - psi), slack, ""


def _orlicz_row(u, form, rng):
    q = eval_Q(form, u)
    orl = luxemburg_norm(u)
    return q, orl, q / (orl * orl) if orl > 0 else math.nan, ""


# inequality -> (columns between "sample" and "note", row function, name of
# the least slack).  A row function maps a sampled bump (and the sampler,
# for rescaling draws) to those columns, the last one the slack, plus the
# note; a row with a note has no slack.  Orlicz's slack is Q/||u||_Lux^2.
AUDITS = {
    "onofri": (("lhs", "rhs", "slack"), _onofri_row, "min_slack"),
    "onofri-refined": (("lhs", "rhs", "slack"), _onofri_row, "min_slack"),
    "adimurthi-druet": (("psi", "scalar_slack", "J_slack"),
                        _adimurthi_druet_row, "min_slack"),
    "orlicz": (("Q", "luxemburg", "ratio"), _orlicz_row, "empirical_C"),
}


def cmd_audit(args, grid: RadialGrid) -> Output:
    form = parse_form(args.form)
    columns, row, least = AUDITS[args.ineq]
    rng = np.random.default_rng(args.seed)
    rows = [(i, *row(bump_profile(rng, grid), form, rng))
            for i in range(args.samples)]
    slacks = [r[3] for r in rows if not r[4] and not math.isnan(r[3])]
    summary = {least: min(slacks, default=math.nan),
               "violations": sum(1 for s in slacks if s < -args.slack_tol)}
    return Output(" ".join(f"{k}={v}" for k, v in summary.items()),
                  ("sample", *columns, "note"), rows, summary,
                  code=1 if summary["violations"] else 0)


def cmd_rearrange(args, grid: RadialGrid) -> Output:
    u = _load_profile(args.u, grid)
    vals = np.abs(u.values)
    out = rearrange_decreasing(
        RadialFunction(u.grid, vals, dirichlet=u.dirichlet),
        MEASURES[args.measure])
    return Output(f"rearranged {len(u.grid)}-node profile onto "
                  f"{len(out.grid)} nodes ({args.measure})", ("r", "value"),
                  list(zip(out.grid.nodes.tolist(), out.values.tolist())))


def cmd_lambda(args, grid: RadialGrid) -> Output:
    if args.which == "1":
        if args.p is not None or args.seed is not None:
            raise InvalidInputError("lambda --which 1 takes no --p or --seed")
        value, _ = estimate_lambda_1(grid)
        return _record({"lambda_1": value})
    # Filled in here, so the config echo records the values used.
    if args.p is None:
        args.p = 4.0
    if args.seed is None:
        args.seed = 0
    est = estimate_lambda_p(args.p, grid, seed=args.seed)
    return _record({"lambda_p": est.value, "p": args.p, "spread": est.spread})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def int_range(lo: int, hi: float) -> Callable[[str], int]:
    """Flag type: an int in lo..hi (hi may be math.inf)."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in {lo}..{hi}")
        return value
    return integer


def nonneg_float(text: str) -> float:
    """Flag type: a finite float >= 0."""
    value = finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


class Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace, RadialGrid], Output]
    flags: tuple  # (flag, add_argument keywords) pairs the run function reads


COMMON_FLAGS = (
    ("--grid-n", {"type": int, "default": DEFAULT_N}),
    ("--out", {"default": None}),
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
)
_FORM = ("--form", {"default": "none"})
_COEFF = ("--coeff", {"type": finite_float, "default": FOUR_PI})
_SEED = ("--seed", {"type": int_range(0, math.inf), "default": 0})

COMMANDS = {
    "eval": Command("evaluate functionals of a profile", cmd_eval, (
        ("--u", {"required": True, "help": "zero | moser:<k> | file:<csv>"}),
        _FORM, _COEFF)),
    "groundstate": Command("shooting + stretch + verdict", cmd_groundstate, (
        ("--potential", {"required": True}),)),
    "probe": Command("trial-family supremum sweep", cmd_probe, (
        ("--form", {"required": True}),
        ("--family", {"choices": ("moser", "gsapprox"), "default": "moser",
                      "help": "gsapprox needs a potential form"}),
        _COEFF,
        # k = 2^1 .. 2^kmax_pow, and 2^1023 is the largest finite power
        # of two in a double; the default is the ladder of both families.
        ("--kmax-pow", {"type": int_range(1, sys.float_info.max_exp - 1),
                        "default": len(K_LADDER)}))),
    "audit": Command("randomized inequality audit", cmd_audit, (
        ("--ineq", {"required": True, "choices": tuple(AUDITS)}),
        _FORM,
        ("--samples", {"type": int_range(1, math.inf), "default": 100}),
        ("--slack-tol", {"type": nonneg_float, "default": 1e-8}),
        _SEED)),
    "rearrange": Command("decreasing rearrangement of a profile", cmd_rearrange, (
        ("--u", {"required": True}),
        ("--measure", {"choices": tuple(MEASURES),
                       "default": "hyperbolic"}))),
    "lambda": Command("eigenvalue / L^p constant estimates", cmd_lambda, (
        ("--which", {"choices": ("1", "p"), "default": "1"}),
        # --which p only; the defaults 4 and 0 are filled in by cmd_lambda.
        ("--p", {"type": finite_float, "default": None}),
        ("--seed", {"type": int_range(0, math.inf), "default": None}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The `tm-lab` parser."""
    # No --conf: main reads the file first, so it would go unread.
    top = argparse.ArgumentParser(prog="tm-lab", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter,
                                  allow_abbrev=False)
    top.add_argument("--config", help="JSON file with defaults; flags override")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, spec in COMMON_FLAGS + command.flags:
            p.add_argument(flag, **spec)
    return top


# The --config path, the command and the tokens after it, read ahead of
# the full parse: the file's flags go in between the last two.
_PRE_PARSER = argparse.ArgumentParser(prog="tm-lab", add_help=False,
                                      allow_abbrev=False)
_PRE_PARSER.add_argument("--config")
_PRE_PARSER.add_argument("command", nargs="?")
_PRE_PARSER.add_argument("rest", nargs=argparse.REMAINDER)


def _config_argv(path: str, command: str) -> list[str]:
    """The config file's values for `command` as `--flag=value` tokens,
    which argparse types and checks as it does the command line."""
    with open(path) as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"config {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise InvalidInputError(f"config {path}: top level must be "
                                "a JSON object")
    flags = {flag for flag, _ in COMMON_FLAGS + COMMANDS[command].flags}
    unknown = {k for k in values if f"--{k.replace('_', '-')}" not in flags}
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    for key, val in values.items():
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise InvalidInputError(f"config {key}: {val!r} is not a "
                                    "flag value")
    # The `=` form keeps a value such as "-x" from reading as a flag.
    return [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # The file's flags go right after the command, so every flag
        # given on the command line comes later and wins.
        pre, _ = _PRE_PARSER.parse_known_args(argv)
        if pre.config and pre.command in COMMANDS:
            at = len(argv) - len(pre.rest)
            argv[at:at] = _config_argv(pre.config, pre.command)
        args = build_parser().parse_args(argv)
        if args.out is None:
            args.out = f"tmlab_{args.command}.{args.format}"
        grid = RadialGrid.default(args.grid_n)
        return _emit(args, COMMANDS[args.command].run(args, grid))
    except SystemExit as exc:  # argparse: usage error, or 0 after --help
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (TmLabError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except Exception:
        # A defect is no verdict: exit 3, never 1 ("violation found").
        traceback.print_exc(file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
