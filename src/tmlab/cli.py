"""Command-line front end.

Commands
--------
eval         functional values (Q, J, Onofri sides, Luxemburg norm) of a profile
groundstate  shooting analysis of a potential: phi, stretch table, verdict
probe        trial-family sweep of the constrained exponential supremum
audit        randomized inequality audits with per-sample slack records
rearrange    decreasing rearrangement of a profile CSV
lambda       Rayleigh-quotient estimates (first eigenvalue / L^p constant)

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

import numpy as np

from . import __version__
from .errors import InvalidInputError, SingularEvaluationError, TmLabError
from .forms import (FOUR_PI, eval_J, eval_Q, luxemburg_norm, onofri_lhs,
                    onofri_rhs, parse_form)
from .groundstate import GroundStateConfig, classify_coercivity
from .potentials import parse_potential
from .probe import (ProbeConfig, estimate_lambda_1, estimate_lambda_p,
                    ground_state_family, moser_family, moser_function,
                    probe_supremum)
from .radial import RadialFunction, RadialGrid
from .rearrange import euclidean_measure, hyperbolic_measure, rearrange_decreasing
from .sampling import bump_profile

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _provenance(args: argparse.Namespace) -> dict:
    # The echo describes the computation, not the destination: the output
    # path is excluded so reruns into different files stay byte-identical.
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out") and v is not None}
    return {"tool": "tm-lab", "version": __version__, "config": cfg}


def _write_csv(path, header_cols, rows, meta: dict, footer: dict | None = None):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# tool=tm-lab version={__version__}\n")
        fh.write("# config=" + json.dumps(meta["config"], sort_keys=True) + "\n")
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
        for key, val in (footer or {}).items():
            fh.write(f"# {key}={_fmt(val) if isinstance(val, float) else val}\n")


def _write_json(path, data, meta: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump({"meta": meta, "data": data}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_profile(spec: str, grid: RadialGrid) -> RadialFunction:
    head, _, arg = spec.strip().partition(":")
    if head == "zero":
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

def cmd_eval(args) -> int:
    grid = RadialGrid.default(args.grid_n)
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
    meta = _provenance(args)
    if args.format == "json":
        _write_json(args.out, {k: (_fmt(v) if math.isinf(v) else v)
                               for k, v in values.items()}, meta)
    else:
        _write_csv(args.out, list(values), [tuple(values.values())], meta)
    print(" ".join(f"{k}={_fmt(v)}" for k, v in values.items()))
    return 0


def cmd_groundstate(args) -> int:
    grid = RadialGrid.default(args.grid_n)
    pot = parse_potential(args.potential)
    cfg = GroundStateConfig()
    if args.delta_phi is not None:
        cfg.delta_phi = args.delta_phi
    verdict = classify_coercivity(pot, grid, cfg)
    meta = _provenance(args)
    if verdict.result is not None:
        gs = verdict.result
        rows = zip(grid.nodes.tolist(), gs.phi.values.tolist(),
                   gs.s_table.values.tolist())
        footer = {
            "phi_at_1": gs.phi_at_1,
            "s_at_1": gs.s_at_1,
            "classification": verdict.classification,
            "kato_ok": gs.kato_ok,
            "gamma_fit": gs.gamma_fit,
        }
        _write_csv(args.out, ["r", "phi", "s"],
                   [(float(r), float(p), float(s)) for r, p, s in rows],
                   meta, footer)
    else:
        _write_csv(args.out, ["r", "phi", "s"], [], meta,
                   {"classification": verdict.classification,
                    "detail": verdict.detail})
    print(f"classification={verdict.classification} ({verdict.detail})")
    return 0


def cmd_probe(args) -> int:
    grid = RadialGrid.default(args.grid_n)
    form = parse_form(args.form)
    cfg = ProbeConfig(exponent_coeff=args.coeff)
    if args.family == "moser":
        ks = [2 ** m for m in range(1, args.kmax_pow + 1)]
        family = moser_family(grid, ks)
    elif args.family == "gsapprox":
        pot = parse_potential(args.potential if args.potential
                              else args.form.removeprefix("potential:"))
        res = classify_coercivity(pot, grid)
        if res.result is None:
            print(f"verdict=Divergent (indefinite form: {res.detail})")
            _write_json(args.out, {"verdict": "Divergent",
                                   "detail": res.detail}, _provenance(args))
            return 0
        family = ground_state_family(res.result)
    else:
        raise InvalidInputError(f"unknown family {args.family!r}")
    report = probe_supremum(form, family, cfg)
    meta = _provenance(args)
    if args.format == "json":
        _write_json(args.out, report.to_json_dict(), meta)
    else:
        _write_csv(args.out, report.CSV_HEADER, report.csv_rows(), meta,
                   {"verdict": report.verdict})
    print(f"verdict={report.verdict}")
    return 0


def _audit_rows(args, grid, form):
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = math.inf
    for i in range(args.samples):
        u = bump_profile(rng, grid)
        if args.ineq in ("onofri", "onofri-refined"):
            lhs = onofri_lhs(u)
            rhs = onofri_rhs(u, form)
            slack = rhs - lhs
            rows.append((i, lhs, rhs, slack, ""))
        elif args.ineq == "adimurthi-druet":
            from .radial import gradient_norm_sq
            gn = math.sqrt(gradient_norm_sq(u))
            u = u.scaled(rng.uniform(0.2, 1.0) / gn)
            psi = form.psi(u)
            if not 0.0 < psi < 1.0:
                rows.append((i, psi, math.nan, math.nan, "psi-outside-(0,1)"))
                continue
            j_lo = eval_J(u, FOUR_PI * (1.0 + psi))
            j_hi = eval_J(u, FOUR_PI / (1.0 - psi))
            if math.isinf(j_hi):
                slack = math.inf if not math.isinf(j_lo) else 0.0
            else:
                slack = j_hi - j_lo
            rows.append((i, psi, 1.0 - (1.0 + psi) * (1.0 - psi),
                         slack, ""))
        elif args.ineq == "orlicz":
            q = eval_Q(form, u)
            orl = luxemburg_norm(u)
            ratio = q / (orl * orl) if orl > 0 else math.nan
            rows.append((i, q, orl, ratio, ""))
            if not math.isnan(ratio):
                worst = min(worst, ratio)
            continue
        else:
            raise InvalidInputError(f"unknown inequality {args.ineq!r}")
    return rows, worst


def cmd_audit(args) -> int:
    grid = RadialGrid.default(args.grid_n)
    form = parse_form(args.form)
    rows, worst = _audit_rows(args, grid, form)
    slacks = [r[3] for r in rows if not r[4] and not math.isnan(r[3])]
    if args.ineq == "orlicz":
        violations = sum(1 for s in slacks if s <= 0.0)
        summary = {"empirical_C": worst, "violations": violations}
    else:
        violations = sum(1 for s in slacks if s < -args.slack_tol)
        summary = {"min_slack": min(slacks) if slacks else math.nan,
                   "violations": violations}
    meta = _provenance(args)
    header = {"onofri": ("sample", "lhs", "rhs", "slack", "note"),
              "onofri-refined": ("sample", "lhs", "rhs", "slack", "note"),
              "adimurthi-druet": ("sample", "psi", "scalar_slack", "J_slack",
                                  "note"),
              "orlicz": ("sample", "Q", "luxemburg", "ratio", "note")}[args.ineq]
    if args.format == "json":
        _write_json(args.out, {"rows": [
            {header[j]: (None if isinstance(v, float) and math.isnan(v)
                         else ("inf" if isinstance(v, float) and math.isinf(v)
                               else v))
             for j, v in enumerate(r)} for r in rows], **summary}, meta)
    else:
        _write_csv(args.out, list(header), rows, meta,
                   {k: float(v) for k, v in summary.items()})
    print(" ".join(f"{k}={v}" for k, v in summary.items()))
    return 1 if violations else 0


def cmd_rearrange(args) -> int:
    grid = RadialGrid.default(args.grid_n)
    u = _load_profile(args.u, grid)
    measure = (hyperbolic_measure() if args.measure == "hyperbolic"
               else euclidean_measure())
    vals = np.abs(u.values)
    vals[-1] = 0.0 if u.dirichlet else vals[-1]
    out = rearrange_decreasing(
        RadialFunction(u.grid, vals, dirichlet=u.dirichlet), measure)
    meta = _provenance(args)
    _write_csv(args.out, ["r", "value"],
               list(zip(out.grid.nodes.tolist(), out.values.tolist())), meta)
    print(f"rearranged {len(u.grid)}-node profile onto "
          f"{len(out.grid)} nodes ({args.measure})")
    return 0


def cmd_lambda(args) -> int:
    grid = RadialGrid.default(args.grid_n)
    meta = _provenance(args)
    if args.which == "1":
        value, _ = estimate_lambda_1(grid)
        data = {"lambda_1": value}
    else:
        est = estimate_lambda_p(args.p, grid, seed=args.seed)
        data = {"lambda_p": est.value, "p": args.p, "spread": est.spread}
    if args.format == "json":
        _write_json(args.out, data, meta)
    else:
        _write_csv(args.out, list(data), [tuple(data.values())], meta)
    print(" ".join(f"{k}={_fmt(float(v))}" for k, v in data.items()))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """Flag type: a float other than nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def positive_int(text: str) -> int:
    """Flag type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not positive")
    return value


def nonneg_int(text: str) -> int:
    """Flag type: an int >= 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tm-lab", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="JSON file with defaults; flags override")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--grid-n", type=int, default=4096, dest="grid_n")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=nonneg_int, default=0)

    p = sub.add_parser("eval", help="evaluate functionals of a profile")
    common(p)
    p.add_argument("--u", required=True, help="zero | moser:<k> | file:<csv>")
    p.add_argument("--form", default="none")
    p.add_argument("--coeff", type=finite_float, default=FOUR_PI)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("groundstate", help="shooting + stretch + verdict")
    common(p)
    p.add_argument("--potential", required=True)
    p.add_argument("--delta-phi", type=finite_float, default=None,
                   dest="delta_phi")
    p.set_defaults(func=cmd_groundstate)

    p = sub.add_parser("probe", help="trial-family supremum sweep")
    common(p)
    p.add_argument("--form", required=True)
    p.add_argument("--family", choices=("moser", "gsapprox"), default="moser")
    p.add_argument("--potential", default=None,
                   help="potential for gsapprox (defaults to the form's)")
    p.add_argument("--coeff", type=finite_float, default=FOUR_PI)
    p.add_argument("--kmax-pow", type=positive_int, default=14,
                   dest="kmax_pow")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("audit", help="randomized inequality audit")
    common(p)
    p.add_argument("--ineq", required=True,
                   choices=("onofri", "onofri-refined", "adimurthi-druet",
                            "orlicz"))
    p.add_argument("--form", default="none")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--slack-tol", type=finite_float, default=1e-8,
                   dest="slack_tol")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("rearrange", help="decreasing rearrangement of a profile")
    common(p)
    p.add_argument("--u", required=True)
    p.add_argument("--measure", choices=("hyperbolic", "euclidean"),
                   default="hyperbolic")
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("lambda", help="eigenvalue / L^p constant estimates")
    common(p)
    p.add_argument("--which", choices=("1", "p"), default="1")
    p.add_argument("--p", type=finite_float, default=4.0)
    p.set_defaults(func=cmd_lambda)
    return top


def _flag_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The options a config file may set for `command`, by destination."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"}


def _config_value(action: argparse.Action, key: str, val):
    # A config value is typed like the same text after the flag, so it is
    # accepted exactly when the command line would accept it.
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise InvalidInputError(f"config {key}: {val!r} is not a flag value")
    try:
        typed = action.type(str(val)) if action.type else str(val)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"config {key}: invalid value {val!r}") from exc
    if action.choices is not None and typed not in action.choices:
        raise InvalidInputError(f"config {key}: {val!r} is not one of "
                                f"{list(action.choices)}")
    return typed


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                       argv) -> argparse.Namespace:
    if not args.config:
        return args
    with open(args.config) as fh:
        try:
            defaults = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"config {args.config}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise InvalidInputError(f"config {args.config}: top level must be "
                                "a JSON object")
    actions = _flag_actions(parser, args.command)
    unknown = {k for k in defaults if k.replace("-", "_") not in actions}
    if unknown:
        raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    # Flags explicitly present on the command line override the file.
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_")
                for a in argv if a.startswith("--")}
    for key, val in defaults.items():
        attr = key.replace("-", "_")
        if attr not in explicit:
            setattr(args, attr, _config_value(actions[attr], key, val))
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        args = _apply_config_file(args, parser, argv)
        if args.out is None:
            args.out = f"tmlab_{args.command}.{args.format}"
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SingularEvaluationError, TmLabError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except Exception:
        # A defect is no verdict: exit 3, never 1 ("violation found").
        traceback.print_exc(file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
