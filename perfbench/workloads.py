"""Workload definitions: the operations of one pass and the inputs they read.

A workload is a fixed list of operations run one at a time by a single
client (closed loop).  `quick` and `heavy` operations are fresh
`python -m tmlab.cli ...` processes; `scan` is a library campaign run by
`scan_worker.py` in one process.  Every seed-dependent input is derived
from the workload seed here or in `setup_child.py`.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("quick", "heavy", "scan")

# j_{0,1}^2: the first Dirichlet eigenvalue of the unit disk.
LAMBDA_1 = 2.404825557695773 ** 2
GRID_N = 4096  # the CLI and library default grid size


def cli_ops(workload: str, seed: int) -> list[dict]:
    """The CLI operations of one pass, in order.

    `name` identifies the operation in references and reports, `kind` is
    the subcommand (it selects the `<kind>_s` metric), `argv` follows
    `tm-lab`.  Paths are relative to the run's work directory.
    """
    s = str(seed)
    if workload == "quick":
        ops = [
            ("eval_moser", ["eval", "--u", "moser:8", "--form", "constant:2.0",
                            "--out", "vals.csv"]),
            ("eval_file", ["eval", "--u", "file:profile.csv", "--form",
                           "gamma:0.5", "--format", "json", "--out",
                           "vals.json"]),
            ("groundstate_leray", ["groundstate", "--potential", "leray",
                                   "--out", "gs.csv"]),
            ("probe_none", ["probe", "--form", "none", "--family", "moser",
                            "--out", "probe.json", "--format", "json"]),
            ("probe_leray_gs", ["probe", "--form", "potential:leray",
                                "--family", "gsapprox", "--out",
                                "probe_gs.json"]),
            ("probe_lp", ["probe", "--form", "lp:1.0:4", "--family", "moser",
                          "--out", "probe.csv"]),
            ("audit_onofri", ["audit", "--ineq", "onofri", "--form", "none",
                              "--samples", "100", "--seed", s, "--out",
                              "audit_onofri.csv"]),
            ("audit_refined_wangye", ["audit", "--ineq", "onofri-refined",
                                      "--form", "wangye", "--samples", "100",
                                      "--seed", s, "--out",
                                      "audit_refined.csv"]),
            ("audit_ad", ["audit", "--ineq", "adimurthi-druet", "--form",
                          "gamma:0.5", "--samples", "100", "--seed", s,
                          "--out", "audit_ad.csv"]),
            ("lambda_1", ["lambda", "--which", "1", "--out", "l1.csv"]),
            # The c08 counterexample: the refined Onofri bound is false,
            # so this audit may exit 1 (it does at seed 0).
            ("audit_refined_gamma", ["audit", "--ineq", "onofri-refined",
                                     "--form", "gamma:0.5", "--samples",
                                     "100", "--seed", s, "--out",
                                     "audit_c08.csv"]),
        ]
    elif workload == "heavy":
        ops = [
            ("audit_orlicz", ["audit", "--ineq", "orlicz", "--form", "wangye",
                              "--samples", "200", "--seed", s, "--out",
                              "orlicz.csv"]),
            ("rearrange", ["rearrange", "--u", "file:nonneg.csv", "--measure",
                           "hyperbolic", "--out", "sharp.csv"]),
            ("lambda_p", ["lambda", "--which", "p", "--p", "4", "--seed", s,
                          "--out", "l4.csv"]),
        ]
    else:
        raise ValueError(f"{workload!r} has no CLI operations")
    return [{"name": n, "kind": argv[0], "argv": argv} for n, argv in ops]


def out_path(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


def scan_plan(seed: int) -> list[dict]:
    """The potentials of the scan campaign, jittered by the seed.

    One constant per stratum lambda_1 * (0.1 k +- 0.03), k = 1..9 and
    11..20 (none within 7% of lambda_1, where the verdict flips), one
    gamma:g per log-uniform stratum of [0.1, 8], then leray, wangye and a
    tabulated copy of gamma:0.5.
    """
    rng = np.random.default_rng([seed, 1])
    plan = []
    for k in [*range(1, 10), *range(11, 21)]:
        ratio = 0.1 * k + rng.uniform(-0.03, 0.03)
        plan.append({"spec": f"constant:{LAMBDA_1 * ratio!r}",
                     "family": "constant", "param": ratio})
    edges = np.linspace(math.log(0.1), math.log(8.0), 13)
    for lo, hi in zip(edges[:-1], edges[1:]):
        g = math.exp(rng.uniform(lo, hi))
        plan.append({"spec": f"gamma:{g!r}", "family": "gamma", "param": g})
    plan.append({"spec": "leray", "family": "leray", "param": None})
    plan.append({"spec": "wangye", "family": "wangye", "param": None})
    plan.append({"spec": "tabulated:tabulated_gamma05.csv",
                 "family": "tabulated", "param": 0.5})
    return plan
