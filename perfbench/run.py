"""tmlab benchmark: one client, one operation at a time (closed loop).

    python3 perfbench/run.py --workload {quick,heavy,scan} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; `tmlab` is imported from ./src.  The run
sets up the workload SETUPS times in fresh interpreters (`setup_s` is the
median), then repeats passes over the workload's operations while one more
pass fits in S seconds, checking every operation's output (oracle.py);
`attempted` is the number of operations in a pass, `failed` the number
that failed in any pass.
With --trace 0 the last stdout line carries the end-to-end metrics (an
operation's time is its median over the passes; the run's time sums
those medians); with --trace 1, untraced and traced passes
alternate and it carries the per-layer metrics of the traced passes and
the tracing overhead.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import oracle
import tracing
from workloads import GRID_N, WORKLOADS, cli_ops, out_path

HERE = Path(__file__).resolve().parent
SETUPS = 3
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]
# One client, no extra threads: BLAS pools would only spin on the 4096-long
# vectors tmlab works with, adding CPU time and noise, not speed.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
KINDS = ("eval", "groundstate", "probe", "audit", "rearrange", "lambda",
         "maximize")


def median(values):
    return statistics.median(values) if values else 0.0


def wait_timed(cmd, cwd, env, stdout_path):
    """Run cmd; return (wall s, exit code, child rusage)."""
    with open(stdout_path, "wb") as out, \
            open(str(stdout_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, ru


def read_profile_csv(path):
    """(r, value) arrays of a profile CSV, '#' lines and header skipped."""
    with open(path) as fh:
        rows = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    data = np.array([[float(x) for x in ln.split(",")[:2]]
                     for ln in rows[1:]])
    return data[:, 0], data[:, 1]


def provenance(root: Path, args) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "tmlab").glob("*.py")):
        digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "grid_n": GRID_N, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def cli_pass(ops, work, env, traced, index, refs):
    """One pass over the CLI operations; returns the pass record."""
    rec = {"traced": traced, "wall": 0.0, "rss_mb": 0.0, "ops": [],
           "failures": [], "spans": [], "out_bytes": 0}
    for op in ops:
        op_id = f"p{index}.{op['name']}"
        stdout_path = work / f"{op['name']}.stdout"
        if traced:
            spans = work / f"spans_{op_id}.json"
            rec["spans"].append(spans)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans),
                   op_id, "--", *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "tmlab.cli", *op["argv"]]
        wall, rc, ru = wait_timed(cmd, work, env, stdout_path)
        rec["wall"] += wall
        rec["rss_mb"] = max(rec["rss_mb"], ru.ru_maxrss / 1024.0)
        rec["ops"].append({"kind": op["kind"], "wall": wall,
                           "cpu": ru.ru_utime + ru.ru_stime})
        stdout = stdout_path.read_bytes()
        out_file = work / out_path(op["argv"])
        rec["out_bytes"] += len(stdout) + (out_file.stat().st_size
                                           if out_file.exists() else 0)
        files = {}
        if op["name"] == "rearrange" and rc == 0:
            files = {"profile_in": read_profile_csv(work / "nonneg.csv"),
                     "profile_out": read_profile_csv(out_file)}
        why = oracle.check_cli(op, rc, stdout.decode(), files,
                               refs.get(op["name"]))
        if why:
            rec["failures"].append({"op": op_id, "key": op["name"],
                                    "why": why, "known": False})
    return rec


def run_cli(args, work, env, refs):
    ops = cli_ops(args.workload, args.seed)
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(cli_pass(ops, work, env, traced, len(passes), refs))
        # Stop when a pass as long as the last one would overrun.
        if time.perf_counter() - start + passes[-1]["wall"] > args.seconds \
                and (not args.trace or len(passes) >= 2):
            return passes


def run_scan(args, work, env, refs):
    result = work / "scan_result.json"
    _, rc, _ = wait_timed(
        [sys.executable, str(HERE / "scan_worker.py"), str(result),
         str(args.seconds), str(args.trace)], work, env,
        work / "scan_worker.stdout")
    if rc != 0:
        raise RuntimeError(f"scan worker exited {rc}; see "
                           f"{work / 'scan_worker.stdout.err'}")
    with open(result) as fh:
        passes = json.load(fh)["passes"]
    plan = json.loads((work / "plan.json").read_text())
    for index, rec in enumerate(passes):
        rec["failures"] = []
        rec["spans"] = [work / rec["spans"]] if rec.get("spans") else []
        rec["out_bytes"] = 0
        for op in rec["ops"]:
            key = f"{op['kind']}.{op.get('entry', '')}"
            op_id = f"p{index}.{key}"
            if op["kind"] == "maximize":
                why = oracle.check_maximizer(rec["maximizer"])
                known = False
            else:
                entry = plan[op["entry"]]
                why = oracle.check_scan(entry, op["kind"], op["got"])
                known = bool(why) and oracle.known_failure(
                    entry, op["kind"], op["got"])
                ref = refs.get(str(op["entry"]))
                if op["kind"] == "groundstate" and ref is not None:
                    got = {} if op["phi_at_1"] is None else \
                        {"phi_at_1": op["phi_at_1"]}
                    off = oracle.compare_reference(got, ref)
                    known = known and not off
                    why += off
            if why:
                rec["failures"].append({"op": op_id, "key": key, "why": why,
                                        "known": known})
    return passes


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------

def traced_metrics(passes, workload):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    overhead = median([p["wall"] for p in traced]) - \
        median([p["wall"] for p in plain])
    per_pass = []
    for p in traced:
        lists = []
        for path in p["spans"]:
            with open(path) as fh:
                lists.append(json.load(fh))
        per_pass.append(tracing.layer_metrics(
            lists, {"cli.out_bytes": p["out_bytes"],
                    "trace.overhead_s": overhead}))
    metrics = {name: median([m[name] for m in per_pass])
               for name, _ in tracing.LAYER_METRICS}
    zero = [n for n in tracing.EXPECTED_NONZERO[workload] if not metrics[n]]
    return metrics, zero


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tmlab" / "cli.py").is_file():
        print(f"error: no tmlab package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])),
               **SINGLE_THREADED)
    work = root / ".perfbench_runs" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = json.loads((HERE / "reference.json").read_text()) \
        .get(args.workload, {}).get(str(args.seed))

    setup = []
    for _ in range(SETUPS):
        wall, rc, _ = wait_timed(
            [sys.executable, str(HERE / "setup_child.py"), args.workload,
             str(args.seed), str(work)], root, env, work / "setup.stdout")
        if rc != 0:
            print(f"error: set-up exited {rc}; see {work}/setup.stdout.err",
                  file=sys.stderr)
            return 1
        setup.append(wall)

    runner = run_scan if args.workload == "scan" else run_cli
    passes = runner(args, work, env, refs or {})
    plain = [p for p in passes if not p["traced"]]
    # Every pass runs the same operations on the same inputs, so an
    # operation is attempted once per run however many passes fit: it fails
    # when any of its passes fails its check.  The counts then depend on
    # the workload and seed only, not on the machine's speed.
    attempted = len(passes[0]["ops"])
    failures = [f for p in passes for f in p["failures"]]
    unexpected = [f for f in failures if not f["known"]]
    failed_ops = {f["key"] for f in failures}

    # Each operation's time is its median over the untraced passes; the
    # run's times are sums of those medians.
    wall = [median([p["ops"][j]["wall"] for p in plain])
            for j in range(len(plain[0]["ops"]))]
    cpu = [median([p["ops"][j]["cpu"] for p in plain])
           for j in range(len(plain[0]["ops"]))]
    op_kinds = [op["kind"] for op in plain[0]["ops"]]
    e2e = {"setup_s": median(setup), "wall_s": sum(wall), "cpu_s": sum(cpu),
           "peak_rss_mb": median([p["rss_mb"] for p in plain])}
    kinds = {f"{k}_s": sum(w for w, kk in zip(wall, op_kinds) if kk == k)
             for k in KINDS if k in op_kinds}
    prov = provenance(root, args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"  passes={len(passes)} (traced {len(passes) - len(plain)}) "
          f"setups={SETUPS} reference="
          f"{'seed ' + str(args.seed) if refs else 'none for this seed'}")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:12.6g} {unit}")
    for name, value in kinds.items():
        print(f"  {name:<14} {value:12.6g} s")
    print(f"  {'failed_frac':<14} {len(failed_ops) / attempted:12.6g} "
          f"({len(failed_ops)}/{attempted} operations; "
          f"{len({f['key'] for f in unexpected})} not known)")
    for f in failures:
        print(f"  FAILED{' (known)' if f['known'] else ''} {f['op']}: "
              + "; ".join(f["why"]))

    if args.trace:
        metrics, zero = traced_metrics(passes, args.workload)
        units = dict(tracing.LAYER_METRICS)
        for name, value in metrics.items():
            print(f"  {name:<42} {value:12.6g} {units[name]}")
        if zero:
            print("error: traced metrics predicted nonzero read 0: "
                  + ", ".join(zero), file=sys.stderr)
            return 1
        report = {n: {"value": metrics[n], "unit": u}
                  for n, u in tracing.LAYER_METRICS}
    else:
        report = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    record = {"provenance": prov, "setup_s": setup, "end_to_end": e2e,
              "kinds": kinds, "failures": failures, "attempted": attempted,
              "metrics": report,
              "passes": [{"traced": p["traced"], "wall": p["wall"],
                          "op_walls": [op["wall"] for op in p["ops"]],
                          "op_cpus": [op["cpu"] for op in p["ops"]]}
                         for p in passes]}
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
