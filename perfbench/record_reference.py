"""Record the reference numbers in reference.json for the given seeds.

    python3 perfbench/record_reference.py 0 1 2 ...    (from the repo root)

Runs each workload's operations once per seed, untraced, and stores the
seed-dependent numbers the checker compares (oracle.reference_numbers;
phi(1) of each scan potential).  The shipped file was recorded at the
seed commit of this benchmark; re-recording it replaces the baseline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import run
from oracle import reference_numbers
from workloads import cli_ops


def setup(workload, seed, work, env):
    work.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(run.HERE / "setup_child.py"),
                    workload, str(seed), str(work)], env=env, check=True)


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **run.SINGLE_THREADED)
    from tmlab.groundstate import classify_coercivity
    from tmlab.potentials import parse_potential
    from tmlab.radial import RadialGrid

    path = run.HERE / "reference.json"
    refs = json.loads(path.read_text())
    for seed in seeds:
        for workload in ("quick", "heavy"):
            work = root / ".perfbench_runs" / f"reference-{workload}-{seed}"
            setup(workload, seed, work, env)
            ops = cli_ops(workload, seed)
            run.cli_pass(ops, work, env, False, 0, {})
            refs.setdefault(workload, {})[str(seed)] = {
                op["name"]: reference_numbers(
                    op, (work / f"{op['name']}.stdout").read_text())
                for op in ops if op["kind"] in ("eval", "audit", "lambda")}
        work = root / ".perfbench_runs" / f"reference-scan-{seed}"
        setup("scan", seed, work, env)
        plan = json.loads((work / "plan.json").read_text())
        grid = RadialGrid.default()
        os.chdir(work)
        scan = {}
        for i, entry in enumerate(plan):
            verdict = classify_coercivity(parse_potential(entry["spec"]), grid)
            if verdict.result is not None:
                scan[str(i)] = {"phi_at_1": verdict.result.phi_at_1}
        os.chdir(root)
        refs.setdefault("scan", {})[str(seed)] = scan
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
