"""The `scan` workload: the c05 pipeline as a library campaign in one process.

    python perfbench/scan_worker.py RESULT_JSON SECONDS TRACE   (cwd: work dir)

Reads plan.json (written at set-up) and repeats passes while one more
pass fits in SECONDS.  A pass classifies every planned potential
(classify_coercivity), probes its supremum with the Moser family, or the
ground-state family after GroundStateDetected (probe_supremum), then runs
maximize_J_constrained(NoRemainder(), default grid).  With TRACE=1,
untraced and traced passes alternate.  Calls go through the tmlab module
attributes so that the tracer's rebinding sees them.
"""

import json
import math
import resource
import sys
import time

import tmlab.forms as forms
import tmlab.groundstate as groundstate
import tmlab.potentials as potentials
import tmlab.probe as probe
import tmlab.radial as radial

from oracle import maximizer_facts
from tracing import Tracer

clock = time.perf_counter


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def best_moser_value(grid) -> float:
    """Largest J over the probe's Moser family at Q = 1, no remainder."""
    form = forms.NoRemainder()
    best = -math.inf
    for m in range(1, 15):
        u = probe.moser_function(grid, 2 ** m)
        q = forms.eval_Q(form, u)
        best = max(best, forms.eval_J(u.scaled(1.0 / math.sqrt(q))))
    return best


def timed(fn, *args):
    """(fn(*args), wall s, CPU s) of one operation."""
    cpu0, t0 = cpu_seconds(), clock()
    out = fn(*args)
    return out, clock() - t0, cpu_seconds() - cpu0


def probe_entry(pot, verdict, grid):
    if verdict.classification == groundstate.GROUND_STATE:
        family = probe.ground_state_family(verdict.result)
    else:
        family = probe.moser_family(grid)
    return probe.probe_supremum(forms.PotentialRemainder(pot), family)


def run_pass(plan, tracer):
    def label(op):
        if tracer is not None:
            tracer.op = op

    ops = []
    t0 = clock()
    grid = radial.RadialGrid.default()
    for i, entry in enumerate(plan):
        label(f"{i}.groundstate")
        pot = potentials.parse_potential(entry["spec"])
        verdict, wall, cpu = timed(groundstate.classify_coercivity, pot, grid)
        ops.append({"kind": "groundstate", "entry": i, "wall": wall,
                    "cpu": cpu, "got": verdict.classification,
                    "phi_at_1": (verdict.result.phi_at_1
                                 if verdict.result is not None else None)})
        label(f"{i}.probe")
        report, wall, cpu = timed(probe_entry, pot, verdict, grid)
        ops.append({"kind": "probe", "entry": i, "wall": wall, "cpu": cpu,
                    "got": report.verdict})
    label("maximize")
    result, wall, cpu = timed(probe.maximize_J_constrained,
                              forms.NoRemainder(), grid)
    ops.append({"kind": "maximize", "wall": wall, "cpu": cpu})
    return {"wall": clock() - t0, "ops": ops}, result, grid


def main() -> int:
    result_path, seconds, trace = sys.argv[1], float(sys.argv[2]), \
        sys.argv[3] == "1"
    with open("plan.json") as fh:
        plan = json.load(fh)
    moser_best = best_moser_value(radial.RadialGrid.default())
    tracer = Tracer() if trace else None
    passes = []
    start = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            rec, result, grid = run_pass(plan, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        rec["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec["maximizer"] = maximizer_facts(result, grid, forms.NoRemainder(),
                                           moser_best)
        if traced:
            rec["spans"] = f"spans_scan_{len(passes)}.json"
            tracer.dump(rec["spans"])
        passes.append(rec)
        # Stop when a pass as long as the last one would overrun.
        if clock() - start + rec["wall"] > seconds and \
                (not trace or len(passes) >= 2):
            break
    with open(result_path, "w") as fh:
        json.dump({"passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
