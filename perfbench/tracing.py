"""Spans around the calls into each `tmlab` module, and the layer metrics.

`Tracer.install()` wraps the public functions listed in LAYERS and
rebinds every name under which a `tmlab` module imported them, so calls
between modules are recorded too.  A span is [name, start, end, parent
index, operation id, exception name, note]; spans stay in memory until
the process writes them out.  Private kernels (`_pav_nonincreasing`,
`_tridiag_solve`) are not wrapped: their time is their caller's self
time, so replacing them deletes no span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute, note).  The attribute may be
# "Class.method"; a note reads a count off the call (see _NOTES).
LAYERS = [
    ("radial.gradient_norm_sq", "tmlab.radial", "gradient_norm_sq", None),
    ("radial.lp_norm", "tmlab.radial", "lp_norm", None),
    ("radial.integral_weighted", "tmlab.radial", "integral_weighted", None),
    ("radial.grid_default", "tmlab.radial", "RadialGrid.default", None),
    ("radial.csv_io", "tmlab.radial", "RadialFunction.to_csv", None),
    ("radial.csv_io", "tmlab.radial", "RadialFunction.from_csv", None),
    ("potentials.check_kato", "tmlab.potentials", "check_kato", None),
    ("forms.eval_J", "tmlab.forms", "eval_J", None),
    ("forms.eval_Q", "tmlab.forms", "eval_Q", None),
    ("forms.onofri_lhs", "tmlab.forms", "onofri_lhs", None),
    ("forms.orlicz_integral", "tmlab.forms", "orlicz_integral", None),
    ("forms.luxemburg_norm", "tmlab.forms", "luxemburg_norm", None),
    ("groundstate.shoot", "tmlab.groundstate", "shoot", None),
    ("groundstate.transform_s", "tmlab.groundstate", "transform_s", None),
    ("groundstate.classify_coercivity", "tmlab.groundstate",
     "classify_coercivity", None),
    ("rearrange.rearrange_decreasing", "tmlab.rearrange",
     "rearrange_decreasing", "out_nodes"),
    ("rearrange.distribution_function", "tmlab.rearrange",
     "distribution_function", "levels"),
    ("probe.probe_supremum", "tmlab.probe", "probe_supremum", None),
    ("probe.moser_function", "tmlab.probe", "moser_function", None),
    ("probe.estimate_lambda_1", "tmlab.probe", "estimate_lambda_1", None),
    ("probe.estimate_lambda_p", "tmlab.probe", "estimate_lambda_p", None),
    ("probe.maximize_J_constrained", "tmlab.probe", "maximize_J_constrained",
     "iterations"),
    ("sampling.bump_profile", "tmlab.sampling", "bump_profile", None),
    ("sampling.nonneg_profile", "tmlab.sampling", "nonneg_profile", None),
]
POTENTIAL_SPAN = "potentials.eval"  # every catalogue Potential.__call__

_NOTES = {
    "out_nodes": lambda args, kwargs, result: len(result.grid),
    "levels": lambda args, kwargs, result: len(
        args[2] if len(args) > 2 else kwargs["levels"]),
    "iterations": lambda args, kwargs, result: result.iterations,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str, fn, note=None):
        """`fn` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note_fn = _NOTES[note] if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note_fn is not None:
                rec[6] = note_fn(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function and rebind every tmlab name for it."""
        mods = [m for name, m in list(sys.modules.items())
                if name.startswith("tmlab.")]
        for name, modname, attr, note in LAYERS:
            mod = sys.modules.get(modname)
            if mod is None:  # never imported, so never called
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth,
                              classmethod(self.span(name, raw.__func__, note)))
                else:
                    self._set(cls, meth, self.span(name, raw, note))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(name, orig, note)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        from tmlab.potentials import Potential
        todo = list(Potential.__subclasses__())
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if "__call__" in cls.__dict__:
                self._set(cls, "__call__",
                          self.span(POTENTIAL_SPAN, cls.__dict__["__call__"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# layer metrics from spans
# ---------------------------------------------------------------------------

def _calls_and_self(*spans):
    return [m for name in spans
            for m in ((name + ".calls", "count"), (name + ".self_s", "s"))]


# (metric name, unit) in report order: the per_layer list of BENCHMARK.json.
# "<span>.calls" and "<span>.self_s" are read off the spans; the other
# names are derived in layer_metrics.
LAYER_METRICS = (
    [("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.out_bytes", "bytes")]
    + _calls_and_self("radial.gradient_norm_sq", "radial.lp_norm",
                      "radial.integral_weighted", "radial.grid_default",
                      "radial.csv_io")
    + _calls_and_self(POTENTIAL_SPAN)
    + [("potentials.check_kato.self_s", "s")]
    + _calls_and_self("forms.eval_J", "forms.eval_Q", "forms.onofri_lhs",
                      "forms.orlicz_integral", "forms.luxemburg_norm")
    + [("forms.orlicz_per_norm", "count"),
       ("groundstate.shoot.calls", "count"),
       ("groundstate.shoot.self_s", "s"),
       ("groundstate.transform_s.self_s", "s"),
       ("groundstate.classify_coercivity.calls", "count"),
       ("groundstate.nodal_exits", "count"),
       ("groundstate.pot_evals_per_shoot", "count"),
       ("rearrange.rearrange_decreasing.self_s", "s")]
    + _calls_and_self("rearrange.distribution_function")
    + [("rearrange.levels_evaluated", "count"),
       ("rearrange.kept_ratio", "ratio")]
    + _calls_and_self("probe.probe_supremum", "probe.moser_function",
                      "probe.estimate_lambda_1", "probe.estimate_lambda_p",
                      "probe.maximize_J_constrained")
    + [("probe.maximize.iterations", "count"),
       ("probe.lambda_p.steps", "count")]
    + _calls_and_self("sampling.bump_profile")
    + [("sampling.nonneg_profile.self_s", "s"), ("trace.overhead_s", "s")]
)


def _under(spans, i, name) -> bool:
    """Whether span i has an ancestor called `name`."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(span_lists, extra: dict) -> dict:
    """Per-layer metrics of one pass.

    `span_lists` holds one span list per process; `extra` carries the
    values measured outside spans (cli.out_bytes, trace.overhead_s).
    Self time is a span's duration minus its children's durations.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    c = dict.fromkeys(("nodal", "pot_in_shoot", "orl_in_norm", "levels",
                       "levels_in_re", "out_nodes", "iterations",
                       "lp_steps"), 0)
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, op, exc, note) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
            if name == "groundstate.shoot" and exc == "NodalSolutionError":
                c["nodal"] += 1
            elif name == POTENTIAL_SPAN and _under(spans, i,
                                                   "groundstate.shoot"):
                c["pot_in_shoot"] += 1
            elif name == "forms.orlicz_integral" and _under(
                    spans, i, "forms.luxemburg_norm"):
                c["orl_in_norm"] += 1
            elif name == "rearrange.distribution_function" and note:
                c["levels"] += note
                if _under(spans, i, "rearrange.rearrange_decreasing"):
                    c["levels_in_re"] += note
            elif name == "rearrange.rearrange_decreasing" and note:
                c["out_nodes"] += note
            elif name == "probe.maximize_J_constrained" and note:
                c["iterations"] += note
            elif name == "radial.gradient_norm_sq" and _under(
                    spans, i, "probe.estimate_lambda_p"):
                c["lp_steps"] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "cli.import_s": self_s.get("cli.import", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "forms.orlicz_per_norm": ratio(c["orl_in_norm"],
                                       calls.get("forms.luxemburg_norm", 0)),
        "groundstate.nodal_exits": c["nodal"],
        "groundstate.pot_evals_per_shoot": ratio(
            c["pot_in_shoot"], calls.get("groundstate.shoot", 0)),
        "rearrange.levels_evaluated": c["levels"],
        "rearrange.kept_ratio": ratio(c["out_nodes"], c["levels_in_re"]),
        "probe.maximize.iterations": c["iterations"],
        "probe.lambda_p.steps": c["lp_steps"],
        **extra,
    }
    out = {}
    for name, _ in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = calls.get(span, 0)
        else:
            out[name] = self_s.get(span, 0.0)
    return out


# Metrics the prediction table says are nonzero on each workload; a zero
# here means a wrapper stopped binding (the traced run fails).
EXPECTED_NONZERO = {
    "quick": ["cli.import_s", "cli.self_s", "cli.out_bytes",
              "radial.grid_default.calls", "radial.csv_io.calls",
              "potentials.eval.calls", "forms.eval_J.calls",
              "forms.eval_Q.calls", "forms.onofri_lhs.calls",
              "forms.luxemburg_norm.calls", "groundstate.shoot.calls",
              "groundstate.classify_coercivity.calls",
              "probe.probe_supremum.calls", "probe.moser_function.calls",
              "probe.estimate_lambda_1.calls", "sampling.bump_profile.calls"],
    "heavy": ["cli.import_s", "cli.self_s", "cli.out_bytes",
              "radial.gradient_norm_sq.calls", "radial.lp_norm.calls",
              "radial.integral_weighted.calls", "radial.grid_default.calls",
              "radial.csv_io.calls", "forms.eval_Q.calls",
              "forms.orlicz_integral.calls", "forms.luxemburg_norm.calls",
              "forms.orlicz_per_norm", "rearrange.rearrange_decreasing.self_s",
              "rearrange.distribution_function.calls",
              "rearrange.levels_evaluated", "rearrange.kept_ratio",
              "probe.estimate_lambda_1.calls",
              "probe.estimate_lambda_p.calls", "probe.lambda_p.steps",
              "sampling.bump_profile.calls"],
    "scan": ["radial.gradient_norm_sq.calls",
             "radial.integral_weighted.calls", "radial.grid_default.calls",
             "radial.csv_io.calls", "potentials.eval.calls",
             "potentials.check_kato.self_s", "forms.eval_J.calls",
             "forms.eval_Q.calls", "groundstate.shoot.calls",
             "groundstate.transform_s.self_s",
             "groundstate.classify_coercivity.calls",
             "groundstate.nodal_exits", "groundstate.pot_evals_per_shoot",
             "probe.probe_supremum.calls", "probe.moser_function.calls",
             "probe.maximize_J_constrained.calls",
             "probe.maximize.iterations"],
}
