"""Every parameter with a default has a caller that sets it.

A default that no command, library path or test ever overrides is a
setting nobody uses; such values live as module constants with their
reason beside them.  This test walks every function and method defined
in each tmlab module and compares its defaulted parameters with the
list below, so a new setting has to name the caller that sets it.
Dataclass fields are record data, not settings, and are not walked.
"""

import importlib
import inspect
import pkgutil

import tmlab

ALLOWED = {
    # `main` passes the --config file's values
    "cli.build_parser.defaults",
    # tests call main(argv); the tm-lab script leaves it to sys.argv
    "cli.main.argv",
    # potentials and radial raise it with the offending value
    "errors.SingularEvaluationError.__init__.value",
    # `eval --coeff`; probe_supremum and the maximizer pass theirs
    "forms.eval_J.coeff",
    # `groundstate --delta-phi`
    "groundstate.classify_coercivity.delta_phi",
    # `probe --kmax-pow`
    "probe.moser_family.ks",
    # `probe --coeff`
    "probe.probe_supremum.coeff",
    # test_maximize_*
    "probe.maximize_J_constrained.budget",
    "probe.maximize_J_constrained.seed",
    # `lambda --seed`
    "probe.estimate_lambda_p.seed",
    # test_lambda_p_limits
    "probe.estimate_lambda_p.n_starts",
    "probe.estimate_lambda_p.iterations",
    # `--grid-n`
    "radial.RadialGrid.default.n",
    # rearrange, groundstate and the samplers pass it
    "radial.RadialFunction.__init__.dirichlet",
    # test_parse_roundtrip
    "radial.RadialFunction.from_callable.dirichlet",
    # rearrange_decreasing asks for strict=False
    "rearrange.distribution_function.strict",
    # test_equimeasurability_level_refinement
    "rearrange.rearrange_decreasing.levels",
}


def _functions(mod):
    """(qualified name, function) for each def in the module's source."""
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_defaults_only_where_a_caller_sets_them():
    found = set()
    for info in pkgutil.iter_modules(tmlab.__path__):
        mod = importlib.import_module(f"tmlab.{info.name}")
        for qualname, fn in _functions(mod):
            if fn.__code__.co_filename != mod.__file__:
                continue  # generated, e.g. a dataclass __init__
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add(f"{info.name}.{qualname}.{param.name}")
    assert found == ALLOWED
