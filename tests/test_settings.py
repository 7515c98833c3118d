"""Every parameter with a default has a caller outside tests/ that sets it.

A default that only tests override is a setting no command, library path
or benchmark uses; such values live as module constants with their reason
beside them.  This test walks every function and method defined in each
tmlab module and compares its defaulted parameters with the table below,
which names, for each, a function outside tests/ that passes it.  A
second test parses that function and checks that it does.  Dataclass
fields are record data, not settings, and are not walked.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import tmlab

ROOT = Path(__file__).parents[1]

# "module.function.parameter" -> "file::function" that passes it.
ALLOWED = {
    # the tm-lab script leaves it to sys.argv; the traced stand-in passes it
    "cli.main.argv": "perfbench/cli_child.py::main",
    # `eval --coeff`
    "forms.eval_J.coeff": "src/tmlab/cli.py::cmd_eval",
    # `probe --kmax-pow`, for either family
    "probe.moser_family.ks": "src/tmlab/cli.py::cmd_probe",
    "probe.ground_state_family.ks": "src/tmlab/cli.py::cmd_probe",
    # `probe --coeff`
    "probe.probe_supremum.coeff": "src/tmlab/cli.py::cmd_probe",
    # `lambda --seed`
    "probe.estimate_lambda_p.seed": "src/tmlab/cli.py::cmd_lambda",
    # `--grid-n`
    "radial.RadialGrid.default.n": "src/tmlab/cli.py::main",
    # rearrange, groundstate and the samplers pass it
    "radial.RadialFunction.__init__.dirichlet":
        "src/tmlab/rearrange.py::rearrange_decreasing",
    # rearrange_decreasing asks for strict=False
    "rearrange.distribution_function.strict":
        "src/tmlab/rearrange.py::rearrange_decreasing",
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


def _defaulted():
    """{"module.function.parameter": (function, parameter)} over tmlab."""
    found = {}
    for info in pkgutil.iter_modules(tmlab.__path__):
        mod = importlib.import_module(f"tmlab.{info.name}")
        for qualname, fn in _functions(mod):
            if fn.__code__.co_filename != mod.__file__:
                continue  # generated, e.g. a dataclass __init__
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found[f"{info.name}.{qualname}.{param.name}"] = (
                        qualname, fn, param.name)
    return found


def test_defaults_only_where_a_caller_sets_them():
    assert set(_defaulted()) == set(ALLOWED)


def _passes(call: ast.Call, callee: str, fn, param: str) -> bool:
    """Whether `call` calls `callee` (possibly through a wrapper) with
    `param` given, by keyword or by position."""
    if not re.search(rf"\b{callee}\b", ast.unparse(call.func)):
        return False
    if any(kw.arg == param for kw in call.keywords):
        return True
    names = list(inspect.signature(fn).parameters)
    if names[0] in ("self", "cls"):
        names = names[1:]
    return len(call.args) > names.index(param)


def test_every_setting_names_a_caller_outside_tests():
    found = _defaulted()
    for entry, caller in ALLOWED.items():
        path, _, func = caller.partition("::")
        assert not path.startswith("tests/"), f"{entry}: set by a test only"
        tree = ast.parse((ROOT / path).read_text())
        defs = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == func]
        assert defs, f"{entry}: no function {func} in {path}"
        qualname, fn, param = found[entry]
        parts = qualname.split(".")
        callee = parts[0] if parts[-1] == "__init__" else parts[-1]
        assert any(_passes(node, callee, fn, param)
                   for node in ast.walk(defs[0])
                   if isinstance(node, ast.Call)), \
            f"{entry}: {caller} does not pass {param}"
