"""perfbench's tracer still binds the names it wraps.

The traced benchmark runs (`perfbench/run.py --trace 1`) install
`perfbench/tracing.Tracer` over the imported tmlab modules; a renamed
or removed traced name would only fail there.  This test installs the
tracer in-process, checks what it wrapped, and uninstalls it.  It reads
perfbench/ and changes nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from tmlab.potentials import Potential

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _potential_classes():
    todo, found = [Potential], []
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return found


def _bindings(layers):
    """Every name the tracer may rebind: the tmlab module namespaces and
    the class dicts of the traced methods and of the potentials."""
    owners = [m for name, m in sys.modules.items()
              if name.startswith("tmlab.")]
    owners += [getattr(sys.modules[mod], attr.split(".")[0])
               for _, mod, attr, _ in layers if "." in attr]
    owners += _potential_classes()
    return {(id(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def _wrapped(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), "__wrapped__")


def test_tracer_binds_every_layer_and_restores_it():
    tracing = _tracing()
    for _, mod, _, _ in tracing.LAYERS:
        importlib.import_module(mod)
    # Every target resolves before anything is wrapped.
    for name, mod, attr, _ in tracing.LAYERS:
        owner = sys.modules[mod]
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {mod}.{attr} is gone"
            owner = getattr(owner, part)
    before = _bindings(tracing.LAYERS)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, mod, attr, _ in tracing.LAYERS:
            if "." in attr:
                cls, meth = attr.split(".")
                target = vars(getattr(sys.modules[mod], cls))[meth]
            else:
                target = getattr(sys.modules[mod], attr)
            assert _wrapped(target), name
        calls = [vars(cls)["__call__"] for cls in _potential_classes()
                 if "__call__" in vars(cls) and cls is not Potential]
        assert any(_wrapped(call) for call in calls)
    finally:
        tracer.uninstall()

    after = _bindings(tracing.LAYERS)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
