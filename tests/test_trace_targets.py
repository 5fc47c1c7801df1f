"""Every target of the perfbench tracer still resolves in the package.

``perfbench/tracing.py`` hooks the functions and methods named in its
``TARGETS``; a deletion or move in ``src/`` that drops one breaks
``perfbench/run.py --trace 1``.  The tracer takes a function from its
module and a method from its own class's ``__dict__``, so a method
inherited from a base class does not count."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    unresolved = []
    for name, target in _tracer_targets():
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            unresolved.append((name, target))
    assert unresolved == []
