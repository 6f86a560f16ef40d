"""Every name the traced benchmark wraps must sit where it looks it up.

``perfbench/tracer.py`` lists, per layer, the callables its ``install``
replaces with timing wrappers.  ``install`` reads a class attribute
from the class's own ``__dict__`` (an inherited method raises there)
and a module global with ``getattr``.  A rename, a deletion or a move
into a base class therefore breaks ``perfbench/run.py --trace 1``.
This test makes the same lookups for every target without calling
``install``, which would patch the classes for the whole process.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_target_resolves_as_install_looks_it_up():
    layers = _tracer_layers()
    missing = []
    n_targets = 0
    for layer, (_doc, targets) in layers.items():
        for module_name, owner_name, attr in targets:
            n_targets += 1
            module = importlib.import_module(module_name)
            if owner_name is None:
                found = hasattr(module, attr)
            else:
                owner = getattr(module, owner_name, None)
                found = owner is not None and attr in owner.__dict__
            if not found:
                name = ".".join(p for p in (module_name, owner_name, attr) if p)
                missing.append(f"{layer}: {name}")
    assert n_targets > 0
    assert not missing, missing
