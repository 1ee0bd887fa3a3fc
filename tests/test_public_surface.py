"""The public surface resolves: package exports and perfbench span targets.

A deletion that forgets an ``__all__`` entry breaks ``from repro.x
import *`` for every user of the package, and a deleted or renamed
span target only shows up as ``trace.missing`` in the benchmark's
traced run.  Both are checked here, where the tier-1 suite sees them.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _modules_with_all():
    """Every module of ``repro`` that declares ``__all__``."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return [
        name for name in names if hasattr(importlib.import_module(name), "__all__")
    ]


def _load_spans():
    """``perfbench/spans.py``, loaded without putting ``perfbench`` on
    the import path."""
    name = "perfbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("module", _modules_with_all())
def test_star_import_resolves_every_export(module):
    exported = importlib.import_module(module).__all__
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("path", [path for _, path, _ in _load_spans().TARGETS])
def test_span_target_resolves(path):
    spans = _load_spans()
    owner, attribute = spans._resolve(path)
    assert callable(getattr(owner, attribute))
