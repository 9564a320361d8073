"""bench/tracing.py wraps permlaw functions and methods by name, so a rename
or a deletion in the package must show here, not first in a traced
benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACING = _tracing()


def test_every_traced_function_resolves():
    missing = [f"permlaw.{module}.{name}" for module, name, _, _ in TRACING.LAYERS
               if not callable(getattr(importlib.import_module(f"permlaw.{module}"),
                                       name, None))]
    assert missing == []


def test_every_traced_method_resolves():
    lawcore = importlib.import_module("permlaw.lawcore")
    missing = [f"{cls}.{method}" for cls, method, _ in TRACING.METHODS
               if method not in vars(getattr(lawcore, cls, object))]
    assert missing == []
