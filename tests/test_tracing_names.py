"""bench/tracing.py wraps permlaw functions and methods by name, so a rename
or a deletion in the package must show here, not first in a traced
benchmark run."""

import importlib

from conftest import bench_module

TRACING = bench_module("tracing")


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
