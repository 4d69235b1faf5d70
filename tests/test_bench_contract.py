"""The benchmark's span contract: every function it wraps by name exists.

CI does not run `perfbench/`, and a traced run (`--trace 1`) looks each
wrapped function up by name, so a rename in plopen would break only that run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module().SPANS


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in SPANS.items() for name in names]
)
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"plopen.{module}"), name))


def test_counted_functions_resolve():
    feasible = importlib.import_module("plopen.feasible")
    assert callable(feasible._feasible_int) and callable(feasible.boxes_overlap)
