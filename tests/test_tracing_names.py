"""perfbench's tracer wraps portqubo functions by name, so a name it lists
that the package no longer has would fail only a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in _layer_functions().items() for name in names],
)
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"portqubo.{layer}"), name, None))
