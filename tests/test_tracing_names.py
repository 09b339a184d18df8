"""perfbench's tracer wraps portqubo functions by name, so a name it lists
that the package no longer has would fail only a traced benchmark run; a CLI
command it lists that the parser no longer has would read 0 there."""

import argparse
import importlib
import importlib.util
from pathlib import Path

import pytest

from portqubo.cli import _build_parser

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in _tracing().LAYER_FUNCTIONS.items() for name in names],
)
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"portqubo.{layer}"), name, None))


@pytest.mark.parametrize("command", _tracing().CLI_COMMANDS)
def test_traced_command_exists(command):
    (subcommands,) = [
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert command in subcommands
