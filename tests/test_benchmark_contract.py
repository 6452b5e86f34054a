"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` patches functions by (module, attribute) and
``PhaseCurve`` methods by name, and reads the default mode count of
``build_mode_grid``; a renamed or deleted name breaks
``perfbench/run.py --trace 1``.  The tracer is read as source, not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from qparity.fidelity import build_mode_grid
from qparity.network import PhaseCurve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_constant(name: str):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} defines no {name}")


@pytest.mark.parametrize("module,attr", _tracer_constant("TRACED_FUNCTIONS"))
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"qparity.{module}"), attr))


@pytest.mark.parametrize("method", _tracer_constant("TRACED_METHODS"))
def test_traced_method_exists(method):
    assert callable(getattr(PhaseCurve, method))


def test_mode_grid_points_has_a_default():
    default = inspect.signature(build_mode_grid).parameters["points"].default
    assert isinstance(default, int)
