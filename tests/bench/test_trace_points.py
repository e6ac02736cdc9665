"""Every trace point of the wall-time harness still names a function.

``benchmarks/perf/stack.py`` wraps each ``module:Owner.attr`` in its
``TRACE_POINTS`` table; a renamed or deleted one only counts toward
``driver.spans_missing``.  The table is read from the harness source,
so this check imports no harness code.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

STACK = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "stack.py"


def _trace_points():
    tree = ast.parse(STACK.read_text())
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "TRACE_POINTS"):
            table = ast.literal_eval(node.value)
            return [target for targets in table.values() for target in targets]
    raise AssertionError(f"no TRACE_POINTS table in {STACK}")


@pytest.mark.parametrize("target", _trace_points())
def test_each_trace_point_is_a_function_of_its_owner(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert inspect.isfunction(vars(owner).get(attr)), target
