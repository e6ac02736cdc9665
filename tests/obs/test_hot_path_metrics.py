"""Lint: the per-op bookkeeping sites record through bound children.

A keyword-labelled ``.inc(op=…)`` / ``.observe(…, op=…)`` sorts its
labels into a key on every event; the functions below run once or more
per client op, so each holds registry children bound once instead
(``Counter.child`` / ``Histogram.child``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[2] / "src" / "repro"

#: module -> the per-op functions in it, by qualified name
PER_OP = {
    "simcloud/services/base.py": ("StorageService._perform", "StorageService._count"),
    "core/control.py": ("ControlLayer._run_rule", "ControlLayer._audit_rule"),
    "core/instance.py": ("TieraInstance.read_raw",),
    "core/durability.py": ("DurabilityLayer._begin",),
    "obs/heat.py": ("HeatTracker.record", "HeatTracker._record_tier"),
    "obs/hub.py": ("Observability.complete",),
    "fs/cache.py": ("PageCache.get",),
    "core/cluster.py": ("ClusterManager._replica_op",),
}

#: the children's own parameters; any other keyword is a label
UNLABELLED = {"amount", "value"}


def _functions(tree):
    """``{qualified name: def node}`` of every function in a module."""
    out = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    out[name] = child
                walk(child, name)

    walk(tree, "")
    return out


def labelled_calls(func):
    """Line numbers of keyword-labelled ``.inc`` / ``.observe`` calls."""
    return [
        node.lineno
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", "") in ("inc", "observe")
        and any(kw.arg not in UNLABELLED for kw in node.keywords)
    ]


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in PER_OP.items() for name in names],
)
def test_per_op_sites_make_no_labelled_calls(module, name):
    functions = _functions(ast.parse((SRC / module).read_text()))
    assert name in functions, f"{module}: {name} moved; update PER_OP"
    assert labelled_calls(functions[name]) == []


def test_the_lint_sees_labelled_calls():
    tree = ast.parse(
        "def f(c, h, d):\n"
        "    c.inc(op='get')\n"
        "    h.observe(1.0, **d)\n"
        "    c.inc(amount=2)\n"
        "    h.observe(value=1.0)\n"
    )
    assert labelled_calls(_functions(tree)["f"]) == [2, 3]
