"""Lint: background work gets its cadence from the control layer.

Timer events are policy rules (§3), so an engine that needs to run
periodically installs a timer rule instead of arming a clock timer of
its own.  ``schedule_repeating(...)`` is called only by the control
layer's timer rules and by the few periodic mechanisms that sit below or
beside the policy: the cluster's heartbeats and anti-entropy sweeps, the
RPC watchdog, a figure's sampler, and the clocks themselves.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[2] / "src" / "repro"

ALLOWED = {
    "core/control.py",
    "core/cluster.py",
    "monitor/watchdog.py",
    "bench/figures.py",
    "simcloud/clock.py",
}


def repeating_calls(tree):
    """Line numbers of ``schedule_repeating(...)`` calls in a module."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "attr", None) == "schedule_repeating"
            or getattr(node.func, "id", None) == "schedule_repeating"
        )
    ]


def test_only_the_allowed_modules_schedule_repeating_timers():
    callers = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if repeating_calls(ast.parse(path.read_text()))
    }
    assert callers <= ALLOWED
    assert "core/control.py" in callers


def test_the_lint_sees_repeating_calls():
    tree = ast.parse(
        "def f(clock, schedule_repeating):\n"
        "    clock.schedule_repeating(1.0, f)\n"
        "    schedule_repeating(2.0, f)\n"
        "    clock.schedule(1.0, f)\n"
    )
    assert repeating_calls(tree) == [2, 3]
