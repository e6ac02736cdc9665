"""The seed-exact cost ratchet: counts no clock can blur, held to a budget.

One ``benchmarks/perf/run.py --smoke --seed 2014`` pass (about 10 s, in a
subprocess) measures, per workload, interpreter calls per op and the
per-op work counts of every layer.  At a fixed seed and op count these
are exact.  The calls include the standard library's own (json, socket,
threading, random), yet measured on every release from 3.9.18 to 3.13.0
they move only where CPython 3.12 began inlining comprehensions.  So
there is one committed budget per side of that line, each naming the
minor versions it covers and the releases it was checked on:
``cost_budget_3.9-3.11.json`` and ``cost_budget_3.12-3.13.json`` next
to this module.  There is no noise allowance: any count above its
budget fails, on every patch release of a covered version.  CPython
outside both ranges, or another implementation, skips with a message.

The ratchet: a change that lowers a count lowers its budget; one that
raises a count raises the budget in the same commit and says why — a
patch release that moves a count is such a change.  The RPC workloads
count only the client thread (``sys.setprofile`` is per thread), so
their calls cover the client and the wire, not the server.  Rewrite
this interpreter's file from a fresh pass with ``python
tests/bench/test_cost_budget.py``; a pass that matches the file adds its
release to the file's ``checked_on``, one that does not rewrites the
file with this release alone, so run it under each release to check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[2]
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
RELEASE = ".".join(map(str, sys.version_info[:3]))
COMMAND = ["benchmarks/perf/run.py", "--smoke", "--seed", "2014"]

#: budget file -> the CPython minor versions it covers
BUDGETS = {
    "cost_budget_3.9-3.11.json": ("3.9", "3.10", "3.11"),
    "cost_budget_3.12-3.13.json": ("3.12", "3.13"),
}
BUDGET = next(
    (
        Path(__file__).with_name(name) for name, versions in BUDGETS.items()
        if VERSION in versions and sys.implementation.name == "cpython"
    ),
    None,
)

#: the counted metrics besides every ``*.calls_per_op``
COUNTS = (
    "core.durability.journal_records_per_put",
    "core.instance.meta_persists_per_put",
    "kvstore.puts_per_op",
    "kvstore.bytes_written_per_user_byte",
    "core.cluster.replica_ops_per_put",
    "rpc.wire_bytes_per_op",
)


def measure() -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: value}}`` of the counted metrics, from one
    smoke pass of the wall-clock harness."""
    with tempfile.TemporaryDirectory(prefix="cost_budget_") as out:
        done = subprocess.run(
            [sys.executable, *COMMAND, "--out", out],
            cwd=ROOT, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        results = json.loads((Path(out) / "results.json").read_text())
    return {
        workload: {
            name: metric["value"]
            for name, metric in sorted(record["per_layer"]["metrics"].items())
            if name.endswith("calls_per_op") or name in COUNTS
        }
        for workload, record in results["workloads"].items()
    }


def over_budget(counts, budget) -> list:
    """``workload metric: count > budget`` for each count above its
    budget; a workload or metric the budget does not name is over."""
    return [
        f"{workload} {name}: {value!r} > {limit!r}"
        for workload, metrics in counts.items()
        for name, value in metrics.items()
        for limit in [budget.get(workload, {}).get(name, float("-inf"))]
        if value > limit
    ]


def test_the_check_sees_a_rise():
    budget = {"w": {"driver.py_calls_per_op": 120.0}}
    assert over_budget({"w": {"driver.py_calls_per_op": 120.0}}, budget) == []
    assert over_budget({"w": {"driver.py_calls_per_op": 119.5}}, budget) == []
    assert over_budget({"w": {"driver.py_calls_per_op": 120.005}}, budget) == [
        "w driver.py_calls_per_op: 120.005 > 120.0"
    ]
    assert over_budget({"w": {"tiers.calls_per_op": 0.0}}, budget) == [
        "w tiers.calls_per_op: 0.0 > -inf"
    ]


def test_no_count_exceeds_its_budget():
    import pytest  # here, so the module also runs where pytest is absent

    if BUDGET is None:
        pytest.skip(
            f"no cost budget covers {sys.implementation.name} {RELEASE}"
        )
    budget = json.loads(BUDGET.read_text())
    assert over_budget(measure(), budget["workloads"]) == []


if __name__ == "__main__":
    if BUDGET is None:
        raise SystemExit(f"no cost budget covers {sys.implementation.name} {RELEASE}")
    counts = measure()
    checked_on = [RELEASE]
    if BUDGET.exists():
        old = json.loads(BUDGET.read_text())
        if old["workloads"] == counts:
            checked_on = sorted(
                set(old["checked_on"]) | {RELEASE},
                key=lambda release: tuple(map(int, release.split("."))),
            )
    BUDGET.write_text(json.dumps({
        "versions": list(BUDGETS[BUDGET.name]),
        "checked_on": checked_on,
        "command": " ".join(["python3", *COMMAND]),
        "workloads": counts,
    }, indent=2) + "\n")
    print(f"wrote {BUDGET} (checked on {', '.join(checked_on)})")
