"""The seed-exact cost ratchet: counts no clock can blur, held to a budget.

One ``benchmarks/perf/run.py --smoke --seed 2014`` pass (about 10 s, in a
subprocess) measures, per workload, interpreter calls per op and the
per-op work counts of every layer.  At a fixed seed and op count these
are exact for one CPython release: the calls include the standard
library's own (json, socket, threading, random), and 3.12 inlines
comprehensions, so its calls differ from 3.11's.  The budget is one
committed file per minor version, ``cost_budget_<major>.<minor>.json``
next to this module, recording the patch release it was measured on,
and there is no noise allowance: any count above its budget fails.  A
minor version without a file, or another patch release than the file's,
skips with a message.

The ratchet: a change that lowers a count lowers its budget; one that
raises a count raises the budget in the same commit and says why.  The
RPC workloads count only the client thread (``sys.setprofile`` is per
thread), so their calls cover the client and the wire, not the server.
Rewrite this interpreter's file from a fresh pass with
``python tests/bench/test_cost_budget.py``.
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
BUDGET = Path(__file__).with_name(f"cost_budget_{VERSION}.json")
COMMAND = ["benchmarks/perf/run.py", "--smoke", "--seed", "2014"]

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

    if not BUDGET.exists():
        pytest.skip(f"no cost budget for Python {VERSION} ({BUDGET.name})")
    budget = json.loads(BUDGET.read_text())
    if budget["python"] != RELEASE:
        pytest.skip(
            f"{BUDGET.name} was measured on Python {budget['python']}, "
            f"this is {RELEASE}"
        )
    assert over_budget(measure(), budget["workloads"]) == []


if __name__ == "__main__":
    BUDGET.write_text(json.dumps({
        "python": RELEASE,
        "command": " ".join(["python3", *COMMAND]),
        "workloads": measure(),
    }, indent=2) + "\n")
    print(f"wrote {BUDGET}")
