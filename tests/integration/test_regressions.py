"""Replay every checked-in regression schedule against the ledger.

``tests/regressions/*.json`` holds schedules the simulation harness
caught something with (format: docs/SIMULATION.md).  Each must replay
with zero ledger violations and a clean fsck.  A file carrying an
``xfail`` reason documents a live defect: the mark is strict, so the PR
that fixes the defect has to drop the reason from the file.
"""

import json
from pathlib import Path

import pytest

from repro.bench.sim import build, run_steps

SCHEDULES = sorted((Path(__file__).parents[1] / "regressions").glob("*.json"))


def _param(path: Path):
    doc = json.loads(path.read_text())
    marks = (
        [pytest.mark.xfail(strict=True, raises=AssertionError, reason=doc["xfail"])]
        if "xfail" in doc else []
    )
    return pytest.param(doc, id=path.stem, marks=marks)


def test_the_three_seed_schedules_are_checked_in():
    assert {p.stem for p in SCHEDULES} >= {
        "stale-overwrite-cached-s3",
        "stale-overwrite-lru-tiered",
        "stale-overwrite-write-through",
    }


@pytest.mark.parametrize("doc", [_param(path) for path in SCHEDULES])
def test_schedule_replays_clean(doc):
    sim = build(doc["deployment"], doc["seed"])
    run_steps(sim, doc["steps"])
    assert sim.ledger.checked > 0
    assert sim.ledger.violations == 0, sim.ledger.offenders
    scrub = sim.server.invoke("durability", "fsck").raise_for_error().state
    assert scrub["clean"], scrub["counts"]
