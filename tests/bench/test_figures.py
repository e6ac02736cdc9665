"""The paper-figures gate: committed baselines, drift, broken policies."""

import copy
import os

from repro.bench import figures
from repro.bench.figures import FIGURES, run_figure
from repro.bench.telemetry import (
    diff_directories,
    diff_records,
    load_record,
    make_record,
    record_path,
    write_record,
)

BASELINES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "baselines"
)


def baseline(name):
    return load_record(record_path(BASELINES, name))


def test_every_row_has_a_passing_baseline():
    names = sorted(
        entry[len("BENCH_"):-len(".json")] for entry in os.listdir(BASELINES)
    )
    assert names == sorted(FIGURES)
    for name in names:
        record = baseline(name)
        assert record["checks"] == {check: True for check in FIGURES[name].checks}


def test_a_baseline_without_a_fresh_record_fails_by_name(tmp_path):
    current = tmp_path / "current"
    write_record(baseline("fig13"), str(current))
    ok, lines = diff_directories(BASELINES, str(current))
    assert not ok
    missing = [line for line in lines if "no fresh record" in line]
    assert len(missing) == len(FIGURES) - 1
    assert any(line.startswith("fig07:") for line in missing)
    ok, _ = diff_directories(BASELINES, str(current), names=["fig13"])
    assert ok


def test_same_seed_drift_fails():
    base = copy.deepcopy(baseline("fig13"))
    base["operations"] = 5355
    drifted = copy.deepcopy(base)
    drifted["operations"] = 10
    drifted["latency"]["p95"] = base["latency"]["p95"] * 5
    ok, lines = diff_records(base, drifted)
    assert not ok
    assert any("operations 5355 -> 10" in line for line in lines)
    assert any("latency.p95" in line for line in lines)


def test_cell_drift_fails_in_either_direction():
    base = baseline("fig13")
    for factor in (0.5, 2.0):
        drifted = copy.deepcopy(base)
        drifted["rows"][0][2] = base["rows"][0][2] * factor
        ok, lines = diff_records(base, drifted)
        assert not ok
        assert any("fig13.rows[0][2]" in line for line in lines)


def test_a_broken_paper_policy_fails_by_name(monkeypatch, tmp_path):
    """Figure 15's t=0 write-through rule made a background copy: the
    client stops paying the EBS write, so t=0 looks like write-back."""
    background = figures.WRITE_THROUGH.replace("event", "background event")
    monkeypatch.setattr(figures, "WRITE_THROUGH", background)
    trial = run_figure("fig15", "smoke")
    assert "write-through > 3x write-back latency" in trial.failed
    write_record(make_record(trial), str(tmp_path))
    ok, lines = diff_directories(BASELINES, str(tmp_path), names=["fig15"])
    assert not ok
    assert "fig15: predicate FAIL: write-through > 3x write-back latency" in lines
