"""The paper-figures gate: committed baselines, drift, broken policies."""

import copy
import dataclasses
import os

import pytest

from repro.bench import figures, sim
from repro.bench.figures import FIGURES, run_figure
from repro.bench.telemetry import (
    diff_directories,
    diff_records,
    load_record,
    make_record,
    record_path,
    write_record,
)
from repro.core.cluster import ClusterManager
from repro.core.durability import INTENTS
from repro.spec.paper import paper_spec

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


def _smoke(monkeypatch, name, **smoke):
    """Run row ``name`` at a smaller smoke scale."""
    figure = FIGURES[name]
    monkeypatch.setitem(
        FIGURES, name, dataclasses.replace(figure, smoke={**figure.smoke, **smoke})
    )


def _resilience_off(monkeypatch):
    """The resilient bitrot cell runs without the layer it claims."""
    _smoke(monkeypatch, "chaos", duration=60.0,
           cells=(("bitrot", "write-through", 2014, True),))
    run_chaos = figures.run_chaos
    monkeypatch.setattr(
        figures, "run_chaos", lambda **kw: run_chaos(**{**kw, "resilient": False})
    )


def _write_redo_lost(monkeypatch):
    """Recovery stops rolling journaled writes forward."""
    _smoke(monkeypatch, "crash_sweep", deployments=("write-through",))
    monkeypatch.setitem(
        INTENTS, "write", INTENTS["write"]._replace(redo=lambda *args: None)
    )


def _hints_never_replayed(monkeypatch):
    _smoke(monkeypatch, "shard_failover", failover=dict(
        records=16, duration=120.0, clients=2,
        outage_at=30.0, outage=45.0, flap_duration=20.0,
    ))
    monkeypatch.setattr(
        ClusterManager, "replay_hints", lambda self, target=None: {}
    )


def _respec(monkeypatch, deployment, spec):
    """Deployment ``deployment`` compiles ``spec`` instead of its own."""
    row = dataclasses.replace(sim.DEPLOYMENTS[deployment], spec=spec)
    monkeypatch.setitem(sim.DEPLOYMENTS, deployment, row)


def _restore_drill_never_due(monkeypatch):
    _respec(monkeypatch, "backup-lifecycle", paper_spec("backup_lifecycle").replace(
        "time=verify_interval", "time=3600"
    ))


def _lru_evicts_newest(monkeypatch):
    _respec(monkeypatch, "lru-eviction", paper_spec("mru_eviction"))
    _respec(monkeypatch, "mru-eviction", paper_spec("lru_eviction"))


def _inclusive_demotes(monkeypatch):
    """The cache stops persisting on insert and demotes its victims
    instead: exclusive tiering under the inclusive label."""
    _respec(monkeypatch, "inclusive-cache", paper_spec("inclusive_cache").replace(
        "copy(what: insert.object, to: tier3);", ""
    ).replace("evict_to: drop", "evict_to: tier3"))


def _background_runs_inline(monkeypatch):
    _respec(monkeypatch, "background-fill-backup", paper_spec("fill_backup"))


#: row -> (a defect planted in its policy or its harness, the predicate
#: that must name it)
BROKEN = {
    "chaos": (
        _resilience_off, "every resilient cell: reads checked, no ledger violation"
    ),
    "crash_sweep": (_write_redo_lost, "every deployment recovers clean"),
    "shard_failover": (_hints_never_replayed, "every hint drained"),
    "backup_lifecycle": (
        _restore_drill_never_due, "the scheduled restore drill passes"
    ),
    "ablation_eviction": (_lru_evicts_newest, "LRU reads faster than MRU"),
    "ablation_inclusive": (
        _inclusive_demotes, "inclusive keeps every object durable"
    ),
    "ablation_background_events": (
        _background_runs_inline, "foreground max PUT > 5x background"
    ),
}


@pytest.mark.parametrize("name", list(BROKEN))
def test_a_broken_drill_or_ablation_fails_by_name(name, monkeypatch, tmp_path):
    plant, check = BROKEN[name]
    plant(monkeypatch)
    trial = run_figure(name, "smoke")
    assert check in trial.failed
    write_record(make_record(trial), str(tmp_path))
    ok, lines = diff_directories(BASELINES, str(tmp_path), names=[name])
    assert not ok
    assert f"{name}: predicate FAIL: {check}" in lines
