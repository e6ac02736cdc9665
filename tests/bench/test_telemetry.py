"""Benchmark telemetry: record shape, determinism, and the regression gate."""

import copy
import json

import pytest

from repro.bench.figures import FIGURES
from repro.bench.telemetry import (
    diff_directories,
    diff_records,
    load_record,
    profile_scenario,
    record_path,
    run_scenario,
    write_record,
)

@pytest.fixture(scope="module")
def batch_record():
    """One real run of the fastest scenario, shared across this module."""
    return run_scenario("batch_scaling")


class TestRecords:
    def test_known_scenarios(self):
        assert list(FIGURES) == [
            "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig13_kill_restart", "fig14", "fig15", "fig16", "fig17",
            "fig17_resilient", "fig18", "batch_scaling", "heat_telemetry",
            "adaptive_placement", "chaos", "crash_sweep", "shard_failover",
            "backup_lifecycle", "ablation_eviction", "ablation_inclusive",
            "ablation_background_events",
        ]
        with pytest.raises(ValueError):
            run_scenario("fig99")

    def test_record_shape(self, batch_record):
        record = batch_record
        assert record["schema"] == 2
        assert record["name"] == "batch_scaling"
        assert record["params"]["seed"] == 11
        assert record["operations"] == 400
        assert record["checks"] == {"throughput rises with every depth step": True}
        assert [row[0] for row in record["rows"]] == [1, 8]
        assert record["virt_ops_per_s"] > 0
        assert set(record["latency"]) == {"mean", "p50", "p95", "p99"}
        assert record["latency"]["p50"] <= record["latency"]["p99"]
        assert "wall_seconds" not in record and "peak_rss_kb" not in record
        assert record["registry"]["tiera_requests_total"] >= 400
        json.dumps(record)  # JSON-able end to end

    def test_deterministic_fields_are_seed_stable(self, batch_record):
        # every field comes from the virtual timeline
        assert run_scenario("batch_scaling") == batch_record

    def test_profile_scenario_covers_the_run(self):
        report = profile_scenario("batch_scaling")
        assert report["scenario"] == "batch_scaling"
        section_names = {s["name"] for s in report["wall"]["sections"]}
        assert {"build", "load", "drive"} <= section_names

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node.get("children", []))

        # Per-op wall cost is benchmarks/perf's: no op opens a section.
        assert not [n for n in names(report["wall"]["sections"])
                    if n.startswith(("op:", "cluster:"))]
        assert report["coverage"] > 0.5
        assert report["virtual"]["total_request_seconds"] > 0
        assert report["record"]["operations"] == 400


class TestPersistence:
    def test_write_and_load_round_trip(self, batch_record, tmp_path):
        path = write_record(batch_record, str(tmp_path))
        assert path == record_path(str(tmp_path), "batch_scaling")
        assert path.endswith("BENCH_batch_scaling.json")
        assert load_record(path) == batch_record

    def test_written_file_is_stable_text(self, batch_record, tmp_path):
        path = write_record(batch_record, str(tmp_path))
        first = open(path).read()
        write_record(batch_record, str(tmp_path))
        assert open(path).read() == first
        assert first.endswith("\n")


class TestDiff:
    def test_identical_records_pass(self, batch_record):
        ok, lines = diff_records(batch_record, copy.deepcopy(batch_record))
        assert ok
        assert any("virt_ops_per_s" in line and "ok" in line for line in lines)

    def test_twenty_percent_regression_fails(self, batch_record):
        slower = copy.deepcopy(batch_record)
        slower["virt_ops_per_s"] = round(batch_record["virt_ops_per_s"] * 0.8, 3)
        ok, lines = diff_records(batch_record, slower, tolerance=0.15)
        assert not ok
        assert any("FAIL" in line for line in lines)

    def test_regression_within_tolerance_passes(self, batch_record):
        slightly = copy.deepcopy(batch_record)
        slightly["virt_ops_per_s"] = round(batch_record["virt_ops_per_s"] * 0.9, 3)
        ok, _ = diff_records(batch_record, slightly, tolerance=0.15)
        assert ok

    def test_improvement_never_fails(self, batch_record):
        faster = copy.deepcopy(batch_record)
        faster["virt_ops_per_s"] = round(batch_record["virt_ops_per_s"] * 2, 3)
        ok, _ = diff_records(batch_record, faster)
        assert ok

    def test_operation_count_drift_is_reported(self, batch_record):
        drifted = copy.deepcopy(batch_record)
        drifted["operations"] += 1
        ok, lines = diff_records(batch_record, drifted)
        assert not ok  # same-seed runs must match
        assert any("operations" in line for line in lines)


class TestDiffDirectories:
    def _dirs(self, tmp_path, record):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        write_record(record, str(baseline))
        write_record(record, str(current))
        return str(baseline), str(current)

    def test_matching_directories_pass(self, batch_record, tmp_path):
        baseline, current = self._dirs(tmp_path, batch_record)
        ok, lines = diff_directories(baseline, current)
        assert ok and lines

    def test_regressed_current_fails(self, batch_record, tmp_path):
        baseline, current = self._dirs(tmp_path, batch_record)
        slower = copy.deepcopy(batch_record)
        slower["virt_ops_per_s"] = round(batch_record["virt_ops_per_s"] * 0.5, 3)
        write_record(slower, current)
        ok, lines = diff_directories(baseline, current)
        assert not ok
        assert any("FAIL" in line for line in lines)

    def test_missing_baseline_fails(self, batch_record, tmp_path):
        current = tmp_path / "current"
        write_record(batch_record, str(current))
        empty = tmp_path / "baseline"
        empty.mkdir()
        ok, lines = diff_directories(str(empty), str(current))
        assert not ok
        assert any("no committed baseline" in line for line in lines)

    def test_empty_current_directory_fails(self, batch_record, tmp_path):
        baseline = tmp_path / "baseline"
        write_record(batch_record, str(baseline))
        empty = tmp_path / "current"
        empty.mkdir()
        ok, lines = diff_directories(str(baseline), str(empty))
        assert not ok
        assert any("no BENCH_" in line for line in lines)

    def test_name_filter_restricts_comparison(self, batch_record, tmp_path):
        baseline, current = self._dirs(tmp_path, batch_record)
        ok, _ = diff_directories(baseline, current, names=["batch_scaling"])
        assert ok
        ok, lines = diff_directories(baseline, current, names=["fig07"])
        assert not ok  # filter excluded everything: nothing compared
