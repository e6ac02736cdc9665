"""Checks of the wall-clock harness itself, at ``--smoke`` scale.

Run as ``python -m pytest benchmarks/perf -q`` (outside tier-1's
``testpaths``).  Every run goes through ``run.py`` the way the driver
calls it, in subprocesses; nothing here judges a wall-clock number.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import driver
import run
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
CONTRACT = run.load_contract()
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
IN_PROCESS = ("direct_resident", "tiered_full", "cluster_r3")


def _smoke(out_dir, seed=2014):
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--seed", str(seed), "--out", str(out_dir)],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    with open(os.path.join(out_dir, "results.json")) as handle:
        return json.load(handle)["workloads"]


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("first"))


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("second"))


def _values(record):
    return {name: m["value"] for name, m in record["metrics"].items()}


def test_names_match_the_contract(first):
    assert WORKLOADS == list(driver.WORKLOADS) == list(first)
    declared = {
        kind: [metric["name"] for metric in CONTRACT[kind]]
        for kind in ("end_to_end", "per_layer")
    }
    names = WORKLOADS + declared["end_to_end"] + declared["per_layer"]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for runs in first.values():
        assert list(runs["end_to_end"]["metrics"]) == declared["end_to_end"]
        assert list(runs["per_layer"]["metrics"]) == declared["per_layer"]
        for record in runs.values():
            assert all(
                isinstance(metric["value"], (int, float)) and metric["unit"]
                for metric in record["metrics"].values()
            )


def test_no_workload_fails_an_op(first):
    for runs in first.values():
        for record in runs.values():
            assert record["correct"] and record["failed"] == 0
            assert record["attempted"] >= 1
        assert runs["end_to_end"]["metrics"]["ok_share"]["value"] == 1.0
        assert runs["per_layer"]["digest_reproduced"]
        assert runs["per_layer"]["prefix_reproduced"]


def test_same_seed_reproduces_counts_and_digests(first, second):
    for name in WORKLOADS:
        for kind in ("end_to_end", "per_layer"):
            a, b = first[name][kind], second[name][kind]
            assert a["envelope_digest"] == b["envelope_digest"]
            exact = [
                metric for metric in a["metrics"]
                if metric.startswith("virt_") or metric.endswith(".calls_per_op")
            ]
            assert exact
            assert {m: _values(a)[m] for m in exact} == {
                m: _values(b)[m] for m in exact}


def test_another_seed_changes_the_digest(first, tmp_path):
    other = run.spawn("direct_resident", 2015, CONTRACT["run_seconds"], 0,
                      str(tmp_path), smoke=True)
    assert (other["envelope_digest"]
            != first["direct_resident"]["end_to_end"]["envelope_digest"])


def test_spans_nest_and_cover_the_ops(first):
    for name in WORKLOADS:
        record = first[name]["per_layer"]
        assert _values(record)["driver.span_coverage"] >= 0.8
        assert _values(record)["driver.spans_missing"] == 0
        with open(record["trace_file"]) as handle:
            trace = json.load(handle)
        kept = trace["spans"]
        assert kept and set(trace["layers"]) <= set(
            metric.rsplit(".", 1)[0] for metric in record["metrics"])
        for span in kept:
            assert span["start"] <= span["end"]
            if span["parent"] >= 0:
                parent = kept[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                assert span["op"] == parent["op"]


def test_layers_work_only_where_predicted(first):
    values = {name: _values(first[name]["per_layer"]) for name in WORKLOADS}
    assert values["direct_resident"]["core.instance.evictions_per_put"] == 0
    assert values["tiered_full"]["core.instance.evictions_per_put"] > 0
    assert values["tiered_full"]["kvstore.file_bytes_per_object"] > 0
    assert 0 < values["tiered_full"]["tiers.fast_hit_rate"] < 1
    assert values["cluster_r3"]["core.cluster.replica_ops_per_put"] == 3
    for name in WORKLOADS:
        for metric, value in values[name].items():
            layer = metric.rsplit(".", 1)[0]
            idle = (
                (layer == "rpc" and name in IN_PROCESS)
                or (layer in ("core.cluster", "core.sharding")
                    and name != "cluster_r3")
                or (layer in ("core.durability", "core.resilience",
                              "core.placement") and name != "tiered_full")
            )
            if idle:
                assert value == 0, (name, metric)
    for name in ("rpc_serial", "rpc_batch8"):
        assert values[name]["rpc.wire_bytes_per_user_byte"] > 1
        # the clock follows every reply, so bookings do not pile up
        assert (values[name]["simcloud.bookings_live"]
                <= values[name]["simcloud.bookings_live_first"] + 8)


def test_compare_flags_worse_and_differing(first, tmp_path, capsys):
    results = {"workloads": first}
    same = tmp_path / "a.json"
    same.write_text(json.dumps(results))
    assert run.compare(str(same), str(same)) == 0

    slower = json.loads(same.read_text())
    metrics = slower["workloads"]["rpc_serial"]["end_to_end"]["metrics"]
    metrics["get_p50_us"]["value"] *= 1.5
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert run.compare(str(same), str(worse)) == 1
    assert "worse" in capsys.readouterr().out

    drifted = json.loads(same.read_text())
    drifted["workloads"]["cluster_r3"]["end_to_end"]["envelope_digest"] = "0"
    other = tmp_path / "c.json"
    other.write_text(json.dumps(drifted))
    assert run.compare(str(same), str(other)) == 1


def test_no_program_no_result(tmp_path):
    """In a directory holding only the benchmark, the command fails fast
    and prints no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "direct_resident", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


# -- pieces that need no deployment ---------------------------------------


def test_op_stream_is_a_function_of_the_seed():
    workload = driver.WORKLOADS["tiered_full"]
    one = driver.OpStream(workload, 7, 64).take(500)
    assert one == driver.OpStream(workload, 7, 64).take(500)
    assert one != driver.OpStream(workload, 8, 64).take(500)
    gets = sum(kind == spans.GET for kind, _, _ in one)
    assert 0.7 < gets / 500 < 0.9
    inserted = [key for kind, key, _ in one if kind == spans.PUT]
    assert len(set(inserted)) == len(inserted)  # inserts never overwrite


def test_the_cleaner_half_of_each_quarter_counts():
    window = driver.Window(driver.Ledger({}), ops=0)
    # quiet first half, noisy second half: a free choice would keep only
    # the first half; per quarter, both halves stay represented
    window.calibration = [40 + i % 10 for i in range(20)] + [
        80 + i % 10 for i in range(20)]
    clean = window.clean_segments()
    assert len(clean) == 20
    assert [sum(q * 10 <= i < (q + 1) * 10 for i in clean)
            for q in range(4)] == [5, 5, 5, 5]
    assert all(window.calibration[i] % 10 < 5 for i in clean)


def test_percentile_is_nearest_rank():
    assert driver.percentile([3, 1, 2], 0.5) == 2
    assert driver.percentile(range(1, 101), 0.95) == 95
    assert driver.percentile([5], 0.99) == 5


def test_recorder_splits_time_between_parent_and_child():
    recorder = spans.Recorder(keep_ops=1)
    ticks = iter(range(100))

    def leaf():
        next(ticks)

    inner = recorder.wrap(leaf, "low", "leaf")
    outer = recorder.wrap(lambda: (inner(), inner()), "high", "outer")
    outer()  # inactive: passes through, records nothing
    assert recorder.count("high") == 0
    recorder.active = True
    recorder.begin_op(0, spans.PUT)
    outer()
    recorder.begin_op(1, spans.GET)
    outer()
    assert recorder.count("high") == 2 and recorder.count("low") == 4
    assert recorder.self_seconds("high") + recorder.self_seconds("low") == (
        pytest.approx(recorder.seconds("high")))
    assert recorder.self_seconds("low", kind=spans.GET) > 0
    assert recorder.root_time == pytest.approx(recorder.seconds("high"))
    kept = recorder.kept_spans()
    assert [span["name"] for span in kept] == ["outer", "leaf", "leaf"]
    assert [span["parent"] for span in kept] == [-1, 0, 0]
