"""Continuous-benchmark telemetry: structured records + regression diff.

Every instrumented benchmark run produces one JSON record
(``BENCH_<name>.json``) capturing the numbers that matter for spotting
regressions:

* **deterministic** (virtual-timeline) figures — operations, errors,
  ops/s, mean/p50/p95/p99 latency, and registry counter deltas — which
  are byte-stable for a given seed and therefore diffable with a
  tolerance of zero in principle (we still allow one, so intentional
  model changes don't demand a baseline refresh for noise-level drift);
* **informational** (wall-clock) figures — runtime and peak RSS — which
  vary by machine and are recorded for trend-watching but never gated.

:func:`diff_records` compares a fresh record against a committed
baseline and fails on a ``virt_ops_per_s`` (operations per virtual
second) regression beyond the tolerance; the
``repro bench`` / ``repro benchdiff`` CLI commands and the CI
``perf-telemetry`` job are thin wrappers around it.

The scenarios here are scaled-down self-contained versions of the
``benchmarks/`` figures (same deployments, same workload generators,
smaller sweeps) so they run in seconds and need nothing outside
``repro.*``.  Each accepts a :class:`~repro.obs.profiler.Profiler` and
wraps its build/load/drive phases in sections — ``repro profile`` rides
the same scenarios.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.runner import RunResult, run_closed_loop, run_pipelined
from repro.obs.profiler import (
    Profiler,
    cprofile_capture,
    render_profile,
    trace_breakdown,
    virtual_breakdown,
)

SCHEMA_VERSION = 1

#: Relative ``virt_ops_per_s`` drop beyond which benchdiff fails.
DEFAULT_TOLERANCE = 0.15


# -- scenarios ----------------------------------------------------------------


def _scenario_fig07(profiler: Profiler):
    """Figure 7, scaled down: sysbench read-only on MemcachedEBS."""
    from repro.bench.deployments import mysql_on_memcached_ebs
    from repro.workloads.sysbench import SysbenchOltp, load_table

    with profiler.section("build"):
        deployment = mysql_on_memcached_ebs(mem="512M", seed=2014)
        obs = deployment.cluster.obs
        obs.profiler = profiler  # nest the server's op sections here
    with profiler.section("load"):
        load_table(deployment.db, 10_000, clock=deployment.clock)
    workload = SysbenchOltp(
        deployment.db, 10_000, hot_fraction=0.10, read_only=True
    )
    before = obs.metrics.snapshot()
    with profiler.section("drive"):
        result = run_closed_loop(
            deployment.clock, clients=4, duration=8.0,
            op_fn=workload, warmup=2.0, obs=obs,
        )
    return 2014, result, obs, before


def _ycsb_scenario(
    profiler: Profiler,
    seed: int,
    template: Callable,
    make_workload: Callable,
    features: Optional[Dict[str, Dict[str, object]]] = None,
    drive: Optional[Callable] = None,
    **sizes,
):
    """The shape the YCSB scenarios share: a templated instance behind
    a :class:`TieraServer`, ``features`` switched on through the
    management API, the workload loaded, then driven — by the 4-client
    closed loop unless ``drive(clock, server, workload, obs)`` is given.
    """
    from repro.core.server import TieraServer
    from repro.simcloud.cluster import Cluster
    from repro.simcloud.resources import RequestContext
    from repro.tiers.registry import TierRegistry

    with profiler.section("build"):
        cluster = Cluster(seed=seed)
        obs = cluster.obs
        obs.profiler = profiler
        registry = TierRegistry(cluster)
        instance = template(registry, mem="100M", ebs="100M", **sizes)
        server = TieraServer(instance)
        for feature, options in (features or {}).items():
            server.configure(feature, **options).raise_for_error()
    workload = make_workload(server)
    with profiler.section("load"):
        ctx = RequestContext(cluster.clock)
        workload.load(ctx=ctx)
        cluster.clock.run_until(ctx.time)
    before = obs.metrics.snapshot()
    with profiler.section("drive"):
        if drive is not None:
            result = drive(cluster.clock, server, workload, obs)
        else:
            result = run_closed_loop(
                cluster.clock, clients=4, duration=20.0,
                op_fn=workload, warmup=5.0, obs=obs,
            )
    return seed, result, obs, before


def _scenario_fig13(profiler: Profiler):
    """Figure 13's High Durability instance under YCSB 50/50."""
    from repro.core.templates import high_durability_instance
    from repro.workloads.ycsb import mixed_50_50

    return _ycsb_scenario(
        profiler, 2014, high_durability_instance,
        lambda server: mixed_50_50(server, 500, seed=3),
        push_interval=120.0,
    )


def _scenario_batch_scaling(profiler: Profiler):
    """The batch-scaling bench's depth-8 pipelined run."""
    from repro.core.templates import high_durability_instance
    from repro.workloads.ycsb import mixed_50_50

    return _ycsb_scenario(
        profiler, 11, high_durability_instance,
        lambda server: mixed_50_50(server, 200, seed=3),
        drive=lambda clock, server, workload, obs: run_pipelined(
            clock, server, workload, 400, depth=8, obs=obs,
        ),
    )


def _zipfian(reads: float, updates: float) -> Callable:
    from repro.workloads.ycsb import YcsbWorkload

    return lambda server: YcsbWorkload(
        server, 500, read_proportion=reads, update_proportion=updates,
        distribution="zipfian", theta=0.99, seed=3,
    )


def _scenario_heat_telemetry(profiler: Profiler):
    """Zipfian YCSB mix on MemcachedEBS with the heat tracker enabled.

    Exercises the full heat pipeline — sketch updates, tier occupancy
    samples, ``tiera_heat_*`` counters — under the same closed loop the
    other scenarios use, so benchdiff catches regressions the tracker
    itself might introduce on the data path.
    """
    from repro.core.templates import memcached_ebs_instance

    return _ycsb_scenario(
        profiler, 2014, memcached_ebs_instance, _zipfian(0.5, 0.5),
        features={"heat": {"top_k": 32, "hot_min": 4}},
    )


def _scenario_adaptive_placement(profiler: Profiler):
    """Zipfian YCSB mix with the placement engine rebalancing underneath.

    Configures heat tracking *and* adaptive placement through the
    management API, so the closed loop measures the full data path with
    placement cycles firing on their virtual-time cadence — benchdiff
    catches both data-path slowdowns and runaway move churn (the
    ``tiera_placement_*`` counters land in the registry delta).
    """
    from repro.core.templates import memcached_ebs_instance

    return _ycsb_scenario(
        profiler, 2014, memcached_ebs_instance, _zipfian(0.8, 0.2),
        features={
            "heat": {"top_k": 64, "hot_min": 2},
            "placement": {"objective": "balanced", "interval": 1.0},
        },
    )


SCENARIOS: Dict[str, Callable] = {
    "fig07": _scenario_fig07,
    "fig13": _scenario_fig13,
    "batch_scaling": _scenario_batch_scaling,
    "heat_telemetry": _scenario_heat_telemetry,
    "adaptive_placement": _scenario_adaptive_placement,
}


# -- record construction ------------------------------------------------------


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX interpreter
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Linux reports KiB; macOS reports bytes.  Normalise to KiB.
    rss = usage.ru_maxrss
    if rss > 1 << 32:  # pragma: no cover - macOS path
        rss //= 1024
    return int(rss)


def _counter_totals(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Total per counter family (summed over labelsets)."""
    out: Dict[str, float] = {}
    for name, family in snapshot.get("metrics", {}).items():
        if family.get("type") != "counter":
            continue
        out[name] = float(sum(family.get("samples", {}).values()))
    return out


def registry_delta(
    before: Optional[Dict[str, object]], after: Dict[str, object]
) -> Dict[str, float]:
    """Counter-family totals that moved between two registry snapshots."""
    prior = _counter_totals(before) if before else {}
    deltas = {}
    for name, total in _counter_totals(after).items():
        delta = total - prior.get(name, 0.0)
        if delta:
            deltas[name] = round(delta, 6)
    return deltas


def make_record(
    name: str,
    seed: int,
    result: RunResult,
    wall_seconds: float,
    registry: Optional[Dict[str, float]] = None,
    profile: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One benchmark run as a JSON-able telemetry record."""
    latencies = result.latencies
    record: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "operations": result.operations,
        "errors": result.errors,
        "virtual_duration": round(result.duration, 6),
        "virt_ops_per_s": round(result.throughput, 3),
        "latency": {
            "mean": round(latencies.mean(), 6),
            "p50": round(latencies.percentile(50), 6),
            "p95": round(latencies.percentile(95), 6),
            "p99": round(latencies.percentile(99), 6),
        },
        # Wall-clock figures are machine-dependent: informational only,
        # never gated by benchdiff.
        "wall_seconds": round(wall_seconds, 3),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if registry:
        record["registry"] = dict(sorted(registry.items()))
    if profile:
        record["profile"] = profile
    return record


def _timed(name: str, profiler: Profiler):
    """Run scenario ``name``: its result tuple plus the wall seconds."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; have {', '.join(sorted(SCENARIOS))}"
        )
    started = perf_counter()
    seed, result, obs, before = SCENARIOS[name](profiler)
    return seed, result, obs, before, perf_counter() - started


def run_scenario(
    name: str,
    profiler: Optional[Profiler] = None,
    with_profile: bool = False,
) -> Dict[str, object]:
    """Run one telemetry scenario and return its record."""
    profiler = profiler if profiler is not None else Profiler()
    seed, result, obs, before, wall_seconds = _timed(name, profiler)
    return make_record(
        name, seed, result, wall_seconds,
        registry=registry_delta(before, obs.metrics.snapshot()),
        profile=profiler.wall_report() if with_profile else None,
    )


def profile_scenario(
    name: str,
    cprofile: bool = False,
    cprofile_limit: int = 15,
) -> Dict[str, object]:
    """Run a scenario under the profiler; returns the full profile report.

    The report's ``coverage`` is the fraction of the measured wall time
    the top-level sections account for — the acceptance bar is ≥ 0.9.
    """
    profiler = Profiler()
    functions: Dict[str, object] = {}
    if cprofile:
        with cprofile_capture(cprofile_limit) as functions:
            seed, result, obs, before, measured = _timed(name, profiler)
    else:
        seed, result, obs, before, measured = _timed(name, profiler)
    wall = profiler.wall_report()
    report: Dict[str, object] = {
        "scenario": name,
        "seed": seed,
        "measured_wall_seconds": round(measured, 6),
        "coverage": round(
            wall["total_seconds"] / measured if measured > 0 else 0.0, 4
        ),
        "wall": wall,
        "virtual": virtual_breakdown(before, obs.metrics.snapshot()),
        "traces": trace_breakdown(obs.tracer.recent()),
        "record": make_record(
            name, seed, result, measured,
            registry=registry_delta(before, obs.metrics.snapshot()),
        ),
    }
    if cprofile:
        report["cprofile"] = functions
    return report


# -- persistence and diffing --------------------------------------------------


def record_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"BENCH_{name}.json")


def write_record(record: Dict[str, object], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = record_path(out_dir, record["name"])
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_record(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def diff_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[bool, List[str]]:
    """Compare a run against its baseline.

    Gates on ``virt_ops_per_s`` only: virtual throughput is seed-deterministic,
    so a drop beyond ``tolerance`` means the *model* got slower, not the
    machine.  Latency and wall figures are reported as context.
    """
    lines: List[str] = []
    ok = True
    name = current.get("name", "?")
    base_tp = float(baseline.get("virt_ops_per_s", 0.0))
    cur_tp = float(current.get("virt_ops_per_s", 0.0))
    if base_tp > 0:
        change = (cur_tp - base_tp) / base_tp
        verdict = "ok"
        if change < -tolerance:
            ok = False
            verdict = f"FAIL (>{tolerance:.0%} regression)"
        lines.append(
            f"{name}: virt_ops_per_s {base_tp:.1f} -> {cur_tp:.1f} "
            f"({change:+.1%}) {verdict}"
        )
    else:
        lines.append(f"{name}: baseline has no virt_ops_per_s; skipping gate")
    for pct in ("p50", "p95", "p99"):
        base = float(baseline.get("latency", {}).get(pct, 0.0))
        cur = float(current.get("latency", {}).get(pct, 0.0))
        if base > 0:
            lines.append(
                f"{name}: latency {pct} {base * 1000:.2f} -> "
                f"{cur * 1000:.2f} ms ({(cur - base) / base:+.1%}, not gated)"
            )
    base_ops = baseline.get("operations")
    cur_ops = current.get("operations")
    if base_ops != cur_ops:
        lines.append(
            f"{name}: operations {base_ops} -> {cur_ops} "
            "(same-seed runs should match; check for model changes)"
        )
    base_wall = baseline.get("wall_seconds")
    cur_wall = current.get("wall_seconds")
    if base_wall and cur_wall:
        lines.append(
            f"{name}: wall {base_wall:.2f}s -> {cur_wall:.2f}s (informational)"
        )
    return ok, lines


def diff_directories(
    baseline_dir: str,
    current_dir: str,
    tolerance: float = DEFAULT_TOLERANCE,
    names: Optional[List[str]] = None,
) -> Tuple[bool, List[str]]:
    """Diff every BENCH_*.json in ``current_dir`` against its baseline."""
    lines: List[str] = []
    ok = True
    wanted = set(names) if names else None
    compared = 0
    for entry in sorted(os.listdir(current_dir)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        name = entry[len("BENCH_"):-len(".json")]
        if wanted is not None and name not in wanted:
            continue
        base_path = os.path.join(baseline_dir, entry)
        if not os.path.exists(base_path):
            lines.append(f"{name}: no committed baseline at {base_path}")
            ok = False
            continue
        good, detail = diff_records(
            load_record(base_path),
            load_record(os.path.join(current_dir, entry)),
            tolerance=tolerance,
        )
        ok = ok and good
        lines.extend(detail)
        compared += 1
    if compared == 0:
        lines.append(f"no BENCH_*.json records found in {current_dir}")
        ok = False
    return ok, lines


__all__ = [
    "SCENARIOS",
    "DEFAULT_TOLERANCE",
    "run_scenario",
    "profile_scenario",
    "make_record",
    "registry_delta",
    "write_record",
    "load_record",
    "record_path",
    "diff_records",
    "diff_directories",
    "render_profile",
]
