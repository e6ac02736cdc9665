"""Per-layer metrics of the traced pass.

Pure arithmetic over what the traced pass collected: the span
aggregates, the traced window, the untraced window over the same ops,
the layer state ``stack.Deployment.probe()`` read afterwards, and window
deltas of the layers' own counters.  Layer names are module names; a
metric a workload's deployment has no layer for is 0, never absent, so
every workload emits the same names.

Counts (``calls_per_op``, ``*_per_put``, ``*_per_op``) are exact
functions of (workload, seed, seconds).  Span times are wall µs *with the
wrappers in place*, scaled by ``CAL_REF_S / mean calibration`` of the
whole traced window (one factor: coarser than the end-to-end estimator,
enough to take out a slow hour) — compare them between two commits, never
with the untraced end-to-end times.  The ``*_ms`` probes are raw.
"""

from __future__ import annotations

import statistics
from typing import Dict

import spans
from driver import CAL_REF_S, Window, percentile

LAYERS = (
    "rpc", "core.sharding", "core.cluster", "core.server", "core.control",
    "core.instance", "core.durability", "core.resilience", "core.placement",
    "tiers", "simcloud", "kvstore", "obs",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    rec: spans.Recorder,
    plain: Window,
    traced: Window,
    probe: Dict[str, float],
    missing: int,
    py_calls_per_op: float,
) -> Dict[str, float]:
    ops = traced.ops
    gets = len(traced.samples(spans.GET))
    puts = len(traced.samples(spans.PUT))
    ledger = traced.ledger
    delta = traced.counters
    count = rec.count
    speed = CAL_REF_S / statistics.fmean(traced.calibration)

    def seconds(*args, **kwargs) -> float:
        return rec.seconds(*args, **kwargs) * speed

    def own(*args, **kwargs) -> float:
        return rec.self_seconds(*args, **kwargs) * speed

    def mean_us(layer: str, *names: str) -> float:
        return _ratio(
            sum(seconds(layer, name) for name in names) * 1e6,
            sum(count(layer, name) for name in names),
        )

    def obs_share(kind: int) -> float:
        # A batch workload has no single-op requests: both names then
        # report the obs share of whole batches.
        if not traced.kind_service_s[kind]:
            kind = spans.BATCH
        return _ratio(
            rec.self_seconds("obs", kind=kind), traced.kind_service_s[kind])

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = own(layer) * 1e6 / ops
        out[f"{layer}.calls_per_op"] = count(layer) / ops

    out["rpc.wire_bytes_per_op"] = delta["wire_bytes"] / ops
    out["rpc.wire_bytes_per_user_byte"] = _ratio(
        delta["wire_bytes"], ledger.user_bytes)

    out["core.sharding.route_us"] = mean_us(
        "core.sharding", "ConsistentHashRing.owner", "ConsistentHashRing.owners")

    out["core.cluster.replica_ops_per_put"] = _ratio(
        count("core.server", "TieraServer.put_object"),
        count("core.cluster", "ClusterManager.put_object"))
    out["core.cluster.replica_ops_per_get"] = _ratio(
        count("core.server", "TieraServer.get_object"),
        count("core.cluster", "ClusterManager.get_object"))
    out["core.cluster.anti_entropy_ms"] = probe.get("anti_entropy_ms", 0.0)
    out["core.cluster.anti_entropy_runs"] = count(
        "core.cluster", "ClusterManager.anti_entropy")
    out["core.cluster.hints_pending"] = probe.get("hints_pending", 0)

    out["core.server.batch_us_per_item"] = (
        own("core.server", "TieraServer.execute_batch") * 1e6 / ops)

    out["core.control.rules_fired_per_op"] = delta["rules_fired"] / ops
    out["core.control.threshold_evals_per_op"] = count(
        "core.control", "ControlLayer.evaluate_thresholds") / ops

    def instance(name: str) -> int:
        return count("core.instance", f"TieraInstance.{name}")

    out["core.instance.tier_writes_per_put"] = _ratio(
        instance("write_to_tier"), puts)
    out["core.instance.tier_reads_per_get"] = _ratio(instance("read_raw"), gets)
    out["core.instance.meta_persists_per_put"] = _ratio(
        instance("persist_meta"), puts)
    out["core.instance.evictions_per_put"] = _ratio(
        instance("remove_from_tier"), puts)
    out["core.instance.state_digest_ms"] = probe["state_digest_ms"]

    out["core.durability.journal_records_per_put"] = _ratio(
        sum(
            count("core.durability", f"DurabilityLayer.{name}")
            for name in ("journal_write", "journal_remove", "begin_scope")
        ),
        puts)
    out["core.durability.journal_bytes_per_user_byte"] = _ratio(
        rec.tallies.get("journal_bytes", 0), ledger.put_bytes)
    out["core.durability.checkpoint_ms"] = probe.get("checkpoint_ms", 0.0)
    out["core.durability.fsck_ms"] = probe.get("fsck_ms", 0.0)

    out["core.resilience.retries_per_op"] = delta["retries"] / ops
    out["core.resilience.corruptions_detected"] = delta["corruptions"]

    cycles = rec.kept_durations("core.placement", "PlacementEngine.run_cycle")
    out["core.placement.plan_ms"] = probe.get("plan_ms", 0.0)
    out["core.placement.cycles"] = delta["placement_cycles"]
    out["core.placement.moves_per_cycle"] = _ratio(
        delta["placement_moves"], delta["placement_cycles"])
    out["core.placement.cycle_ms_p50"] = (
        statistics.median(cycles) * speed * 1e3 if cycles else 0.0)

    out["tiers.fast_hit_rate"] = _ratio(
        ledger.fast_gets, len(ledger.virt_latency[spans.GET]))
    out["tiers.ops_per_op"] = count("tiers") / ops

    out["simcloud.service_ops_per_op"] = sum(
        count("simcloud", f"StorageService.{verb}")
        for verb in ("put", "get", "delete")
    ) / ops
    out["simcloud.acquire_us"] = mean_us("simcloud", "Resource.acquire")
    out["simcloud.bookings_live_first"] = traced.live_bookings[0]
    out["simcloud.bookings_live"] = traced.live_bookings[-1]
    # every timer that fired was scheduled: fired = scheduled - still pending
    out["simcloud.timers_fired"] = (
        count("simcloud", "SimClock.schedule") - delta["timers_pending"])

    out["kvstore.puts_per_op"] = (
        count("kvstore", "MemoryStore.put") + count("kvstore", "LogStore.put")
    ) / ops
    out["kvstore.bytes_written_per_user_byte"] = _ratio(
        rec.tallies.get("store_bytes", 0), ledger.put_bytes)
    out["kvstore.file_bytes_per_object"] = _ratio(
        probe.get("file_bytes", 0), probe["objects"])
    out["kvstore.reopen_ms"] = probe.get("reopen_ms", 0.0)

    out["obs.hook_share_get"] = obs_share(spans.GET)
    out["obs.hook_share_put"] = obs_share(spans.PUT)
    out["obs.heat_us_per_op"] = (
        seconds("obs", "HeatTracker.record")
        + seconds("obs", "HeatTracker.record_tier")
    ) * 1e6 / ops
    out["obs.metric_series"] = probe["metric_series"]
    out["obs.trace_spans_retained"] = probe["trace_spans_retained"]

    plain_gets = plain.samples(spans.GET)
    plain_puts = plain.samples(spans.PUT)
    out["driver.self_us_per_op"] = (
        (plain.wall_s - plain.service_s) * 1e6 / plain.ops)
    out["driver.py_calls_per_op"] = py_calls_per_op
    out["driver.trace_overhead_ratio"] = _ratio(
        traced.service_cal_s / traced.ops, plain.service_cal_s / plain.ops)
    out["driver.span_coverage"] = _ratio(rec.root_time, traced.service_s)
    out["driver.spans_missing"] = missing
    out["driver.calib_us"] = statistics.median(plain.calibration) * 1e6
    out["driver.raw_ops_per_s"] = plain.ops / plain.service_s
    out["driver.get_p99_us"] = percentile(plain_gets, 0.99)
    out["driver.put_p99_us"] = percentile(plain_puts, 0.99)
    out["driver.op_max_ms"] = max(max(plain_gets), max(plain_puts)) / 1e3
    out["driver.samples_get"] = len(plain_gets)
    out["driver.samples_put"] = len(plain_puts)
    out["driver.failed_share"] = plain.ledger.failed / plain.ledger.attempted
    return out
