"""Figure 13 / Table 3: durability vs performance vs cost.

Paper setup: two instances — High Durability (Memcached + immediate
EBS backup + 2-minute S3 pushes) and Low Durability (Memcached +
2-minute S3 pushes only) — under a YCSB 50/50 read/write uniform
workload of 4 KB records.

Paper result: High Durability pays higher write latency and monthly
cost for a near-zero loss window; Low Durability gets the best write
latency but can lose up to the last 2 minutes of updates.

The kill-and-restart variant makes the loss window *observable*: write
a batch, crash the process inside the S3 push window (volatile
Memcached state lost), reopen over the surviving metadata store, and
count which objects still serve their bytes.  High Durability's
synchronous EBS copy survives everything; Low Durability loses the
whole un-pushed window — Table 3's trade-off, measured instead of
asserted.
"""

from __future__ import annotations

import hashlib
import zlib

from repro.bench.report import format_table, ms
from repro.bench.runner import run_closed_loop
from repro.core.server import TieraServer
from repro.core.templates import high_durability_instance, low_durability_instance
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.ycsb import mixed_50_50

RECORDS = 1_000      # 4 KB each → ~4 MB, within the 100 MB tiers
CLIENTS = 8
DURATION = 30.0
WARMUP = 8.0
PUSH_INTERVAL = 120.0


def _seed(name: str) -> int:
    """Per-instance cluster seed; crc32, not ``hash()``, whose ``str``
    values are salted per process."""
    return zlib.crc32(name.encode("utf-8")) % 1000


def _measure(builder, seed):
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = builder(registry)
    server = TieraServer(instance)
    workload = mixed_50_50(server, RECORDS, seed=3)
    ctx = RequestContext(cluster.clock)
    workload.load(ctx=ctx)
    cluster.clock.run_until(ctx.time)
    result = run_closed_loop(
        cluster.clock, clients=CLIENTS, duration=DURATION,
        op_fn=workload, warmup=WARMUP,
    )
    return instance, result


def run_figure13():
    rows = []
    for name, builder, loss_window in (
        (
            "High Durability",
            lambda reg: high_durability_instance(
                reg, mem="100M", ebs="100M", push_interval=PUSH_INTERVAL
            ),
            "~0 s (synchronous EBS)",
        ),
        (
            "Low Durability",
            lambda reg: low_durability_instance(
                reg, mem="100M", push_interval=PUSH_INTERVAL
            ),
            f"{PUSH_INTERVAL:.0f} s (S3 push window)",
        ),
    ):
        instance, result = _measure(builder, seed=_seed(name))
        rows.append(
            [
                name,
                round(ms(result.latencies.mean("read")), 2),
                round(ms(result.latencies.mean("write")), 2),
                round(instance.monthly_cost(), 2),
                loss_window,
            ]
        )
    return rows


KILL_OBJECTS = 64
KILL_ADVANCE = 30.0   # crash inside the 120 s S3 push window


def _kill_payload(key: str) -> bytes:
    stamp = hashlib.sha256(key.encode()).digest()
    return (stamp * 128)[:4096]


def _kill_restart(builder, seed):
    """PUT a batch, crash inside the push window, reopen, count survivors."""
    from repro.core.durability import reopen_instance, simulate_crash

    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = builder(registry)
    instance.enable_durability()
    server = TieraServer(instance)
    keys = [f"rec{i:04d}" for i in range(KILL_OBJECTS)]
    for key in keys:
        ctx = RequestContext(cluster.clock)
        server.put_object(key, _kill_payload(key), ctx=ctx).raise_for_error()
        cluster.clock.run_until(ctx.time)
    cluster.clock.run_until(cluster.clock.now() + KILL_ADVANCE)
    simulate_crash(instance)
    successor, recovery = reopen_instance(
        name=instance.name,
        tiers=list(instance.tiers.ordered()),
        policy=instance.policy,
        clock=cluster.clock,
        metadata_store=instance.metadata_store,
        eviction_chain=dict(instance.eviction_chain),
    )
    reopened = TieraServer(successor)
    survived = sum(
        1 for key in keys
        if reopened.contains(key)
        and reopened.get_object(
            key, ctx=RequestContext(cluster.clock)
        ).raise_for_error().value == _kill_payload(key)
    )
    successor.control.shutdown()
    successor.obs.metrics.remove_collector(successor._collect_gauges)
    return survived, recovery


def run_kill_restart():
    rows = []
    for name, builder in (
        (
            "High Durability",
            lambda reg: high_durability_instance(
                reg, mem="100M", ebs="100M", push_interval=PUSH_INTERVAL
            ),
        ),
        (
            "Low Durability",
            lambda reg: low_durability_instance(
                reg, mem="100M", push_interval=PUSH_INTERVAL
            ),
        ),
    ):
        survived, recovery = _kill_restart(builder, seed=_seed(name))
        rows.append([
            name,
            KILL_OBJECTS,
            survived,
            KILL_OBJECTS - survived,
            recovery["fsck"]["counts"]["findings"],
        ])
    return rows


def test_fig13_durability(benchmark, emit):
    table = {}

    def experiment():
        table["rows"] = run_figure13()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = format_table(
        "Figure 13 / Table 3 — latency, cost, and worst-case loss window",
        ["instance", "read (ms)", "write (ms)", "cost $/mo", "loss window"],
        table["rows"],
        note=(
            "Paper: High Durability has higher write latency and cost; "
            "Low Durability trades a 2-minute loss window for the best "
            "write latency.  Reads are Memcached-served in both."
        ),
    )
    emit("fig13_durability", text)
    high, low = table["rows"]
    assert high[2] > low[2]      # high durability writes slower
    assert high[3] > low[3]      # and costs more
    # Reads come from Memcached in both: same order of magnitude.
    assert high[1] < 5.0 and low[1] < 5.0


def test_fig13_kill_restart(benchmark, emit):
    table = {}

    def experiment():
        table["rows"] = run_kill_restart()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = format_table(
        "Figure 13 (kill-and-restart) — objects surviving a crash inside "
        "the S3 push window",
        ["instance", "acked", "survived", "lost", "recovery repairs"],
        table["rows"],
        note=(
            "Process killed 30 s after the last PUT (push interval 120 s): "
            "Memcached state is lost, the metadata store survives, and "
            "recovery replays the journal then scrubs.  High Durability's "
            "synchronous EBS copy keeps every acked object; Low Durability "
            "loses the entire un-pushed window — Table 3's loss window, "
            "observed."
        ),
    )
    emit("fig13_kill_restart", text)
    high, low = table["rows"]
    assert high[2] == KILL_OBJECTS          # synchronous EBS: all survive
    assert low[2] == 0                      # whole un-pushed window lost
    assert low[3] == KILL_OBJECTS
