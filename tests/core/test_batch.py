"""The batched data path and its max-plus-queueing virtual-time cost."""

import json
from dataclasses import fields

import pytest

from repro.core.api import BatchOp
from repro.core.errors import BackpressureError, PARTIAL_FAILURE
from repro.core.events import ActionEvent
from repro.core.instance import TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.simcloud.cluster import Cluster
from repro.simcloud.latency import FixedLatency
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from tests.core.conftest import build_instance

BIG = 64 * 1024 * 1024

MEM_LAT = 0.001
EBS_LAT = 0.004

WRITE_THROUGH = Rule(
    ActionEvent("insert"),
    [Store(InsertObject(), ("tier1", "tier2"))],
    name="write-through",
)


def fixed_stack(rules=(), seed=77, max_inflight=128):
    """Memcached (8 channels) over EBS (2 channels), FixedLatency so the
    max-plus arithmetic below is exact.  EBS's barrier-write multiplier
    is disabled to keep one op = one latency unit."""
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    built = [
        registry.create(
            "Memcached", tier_name="tier1", size=BIG,
            latency=FixedLatency(MEM_LAT),
        ),
        registry.create(
            "EBS", tier_name="tier2", size=BIG,
            latency=FixedLatency(EBS_LAT), write_multiplier=1.0,
        ),
    ]
    instance = TieraInstance(
        name="batch-test",
        tiers=built,
        policy=Policy(list(rules)),
        clock=cluster.clock,
        eval_overhead=0.0,  # so latencies below are exact tier arithmetic
    )
    return TieraServer(instance, max_inflight=max_inflight)


def lognormal_stack(seed=77):
    """The default (jittered) products — for determinism tests."""
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = build_instance(
        registry,
        [("tier1", "Memcached", BIG), ("tier2", "EBS", BIG)],
        rules=[WRITE_THROUGH],
    )
    return TieraServer(instance)


class TestMaxPlusCost:
    def test_multi_tier_durable_put_costs_max_not_sum(self):
        """A PUT stored in two tiers by one rule pays the slowest tier,
        not the sum of both writes (ISSUE acceptance criterion)."""
        server = fixed_stack(rules=[WRITE_THROUGH])
        result = server.put_object("k", b"x" * 100)
        assert result.ok
        assert set(result.tier.split(",")) == {"tier1", "tier2"}
        assert result.latency == pytest.approx(max(MEM_LAT, EBS_LAT))
        assert result.latency < MEM_LAT + EBS_LAT

    def test_batch_overlap_is_free_when_channels_suffice(self):
        """8 memcached puts across 8 lanes fit its 8 channels: the batch
        costs one service time, pure max with no queueing."""
        server = fixed_stack()  # default placement → tier1 (Memcached)
        batch = server.put_many(
            [(f"k{i}", b"v") for i in range(8)], parallelism=8
        )
        assert batch.ok
        assert batch.latency == pytest.approx(MEM_LAT)

    def test_batch_queueing_term_on_narrow_tier(self):
        """4 EBS-bound puts across 4 lanes contend for EBS's 2 channels:
        two waves, so the batch costs 2x one write — the bandwidth/
        channel queueing term on top of the max."""
        server = fixed_stack(rules=[Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), "tier2")],
            name="to-ebs",
        )])
        batch = server.put_many(
            [(f"k{i}", b"v") for i in range(4)], parallelism=4
        )
        assert batch.ok
        assert batch.latency == pytest.approx(2 * EBS_LAT)
        assert batch.latency < 4 * EBS_LAT

    def test_parallelism_one_is_the_serial_sum(self):
        server = fixed_stack()
        batch = server.put_many(
            [(f"k{i}", b"v") for i in range(4)], parallelism=1
        )
        assert batch.parallelism == 1
        assert batch.latency == pytest.approx(
            sum(r.latency for r in batch.results)
        )

    def test_router_batch_pays_the_slowest_shard(self):
        """Owners are independent instances: an unreplicated router runs
        each owner's group on its own branch, so at parallelism 1 the
        batch costs its slowest group, not the sum of the groups."""
        router = ShardedTieraServer({
            f"s{i}": fixed_stack(rules=[WRITE_THROUGH], seed=i)
            for i in range(4)
        })
        batch = router.put_many(
            [(f"k{i}", b"v" * 4096) for i in range(32)], parallelism=1
        )
        assert batch.ok
        groups = {}
        for result in batch.results:
            shard = router.shard_of(result.key)
            groups[shard] = groups.get(shard, 0.0) + result.latency
        assert len(groups) == 4
        assert batch.latency == pytest.approx(max(groups.values()))
        assert batch.latency < sum(groups.values())

    def test_deeper_pipeline_is_never_slower(self):
        results = {}
        for depth in (1, 2, 4, 8):
            server = fixed_stack(rules=[WRITE_THROUGH])
            batch = server.put_many(
                [(f"k{i}", b"v" * 64) for i in range(8)], parallelism=depth
            )
            results[depth] = batch.latency
        assert results[8] <= results[4] <= results[2] <= results[1]
        assert results[8] < results[1]


class TestBatchSemantics:
    def test_results_preserve_submission_order(self):
        server = fixed_stack()
        server.put_object("a", b"1")
        server.put_object("b", b"2")
        batch = server.execute_batch(
            [BatchOp.get("b"), BatchOp.get("a")], parallelism=2
        )
        assert [r.key for r in batch.results] == ["b", "a"]
        assert batch.values() == [b"2", b"1"]

    def test_partial_failure_is_data_not_control_flow(self):
        server = fixed_stack()
        server.put_object("real", b"v")
        batch = server.execute_batch(
            [BatchOp.get("real"), BatchOp.get("ghost"), BatchOp.delete("nope")],
            parallelism=3,
        )
        assert not batch.ok
        assert batch.code == PARTIAL_FAILURE
        assert [r.ok for r in batch.results] == [True, False, False]
        assert {r.error for r in batch.failures} == {"NO_SUCH_OBJECT"}
        with pytest.raises(Exception):
            batch.raise_for_error()

    def test_batch_metrics_recorded(self):
        server = fixed_stack()
        server.put_many([(f"k{i}", b"v") for i in range(3)])
        metrics = server.obs.metrics
        assert metrics.counter("tiera_batches_total").total() == 1
        assert metrics.counter("tiera_batch_items_total").total() == 3

    def test_batch_failure_still_charges_the_failed_lane(self):
        """A failed item's branch participates in the join: the batch's
        span covers the failed lookup too."""
        server = fixed_stack()
        batch = server.get_many(["ghost"], parallelism=4)
        assert not batch.ok
        assert batch.latency >= 0.0


class TestAdmissionControl:
    def test_over_limit_batch_is_refused_whole(self):
        server = fixed_stack(max_inflight=4)
        with pytest.raises(BackpressureError) as err:
            server.put_many([(f"k{i}", b"v") for i in range(5)])
        assert err.value.code == "BACKPRESSURE"
        # nothing ran: no objects, no inflight leak
        assert server.keys() == []
        assert server.admission.inflight == 0
        assert server.admission.rejected == 5

    def test_limit_releases_after_each_batch(self):
        server = fixed_stack(max_inflight=4)
        for _ in range(3):
            batch = server.put_many([("a", b"1"), ("b", b"2")])
            assert batch.ok
        assert server.admission.inflight == 0
        assert server.admission.admitted == 6

    def test_backpressure_metric_counts_refusals(self):
        server = fixed_stack(max_inflight=2)
        with pytest.raises(BackpressureError):
            server.put_many([(f"k{i}", b"v") for i in range(3)])
        total = server.obs.metrics.counter("tiera_backpressure_total").total()
        assert total == 1

    def test_router_admission_refuses_before_any_shard_runs(self):
        shard = fixed_stack()
        sharded = ShardedTieraServer({"s1": shard}, max_inflight=4)
        with pytest.raises(BackpressureError):
            sharded.put_many([(f"k{i}", b"v") for i in range(5)])
        assert shard.keys() == []
        assert sharded.admission.inflight == 0

    def test_a_shard_refusing_its_share_refuses_the_whole_router_batch(self):
        """Regression: the router admitted the batch, ran the earlier
        shards, and only then met the full shard — 31 of 40 keys landed
        before ``BACKPRESSURE``, the traced root stayed open on the
        caller's context and the router hub never counted it."""
        shards = {
            "s0": fixed_stack(seed=1),
            "s1": fixed_stack(seed=2),
            "s2": fixed_stack(seed=3, max_inflight=2),
        }
        sharded = ShardedTieraServer(shards)
        items = [(f"k{i}", b"v") for i in range(40)]
        assert sum(sharded.shard_of(k) == "s2" for k, _ in items) > 2
        ctx = RequestContext(sharded.clock)
        with pytest.raises(BackpressureError):
            sharded.put_many(items, ctx=ctx, trace=True)
        assert sharded.keys() == []          # refused whole: nothing ran
        assert ctx.span is None and ctx.trace is None
        assert ctx.time == ctx.start         # no virtual time spent
        refusals = sharded.obs.metrics.counter("tiera_backpressure_total")
        assert refusals.total() == 1         # once, at the router
        for server in (sharded, *shards.values()):
            assert server.admission.inflight == 0
        # ... and the same batch fits once the shard has room again.
        shards["s2"].admission.max_inflight = 128
        assert sharded.put_many(items).ok


def _fields(result):
    """An envelope's compared fields, JSON-clean: the payload as hex."""
    doc = {f.name: getattr(result, f.name) for f in fields(result) if f.compare}
    doc["value"] = None if result.value is None else result.value.hex()
    return doc


def _trace(server, seed):
    """One mixed batched run, serialized to bytes; the payloads ride
    along as hex, so a changed value changes the trace."""
    ops = [BatchOp.put(f"k{i}", bytes([i]) * 256) for i in range(8)]
    first = server.execute_batch(ops, parallelism=4)
    second = server.get_many([f"k{i}" for i in range(8)], parallelism=8)
    third = server.execute_batch(
        [BatchOp.delete("k0"), BatchOp.get("k1"), BatchOp.get("ghost")],
        parallelism=2,
    )
    wire = {
        "seed": seed,
        "batches": [
            {
                "latency": b.latency,
                "parallelism": b.parallelism,
                "code": b.code,
                "results": [_fields(r) for r in b.results],
            }
            for b in (first, second, third)
        ],
    }
    return json.dumps(wire, sort_keys=True).encode()


class TestDeterminism:
    def test_same_seed_batched_runs_are_byte_identical(self):
        """Two fresh same-seed stacks produce byte-identical result
        traces — batching changes time accounting, never outcomes."""
        assert _trace(lognormal_stack(seed=42), 42) == _trace(
            lognormal_stack(seed=42), 42
        )

    def test_different_seeds_differ(self):
        assert _trace(lognormal_stack(seed=42), 0) != _trace(
            lognormal_stack(seed=43), 0
        )
