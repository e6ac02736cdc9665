"""One completion hook: every client request closes once, through its
hub's ``Observability.complete`` (docs/OBSERVABILITY.md, "One
completion hook").  A router's requests close on the router's own hub,
so the answers it gives its clients — request counts, SLOs — do not
change with the replication factor; a shard's requests close on the
shards' hub, whose heat timeline sums every heat-enabled instance.
"""

import pytest

from repro.bench.sim import build_shard_cluster
from repro.core import templates
from repro.core.api import BatchOp
from repro.core.cluster import ClusterConfig
from repro.core.durability import reopen_instance, simulate_crash
from repro.core.server import TieraServer
from repro.obs.heat import HeatTracker
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloObjective
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

R3, R1 = ClusterConfig(), None


def router(config):
    _, built, _, _ = build_shard_cluster(seed=2014, config=config)
    return built


@pytest.fixture(params=[R3, R1], ids=["R=3", "R=1"])
def rt(request):
    built = router(request.param)
    yield built
    built.cluster.stop()


def put_samples(status):
    """``{objective name: samples}`` of a status's put objectives."""
    return {
        objective["name"]: objective["samples"]
        for objective in status["objectives"] if objective["op"] == "put"
    }


class TestRouterSlo:
    def test_one_engine_one_sample_per_client_op(self, rt):
        """At the parent the router installed the objectives on the
        shards' shared hub: four copies of one engine in the status,
        fed 60 replica samples by 20 PUTs at R = 3."""
        rt.configure("slo").raise_for_error()
        for i in range(20):
            rt.put_object(f"k{i}", b"v" * 100).raise_for_error()
        status = rt.feature_status("slo")
        assert status.enabled and "shards" not in status.state
        assert put_samples(status.state) == {
            "put_availability": 20, "put_latency": 20,
        }
        assert rt.obs.slo is not rt.shards["shard0"].obs.slo
        assert not rt.shards["shard0"].obs.slo.objectives
        requests = rt.obs.metrics.get("tiera_requests_total")
        assert requests.value(op="put") == 20
        shard_hub = rt.shards["shard0"].obs.metrics
        assert shard_hub.get("tiera_requests_total").value(op="put") == (
            20 * rt.cluster.replicas()
        )

    def test_health_degrades_on_the_routers_own_alert(self, rt):
        """No put is ever this fast: the router's objective alerts, its
        health degrades, and the shards, which watch nothing, stay ok."""
        rt.configure("slo", objectives=[SloObjective(
            name="put_instant", op="put", kind="latency", target=1e-9,
            window=30.0, short_window=5.0,
        )]).raise_for_error()
        assert rt.health()["status"] == "ok"
        for i in range(20):
            rt.put_object(f"k{i}", b"v" * 100).raise_for_error()
        rt.clock.run_until(rt.clock.now() + 2.0)
        health = rt.health()
        assert health["slo"]["alerting"] == ["put_instant"]
        assert health["status"] == "degraded"
        assert {s["status"] for s in health["shards"].values()} == {"ok"}


class TestHeatTimeline:
    def test_a_sample_sums_every_heat_enabled_instance_on_the_hub(self):
        """At the parent the timeline sampled only the last shard to
        enable heat: tier1 used 13 000 B while the shards held 15 000 +
        5 000 + 7 000 + 13 000."""
        rt = router(R1)
        rt.configure("heat").raise_for_error()
        for i in range(40):
            rt.put_object(f"k{i}", b"v" * 1000).raise_for_error()
        tracker = rt.shards["shard0"].obs.heat
        instances = [shard.instance for shard in rt.shards.values()]

        def expected():
            rows = [inst.tiers.get("tier1") for inst in instances]
            return (sum(t.used for t in rows), sum(t.capacity for t in rows))

        tracker.sample(rt.clock.now())
        tier1 = tracker.timeline[-1]["tiers"]["tier1"]
        assert (tier1["used"], tier1["capacity"]) == expected() == (
            40 * 1000, 4 * 64 * 2 ** 20
        )
        # A retiring instance leaves the sum; the tracker keeps sampling
        # the rest.
        instances.pop(0).shutdown()
        tracker.sample(rt.clock.now())
        tier1 = tracker.timeline[-1]["tiers"]["tier1"]
        assert (tier1["used"], tier1["capacity"]) == expected()
        assert tracker._collect in tracker.metrics._collectors

    def test_a_crashed_instance_leaves_the_sum(self):
        """Its successor samples the same tiers under a new owner id;
        counting the dead incarnation too would double them."""
        registry = TierRegistry(Cluster(seed=1))
        instance = templates.write_through_instance(
            registry, mem="4M", ebs="4M"
        )
        instance.enable_heat()
        TieraServer(instance).put_object("k", b"v" * 100).raise_for_error()
        simulate_crash(instance)
        successor, _ = reopen_instance(
            name=instance.name, tiers=list(instance.tiers.ordered()),
            policy=instance.policy, clock=instance.clock,
            metadata_store=instance.metadata_store,
        )
        tracker = successor.enable_heat()
        tracker.sample(successor.clock.now())
        assert list(tracker.occupancy_sources) == [successor.owner]
        assert tracker.timeline[-1]["tiers"]["tier2"]["used"] == 100

    def test_an_unbounded_tier_keeps_the_sum_unbounded(self):
        tracker = HeatTracker(MetricsRegistry()).enable()
        tracker.occupancy_sources["a"] = lambda: [("t", 5, 10), ("s3", 1, -1)]
        tracker.occupancy_sources["b"] = lambda: [("t", 3, 30), ("s3", 2, -1)]
        tracker.sample(0.0)
        assert tracker.timeline[-1]["tiers"] == {
            "t": {"used": 8, "capacity": 40, "utilization": 0.2},
            "s3": {"used": 3, "capacity": -1, "utilization": None},
        }


class TestRouterBatches:
    """A client batch is counted once, by the bracket, on the hub of the
    façade the client called: a router's on the router's hub, none on
    the shards' (each item is one client op there)."""

    def test_a_router_batch_counts_once_on_its_own_hub(self):
        built = router(R1)
        try:
            done = built.execute_batch([
                BatchOp.put(f"k{i}", b"v" * 10) if i % 2 else BatchOp.get("k1")
                for i in range(8)
            ])
            assert len(done.results) == 8
            counted = built.obs.metrics
            assert counted.counter("tiera_batches_total").total() == 1
            assert counted.counter("tiera_batch_items_total").total() == 8
            assert counted.histogram("tiera_batch_seconds").count() == 1
            shards = {shard.obs for shard in built.shards.values()}
            assert built.obs not in shards
            for hub in shards:
                assert hub.metrics.counter("tiera_batches_total").total() == 0
        finally:
            built.cluster.stop()
