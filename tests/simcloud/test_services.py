"""Simulated storage services: data paths, capacity, failure modes."""

import pytest

from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import (
    CapacityExceededError,
    NoSuchKeyError,
    ServiceUnavailableError,
)
from repro.simcloud.latency import FixedLatency
from repro.simcloud.resources import RequestContext
from repro.simcloud.services import (
    SimBlockVolume,
    SimEphemeralDisk,
    SimMemcached,
    SimObjectStore,
)


@pytest.fixture
def env(cluster):
    node = cluster.add_node("svc-node")
    return cluster, node


def make(cls, env, **kwargs):
    cluster, node = env
    kwargs.setdefault("latency", FixedLatency(0.001))
    return cls(
        name="svc", node=node, clock=cluster.clock, rng=cluster.rng, **kwargs
    )


def ctx_for(env):
    return RequestContext(env[0].clock)


class TestBasicStorage:
    @pytest.mark.parametrize(
        "cls", [SimMemcached, SimBlockVolume, SimObjectStore, SimEphemeralDisk]
    )
    def test_put_get_roundtrip(self, env, cls):
        svc = make(cls, env)
        svc.put("k", b"value", ctx_for(env))
        assert svc.get("k", ctx_for(env)) == b"value"

    def test_get_missing_raises(self, env):
        svc = make(SimBlockVolume, env)
        with pytest.raises(NoSuchKeyError):
            svc.get("nope", ctx_for(env))

    def test_delete_frees_space(self, env):
        svc = make(SimBlockVolume, env, capacity=100)
        svc.put("k", b"x" * 60, ctx_for(env))
        svc.delete("k", ctx_for(env))
        assert svc.used == 0
        svc.put("k2", b"y" * 80, ctx_for(env))  # fits again

    def test_delete_missing_raises(self, env):
        svc = make(SimBlockVolume, env)
        with pytest.raises(NoSuchKeyError):
            svc.delete("nope", ctx_for(env))

    def test_overwrite_adjusts_usage(self, env):
        svc = make(SimBlockVolume, env, capacity=1000)
        svc.put("k", b"x" * 100, ctx_for(env))
        svc.put("k", b"y" * 40, ctx_for(env))
        assert svc.used == 40

    def test_capacity_enforced(self, env):
        svc = make(SimBlockVolume, env, capacity=50)
        with pytest.raises(CapacityExceededError):
            svc.put("k", b"x" * 51, ctx_for(env))

    def test_rejected_put_spends_no_time(self, env):
        svc = make(SimBlockVolume, env, capacity=50)
        ctx = ctx_for(env)
        with pytest.raises(CapacityExceededError):
            svc.put("k", b"x" * 51, ctx)
        assert ctx.elapsed == 0

    def test_resize_below_usage_refused(self, env):
        svc = make(SimBlockVolume, env, capacity=100)
        svc.put("k", b"x" * 80, ctx_for(env))
        with pytest.raises(CapacityExceededError):
            svc.resize(50)

    def test_operations_charge_time(self, env):
        svc = make(SimBlockVolume, env)
        ctx = ctx_for(env)
        svc.put("k", b"v", ctx)
        # Writes carry the EBS sync-write multiplier.
        assert ctx.elapsed == pytest.approx(0.001 * svc.write_multiplier)

    def test_op_counters(self, env):
        svc = make(SimObjectStore, env)
        svc.put("a", b"1", ctx_for(env))
        svc.get("a", ctx_for(env))
        try:
            svc.get("b", ctx_for(env))
        except NoSuchKeyError:
            pass
        assert svc.put_requests == 1
        assert svc.get_requests == 2  # hit + miss both billed

    def test_meter_records_by_kind(self, env, meter):
        cluster, node = env
        svc = SimObjectStore(
            name="s3", node=node, clock=cluster.clock, rng=cluster.rng, meter=meter
        )
        svc.put("a", b"1", ctx_for(env))
        assert meter.count("s3.put") == 1


class TestOpCounts:
    """``op_counts`` is a read-only view over the service's own
    ``tiera_tier_ops_total`` cells."""

    def test_each_service_counts_only_its_own_ops(self, registry):
        cluster = registry.cluster
        mem = registry.create("Memcached", tier_name="m", size=10 ** 6).service
        ebs = registry.create("EBS", tier_name="e", size=10 ** 6).service
        assert mem.obs is ebs.obs is cluster.obs
        ctx = RequestContext(cluster.clock)
        mem.put("a", b"1", ctx)
        mem.get("a", ctx)
        ebs.put("a", b"1", ctx)
        ebs.put("b", b"2", ctx)
        with pytest.raises(NoSuchKeyError):
            ebs.get("c", ctx)
        assert dict(mem.op_counts) == {"put": 1, "get": 1}
        assert dict(ebs.op_counts) == {"put": 2, "miss": 1}
        assert all(type(n) is int for n in ebs.op_counts.values())
        ops = cluster.obs.metrics.counter("tiera_tier_ops_total")
        assert ops.value(service=ebs.name, op="put") == 2
        assert ops.total() == 5

    def test_bare_service_counts_into_a_private_registry(self, env):
        svc = make(SimBlockVolume, env)
        svc.put("k", b"v", ctx_for(env))
        assert svc.obs is None
        assert svc.op_counts == {"put": 1}
        assert "get" not in svc.op_counts and len(svc.op_counts) == 1
        with pytest.raises(TypeError):
            svc.op_counts["put"] = 0  # a view, not a tally


class TestFailureInjection:
    def test_failed_service_times_out(self, env):
        svc = make(SimBlockVolume, env)
        svc.fail()
        ctx = ctx_for(env)
        with pytest.raises(ServiceUnavailableError):
            svc.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(svc.timeout)

    def test_recover_restores_service(self, env):
        svc = make(SimBlockVolume, env)
        svc.put("k", b"v", ctx_for(env))
        svc.fail()
        svc.recover()
        assert svc.get("k", ctx_for(env)) == b"v"  # EBS data survives

    def test_memcached_loses_data_on_failure(self, env):
        svc = make(SimMemcached, env)
        svc.put("k", b"v", ctx_for(env))
        svc.fail()
        svc.recover()
        with pytest.raises(NoSuchKeyError):
            svc.get("k", ctx_for(env))

    def test_node_failure_wipes_ephemeral_only(self, env):
        cluster, node = env
        eph = make(SimEphemeralDisk, env)
        ebs = SimBlockVolume(
            name="vol", node=node, clock=cluster.clock, rng=cluster.rng,
            latency=FixedLatency(0.001),
        )
        eph.put("k", b"v", ctx_for(env))
        ebs.put("k", b"v", ctx_for(env))
        node.fail()
        node.recover()
        with pytest.raises(NoSuchKeyError):
            eph.get("k", ctx_for(env))
        assert ebs.get("k", ctx_for(env)) == b"v"

    def test_node_failure_blocks_all_services(self, env):
        cluster, node = env
        svc = make(SimBlockVolume, env)
        node.fail()
        with pytest.raises(ServiceUnavailableError):
            svc.get("k", ctx_for(env))


class TestMemcached:
    def test_lru_eviction_when_enabled(self, env):
        svc = make(SimMemcached, env, capacity=10, evict_on_full=True)
        svc.put("a", b"12345", ctx_for(env))
        svc.put("b", b"12345", ctx_for(env))
        svc.put("c", b"12345", ctx_for(env))  # evicts a
        assert not svc.contains("a")
        assert svc.contains("c")
        assert svc.evictions == 1

    def test_get_refreshes_lru_order(self, env):
        svc = make(SimMemcached, env, capacity=10, evict_on_full=True)
        svc.put("a", b"12345", ctx_for(env))
        svc.put("b", b"12345", ctx_for(env))
        svc.get("a", ctx_for(env))
        svc.put("c", b"12345", ctx_for(env))  # b is now LRU
        assert svc.contains("a")
        assert not svc.contains("b")

    def test_reject_when_eviction_disabled(self, env):
        svc = make(SimMemcached, env, capacity=10)
        svc.put("a", b"1234567890", ctx_for(env))
        with pytest.raises(CapacityExceededError):
            svc.put("b", b"x", ctx_for(env))

    def test_lru_mru_keys(self, env):
        svc = make(SimMemcached, env)
        svc.put("a", b"1", ctx_for(env))
        svc.put("b", b"1", ctx_for(env))
        svc.get("a", ctx_for(env))
        assert svc.lru_key() == "b"
        assert svc.mru_key() == "a"


class TestRecency:
    """The service's key order is the LRU: least recently used first."""

    def test_plain_puts_and_gets_leave_order_to_the_caller(self, env):
        svc = make(SimBlockVolume, env)
        svc.put("a", b"1", ctx_for(env))
        svc.put("b", b"1", ctx_for(env))
        svc.get("a", ctx_for(env))
        assert (svc.lru_key(), svc.mru_key()) == ("a", "b")
        svc.touch("a")
        assert (svc.lru_key(), svc.mru_key()) == ("b", "a")

    def test_empty_service_has_no_lru(self, env):
        svc = make(SimObjectStore, env)
        assert svc.lru_key() is None and svc.mru_key() is None


class TestOfflineAccess:
    """peek / contents / install / erase: no virtual time, no counters."""

    def test_install_keeps_used_and_recency(self, env):
        svc = make(SimBlockVolume, env)
        svc.install("a", b"123")
        svc.install("b", b"45")
        svc.install("a", b"6")  # existing key: same place in the order
        assert svc.used == 3
        assert (svc.lru_key(), svc.mru_key()) == ("a", "b")
        assert svc.peek("a") == b"6" and svc.peek("nope") is None
        assert svc.contents() == {"a": b"6", "b": b"45"}
        assert dict(svc.op_counts) == {}

    def test_erase_frees_space_and_ignores_absent_keys(self, env):
        svc = make(SimBlockVolume, env, capacity=10)
        svc.install("a", b"12345")
        svc.erase("a")
        svc.erase("a")
        assert svc.used == 0 and not svc.contains("a")

    def test_crash_wipes_only_volatile_stores(self, env):
        cluster, node = env
        eph = make(SimEphemeralDisk, env)
        ebs = SimBlockVolume(
            name="vol", node=node, clock=cluster.clock, rng=cluster.rng,
            latency=FixedLatency(0.001),
        )
        for svc in (eph, ebs):
            svc.install("k", b"v")
            svc.crash()
        assert eph.used == 0 and eph.lru_key() is None
        assert ebs.peek("k") == b"v"


class TestCluster:
    def test_cross_zone_latency(self):
        cluster = Cluster()
        a = cluster.add_node("a", zone="us-east-1a")
        b = cluster.add_node("b", zone="us-east-1b")
        c = cluster.add_node("c", zone="us-east-1a")
        assert cluster.cross_zone_latency(a, b) > 0
        assert cluster.cross_zone_latency(a, c) == 0

    def test_duplicate_node_rejected(self):
        cluster = Cluster()
        cluster.add_node("a")
        with pytest.raises(ValueError):
            cluster.add_node("a")

    def test_provisioning_delay(self):
        cluster = Cluster()
        ready = []
        node = cluster.provision_node(delay=60, on_ready=ready.append)
        assert node.failed  # not booted yet
        cluster.clock.advance(59)
        assert node.failed
        cluster.clock.advance(2)
        assert not node.failed
        assert ready == [node]
