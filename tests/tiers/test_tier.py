"""Tier wrapper: capacity attributes, recency, growth, cross-AZ penalty."""

import pytest

from repro.simcloud.cluster import CROSS_ZONE_LATENCY
from repro.simcloud.errors import CapacityExceededError
from repro.simcloud.latency import FixedLatency
from repro.simcloud.resources import RequestContext
from repro.simcloud.services import SimMemcached
from repro.tiers.base import Tier


@pytest.fixture
def tier(registry):
    return registry.create("Memcached", tier_name="t", size=1000)


def ctx_for(registry):
    return RequestContext(registry.cluster.clock)


class TestCapacityAttributes:
    def test_filled_fraction(self, registry, tier):
        assert tier.filled == 0.0
        tier.put("k", b"x" * 500, ctx_for(registry))
        assert tier.filled == 0.5

    def test_unlimited_tier_never_filled(self, registry):
        s3 = registry.create("S3", tier_name="s", size=None)
        s3.put("k", b"x" * 10 ** 6, ctx_for(registry))
        assert s3.filled == 0.0
        assert s3.can_fit(10 ** 12)

    def test_can_fit(self, registry, tier):
        tier.put("k", b"x" * 900, ctx_for(registry))
        assert tier.can_fit(100)
        assert not tier.can_fit(101)

    def test_put_over_capacity_fails_fast(self, registry, tier):
        ctx = ctx_for(registry)
        with pytest.raises(CapacityExceededError):
            tier.put("k", b"x" * 1001, ctx)
        assert ctx.elapsed == 0

    def test_overwrite_counts_delta(self, registry, tier):
        tier.put("k", b"x" * 900, ctx_for(registry))
        tier.put("k", b"y" * 950, ctx_for(registry))  # delta fits
        assert tier.used == 950


class TestRecency:
    def test_oldest_newest_track_access(self, registry, tier):
        c = ctx_for(registry)
        tier.put("a", b"1", c)
        tier.put("b", b"2", c)
        tier.put("c", b"3", c)
        assert (tier.oldest, tier.newest) == ("a", "c")
        tier.get("a", c)
        assert (tier.oldest, tier.newest) == ("b", "a")

    def test_delete_forgets_recency(self, registry, tier):
        c = ctx_for(registry)
        tier.put("a", b"1", c)
        tier.delete("a", c)
        assert tier.oldest is None

    def test_overwrite_marks_most_recent(self, registry, tier):
        c = ctx_for(registry)
        tier.put("a", b"1", c)
        tier.put("b", b"2", c)
        tier.put("a", b"3", c)
        assert (tier.oldest, tier.newest) == ("b", "a")

    def test_node_restart_forgets_recency(self, registry, tier):
        tier.put("a", b"1", ctx_for(registry))
        tier.service.node.fail()
        tier.service.node.recover()
        assert (tier.oldest, tier.newest) == (None, None)


class TestGrowth:
    def test_memcached_grow_has_provisioning_delay(self, registry, tier):
        tier.grow(100)
        assert tier.capacity == 1000
        assert tier.growing
        registry.cluster.clock.advance(61)
        assert tier.capacity == 2000

    def test_double_grow_ignored_while_in_flight(self, registry, tier):
        tier.grow(100)
        tier.grow(100)  # no-op: one provisioning at a time
        registry.cluster.clock.advance(61)
        assert tier.capacity == 2000

    def test_ebs_grow_immediate(self, registry):
        ebs = registry.create("EBS", tier_name="e", size=1000)
        ebs.grow(50)
        assert ebs.capacity == 1500

    def test_shrink_validates(self, registry, tier):
        with pytest.raises(ValueError):
            tier.shrink(0)
        with pytest.raises(ValueError):
            tier.shrink(101)
        tier.shrink(50)
        assert tier.capacity == 500

    def test_shrink_below_usage_refused(self, registry, tier):
        tier.put("k", b"x" * 600, ctx_for(registry))
        with pytest.raises(CapacityExceededError):
            tier.shrink(50)

    def test_grow_unlimited_tier_rejected(self, registry):
        s3 = registry.create("S3", tier_name="s", size=None)
        with pytest.raises(ValueError):
            s3.grow(100)


class TestCrossZone:
    def test_cross_zone_ops_pay_latency(self, cluster):
        server_node = cluster.add_node("server", zone="us-east-1a")
        remote_node = cluster.add_node("remote", zone="us-east-1b")
        service = SimMemcached(
            name="m", node=remote_node, clock=cluster.clock,
            latency=FixedLatency(0.001), rng=cluster.rng,
        )
        tier = Tier("t", service, server_node=server_node)
        ctx = RequestContext(cluster.clock)
        tier.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(0.001 + CROSS_ZONE_LATENCY)

    def test_same_zone_no_penalty(self, cluster):
        server_node = cluster.add_node("server", zone="us-east-1a")
        local_node = cluster.add_node("local", zone="us-east-1a")
        service = SimMemcached(
            name="m", node=local_node, clock=cluster.clock,
            latency=FixedLatency(0.001), rng=cluster.rng,
        )
        tier = Tier("t", service, server_node=server_node)
        ctx = RequestContext(cluster.clock)
        tier.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(0.001)


class TestRegistry:
    def test_known_products(self, registry):
        for product in ("Memcached", "EBS", "S3", "EphemeralStorage"):
            assert registry.known(product)
        assert registry.known("memcached")  # case-insensitive
        assert not registry.known("FloppyDisk")

    def test_unknown_product_raises(self, registry):
        with pytest.raises(KeyError):
            registry.create("FloppyDisk", tier_name="f", size=10)

    def test_s3_ignores_size(self, registry):
        s3 = registry.create("S3", tier_name="s", size=12345)
        assert s3.capacity is None

    def test_custom_factory(self, registry, cluster):
        def build(tier_name, size, zone="z", server_node=None, **kwargs):
            node = cluster.add_node(f"custom-{tier_name}")
            service = SimMemcached(
                name="custom", node=node, clock=cluster.clock, capacity=size,
                rng=cluster.rng,
            )
            return Tier(tier_name, service)

        registry.register("GreenSSD", build)
        tier = registry.create("GreenSSD", tier_name="g", size=77)
        assert tier.capacity == 77

    def test_kinds_map_to_pricing(self, registry):
        assert registry.create("EBS", tier_name="e", size=1).kind == "ebs"
        assert registry.create("S3", tier_name="s", size=None).kind == "s3"
        assert (
            registry.create("EphemeralStorage", tier_name="x", size=1).kind
            == "ephemeral"
        )
