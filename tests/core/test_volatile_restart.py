"""A Memcached node restart: the volatile tier comes back empty (§4.2.3).

The paper's cache tier loses its contents when its node fails.  What
the tier holds and in what recency order is the service's one record,
so the restart empties both at once: eviction never picks a key that is
gone, and a GET of a key the cache used to hold is a miss that fails
over to the durable copy — with the resilience layer on or off.
"""

import pytest

from repro.core import templates
from repro.core.server import TieraServer
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

OBJECT = 4096


def _blob(name: str) -> bytes:
    """Distinct 4 KB contents per key (storeOnce must not alias them)."""
    return name.encode().ljust(OBJECT, b".")


def _stack(build, resilient):
    cluster = Cluster(seed=1)
    instance = build(TierRegistry(cluster))
    if resilient:
        instance.enable_resilience()
    return cluster, instance, TieraServer(instance)


def _settle(cluster):
    """Let background responses (promotions) finish."""
    cluster.clock.run_until(cluster.clock.now() + 1.0)


def _restart(tier):
    node = tier.service.node
    node.fail()
    node.recover()


SMALL_CACHE = {
    "cached-s3": lambda registry: templates.dedup_instance(
        registry, mem=str(3 * OBJECT)
    ),
    "lru-tiered": lambda registry: templates.lru_tiered_instance(
        registry, "LruTiered", mem=str(3 * OBJECT), ebs="1M"
    ),
}


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
@pytest.mark.parametrize("deployment", sorted(SMALL_CACHE))
def test_a_restart_does_not_wedge_eviction(deployment, resilient):
    cluster, instance, server = _stack(SMALL_CACHE[deployment], resilient)
    tier1 = instance.tiers.get("tier1")
    for i in range(3):  # fill the cache: PUT, then GET to promote
        key = f"old{i}"
        server.put_object(key, _blob(key)).raise_for_error()
        server.get_object(key).raise_for_error()
        _settle(cluster)
    assert sorted(tier1.keys()) == ["old0", "old1", "old2"]
    _restart(tier1)
    assert (tier1.oldest, tier1.newest, tier1.used) == (None, None, 0)
    errors = []
    for i in range(12):
        key = f"new{i}"
        put = server.put_object(key, _blob(key))
        _settle(cluster)
        get = server.get_object(key)
        errors += [r.error for r in (put, get) if not r.ok]
        if get.ok:
            assert get.value == _blob(key)
    assert errors == []
    assert tier1.used <= tier1.capacity


WARM_CACHE = {
    "write-through": lambda registry: templates.write_through_instance(
        registry, mem="64M", ebs="64M"
    ),
    "cached-s3": lambda registry: templates.dedup_instance(registry, mem="16M"),
}


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
@pytest.mark.parametrize("deployment", sorted(WARM_CACHE))
def test_a_vanished_cached_copy_fails_over(deployment, resilient):
    cluster, instance, server = _stack(WARM_CACHE[deployment], resilient)
    keys = [f"k{i}" for i in range(4)]
    for key in keys:
        server.put_object(key, _blob(key)).raise_for_error()
        server.get_object(key).raise_for_error()
        _settle(cluster)
    assert all(instance.meta(k).locations == {"tier1", "tier2"} for k in keys)
    _restart(instance.tiers.get("tier1"))
    for key in keys:
        result = server.get_object(key).raise_for_error()
        assert (result.value, result.tier) == (_blob(key), "tier2")
        assert instance.meta(key).locations == {"tier2"}
    if deployment == "cached-s3":
        # promote-on-miss sees the dropped location and re-caches
        _settle(cluster)
        again = server.get_object(keys[0]).raise_for_error()
        assert (again.value, again.tier) == (_blob(keys[0]), "tier1")


def test_the_miss_is_still_a_billed_round_trip():
    cluster, instance, server = _stack(WARM_CACHE["write-through"], False)
    server.put_object("k", _blob("k")).raise_for_error()
    _restart(instance.tiers.get("tier1"))
    assert server.get_object("k").raise_for_error().tier == "tier2"
    assert instance.tiers.get("tier1").service.op_counts["miss"] == 1


def test_an_object_whose_every_copy_vanished_is_gone():
    # lru-tiered keeps a fresh object only in Memcached: the restart
    # loses it, and the GET says so instead of blaming a tier.
    cluster, instance, server = _stack(SMALL_CACHE["lru-tiered"], True)
    server.put_object("k", _blob("k")).raise_for_error()
    _restart(instance.tiers.get("tier1"))
    first = server.get_object("k")
    assert first.error == "NO_SUCH_OBJECT"
    assert instance.meta("k").locations == set()
    assert server.get_object("k").error == "NO_SUCH_OBJECT"
