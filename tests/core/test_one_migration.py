"""One migration path: every router changes shards through its
``ClusterManager``'s journaled rebalance, at every replication factor
(docs/CLUSTER.md, "Crash-safe migration").

Two rules hold at every R: the rebalance drops a non-owner's copy only
while an owner holds the key, and a join or removal that would leave a
key with no owner holding it is undone and refused.  After a refusal
the shard map and ring are as before, every key reads back, cluster
fsck is clean and ``recover()`` has nothing left to do.
"""

import pytest

from repro.bench.sim import run_migration_crash
from repro.core.cluster import ClusterConfig
from repro.core.errors import TieraError
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CLUSTER_CRASH_POINTS
from repro.tiers.registry import TierRegistry
from tests.core.conftest import build_instance

KEYS = 30


def replicated(factor):
    return ClusterConfig(
        replication_factor=factor, write_quorum=1,
        heartbeat_interval=1000.0, anti_entropy_interval=0.0,
    )


@pytest.fixture
def registry():
    return TierRegistry(Cluster(seed=1))


def ebs_shard(registry, name):
    """A shard whose one tier is an EBS volume."""
    return TieraServer(build_instance(
        registry, [(f"{name}-ebs", "EBS", 10 ** 8)], name=name
    ))


def service(server):
    (tier,) = server.instance.tiers
    return tier.service


def build(registry, names, replication=None, keys=KEYS):
    router = ShardedTieraServer(
        {name: ebs_shard(registry, name) for name in names},
        replication=replication,
    )
    for i in range(keys):
        router.put_object(f"k{i}", b"v1-%d" % i).raise_for_error()
    return router


def assert_whole(router, ring, keys=KEYS):
    """The router a refused change must leave: ``ring`` as before,
    every key readable and listed once, nothing left to recover."""
    assert sorted(router.shards) == router.ring.shards() == ring
    for i in range(keys):
        assert router.get_object(f"k{i}").value == b"v1-%d" % i, i
    assert router.keys() == sorted(f"k{i}" for i in range(keys))
    assert router.cluster.fsck()["clean"]
    report = router.cluster.recover()
    assert (report["redone"], report["confirmed"], report["aborted"],
            report["rebalanced"], report["journal_pending"]) == (0, 0, 0, 0, 0)
    assert router.health()["status"] == "ok"


def test_a_crashed_join_cannot_revert_an_acked_write(registry, monkeypatch):
    """Regression: the unreplicated router's own copy-then-delete
    migration, crashed between the two, left a key on its old and new
    owner; a later removal of the old one copied its stale bytes over
    the acked overwrite."""
    router = build(registry, "ab", keys=40)
    joiner = ebs_shard(registry, "c")
    delete = TieraServer.delete_object

    def crash_once(self, key, **options):
        monkeypatch.setattr(TieraServer, "delete_object", delete)
        raise ProcessCrash("delete", 0)

    monkeypatch.setattr(TieraServer, "delete_object", crash_once)
    with pytest.raises(ProcessCrash):
        router.add_shard("c", joiner)
    shards = {**router.shards, "c": joiner}
    (key,) = [k for k in router.keys()
              if sum(s.contains(k) for s in shards.values()) == 2]
    (old,) = [n for n in "ab" if shards[n].contains(key)]
    rebuilt = ShardedTieraServer(shards)
    rebuilt.put_object(key, b"v2").raise_for_error()
    rebuilt.remove_shard(old)
    assert rebuilt.get_object(key).value == b"v2"


@pytest.mark.parametrize("replication", [None, 1, 2])
def test_a_join_to_a_down_shard_is_refused(registry, replication):
    """Regression: unreplicated, the join raised ``SERVICE_UNAVAILABLE``
    partway with the joiner left on the ring (13 keys unreadable); at
    R = 1 it reported success after dropping the only copies.  At R = 2
    every key keeps an owner, so the join stands, under-replicated."""
    router = build(
        registry, "ab", replication and replicated(replication)
    )
    joiner = ebs_shard(registry, "c")
    service(joiner).fail()
    if replication == 2:
        router.add_shard("c", joiner)
        assert len(router.cluster.journal) > 0   # copies owed to c
        # Regression: recover() then raised KeyError('c') on the moves
        # whose target had left.
        router.remove_shard("c")
        assert router.cluster.recover()["aborted"] > 0
    else:
        with pytest.raises(TieraError, match="not added"):
            router.add_shard("c", joiner)
    assert not joiner.keys()
    assert_whole(router, ["a", "b"])
    router.cluster.stop()


@pytest.mark.parametrize("replication", [None, 1, 2])
def test_a_removal_that_would_strand_keys_is_refused(registry, replication):
    """Regression: removing a shard whose tier is down took it off the
    ring anyway (unreplicated: 11 keys unreadable but still listed), or
    out of the map with the only copies (11 keys lost at R = 1, 19 at
    R = 2 once the other replica is gone)."""
    router = build(
        registry, "abc", replication and replicated(replication)
    )
    if replication == 2:
        for key in router.shards["a"].keys():
            for name in router.cluster.owners(key):
                if name != "a":
                    router.shards[name].delete_object(key).raise_for_error()
    held = router.shards["a"].keys()
    assert held
    service(router.shards["a"]).fail()
    with pytest.raises(TieraError, match="not removed"):
        router.remove_shard("a")
    assert router.shards["a"].keys() == held
    service(router.shards["a"]).recover()
    if replication is not None:
        router.cluster.detector.tick()   # the heartbeat sees it back
    if replication == 2:
        router.cluster.recover()   # the copies the gone replicas are owed
    assert_whole(router, ["a", "b", "c"])
    router.cluster.stop()


def test_a_key_held_only_by_a_down_owner_is_not_missing(registry):
    """Regression: after a refused removal left keys held only by ``a``
    (now detector-down), a read tried the up owner, heard "missing" and
    answered ``NO_SUCH_OBJECT``, and ``health()`` stayed ``degraded``
    until a probe round.  A read tries a down owner last: down is not
    missing, and the answer it gets feeds the detector."""
    router = build(registry, "abc", replicated(2))
    for key in router.shards["a"].keys():
        for name in router.cluster.owners(key):
            if name != "a":
                router.shards[name].delete_object(key).raise_for_error()
    held = router.shards["a"].keys()
    service(router.shards["a"]).fail()
    with pytest.raises(TieraError, match="not removed"):
        router.remove_shard("a")
    assert router.cluster.detector.is_down("a")
    unreadable = router.get_object(held[0])
    assert unreadable.error == "CLUSTER_UNAVAILABLE"   # not NO_SUCH_OBJECT
    assert router.health()["status"] == "degraded"
    service(router.shards["a"]).recover()
    for key in held:
        index = int(key[1:])
        assert router.get_object(key).value == b"v1-%d" % index, key
    assert router.health()["status"] == "ok"   # no detector.tick()
    assert router.get_object("ghost").error == "NO_SUCH_OBJECT"
    router.cluster.stop()


def test_an_unreplicated_heal_sweeps_nothing(registry):
    """Regression: at R = 1 a shard's down -> up transition ran
    anti-entropy over every key, compared nothing (no key has two
    owners) and logged a run."""
    router = build(registry, "ab", keys=200)
    on_a = [key for key in router.keys() if router.shard_of(key) == "a"]
    service(router.shards["a"]).fail()
    for key in on_a[:3]:
        assert router.get_object(key).error == "TIER_UNAVAILABLE"
    assert router.cluster.detector.is_down("a")
    service(router.shards["a"]).recover()
    assert router.get_object(on_a[0]).ok
    router.clock.advance(1.0)  # the heal runs
    assert not router.cluster.detector.is_down("a")
    assert router.cluster.anti_entropy_runs == []


def test_a_replicated_heal_still_sweeps(registry):
    router = build(registry, "ab", replicated(2), keys=200)
    service(router.shards["a"]).fail()
    for i in range(3):
        router.put_object(f"k{i}", b"v2").raise_for_error()
    assert router.cluster.detector.is_down("a")
    service(router.shards["a"]).recover()
    router.cluster.detector.tick()
    router.clock.advance(1.0)
    assert not router.cluster.detector.is_down("a")
    assert len(router.cluster.anti_entropy_runs) == 1
    router.cluster.stop()


def test_a_joiner_that_dies_mid_join_keeps_its_copies_until_repair(registry):
    """A joiner that took some copies and then stopped answering cannot
    hand them back at the refusal: it stays in the map, off the ring,
    until ``fsck(repair=True)`` moves them back and lets it go."""
    router = build(registry, "ab")
    joiner = ebs_shard(registry, "c")
    put = joiner.put_object

    def dies_after_three(key, data, **options):
        if len(joiner.keys()) == 3:
            service(joiner).fail()
        return put(key, data, **options)

    joiner.put_object = dies_after_three
    with pytest.raises(TieraError, match="not added"):
        router.add_shard("c", joiner)
    assert router.ring.shards() == ["a", "b"] and len(joiner.keys()) == 3
    assert not router.cluster.fsck()["clean"]
    service(joiner).recover()
    router.cluster.fsck(repair=True)
    assert not joiner.keys()
    assert_whole(router, ["a", "b"])


def test_a_refused_put_of_a_new_key_leaves_no_row(registry):
    """Regression: a new key no tier took kept a metadata row:
    ``contains`` true and listed, GET ``NO_SUCH_OBJECT``, fsck ``lost``
    — and a refused joiner looked like a holder to the rebalance."""
    server = ebs_shard(registry, "solo")
    service(server).fail()
    assert server.put_object("new", b"v").error == "SERVICE_UNAVAILABLE"
    assert not server.contains("new") and server.keys() == []
    service(server).recover()
    assert server.get_object("new").error == "NO_SUCH_OBJECT"
    assert server.invoke("durability", "fsck").state["clean"]


@pytest.mark.parametrize("action", ["add", "remove"])
def test_a_migrate_crash_sweep_over_an_unreplicated_router_is_clean(action):
    report = run_migration_crash(
        seed=7, records=8, replication_factor=None, action=action
    )
    assert report["config"]["replication_factor"] == 1
    assert report["clean"] and report["model"]["violations"] == 0
    swept = {entry["point"] for entry in report["swept"] if entry["crashed"]}
    assert {point for point in CLUSTER_CRASH_POINTS
            if point.startswith("cluster.move.")} <= swept
