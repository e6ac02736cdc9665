"""No acked object loses its last copy.

An eviction is a move: its write lands first, then the source copy is
dropped.  When the destination refuses (an EBS tier erroring under the
resilience layer), the degraded write must not fall back into the very
tier the victim is leaving — that write "lands", the drop then removes
it, and the row lists no tier at all (a silent loss of an acked object).
"""

import pytest

from repro.bench.sim import DEPLOYMENTS, Row, Sim, build, sweep_boundaries
from repro.core.conditions import EvalScope
from repro.core.durability import fsck, simulate_crash
from repro.core.errors import LastCopyError
from repro.core.objects import ObjectMeta
from repro.core.responses import Delete
from repro.core.selectors import NamedObjects
from repro.simcloud.faults import FaultProfile
from repro.simcloud.resources import RequestContext

KB = 1024


def blob(key):
    return key.encode() * (KB // len(key))


def put(sim, key):
    ctx = RequestContext(sim.clock)
    result = sim.server.put_object(key, blob(key), ctx=ctx)
    sim.clock.run_until(ctx.time)
    return result


def get(sim, key):
    return sim.server.get_object(key, ctx=RequestContext(sim.clock))


def fail(sim, tier_name):
    service = sim.instance.tiers.get(tier_name).service
    sim.cluster.faults.inject(
        f"service:{service.name}", FaultProfile(error_rate=1.0)
    )


@pytest.mark.parametrize("durable", [False, True], ids=["journal-off", "journal-on"])
def test_a_refused_eviction_keeps_the_victim(durable):
    """Table 2's exclusive tiering, EBS erroring: the Memcached victim
    degrades past EBS into S3, never back into Memcached."""
    features = ("resilience", "durability") if durable else ("resilience",)
    sim = build(
        "lru-tiered", 2014, features=features, mem="2K", ebs="2K", s3="1M"
    )
    assert put(sim, "o0").ok and put(sim, "o1").ok
    fail(sim, "tier2")
    put(sim, "o2")
    assert get(sim, "o0").value == blob("o0")
    assert fsck(sim.instance)["clean"]
    assert sim.instance.meta("o0").copies()


#: A durable tier that evicts into S3: its acked objects outlive a crash,
#: so a sweep of the refused eviction can count them.
EBS_OVER_S3 = Row("""
Tiera EbsOverS3() {
    tier1: { name: EBS, size: 2K, evict_to: tier2 };
    tier2: { name: S3 };
    event "place"(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
""")


@pytest.fixture(autouse=True)
def ebs_over_s3_row(monkeypatch):
    monkeypatch.setitem(DEPLOYMENTS, "ebs-over-s3", EBS_OVER_S3)


def ebs_over_s3(seed=7, durable=True):
    features = ("resilience", "durability") if durable else ("resilience",)
    sim = build("ebs-over-s3", seed, features=features)
    assert put(sim, "o0").ok and put(sim, "o1").ok
    fail(sim, "tier2")
    return sim


class TestRefusedEviction:
    def test_the_incoming_put_is_refused_with_a_code(self):
        sim = ebs_over_s3(durable=False)
        result = put(sim, "o2")
        assert not result.ok
        assert result.error == "TRANSIENT_ERROR"  # S3's injected fault
        for key in ("o0", "o1"):
            assert get(sim, key).value == blob(key)
        assert not sim.instance.has_object("o2")
        assert fsck(sim.instance)["clean"]

    def test_a_refused_cascade_fails_the_put_with_a_code(self):
        """Memcached and EBS full, S3 erroring: the EBS victim has
        nowhere to go (Memcached would have to evict back into EBS)."""
        sim = build(
            "lru-tiered", 2014, features=("resilience",),
            mem="2K", ebs="2K", s3="1M",
        )
        keys = ("o0", "o1", "o2", "o3")
        assert all(put(sim, key).ok for key in keys)
        fail(sim, "tier3")
        result = put(sim, "o4")
        assert not result.ok and result.error == "TRANSIENT_ERROR"
        for key in keys:
            assert get(sim, key).value == blob(key)
        assert fsck(sim.instance)["clean"]

    def test_a_crash_at_every_boundary_loses_no_acked_object(self):
        def recover(sim: Sim, crashed: bool):
            if crashed:
                simulate_crash(sim.instance)
            server, _ = sim.reopen()
            survivors = [
                key for key in ("o0", "o1")
                if server.get_object(key).value == blob(key)
            ]
            clean = fsck(server.instance)["clean"]
            server.instance.shutdown()
            return {"survivors": survivors, "clean": clean}

        _, schedule, entries, _ = sweep_boundaries(
            ebs_over_s3, lambda sim: put(sim, "o2"), recover,
            select=lambda visits: visits,
        )
        assert schedule and len(entries) == len(schedule)
        for entry in entries:
            assert entry["crashed"], entry
            assert entry["survivors"] == ["o0", "o1"], entry
            assert entry["clean"], entry


class TestLastCopyGuard:
    def test_removing_a_live_rows_last_copy_is_refused(self):
        sim = build("write-through", 3)
        assert put(sim, "k").ok
        instance, ctx = sim.instance, RequestContext(sim.clock)
        instance.remove_from_tier("k", "tier1", ctx)
        with pytest.raises(LastCopyError):
            instance.remove_from_tier("k", "tier2", ctx)
        assert instance.meta("k").copies() == ["tier2"]
        assert get(sim, "k").value == blob("k")

    def test_a_policy_delete_of_every_copy_deletes_the_object(self):
        sim = build("write-through", 3)
        assert put(sim, "k").ok
        scope = EvalScope(instance=sim.instance)
        Delete(NamedObjects("k"), tiers=["tier1", "tier2"]).execute(
            scope, RequestContext(sim.clock)
        )
        assert not sim.instance.has_object("k")
        assert fsck(sim.instance)["clean"]

    def test_sole_copy(self):
        meta = ObjectMeta("k")
        assert not meta.sole_copy("t1")
        meta.add_copy("t1")
        assert meta.sole_copy("t1") and not meta.sole_copy("t2")
        meta.add_copy("t2")
        assert not meta.sole_copy("t1")
