"""Durability layer: journal, recovery, fsck, snapshot/restore."""

from __future__ import annotations

import json

import pytest

from repro.core.durability import (
    JOURNAL_PREFIX,
    IntentJournal,
    fsck,
    insert_targets,
    reopen_instance,
    restore_archive,
    simulate_crash,
    snapshot_archive,
)
from repro.core.events import ActionEvent
from repro.core.objects import content_checksum
from repro.core.policy import Policy, Rule
from repro.core.responses import Move, Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.templates import dedup_instance
from repro.kvstore import MemoryStore
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CrashPointInjector
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry

from tests.core.conftest import build_instance

WRITE_THROUGH = Rule(
    ActionEvent("insert"),
    [Store(InsertObject(), ("tier1", "tier2"))],
    name="write-through",
)


def _build(store=None, rules=(WRITE_THROUGH,), seed=7):
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = build_instance(
        registry,
        [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
        rules=rules,
        metadata_store=store if store is not None else MemoryStore(),
    )
    instance.enable_durability()
    return cluster, instance, TieraServer(instance)


def _put(cluster, server, key, data):
    ctx = RequestContext(cluster.clock)
    server.put_object(key, data, ctx=ctx).raise_for_error()
    if ctx.time > cluster.clock.now():
        cluster.clock.run_until(ctx.time)


class TestIntentJournal:
    def test_begin_commit_roundtrip(self):
        store = MemoryStore()
        journal = IntentJournal(store)
        seq = journal.begin({"op": "write", "key": "a"})
        assert len(journal) == 1
        assert [s for s, _ in journal.pending()] == [seq]
        journal.commit(seq)
        assert len(journal) == 0
        assert not any(k.startswith(JOURNAL_PREFIX) for k in store.keys())

    def test_pending_survives_reopen(self):
        store = MemoryStore()
        journal = IntentJournal(store)
        journal.begin({"op": "write", "key": "a"})
        journal.begin({"op": "delete", "key": "b"})
        revived = IntentJournal(store)
        assert [r["key"] for _, r in revived.pending()] == ["a", "b"]
        # Sequence numbers continue past the surviving records.
        assert revived.begin({"op": "scope"}) == 2

    def test_unreadable_record_is_skipped(self):
        store = MemoryStore()
        store.put(JOURNAL_PREFIX + b"notanumber", b"{}")
        store.put(JOURNAL_PREFIX + b"%012d" % 0, b"\xff not json")
        assert len(IntentJournal(store)) == 0

    def test_abort_is_commit(self):
        journal = IntentJournal(MemoryStore())
        seq = journal.begin({"op": "write"})
        journal.abort(seq)
        assert len(journal) == 0


class TestCrashRecovery:
    def _crash_at(self, point, occurrence=0):
        store = MemoryStore()
        cluster, instance, server = _build(store)
        instance.crash_points = CrashPointInjector().arm(point, occurrence)
        _put(cluster, server, "keep", b"acked bytes")
        with pytest.raises(ProcessCrash):
            _put(cluster, server, "wip", b"in-flight bytes")
        simulate_crash(instance)
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=Policy([WRITE_THROUGH]),
            clock=cluster.clock,
            metadata_store=store,
        )
        return cluster, successor, recovery

    def test_crash_before_journal_leaves_no_trace_of_wip_write(self):
        # First write of the in-flight PUT dies before journaling its
        # intent for tier1 — recovery must roll nothing forward.
        cluster, successor, recovery = self._crash_at("write.begin", 2)
        assert recovery["replayed"] == []
        assert recovery["fsck"]["clean"] or recovery["fsck"]["repair"]
        assert fsck(successor)["clean"]
        reopened = TieraServer(successor)
        assert reopened.get_object(
            "keep", ctx=RequestContext(cluster.clock)
        ).raise_for_error().value == (
            b"acked bytes"
        )

    def test_crash_after_journal_rolls_write_forward(self):
        # Journaled but the tier never got the bytes: recovery replays
        # the intent, so the object lands exactly at the post-op state.
        # The op's first write (tier1) is retired only when the op ends,
        # so it is replayed too.
        cluster, successor, recovery = self._crash_at("write.journaled", 3)
        assert [r["op"] for r in recovery["replayed"]] == ["write", "write"]
        assert fsck(successor)["clean"]
        reopened = TieraServer(successor)
        assert reopened.get_object(
            "wip", ctx=RequestContext(cluster.clock)
        ).raise_for_error().value == (
            b"in-flight bytes"
        )

    def test_crash_mid_delete_completes_the_delete(self):
        store = MemoryStore()
        cluster, instance, server = _build(store)
        _put(cluster, server, "victim", b"doomed")
        instance.crash_points = CrashPointInjector().arm("delete.data")
        with pytest.raises(ProcessCrash):
            server.delete_object(
                "victim", ctx=RequestContext(cluster.clock)
            ).raise_for_error()
        simulate_crash(instance)
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=Policy([WRITE_THROUGH]),
            clock=cluster.clock,
            metadata_store=store,
        )
        assert [r["op"] for r in recovery["replayed"]] == ["delete"]
        assert not successor.has_object("victim")
        assert fsck(successor)["clean"]

    def test_open_scope_is_reported_not_replayed(self):
        cluster, successor, recovery = self._crash_at("write.data", 2)
        assert [r["rule"] for r in recovery["incomplete_responses"]] == (
            ["write-through"]
        )

    def test_recency_after_reopen_is_sorted(self):
        # Access order dies with the process: the successor's LRU is the
        # surviving keys in name order, whatever order they were used in.
        store = MemoryStore()
        cluster, instance, server = _build(store)
        for key in ("c", "a", "b"):
            _put(cluster, server, key, key.encode())
        tier2 = instance.tiers.get("tier2")
        assert (tier2.oldest, tier2.newest) == ("c", "b")
        simulate_crash(instance)
        assert instance.tiers.get("tier1").oldest is None  # volatile
        reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=Policy([WRITE_THROUGH]),
            clock=cluster.clock,
            metadata_store=store,
        )
        assert (tier2.oldest, tier2.newest) == ("a", "c")

    def test_journal_empty_after_recovery(self):
        _, successor, _ = self._crash_at("write.journaled", 2)
        assert len(successor.durability.journal) == 0
        assert successor.durability.summary()["recovered"] is True


class TestFsck:
    def _seeded(self):
        cluster, instance, server = _build()
        _put(cluster, server, "alpha", b"alpha bytes")
        _put(cluster, server, "beta", b"beta bytes")
        return cluster, instance, server

    def test_clean_instance_is_clean(self):
        _, instance, _ = self._seeded()
        report = fsck(instance)
        assert report["clean"] and report["findings"] == []

    def test_ghost_location_dropped(self):
        _, instance, _ = self._seeded()
        tier = instance.tiers.get("tier2")
        tier.service.erase("alpha")
        report = fsck(instance, repair=True)
        kinds = {f["kind"] for f in report["findings"]}
        # The dropped ghost location cascades into an under-replicated
        # recopy within the same pass: tier2 ends up holding real bytes.
        assert {"ghost", "under-replicated"} <= kinds
        assert tier.service.peek("alpha") == b"alpha bytes"
        assert fsck(instance)["clean"]

    def test_orphan_bytes_deleted(self):
        _, instance, _ = self._seeded()
        service = instance.tiers.get("tier2").service
        service.install("stray", b"who wrote this")
        report = fsck(instance, repair=True)
        assert [f["kind"] for f in report["findings"]] == ["orphan"]
        assert not service.contains("stray")
        assert fsck(instance)["clean"]

    def test_unrecorded_verified_copy_adopted(self):
        _, instance, _ = self._seeded()
        meta = instance._meta["alpha"]
        meta.locations.discard("tier1")
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        adopted = [f for f in report["findings"] if f["kind"] == "unrecorded"]
        assert adopted and adopted[0]["repair"] == "adopt"
        assert "tier1" in meta.locations
        assert fsck(instance)["clean"]

    def test_checksum_mismatch_rewritten_from_clean_copy(self):
        _, instance, _ = self._seeded()
        service = instance.tiers.get("tier2").service
        service.install("beta", b"rotted bit")
        report = fsck(instance, repair=True)
        bad = [f for f in report["findings"] if f["kind"] == "checksum-mismatch"]
        assert bad and bad[0]["repair"] == "rewrite-from-clean-copy"
        assert service.peek("beta") == b"beta bytes"
        assert service.used == len(b"alpha bytes") + len(b"beta bytes")
        assert fsck(instance)["clean"]

    def test_no_clean_copy_rolls_back_to_surviving_content(self):
        # Both copies hold the same bytes but the recorded checksum is
        # newer (interrupted overwrite): adopt the content, never drop.
        _, instance, _ = self._seeded()
        meta = instance._meta["beta"]
        meta.checksum = content_checksum(b"newer bytes that never landed")
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        bad = [f for f in report["findings"] if f["kind"] == "checksum-mismatch"]
        assert bad and bad[0]["repair"] == "adopt-content"
        assert instance.has_object("beta")
        assert meta.checksum == content_checksum(b"beta bytes")
        assert fsck(instance)["clean"]

    def test_lost_object_dropped(self):
        _, instance, _ = self._seeded()
        meta = instance._meta["alpha"]
        for tier in instance.tiers.ordered():
            tier.service.erase("alpha")
        meta.locations.clear()
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        assert any(f["kind"] == "lost" for f in report["findings"])
        assert not instance.has_object("alpha")
        assert fsck(instance)["clean"]

    def test_under_replicated_recopied_to_policy_target(self):
        _, instance, _ = self._seeded()
        assert insert_targets(instance) == ["tier2"]
        meta = instance._meta["alpha"]
        service = instance.tiers.get("tier2").service
        service.erase("alpha")
        meta.locations.discard("tier2")
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        assert any(f["kind"] == "under-replicated" for f in report["findings"])
        assert service.peek("alpha") == b"alpha bytes"
        assert fsck(instance)["clean"]

    def test_move_on_insert_is_a_durable_target(self):
        move_in = Rule(
            ActionEvent("insert"), [Move(InsertObject(), "tier2")],
            name="move-in",
        )
        cluster, instance, _ = _build(rules=(move_in,))
        assert insert_targets(instance) == ["tier2"]
        instance.create_object("k", 2)
        instance.write_to_tier("k", b"kk", "tier1", RequestContext(cluster.clock))
        assert [
            (f["kind"], f["key"], f["tier"]) for f in fsck(instance)["findings"]
        ] == [("under-replicated", "k", "tier2")]

    def test_report_only_mode_changes_nothing(self):
        _, instance, _ = self._seeded()
        service = instance.tiers.get("tier2").service
        service.install("beta", b"rotted bit")
        before = instance.state_digest()
        report = fsck(instance, repair=False)
        assert not report["clean"] and report["repair"] is False
        assert instance.state_digest() == before


class TestAliasOverwriteCrash:
    """Overwrite one of two storeOnce-linked keys — the canonical ``a``
    or its alias ``b`` — crashing at each boundary of the overwrite's
    first write (ROADMAP defect (c))."""

    OLD, NEW = b"old bytes " * 16, b"new bytes " * 16
    POINTS = ("write.begin", "write.journaled", "write.data", "write.meta",
              "write.commit")

    def _crash_and_reopen(self, point, key="a"):
        cluster = Cluster(seed=2014)
        instance = dedup_instance(TierRegistry(cluster), mem="16M")
        instance.enable_durability()
        server = TieraServer(instance)
        server.put_object("a", self.OLD).raise_for_error()
        server.put_object("b", self.OLD).raise_for_error()
        assert instance.meta("b").alias_of == "a"
        instance.crash_points = CrashPointInjector().arm(point, 0)
        with pytest.raises(ProcessCrash):
            server.put_object(key, self.NEW)
        simulate_crash(instance)
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=instance.policy,
            clock=cluster.clock,
            metadata_store=instance.metadata_store,
            eviction_chain=dict(instance.eviction_chain),
        )
        return successor, recovery

    @pytest.mark.parametrize("point", POINTS)
    def test_the_alias_keeps_its_bytes_and_fsck_is_clean(self, point):
        successor, _ = self._crash_and_reopen(point)
        server = TieraServer(successor)
        assert server.get_object("b").raise_for_error().value == self.OLD
        assert fsck(successor)["clean"]

    @pytest.mark.parametrize("point", [
        pytest.param("write.begin", marks=pytest.mark.xfail(
            strict=True,
            reason="defect (c): _handoff_to_heir renames the canonical's "
            "bytes to its heir and writes those rows before any intent "
            "exists, so recovery's fsck drops the acked canonical as lost",
        )),
        *POINTS[1:],
    ])
    def test_the_canonical_survives(self, point):
        successor, recovery = self._crash_and_reopen(point)
        assert recovery["fsck"]["counts"]["findings"] == 0
        # Before its intent exists the overwrite may vanish, the acked
        # old bytes never; once journaled it rolls forward.
        allowed = (self.OLD, self.NEW) if point == "write.begin" else (self.NEW,)
        result = TieraServer(successor).get_object("a").raise_for_error()
        assert result.value in allowed

    @pytest.mark.parametrize("point", POINTS)
    def test_an_overwritten_alias_survives(self, point):
        # Detaching ``b`` from ``a`` is row work only, written with the
        # op's other rows: a crash before the intent leaves ``b`` an
        # alias of the old bytes, not an empty row fsck drops as lost.
        successor, recovery = self._crash_and_reopen(point, key="b")
        assert recovery["fsck"]["counts"]["findings"] == 0
        server = TieraServer(successor)
        assert server.get_object("a").raise_for_error().value == self.OLD
        allowed = (self.OLD, self.NEW) if point == "write.begin" else (self.NEW,)
        assert server.get_object("b").raise_for_error().value in allowed
        assert fsck(successor)["clean"]


class TestRefusedOverwrite:
    """An overwrite the only tier refuses must leave the acked bytes
    readable and their row consistent (ROADMAP defect (a), refused-
    overwrite form)."""

    @pytest.mark.xfail(
        strict=True,
        reason="defect (a), ROADMAP item 1: the refused overwrite leaves "
        "the row with the new checksum over the old bytes, so the GET "
        "fails TIER_UNAVAILABLE and fsck finds no clean copy",
    )
    def test_the_old_bytes_survive_a_refused_overwrite(self):
        registry = TierRegistry(Cluster(seed=1))
        server = TieraServer(
            build_instance(registry, [("tier1", "EBS", 10 ** 7)])
        )
        server.configure("resilience").raise_for_error()
        server.configure("durability").raise_for_error()
        server.put_object("k", b"v1").raise_for_error()
        (tier,) = server.instance.tiers
        tier.service.fail()
        assert server.put_object("k", b"v2").error == "SERVICE_UNAVAILABLE"
        tier.service.recover()
        assert server.get_object("k").value == b"v1"
        assert server.invoke("durability", "fsck").state["clean"]


class TestSnapshotRestore:
    def test_roundtrip_durable_state(self):
        cluster, instance, server = _build()
        for i in range(5):
            _put(cluster, server, f"obj{i}", b"payload-%d" % i)
        blob, manifest = snapshot_archive(instance)
        assert manifest["objects"] == 5

        # Restore into a *fresh* same-shape instance.
        _, target, _ = _build(seed=99)
        result = restore_archive(target, blob)
        assert result["verified"] is True
        assert result["objects"] == 5
        assert target.state_digest(durable_only=True) == (
            instance.state_digest(durable_only=True)
        )

    def test_recency_after_restore_is_sorted(self):
        cluster, instance, server = _build()
        for key in ("c", "a", "b"):
            _put(cluster, server, key, key.encode())
        blob, _ = snapshot_archive(instance, include_volatile=True)
        target_cluster, target, target_server = _build(seed=99)
        _put(target_cluster, target_server, "gone", b"replaced wholesale")
        restore_archive(target, blob)
        for tier in target.tiers.ordered():
            assert (tier.oldest, tier.newest) == ("a", "c")
            assert tier.used == 3

    def test_snapshot_is_deterministic(self):
        cluster, instance, server = _build()
        _put(cluster, server, "a", b"one")
        blob1, _ = snapshot_archive(instance)
        blob2, _ = snapshot_archive(instance)
        assert blob1 == blob2

    def test_include_volatile_roundtrips_full_digest(self):
        cluster, instance, server = _build()
        _put(cluster, server, "a", b"one")
        _put(cluster, server, "b", b"two")
        blob, manifest = snapshot_archive(instance, include_volatile=True)
        _, target, _ = _build(seed=99)
        result = restore_archive(target, blob)
        assert result["verified"] is True
        assert target.state_digest() == instance.state_digest()

    def test_restore_refuses_missing_tier(self):
        cluster, instance, server = _build()
        _put(cluster, server, "a", b"one")
        blob, _ = snapshot_archive(instance)
        tampered = blob  # restore into an instance lacking tier2
        cluster2 = Cluster(seed=5)
        registry2 = TierRegistry(cluster2)
        lonely = build_instance(
            registry2, [("tier1", "Memcached", 10 ** 6)],
            metadata_store=MemoryStore(),
        )
        with pytest.raises(ValueError, match="no tier"):
            restore_archive(lonely, tampered)

    def test_restore_refuses_future_format(self):
        cluster, instance, server = _build()
        blob, _ = snapshot_archive(instance)
        import io
        import tarfile

        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            manifest = json.loads(tar.extractfile("manifest.json").read())
        manifest["format"] = 999
        out = io.BytesIO()
        with tarfile.open(fileobj=out, mode="w") as tar:
            raw = json.dumps(manifest).encode()
            info = tarfile.TarInfo("manifest.json")
            info.size = len(raw)
            tar.addfile(info, io.BytesIO(raw))
        with pytest.raises(ValueError, match="newer"):
            restore_archive(instance, out.getvalue())


class TestCheckpoint:
    def test_checkpoint_compacts_logstore(self, tmp_path):
        from repro.kvstore import LogStore

        store = LogStore(str(tmp_path / "meta.db"))
        cluster, instance, server = _build(store)
        for i in range(10):
            _put(cluster, server, "hot", b"version-%d" % i)
        assert store.dead_bytes > 0
        report = instance.durability.checkpoint()
        assert "LogStore" in report["compacted"]
        assert store.dead_bytes == 0
        assert report["pending"] == 0
        instance.shutdown()

    def test_disabled_durability_keeps_data_path_unjournaled(self):
        cluster = Cluster(seed=7)
        registry = TierRegistry(cluster)
        instance = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=(WRITE_THROUGH,),
            metadata_store=MemoryStore(),
        )
        server = TieraServer(instance)
        _put(cluster, server, "a", b"one")
        assert instance.durability is None
        assert not any(
            k.startswith(JOURNAL_PREFIX)
            for k in instance.metadata_store.keys()
        )
