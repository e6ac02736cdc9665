"""Backup lifecycle: WAL archiving, incremental chains, PITR, retention,
scheduled verification."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.durability import fsck, reopen_instance, simulate_crash
from repro.core.errors import BackupError
from repro.core.events import ActionEvent
from repro.core.policy import Policy, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
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


def _build(root, store=None, seed=7, segment_records=None):
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = build_instance(
        registry,
        [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
        rules=(WRITE_THROUGH,),
        metadata_store=store if store is not None else MemoryStore(),
    )
    instance.enable_durability()
    instance.enable_backups(str(root), segment_records=segment_records)
    return cluster, instance, TieraServer(instance)


def _put(cluster, server, key, data):
    ctx = RequestContext(cluster.clock)
    server.put_object(key, data, ctx=ctx).raise_for_error()
    if ctx.time > cluster.clock.now():
        cluster.clock.run_until(ctx.time)


def _get(cluster, server, key):
    ctx = RequestContext(cluster.clock)
    result = server.get_object(key, ctx=ctx)
    result.raise_for_error()
    if ctx.time > cluster.clock.now():
        cluster.clock.run_until(ctx.time)
    return result.value


def _delete(cluster, server, key):
    ctx = RequestContext(cluster.clock)
    server.delete_object(key, ctx=ctx).raise_for_error()
    if ctx.time > cluster.clock.now():
        cluster.clock.run_until(ctx.time)


def _reattach(instance, root, **kwargs):
    """Detach and re-attach a backup manager over the same store."""
    instance.backup.close()
    return instance.enable_backups(str(root), **kwargs)


class TestWalArchive:
    def test_committed_records_are_archived(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(3):
            _put(cluster, server, f"k{i}", b"payload-%d" % i)
        assert manager.last_seq >= 0
        ops = {e["op"] for e in manager._wal.values()}
        assert "write" in ops
        assert os.path.exists(os.path.join(str(tmp_path), "wal",
                                           "current.jsonl"))

    def test_sequence_space_is_dense(self, tmp_path):
        # Scopes and aborts archive as markers, so every seq in
        # 0..last_seq exists: a gap is always a real hole in history.
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(4):
            _put(cluster, server, f"k{i}", b"x" * 32)
        assert sorted(manager._wal) == list(range(manager.last_seq + 1))

    def test_rotation_seals_segments_and_reloads(self, tmp_path):
        cluster, instance, server = _build(tmp_path, segment_records=4)
        manager = instance.backup
        for i in range(8):
            _put(cluster, server, f"k{i}", b"x" * 32)
        segments = [
            f for f in os.listdir(str(tmp_path / "wal"))
            if f.startswith("segment_")
        ]
        assert segments, "enough records must have sealed a segment"
        before = (manager.last_seq, sorted(manager._wal))
        revived = _reattach(instance, tmp_path, assume_continuity=True)
        assert (revived.last_seq, sorted(revived._wal)) == before

    def test_torn_tail_is_dropped_on_reload(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        _put(cluster, server, "k", b"x" * 32)
        last = instance.backup.last_seq
        with open(str(tmp_path / "wal" / "current.jsonl"), "ab") as out:
            out.write(b'{"seq": 999, "op": "wri')  # crash mid-append
        revived = _reattach(instance, tmp_path, assume_continuity=True)
        assert revived.last_seq == last
        assert 999 not in revived._wal

    def test_corrupt_sealed_segment_is_a_hard_error(self, tmp_path):
        cluster, instance, server = _build(tmp_path, segment_records=2)
        for i in range(4):
            _put(cluster, server, f"k{i}", b"x" * 32)
        instance.backup.close()
        wal_dir = str(tmp_path / "wal")
        segment = sorted(
            f for f in os.listdir(wal_dir) if f.startswith("segment_")
        )[0]
        with open(os.path.join(wal_dir, segment), "wb") as out:
            out.write(b"\xff not json\n")
        with pytest.raises(BackupError, match="corrupt WAL file"):
            instance.enable_backups(str(tmp_path), assume_continuity=True)


class TestIncrementalSnapshots:
    def test_incremental_captures_only_changed_objects(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(6):
            _put(cluster, server, f"obj{i}", b"v0" * 4096)
        full = manager.snapshot(kind="full")
        _put(cluster, server, "obj1", b"v1" * 4096)
        _put(cluster, server, "obj4", b"v1" * 4096)
        inc = manager.snapshot()
        assert inc["kind"] == "incremental"
        assert inc["parent"] == full["id"]
        assert inc["objects"] == 2
        assert inc["bytes"] < full["bytes"]

    def test_metadata_only_change_rides_the_incremental(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(3):
            _put(cluster, server, f"obj{i}", b"v0" * 64)
        manager.snapshot(kind="full")
        server.add_tag("obj0", "hot")  # no journal record, only metadata
        inc = manager.snapshot()
        assert inc["kind"] == "incremental"
        assert inc["objects"] == 1

    def test_deletion_rides_the_incremental(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(3):
            _put(cluster, server, f"obj{i}", b"v0" * 64)
        manager.snapshot(kind="full")
        _delete(cluster, server, "obj1")
        tip = manager.snapshot()
        _put(cluster, server, "obj1", b"resurrected")  # diverge afterwards
        result = manager.restore(snapshot_id=tip["id"])
        assert result["replayed"] == 0
        assert not server.contains("obj1")
        assert _get(cluster, server, "obj0") == b"v0" * 64

    def test_incremental_without_parent_is_an_error(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        with pytest.raises(BackupError, match="needs a parent"):
            instance.backup.snapshot(kind="incremental")

    def test_detached_window_forces_a_full(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        _put(cluster, server, "k0", b"x" * 32)
        instance.backup.snapshot(kind="full")
        instance.backup.close()
        # Changes made while nothing was tracking them:
        _put(cluster, server, "k1", b"y" * 32)
        manager = instance.enable_backups(str(tmp_path))
        with pytest.raises(BackupError, match="full snapshot is required"):
            manager.snapshot(kind="incremental")
        assert manager.snapshot()["kind"] == "full"


class TestChainRestore:
    def _history(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(5):
            _put(cluster, server, f"obj{i}", b"v0" * 64)
        manager.snapshot(kind="full")
        _put(cluster, server, "obj1", b"v1" * 64)
        manager.snapshot()
        _put(cluster, server, "obj2", b"v2" * 64)
        tip = manager.snapshot()
        return cluster, instance, server, manager, tip

    def test_full_plus_incrementals_restores_tip_state(self, tmp_path):
        cluster, instance, server, manager, tip = self._history(tmp_path)
        # Pin the *durable* state: a restore rebuilds only archived
        # tiers, so volatile cache copies are legitimately absent.
        pinned = instance.state_digest(durable_only=True)
        _put(cluster, server, "obj3", b"post-tip" * 16)
        result = manager.restore(snapshot_id=tip["id"])
        assert result["chain"] == [tip["id"] - 2, tip["id"] - 1, tip["id"]]
        assert result["durable_digest"] == pinned
        assert _get(cluster, server, "obj2") == b"v2" * 64
        assert fsck(instance)["clean"]

    def test_corrupted_archive_fails_closed(self, tmp_path):
        cluster, instance, server, manager, tip = self._history(tmp_path)
        before = instance.state_digest()
        path = str(tmp_path / "snapshots" / tip["file"])
        with open(path, "r+b") as handle:
            handle.seek(200)
            handle.write(b"\x00\xff\x00\xff")
        with pytest.raises(BackupError, match="integrity digest"):
            manager.restore(snapshot_id=tip["id"])
        # Verification happens before any mutation: state is untouched.
        assert instance.state_digest() == before

    def test_broken_parent_link_fails_closed(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "a", b"x" * 32)
        full1 = manager.snapshot(kind="full")
        _put(cluster, server, "b", b"y" * 32)
        manager.snapshot(kind="full")
        _put(cluster, server, "c", b"z" * 32)
        inc = manager.snapshot()  # parented on the second full
        # Rewrite the catalog to claim the incremental descends from
        # the first full; the manifest's parent_sha256 exposes the lie.
        manager._entry(inc["id"])["parent"] = full1["id"]
        with pytest.raises(BackupError, match="chain integrity broken"):
            manager.restore(snapshot_id=inc["id"])


class TestPointInTimeRestore:
    def test_restore_to_seq_mid_rewrite_history(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "k", b"v1" * 32)
        manager.snapshot(kind="full")
        _put(cluster, server, "k", b"v2" * 32)  # journals as a rewrite
        pinned_seq = manager.last_seq
        pinned_digest = instance.state_digest(durable_only=True)
        _put(cluster, server, "k", b"v3" * 32)
        result = manager.restore(to_seq=pinned_seq)
        assert result["replayed"] > 0
        assert result["durable_digest"] == pinned_digest
        assert _get(cluster, server, "k") == b"v2" * 32

    def test_seq_before_oldest_snapshot_is_a_clean_error(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(4):
            _put(cluster, server, f"k{i}", b"x" * 32)
        manager.snapshot(kind="full")
        with pytest.raises(BackupError, match="predates the oldest snapshot"):
            manager.restore(to_seq=0)

    def test_seq_beyond_history_is_a_clean_error(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "k", b"x" * 32)
        manager.snapshot(kind="full")
        with pytest.raises(BackupError, match="beyond the archived history"):
            manager.restore(to_seq=manager.last_seq + 10)

    def test_at_most_one_selector(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        _put(cluster, server, "k", b"x" * 32)
        instance.backup.snapshot(kind="full")
        with pytest.raises(BackupError, match="at most one"):
            instance.backup.restore(to_seq=1, to_time=2.0)

    def test_in_place_restore_starts_a_new_timeline(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "k", b"v1" * 32)
        manager.snapshot(kind="full")
        _put(cluster, server, "k", b"v2" * 32)
        pinned_seq = manager.last_seq
        _put(cluster, server, "k", b"v3" * 32)
        abandoned_seq = manager.last_seq
        manager.snapshot()  # will land beyond the restore target
        manager.restore(to_seq=pinned_seq)
        # History beyond the target is truncated; the snapshot taken on
        # the abandoned timeline is retired, not a restore base.
        assert manager.last_seq == pinned_seq
        assert any(e.get("retired") for e in manager.snapshots)
        with pytest.raises(BackupError, match="beyond the archived history"):
            manager.restore(to_seq=abandoned_seq)
        # New writes renumber densely from the cut.
        _put(cluster, server, "k", b"v4" * 32)
        assert sorted(manager._wal) == list(range(manager.last_seq + 1))
        assert fsck(instance)["clean"]

    def test_a_refused_in_place_restore_has_not_happened(self, tmp_path):
        # The hole is found before the live instance is wiped back to
        # the base snapshot, not after.
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "a", b"v1" * 32)
        manager.snapshot(kind="full")
        _put(cluster, server, "b", b"v2" * 32)
        _put(cluster, server, "c", b"v3" * 32)
        del manager._wal[manager.last_seq - 2]
        pending = instance.durability.journal.begin({"op": "scope"})
        before = (
            instance.state_digest(), len(instance.durability.journal),
            manager.list_snapshots(), sorted(manager._wal),
        )
        with pytest.raises(BackupError, match="has a hole at seq"):
            manager.restore()
        assert before == (
            instance.state_digest(), len(instance.durability.journal),
            manager.list_snapshots(), sorted(manager._wal),
        )
        assert instance.durability.journal.pending()[0][0] == pending
        for key, value in (("a", b"v1"), ("b", b"v2"), ("c", b"v3")):
            assert _get(cluster, server, key) == value * 32

    def test_same_seed_double_restore_is_byte_identical(self, tmp_path):
        def scenario(root):
            store = MemoryStore()
            cluster, instance, server = _build(root, store=store, seed=11)
            manager = instance.backup
            for i in range(6):
                _put(cluster, server, f"obj{i}", b"w0" * 64)
            manager.snapshot(kind="full")
            _put(cluster, server, "obj2", b"w1" * 64)
            target = manager.last_seq
            _put(cluster, server, "obj3", b"w2" * 64)
            manager.snapshot()
            result = manager.restore(to_seq=target)
            return result, instance.state_digest()

        first = scenario(tmp_path / "a")
        second = scenario(tmp_path / "b")
        assert first == second


class TestRetention:
    def test_keep_last_never_orphans_a_chain(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "a", b"x" * 32)
        full = manager.snapshot(kind="full")
        _put(cluster, server, "b", b"y" * 32)
        inc1 = manager.snapshot()
        _put(cluster, server, "c", b"z" * 32)
        inc2 = manager.snapshot()
        report = manager.prune(keep_last=1)
        # The surviving incremental needs its whole ancestry: nothing
        # can actually be removed.
        assert report["pruned"] == []
        protected = {p["id"] for p in report["protected"]}
        assert protected == {full["id"], inc1["id"]}
        assert {e["id"] for e in manager.snapshots} == {
            full["id"], inc1["id"], inc2["id"]
        }
        # The chain must still restore end to end.
        assert manager.restore(snapshot_id=inc2["id"])["chain"] == [
            full["id"], inc1["id"], inc2["id"]
        ]

    def test_stale_full_is_pruned_once_superseded(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "a", b"x" * 32)
        old_full = manager.snapshot(kind="full")
        _put(cluster, server, "b", b"y" * 32)
        new_full = manager.snapshot(kind="full")
        _put(cluster, server, "c", b"z" * 32)
        inc = manager.snapshot()
        report = manager.prune(keep_last=2)
        assert report["pruned"] == [old_full["id"]]
        assert not os.path.exists(
            str(tmp_path / "snapshots" / old_full["file"])
        )
        assert {e["id"] for e in manager.snapshots} == {
            new_full["id"], inc["id"]
        }
        assert report["wal_dropped"] > 0

    def test_immutable_snapshot_survives_as_policy_violation(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "a", b"x" * 32)
        frozen = manager.snapshot(kind="full", immutable=True)
        _put(cluster, server, "b", b"y" * 32)
        manager.snapshot(kind="full")
        report = manager.prune(keep_last=1)
        assert report["violations"] == 1
        assert frozen["id"] in {e["id"] for e in manager.snapshots}
        assert manager._violation_counter.value() == 1.0
        violations = instance.obs.audit.records(
            category="backup", name="immutable-violation"
        )
        assert len(violations) == 1
        assert violations[0].error is not None

    def test_retired_timeline_is_collected(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "k", b"v1" * 32)
        manager.snapshot(kind="full")
        target = manager.last_seq
        _put(cluster, server, "k", b"v2" * 32)
        abandoned = manager.snapshot()
        manager.restore(to_seq=target)
        assert manager._entry(abandoned["id"]).get("retired")
        report = manager.prune()
        assert report["pruned"] == [abandoned["id"]]

    @pytest.mark.parametrize("policy", [
        {"keep_last": -1}, {"keep_window": -1.0},
    ])
    def test_a_negative_count_is_refused_and_deletes_nothing(
        self, tmp_path, policy
    ):
        """Regression: ``keep_last=-1`` was clamped to keep none and a
        negative window put the cutoff in the future — both pruned
        every snapshot but the newest full."""
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(4):
            _put(cluster, server, f"k{i}", b"x" * 32)
            manager.snapshot(kind="full")
        catalog = json.dumps(manager.list_snapshots(), sort_keys=True)
        with pytest.raises(ValueError, match="at least 0"):
            manager.prune(**policy)
        refused = server.invoke("backup", "prune", **policy)
        assert not refused.ok and refused.error == "BAD_CONFIG"
        assert json.dumps(manager.list_snapshots(), sort_keys=True) == catalog
        assert [e["id"] for e in manager.snapshots] == [1, 2, 3, 4]
        assert manager.prune(keep_last=0)["pruned"] == [1, 2, 3]

    def test_keep_last_beyond_the_catalog_keeps_everything(self, tmp_path):
        """Regression: with ``keep_last`` above the number of snapshots
        the kept slice started from a negative index, so a window rule
        pruned the oldest snapshot that ``keep_last`` keeps."""
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(3):
            _put(cluster, server, f"k{i}", b"x" * 32)
            manager.snapshot(kind="full")
            cluster.clock.run_until(cluster.clock.now() + 10.0)
        report = manager.prune(keep_last=5, keep_window=1.0)
        assert report["pruned"] == [] and report["kept"] == [1, 2, 3]


class TestCrashAtomicity:
    def _crash_at(self, tmp_path, point):
        store = MemoryStore()
        cluster, instance, server = _build(tmp_path, store=store)
        _put(cluster, server, "keep", b"acked bytes")
        instance.crash_points = CrashPointInjector().arm(point)
        with pytest.raises(ProcessCrash):
            instance.backup.snapshot(kind="full")
        simulate_crash(instance)
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=Policy([WRITE_THROUGH]),
            clock=cluster.clock,
            metadata_store=store,
            backup_root=str(tmp_path),
        )
        return cluster, successor, recovery

    def test_crash_before_rename_leaves_no_torn_archive(self, tmp_path):
        # Died after writing the temp file, before the atomic rename:
        # the next attach discards the temp and the catalog never saw
        # the snapshot.
        cluster, successor, recovery = self._crash_at(
            tmp_path, "backup.snapshot.temp"
        )
        manager = successor.backup
        assert manager.snapshots == []
        assert os.listdir(str(tmp_path / "snapshots")) == []
        for dirpath, _dirs, files in os.walk(str(tmp_path)):
            assert not any(f.endswith(".tmp") for f in files)
        # The store is fully usable afterwards.
        entry = manager.snapshot()
        assert entry["kind"] == "full"
        assert manager.restore(snapshot_id=entry["id"])["replayed"] == 0

    def test_crash_after_catalog_commit_keeps_the_snapshot(self, tmp_path):
        cluster, successor, recovery = self._crash_at(
            tmp_path, "backup.snapshot.done"
        )
        manager = successor.backup
        assert len(manager.snapshots) == 1
        entry = manager.snapshots[0]
        result = manager.restore(snapshot_id=entry["id"])
        assert result["state_digest"] == entry["state_digest"]
        assert fsck(successor)["clean"]


class TestScheduledVerification:
    def test_verify_restore_replays_the_tail(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(4):
            _put(cluster, server, f"obj{i}", b"v0" * 64)
        manager.snapshot(kind="full")
        _put(cluster, server, "obj1", b"v1" * 64)
        manager.snapshot()
        _put(cluster, server, "obj2", b"v2" * 64)  # un-snapshotted tail
        result = manager.verify_restore()
        assert result["ok"] is True
        assert result["replayed"] > 0
        assert result["fsck_clean"] is True
        assert result["state_digest"] == instance.state_digest(
            durable_only=True
        )
        # Persisted: a successor manager reports the same drill.
        revived = _reattach(instance, tmp_path, assume_continuity=True)
        assert revived.last_verified_restore["ok"] is True

    def test_verified_digest_is_the_tip_manifests(self, tmp_path):
        """With no tail to replay, the drill's durable digest is the one
        the tip snapshot's manifest recorded: "what survives a crash"
        and "what a snapshot archives" are one definition."""
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        for i in range(3):
            _put(cluster, server, f"obj{i}", b"v0" * 64)
        manager.snapshot(kind="full")
        _put(cluster, server, "obj1", b"v1" * 64)
        _delete(cluster, server, "obj2")
        tip = manager.snapshot()
        result = manager.verify_restore()
        assert result["ok"] is True and result["replayed"] == 0
        assert result["snapshot"] == tip["id"]
        assert result["state_digest"] == tip["state_digest"]

    def test_failed_drill_is_recorded_not_raised(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        result = manager.verify_restore()  # nothing to verify yet
        assert result["ok"] is False
        assert "no snapshots" in result["error"]

    def test_failed_drill_degrades_health(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "k", b"x" * 32)
        entry = manager.snapshot(kind="full")
        path = str(tmp_path / "snapshots" / entry["file"])
        with open(path, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\x00\xff\x00\xff")
        result = manager.verify_restore()
        assert result["ok"] is False
        assert result["error"]
        health = server.health()
        assert health["status"] == "dirty"
        assert health["backup"]["last_verified_restore"]["ok"] is False

    def test_health_summary_shape(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        manager = instance.backup
        _put(cluster, server, "k", b"x" * 32)
        manager.snapshot(kind="full")
        summary = manager.health_summary()
        assert set(summary) == {
            "snapshots", "full", "incremental", "immutable", "retired",
            "last_snapshot", "wal", "dirty_objects",
            "last_verified_restore",
        }
        assert summary["snapshots"] == 1
        assert summary["full"] == 1
        assert set(summary["last_snapshot"]) == {
            "id", "kind", "upto_seq", "created_at"
        }
        assert set(summary["wal"]) == {"records", "first_seq", "last_seq"}
        assert summary["last_verified_restore"] is None
        # And it is what health() embeds.
        assert server.health()["backup"] == summary


class TestSpecIntegration:
    def test_backup_responses_compile_from_specs(self):
        from repro.core.responses import BackupSnapshot, VerifyBackup
        from repro.spec import compile_spec

        registry = TierRegistry(Cluster(seed=1))
        instance = compile_spec(
            "Tiera Backed() {"
            " tier1: { name: Memcached, size: 1G };"
            " tier2: { name: EBS, size: 1G };"
            " event(time=30) : response {"
            "   backupSnapshot(kind: full); verifyBackup(); }"
            "}",
            registry,
        )
        rule = list(instance.policy)[-1]
        kinds = [type(r) for r in rule.responses]
        assert kinds == [BackupSnapshot, VerifyBackup]
        assert rule.responses[0].kind == "full"

    def test_bad_snapshot_kind_is_rejected_at_compile_time(self):
        from repro.core.errors import PolicyError
        from repro.spec import compile_spec

        registry = TierRegistry(Cluster(seed=1))
        with pytest.raises(PolicyError, match="kind"):
            compile_spec(
                "Tiera Backed() {"
                " tier1: { name: Memcached, size: 1G };"
                " event(time=30) : response {"
                "   backupSnapshot(kind: sideways); }"
                "}",
                registry,
            )

    def test_responses_require_backups_enabled(self, tmp_path):
        from repro.core.errors import PolicyError
        from repro.core.responses import BackupSnapshot
        from repro.core.conditions import EvalScope

        cluster = Cluster(seed=7)
        registry = TierRegistry(cluster)
        instance = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=(WRITE_THROUGH,),
        )
        scope = EvalScope(instance=instance)
        with pytest.raises(PolicyError, match="enable_backups"):
            BackupSnapshot().execute(scope, RequestContext(cluster.clock))


class TestCatalogOnDisk:
    def test_catalog_is_valid_sorted_json(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        _put(cluster, server, "k", b"x" * 32)
        instance.backup.snapshot(kind="full")
        with open(str(tmp_path / "catalog.json"), "rb") as handle:
            catalog = json.loads(handle.read().decode("utf-8"))
        assert catalog["format"] == 1
        assert len(catalog["snapshots"]) == 1
        entry = catalog["snapshots"][0]
        assert entry["archive_sha256"]
        assert entry["file"].startswith("snap_")

    def test_unreferenced_archive_is_garbage_collected(self, tmp_path):
        cluster, instance, server = _build(tmp_path)
        _put(cluster, server, "k", b"x" * 32)
        instance.backup.snapshot(kind="full")
        stray = str(tmp_path / "snapshots" / "snap_999999_full.tar")
        with open(stray, "wb") as out:
            out.write(b"crash remnant")
        _reattach(instance, tmp_path, assume_continuity=True)
        assert not os.path.exists(stray)
