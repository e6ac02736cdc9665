"""The write path does work proportional to the op, not to the table.

An overwrite or delete finds the key's aliases, and a versioned
overwrite its preserved versions, through per-key indexes; nothing
reachable from ``put_object`` / ``delete_object`` walks the metadata
table.  The indexes are derived state: every wholesale path (open,
journal redo, archive restore, backup chain restore) rebuilds them
through ``TieraInstance.install_meta``.
"""

import pytest

from repro.core.durability import reopen_instance, restore_archive, snapshot_archive
from repro.core.events import ActionEvent
from repro.core.policy import Rule
from repro.core.responses import StoreOnce
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.kvstore import MemoryStore
from tests.core.conftest import build_instance

TIERS = [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)]


class CountingTable(dict):
    """A metadata table that counts every walk over itself."""

    walks = 0

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def store_once_rule(to=("tier1", "tier2")):
    return Rule(ActionEvent("insert"), [StoreOnce(InsertObject(), to)], name="once")


def counted(instance):
    """Swap the instance's table for a counting one (same rows)."""
    instance._meta = CountingTable(instance._meta)
    return instance._meta


def dedup_pair(registry, **kwargs):
    """``a`` holds the bytes, ``b`` and ``c`` alias them; plus bystanders."""
    instance = build_instance(registry, TIERS, rules=[store_once_rule()], **kwargs)
    server = TieraServer(instance)
    for n in range(20):
        server.put_object(f"other-{n}", f"filler {n}".encode()).raise_for_error()
    for key in ("a", "b", "c"):
        server.put_object(key, b"shared bytes").raise_for_error()
    assert instance.meta("b").alias_of == "a"
    assert instance.meta("c").alias_of == "a"
    return instance, server


class TestNoTableWalks:
    def test_overwrite_put(self, registry):
        instance = build_instance(registry, TIERS)
        server = TieraServer(instance)
        for n in range(50):
            server.put_object(f"k{n}", b"first").raise_for_error()
        table = counted(instance)
        server.put_object("k7", b"second").raise_for_error()
        assert table.walks == 0
        assert server.get_object("k7").raise_for_error().value == b"second"

    def test_delete(self, registry):
        instance = build_instance(registry, TIERS)
        server = TieraServer(instance)
        for n in range(50):
            server.put_object(f"k{n}", b"first").raise_for_error()
        table = counted(instance)
        server.delete_object("k7").raise_for_error()
        assert table.walks == 0
        assert not instance.has_object("k7")

    def test_versioned_overwrite(self, registry):
        instance = build_instance(registry, TIERS)
        instance.enable_versioning(max_versions=2)
        server = TieraServer(instance)
        for n in range(50):
            server.put_object(f"k{n}", b"first").raise_for_error()
        table = counted(instance)
        for n in range(4):  # preserves, then trims
            server.put_object("k7", f"rewrite {n}".encode()).raise_for_error()
        assert table.walks == 0
        assert instance.versions_of("k7") == ["k7@v2", "k7@v3"]

    def test_overwrite_of_a_canonical_with_aliases(self, registry):
        instance, server = dedup_pair(registry)
        table = counted(instance)
        server.put_object("a", b"new bytes").raise_for_error()
        assert table.walks == 0
        assert server.get_object("a").raise_for_error().value == b"new bytes"
        assert server.get_object("b").raise_for_error().value == b"shared bytes"
        assert server.get_object("c").raise_for_error().value == b"shared bytes"

    def test_delete_of_a_canonical_with_aliases(self, registry):
        instance, server = dedup_pair(registry)
        table = counted(instance)
        server.delete_object("a").raise_for_error()
        assert table.walks == 0
        assert instance.meta("b").alias_of is None
        assert instance.meta("c").alias_of == "b"
        assert server.get_object("c").raise_for_error().value == b"shared bytes"

    def test_the_indexes_hold_only_aliased_and_versioned_keys(self, registry):
        instance, server = dedup_pair(registry)
        assert instance._aliases == {"a": {"b": None, "c": None}}
        assert instance._versions == {}
        server.delete_object("b").raise_for_error()
        server.delete_object("c").raise_for_error()
        assert instance._aliases == {}


class TestHeirRule:
    def test_the_heir_is_the_earliest_linked_alias(self, registry):
        """``late`` is created first but linked to ``a``'s content last:
        the index orders aliases by link time, so ``early`` inherits.
        (The table scan this replaced went by creation order and would
        have picked ``late``; the two agree unless a key is re-aliased
        after its creation, which no test, smoke or baseline does.)"""
        instance = build_instance(registry, TIERS, rules=[store_once_rule()])
        server = TieraServer(instance)
        server.put_object("late", b"own bytes").raise_for_error()
        server.put_object("a", b"shared").raise_for_error()
        server.put_object("early", b"shared").raise_for_error()
        server.put_object("late", b"shared").raise_for_error()
        assert list(instance._aliases["a"]) == ["early", "late"]
        server.delete_object("a").raise_for_error()
        assert instance.meta("early").alias_of is None
        assert instance.meta("early").refcount == 1
        assert instance.meta("late").alias_of == "early"
        assert instance.dedup_lookup(instance.meta("early").checksum) == "early"
        assert server.get_object("late").raise_for_error().value == b"shared"

    def test_a_detached_alias_is_no_longer_an_heir(self, registry):
        instance, server = dedup_pair(registry)
        server.put_object("b", b"b's own now").raise_for_error()
        assert list(instance._aliases["a"]) == ["c"]
        server.delete_object("a").raise_for_error()
        assert instance.meta("c").alias_of is None
        assert server.get_object("b").raise_for_error().value == b"b's own now"
        assert server.get_object("c").raise_for_error().value == b"shared bytes"


def assert_handoff_after(instance):
    """Overwriting the canonical hands its bytes to the aliases."""
    server = TieraServer(instance)
    table = counted(instance)
    server.put_object("a", b"new bytes").raise_for_error()
    assert table.walks == 0
    assert instance.meta("b").alias_of is None
    assert instance.meta("c").alias_of == "b"
    assert server.get_object("b").raise_for_error().value == b"shared bytes"
    assert server.get_object("c").raise_for_error().value == b"shared bytes"
    assert server.get_object("a").raise_for_error().value == b"new bytes"


class TestIndexesAreRebuilt:
    """Each wholesale path goes through ``install_meta``."""

    def test_after_reopen(self, registry):
        store = MemoryStore()
        # Durable tiers only: the canonical's bytes must outlive the process.
        tiers = [("tier1", "EBS", 10 ** 6), ("tier2", "S3", None)]
        instance = build_instance(
            registry, tiers, rules=[store_once_rule()], metadata_store=store
        )
        server = TieraServer(instance)
        for key in ("a", "b", "c"):
            server.put_object(key, b"shared bytes").raise_for_error()
        reopened, _ = reopen_instance(
            "test", list(instance.tiers.ordered()), instance.policy,
            instance.clock, store,
        )
        assert reopened._aliases == {"a": {"b": None, "c": None}}
        assert_handoff_after(reopened)

    def test_after_an_archive_restore(self, registry):
        instance, _ = dedup_pair(registry)
        blob, _ = snapshot_archive(instance, include_volatile=True)
        target = build_instance(registry, [
            ("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7),
        ], rules=[store_once_rule()], name="target")
        target.create_object("old", 1)
        target.create_object("old-alias", 1)
        target.alias_object("old-alias", "old")  # rows the restore must clear
        assert restore_archive(target, blob)["verified"]
        assert target._aliases == {"a": {"b": None, "c": None}}
        assert_handoff_after(target)

    def test_after_a_backup_chain_restore(self, registry, tmp_path):
        tiers = [("tier1", "EBS", 10 ** 6), ("tier2", "S3", None)]
        instance = build_instance(registry, tiers, rules=[store_once_rule()])
        backup = instance.enable_backups(str(tmp_path / "bk"))
        server = TieraServer(instance)
        server.put_object("a", b"shared bytes").raise_for_error()
        server.put_object("b", b"shared bytes").raise_for_error()
        backup.snapshot(kind="full")
        server.put_object("c", b"shared bytes").raise_for_error()  # incremental
        tip = backup.snapshot()
        assert tip["kind"] == "incremental"
        server.put_object("a", b"mutated after the snapshot").raise_for_error()
        backup.restore(snapshot_id=int(tip["id"]))
        assert instance._aliases == {"a": {"b": None, "c": None}}
        assert_handoff_after(instance)

    def test_versions_survive_a_reopen(self, registry):
        store = MemoryStore()
        tiers = [("tier1", "EBS", 10 ** 6), ("tier2", "S3", None)]
        instance = build_instance(registry, tiers, metadata_store=store)
        instance.enable_versioning(max_versions=2)
        server = TieraServer(instance)
        for n in range(3):
            server.put_object("doc", f"content {n}".encode()).raise_for_error()
        reopened, _ = reopen_instance(
            "test", list(instance.tiers.ordered()), instance.policy,
            instance.clock, store,
        )
        assert reopened.versions_of("doc") == ["doc@v0", "doc@v1"]
        reopened.enable_versioning(max_versions=2)
        TieraServer(reopened).put_object("doc", b"content 3").raise_for_error()
        assert reopened.versions_of("doc") == ["doc@v1", "doc@v2"]


class TestHandoffWithATierDown:
    """All or nothing: an unreachable holder refuses the op before
    anything is renamed (the parent skipped the tier, yet recorded its
    copy on the heir)."""

    @pytest.mark.parametrize("verb", ["put", "delete"])
    def test_refused_before_anything_is_renamed(self, registry, verb):
        from repro.core.durability import fsck

        instance = build_instance(registry, TIERS, rules=[store_once_rule()])
        server = TieraServer(instance)
        server.put_object("a", b"x").raise_for_error()
        server.put_object("b", b"x").raise_for_error()
        tier2 = instance.tiers.get("tier2")
        tier2.service.fail()
        if verb == "put":
            result = server.put_object("a", b"y")
        else:
            result = server.delete_object("a")
        assert not result.ok and result.error == "TIER_UNAVAILABLE"
        tier2.service.recover()
        assert instance.meta("b").alias_of == "a"
        assert tier2.contains("a") and not tier2.contains("b")
        for key in ("a", "b"):
            for prefer in ("tier1", "tier2"):
                got = server.get_object(key, prefer=prefer).raise_for_error()
                assert got.value == b"x" and got.tier == prefer
        assert fsck(instance)["clean"]
        # Reachable again, the same op goes through.
        if verb == "put":
            server.put_object("a", b"y").raise_for_error()
            assert server.get_object("a").raise_for_error().value == b"y"
        else:
            server.delete_object("a").raise_for_error()
        assert instance.meta("b").locations == {"tier1", "tier2"}
        assert server.get_object("b", prefer="tier2").raise_for_error().value == b"x"
        assert fsck(instance)["clean"]

    def test_a_refused_delete_leaves_no_journal_intent(self, registry):
        tiers = [("tier1", "EBS", 10 ** 6), ("tier2", "EBS", 10 ** 7)]
        instance = build_instance(registry, tiers, rules=[store_once_rule()])
        layer = instance.enable_durability()
        server = TieraServer(instance)
        server.put_object("a", b"x").raise_for_error()
        server.put_object("b", b"x").raise_for_error()
        instance.tiers.get("tier2").service.fail()
        assert server.delete_object("a").error == "TIER_UNAVAILABLE"
        assert len(layer.journal) == 0  # a replay would delete a kept key


class TestHandoffThatFailsMidRename:
    """A tier op that raises during the rename leaves the alias index
    as it was, so the retry hands off again instead of writing the new
    bytes under the key the aliases still read."""

    @pytest.mark.parametrize("verb", ["put", "delete"])
    def test_no_room_for_the_second_copy(self, registry, verb):
        from repro.core.durability import fsck

        tiers = [("tier1", "Memcached", 250), ("tier2", "EBS", 10 ** 7)]
        instance = build_instance(registry, tiers, rules=[store_once_rule()])
        server = TieraServer(instance)
        old = b"x" * 100
        server.put_object("filler", b"f" * 100).raise_for_error()
        server.put_object("a", old).raise_for_error()
        server.put_object("b", old).raise_for_error()
        assert instance.meta("b").alias_of == "a"

        def attempt():
            if verb == "put":
                return server.put_object("a", b"y")
            return server.delete_object("a")

        # The rename needs 100 more bytes in tier1; 50 are free.
        assert attempt().error == "CAPACITY_EXCEEDED"
        assert instance._aliases == {"a": {"b": None}}
        assert instance.meta("b").alias_of == "a"
        for key in ("a", "b"):
            assert server.get_object(key).raise_for_error().value == old
        assert fsck(instance)["clean"]

        server.delete_object("filler").raise_for_error()
        attempt().raise_for_error()
        assert instance._aliases == {}
        assert instance.meta("b").alias_of is None
        assert instance.meta("b").locations == {"tier1", "tier2"}
        for prefer in ("tier1", "tier2"):
            got = server.get_object("b", prefer=prefer).raise_for_error()
            assert got.value == old
        if verb == "put":
            assert server.get_object("a").raise_for_error().value == b"y"
        else:
            assert not instance.has_object("a")
        assert fsck(instance)["clean"]
