"""The PUT/GET application interface layer."""

import pytest

from repro.core.durability import JOURNAL_PREFIX, simulate_crash
from repro.core.errors import NoSuchObjectError
from repro.core.events import ActionEvent
from repro.core.objects import ObjectMeta
from repro.core.policy import Rule
from repro.core.responses import Compress, SetAttr, Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.templates import high_durability_instance
from repro.kvstore import MemoryStore
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CrashPointInjector
from tests.core.conftest import build_instance


class TestPutGet:
    def test_roundtrip(self, server):
        server.put_object("k", b"hello").raise_for_error()
        assert server.get_object("k").raise_for_error().value == b"hello"

    def test_put_returns_latency(self, server):
        result = server.put_object("k", b"hello").raise_for_error()
        assert result.latency > 0

    def test_default_placement_is_first_tier(self, server):
        server.put_object("k", b"hello").raise_for_error()
        assert server.stat("k").locations == {"tier1"}

    def test_overwrite_bumps_version(self, server):
        server.put_object("k", b"v1").raise_for_error()
        server.put_object("k", b"v2").raise_for_error()
        assert server.get_object("k").raise_for_error().value == b"v2"
        assert server.stat("k").version == 1

    def test_get_missing_raises(self, server):
        with pytest.raises(NoSuchObjectError):
            server.get_object("ghost").raise_for_error()

    def test_get_updates_access_stats(self, server):
        server.put_object("k", b"v").raise_for_error()
        server.get_object("k").raise_for_error()
        server.get_object("k").raise_for_error()
        assert server.stat("k").access_count == 2

    def test_policy_placement_overrides_default(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Store(InsertObject(), "tier2")],
                    name="to-ebs",
                )
            ],
        )
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert server.stat("k").locations == {"tier2"}

    def test_delete(self, server):
        server.put_object("k", b"v").raise_for_error()
        server.delete_object("k").raise_for_error()
        assert not server.contains("k")
        with pytest.raises(NoSuchObjectError):
            server.get_object("k").raise_for_error()

    def test_encrypted_compressed_object_not_inflated(self, registry):
        """GET must not try to unzip ciphertext (regression)."""
        from repro.core.responses import Decrypt, Encrypt

        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [
                        Store(InsertObject(), "tier1"),
                        Compress(InsertObject()),
                        Encrypt(InsertObject(), key="k"),
                    ],
                    name="seal",
                )
            ],
        )
        server = TieraServer(inst)
        payload = b"sensitive " * 300
        server.put_object("k", payload).raise_for_error()
        # ciphertext as stored, no unzip
        sealed = server.get_object("k").raise_for_error().value
        assert sealed != payload
        from repro.core.conditions import EvalScope
        from repro.core.selectors import NamedObjects
        from repro.simcloud.resources import RequestContext

        Decrypt(NamedObjects("k"), key="k").execute(
            EvalScope(instance=inst), RequestContext(inst.clock)
        )
        # decrypt, then auto-inflate
        assert server.get_object("k").raise_for_error().value == payload

    def test_compressed_objects_inflate_on_get(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Store(InsertObject(), "tier1"), Compress(InsertObject())],
                    name="compressing",
                )
            ],
        )
        server = TieraServer(inst)
        payload = b"squeeze me " * 500
        server.put_object("k", payload).raise_for_error()
        assert inst.tiers.get("tier1").used < len(payload)
        assert server.get_object("k").raise_for_error().value == payload


class TestTags:
    def test_tags_at_put_time(self, server):
        server.put_object("k", b"v", tags=["tmp", "page"]).raise_for_error()
        assert server.stat("k").tags == {"tmp", "page"}

    def test_add_remove_tag(self, server):
        server.put_object("k", b"v").raise_for_error()
        server.add_tag("k", "hot")
        assert server.keys_with_tag("hot") == ["k"]
        server.remove_tag("k", "hot")
        assert server.keys_with_tag("hot") == []

    def test_tag_driven_policy(self, registry):
        """§2.1's example: a "tmp" tag routes to cheap volatile storage."""
        from repro.core.conditions import AttrRef, Comparison, Literal

        guard = Comparison(
            "==", AttrRef(("insert", "object", "tags")), Literal("tmp")
        )
        inst = build_instance(
            registry,
            [("tier1", "EBS", 10 ** 7), ("scratch", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert", guard=guard),
                    [Store(InsertObject(), "scratch")],
                    name="tmp-to-scratch",
                )
            ],
        )
        server = TieraServer(inst)
        server.put_object("temp-file", b"x", tags=["tmp"]).raise_for_error()
        server.put_object("real-file", b"x").raise_for_error()
        assert server.stat("temp-file").locations == {"scratch"}
        assert server.stat("real-file").locations == {"tier1"}

    def test_keys_listing(self, server):
        server.put_object("b", b"1").raise_for_error()
        server.put_object("a", b"2").raise_for_error()
        assert server.keys() == ["a", "b"]


class TestSetAttrThroughPolicy:
    def test_figure3_dirty_assignment(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [
                        SetAttr(("insert", "object", "dirty"), True),
                        Store(InsertObject(), "tier1"),
                    ],
                    name="fig3",
                )
            ],
        )
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert server.stat("k").dirty is True


class CountingStore(MemoryStore):
    """A metadata store that counts its writes per key."""

    def __init__(self):
        super().__init__()
        self.puts = []
        self.deletes = []
        self.log = []  # ("put" | "delete", key), in order

    def put(self, key, value):
        self.puts.append(key.decode())
        self.log.append(("put", key.decode()))
        super().put(key, value)

    def delete(self, key):
        self.deletes.append(key.decode())
        self.log.append(("delete", key.decode()))
        return super().delete(key)


def counting(instance):
    """Give a freshly built (still empty) instance a counting store."""
    instance.metadata_store = CountingStore()
    return instance.metadata_store


def persisted(instance, key):
    blob = instance.metadata_store.get(key.encode())
    return None if blob is None else ObjectMeta.from_json(blob)


class TestMetadataWriteBack:
    """A client op writes each object it touched to the metadata store
    once, when the op ends — with the journal off or on; with it on, the
    op's intents are retired after that write."""

    def test_one_store_put_per_object_touched(self, registry):
        instance = high_durability_instance(registry, mem="1M", ebs="1M")
        store = counting(instance)
        server = TieraServer(instance)
        server.put_object("k", b"first").raise_for_error()
        assert store.puts == ["k"]  # the parent wrote it five times
        server.put_object("k", b"second").raise_for_error()
        assert store.puts == ["k", "k"]
        assert persisted(instance, "k") == instance.meta("k")
        server.get_object("k").raise_for_error()
        assert store.puts == ["k", "k"]  # a GET persists nothing, as before

    def test_every_object_an_op_touches_is_written_once(self, registry):
        instance = build_instance(registry, [
            ("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7),
        ])
        instance.enable_versioning(max_versions=1)
        store = counting(instance)
        server = TieraServer(instance)
        for n in range(3):
            server.put_object("doc", f"content {n}".encode()).raise_for_error()
        # The third PUT preserved doc@v1, trimmed doc@v0, rewrote doc.
        assert store.puts[-2:] == ["doc@v1", "doc"]
        assert store.deletes == ["doc@v0"]
        assert persisted(instance, "doc@v0") is None
        for key in ("doc", "doc@v1"):
            assert persisted(instance, key) == instance.meta(key)

    def test_delete_reaches_the_store_when_the_op_ends(self, registry):
        instance = high_durability_instance(registry, mem="1M", ebs="1M")
        store = counting(instance)
        server = TieraServer(instance)
        server.put_object("k", b"bytes").raise_for_error()
        server.delete_object("k").raise_for_error()
        assert store.deletes == ["k"] and store.puts == ["k"]
        assert persisted(instance, "k") is None

    def test_journal_on_writes_each_row_once_per_op(self, registry):
        instance = high_durability_instance(registry, mem="1M", ebs="1M")
        store = counting(instance)
        instance.enable_durability()
        server = TieraServer(instance)
        server.put_object("k", b"first").raise_for_error()
        # Record 0 is the rule's scope marker, retired as the rule ends;
        # 1 and 2 are the tier1 and tier2 write intents, retired after
        # the op's one row write.
        scope, tier1, tier2 = (
            (JOURNAL_PREFIX + b"%012d" % seq).decode() for seq in range(3)
        )
        assert store.log == [
            ("put", scope), ("put", tier1), ("put", tier2), ("delete", scope),
            ("put", "k"),
            ("delete", tier1), ("delete", tier2),
        ]

    def test_outside_a_client_op_persist_writes_through(self, two_tier, ctx):
        store = counting(two_tier)
        two_tier.create_object("k", 3)
        two_tier.write_to_tier("k", b"abc", "tier1", ctx)
        assert store.puts == ["k", "k"]
        TieraServer(two_tier).add_tag("k", "hot")
        assert store.puts == ["k", "k", "k"]

    def test_scopes_nest_and_only_the_outermost_flushes(self, two_tier, ctx):
        store = counting(two_tier)
        with two_tier.meta_writeback:
            two_tier.create_object("k", 3)
            with two_tier.meta_writeback:
                two_tier.write_to_tier("k", b"abc", "tier1", ctx)
            assert store.puts == []
        assert store.puts == ["k"]

    def test_a_failed_op_still_persists_what_it_changed(self, registry):
        instance = high_durability_instance(registry, mem="1M", ebs="1M")
        store = counting(instance)
        server = TieraServer(instance)
        instance.tiers.get("tier2").service.fail()
        result = server.put_object("k", b"bytes")  # tier1 stored, copy failed
        assert not result.ok
        assert instance.meta("k").locations == {"tier1"}
        assert store.puts == ["k"]
        assert persisted(instance, "k") == instance.meta("k")

    def test_a_crash_mid_op_leaves_the_store_as_the_last_op_left_it(
        self, registry
    ):
        instance = high_durability_instance(registry, mem="1M", ebs="1M")
        store = counting(instance)
        server = TieraServer(instance)
        server.put_object("k", b"acked").raise_for_error()
        server.put_object("other", b"acked too").raise_for_error()
        before = dict(store._data)
        mid_op = []

        def on_hit(index, point):
            # Unflushed: mid-op, the store is as the last op left it.
            mid_op.append(dict(store._data) == before)

        instance.crash_points = CrashPointInjector(on_hit=on_hit).arm(
            "write.meta", occurrence=1  # tier1 written, mid copy to tier2
        )
        with pytest.raises(ProcessCrash):
            server.put_object("k", b"never acked")
        simulate_crash(instance)
        assert mid_op and all(mid_op)
        assert dict(store._data) == before
        assert instance.meta_writeback.depth == 0
        assert not instance.meta_writeback.keys
        assert persisted(instance, "k").version == 0
