"""Table 1's response catalogue, exercised response by response."""

import zlib

import pytest

from repro.core.actions import Action
from repro.core.conditions import (
    And,
    AttrRef,
    Comparison,
    EvalScope,
    Literal,
    TierFull,
)
from repro.core.errors import UnknownTierError
from repro.core.objects import ObjectMeta, content_checksum
from repro.core.responses import (
    Compress,
    Conditional,
    Copy,
    Decrypt,
    Delete,
    Encrypt,
    Grow,
    Move,
    Retrieve,
    SetAttr,
    Shrink,
    Snapshot,
    Store,
    StoreOnce,
    Uncompress,
)
from repro.core.selectors import InsertObject, NamedObjects, ObjectsWhere, TierOldest


def scope(instance, action=None, obj=None):
    return EvalScope(instance=instance, action=action, obj=obj)


def insert_scope(instance, key, data):
    meta = instance.create_object(key, len(data))
    meta.checksum = content_checksum(data)
    action = Action(kind="insert", key=key, meta=meta, data=data)
    return scope(instance, action)


def put_into(instance, key, data, tier, ctx):
    instance.create_object(key, len(data))
    instance.write_to_tier(key, data, tier, ctx)


class TestStore:
    def test_stores_insert_payload(self, two_tier, ctx):
        s = insert_scope(two_tier, "k", b"hello")
        Store(InsertObject(), "tier1").execute(s, ctx)
        assert two_tier.tiers.get("tier1").contains("k")
        assert two_tier.meta("k").locations == {"tier1"}

    def test_stores_to_multiple_tiers(self, two_tier, ctx):
        s = insert_scope(two_tier, "k", b"hello")
        Store(InsertObject(), ("tier1", "tier2")).execute(s, ctx)
        assert two_tier.meta("k").locations == {"tier1", "tier2"}

    def test_reads_back_existing_object(self, two_tier, ctx):
        put_into(two_tier, "k", b"data", "tier2", ctx)
        Store(NamedObjects("k"), "tier1").execute(scope(two_tier), ctx)
        assert two_tier.tiers.get("tier1").get("k", ctx) == b"data"

    def test_evicts_lru_to_make_room(self, two_tier, ctx):
        # tier1 is 64K; fill it, then store with evict_to=tier2.
        for i in range(4):
            put_into(two_tier, f"old{i}", b"x" * 16384, "tier1", ctx)
        s = insert_scope(two_tier, "new", b"y" * 16384)
        Store(InsertObject(), "tier1", evict_to="tier2").execute(s, ctx)
        assert two_tier.meta("new").locations == {"tier1"}
        assert two_tier.meta("old0").locations == {"tier2"}  # LRU victim


class TestStoreOnce:
    def test_first_copy_stored(self, two_tier, ctx):
        s = insert_scope(two_tier, "a", b"same-bytes")
        StoreOnce(InsertObject(), "tier1").execute(s, ctx)
        assert two_tier.tiers.get("tier1").contains("a")

    def test_duplicate_becomes_alias(self, two_tier, ctx):
        StoreOnce(InsertObject(), "tier1").execute(
            insert_scope(two_tier, "a", b"same-bytes"), ctx
        )
        puts_before = two_tier.tiers.get("tier1").service.op_counts.get("put", 0)
        StoreOnce(InsertObject(), "tier1").execute(
            insert_scope(two_tier, "b", b"same-bytes"), ctx
        )
        puts_after = two_tier.tiers.get("tier1").service.op_counts.get("put", 0)
        assert puts_after == puts_before  # no data written for the dup
        assert two_tier.meta("b").alias_of == "a"
        assert two_tier.meta("a").refcount == 1
        assert two_tier.read_raw("b", ctx) == b"same-bytes"

    def test_distinct_content_stored_separately(self, two_tier, ctx):
        StoreOnce(InsertObject(), "tier1").execute(
            insert_scope(two_tier, "a", b"one"), ctx
        )
        StoreOnce(InsertObject(), "tier1").execute(
            insert_scope(two_tier, "b", b"two"), ctx
        )
        assert two_tier.meta("b").alias_of is None


class TestRetrieve:
    def test_plain_read_touches_recency(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier2", ctx)
        Retrieve(NamedObjects("k")).execute(scope(two_tier), ctx)
        assert two_tier.meta("k").locations == {"tier2"}

    def test_promotion(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier2", ctx)
        Retrieve(NamedObjects("k"), promote_to="tier1").execute(scope(two_tier), ctx)
        assert two_tier.meta("k").locations == {"tier1", "tier2"}

    def test_exclusive_promotion_relocates(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier2", ctx)
        Retrieve(NamedObjects("k"), promote_to="tier1", exclusive=True).execute(
            scope(two_tier), ctx
        )
        assert two_tier.meta("k").locations == {"tier1"}
        assert not two_tier.tiers.get("tier2").contains("k")


class TestCopy:
    """Copy and Move share one body; Move also leaves its sources."""

    @pytest.mark.parametrize("cls", [Copy, Move])
    def test_clears_dirty_on_durable_landing(self, two_tier, ctx, cls):
        put_into(two_tier, "k", b"v", "tier1", ctx)
        two_tier.meta("k").dirty = True
        cls(NamedObjects("k"), "tier2").execute(scope(two_tier), ctx)
        expected = {"tier2"} if cls is Move else {"tier1", "tier2"}
        assert two_tier.meta("k").locations == expected
        assert two_tier.meta("k").dirty is False

    @pytest.mark.parametrize("cls", [Copy, Move])
    def test_landing_on_volatile_keeps_dirty(self, registry, ctx, cls):
        from tests.core.conftest import build_instance

        inst = build_instance(
            registry,
            [("m1", "Memcached", 10 ** 6), ("m2", "Memcached", 10 ** 6)],
        )
        put_into(inst, "k", b"v", "m1", ctx)
        inst.meta("k").dirty = True
        cls(NamedObjects("k"), "m2").execute(scope(inst), ctx)
        assert "m2" in inst.meta("k").locations
        assert inst.meta("k").dirty is True

    def test_high_durability_copy_keeps_dirty(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier1", ctx)
        two_tier.meta("k").dirty = True
        Copy(NamedObjects("k"), "tier2", clear_dirty=False).execute(
            scope(two_tier), ctx
        )
        assert two_tier.meta("k").dirty is True

    @pytest.mark.parametrize("cls", [Copy, Move])
    def test_bandwidth_cap_paces_each_transfer(self, two_tier, ctx, cls):
        for i in range(3):
            put_into(two_tier, f"k{i}", b"x" * 10240, "tier1", ctx)
        capped = cls(
            ObjectsWhere(
                Comparison("==", AttrRef(("object", "location")), Literal("tier1"))
            ),
            "tier2",
            bandwidth="10KB/s",
        )
        start = ctx.time
        capped.execute(scope(two_tier), ctx)
        # 30 KB at 10 KB/s: the last transfer cannot begin before t+2s.
        assert ctx.time - start >= 2.0
        assert all("tier2" in two_tier.meta(f"k{i}").locations for i in range(3))

    def test_uncapped_copy_is_fast(self, two_tier, ctx):
        for i in range(3):
            put_into(two_tier, f"k{i}", b"x" * 10240, "tier1", ctx)
        Copy(
            ObjectsWhere(
                Comparison("==", AttrRef(("object", "location")), Literal("tier1"))
            ),
            "tier2",
        ).execute(scope(two_tier), ctx)
        assert ctx.elapsed < 1.0


class TestMove:
    def test_move_removes_source(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier1", ctx)
        Move(NamedObjects("k"), "tier2").execute(scope(two_tier), ctx)
        assert two_tier.meta("k").locations == {"tier2"}
        assert not two_tier.tiers.get("tier1").contains("k")

    def test_move_tier_oldest(self, two_tier, ctx):
        put_into(two_tier, "a", b"1", "tier1", ctx)
        put_into(two_tier, "b", b"2", "tier1", ctx)
        Move(TierOldest("tier1"), "tier2").execute(scope(two_tier), ctx)
        assert two_tier.meta("a").locations == {"tier2"}
        assert two_tier.meta("b").locations == {"tier1"}


class TestDelete:
    def test_delete_from_specific_tier(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier1", ctx)
        two_tier.write_to_tier("k", b"v", "tier2", ctx)
        Delete(NamedObjects("k"), tiers=("tier1",)).execute(scope(two_tier), ctx)
        assert two_tier.meta("k").locations == {"tier2"}

    def test_delete_everywhere_forgets_object(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier1", ctx)
        Delete(NamedObjects("k")).execute(scope(two_tier), ctx)
        assert not two_tier.has_object("k")


class TestEncryptDecrypt:
    def test_roundtrip(self, two_tier, ctx):
        put_into(two_tier, "k", b"secret data", "tier1", ctx)
        Encrypt(NamedObjects("k"), key="passphrase").execute(scope(two_tier), ctx)
        sealed = two_tier.read_raw("k", ctx)
        assert sealed != b"secret data"
        assert two_tier.meta("k").encrypted
        Decrypt(NamedObjects("k"), key="passphrase").execute(scope(two_tier), ctx)
        assert two_tier.read_raw("k", ctx) == b"secret data"
        assert not two_tier.meta("k").encrypted

    def test_wrong_key_does_not_restore(self, two_tier, ctx):
        put_into(two_tier, "k", b"secret data", "tier1", ctx)
        Encrypt(NamedObjects("k"), key="right").execute(scope(two_tier), ctx)
        Decrypt(NamedObjects("k"), key="wrong").execute(scope(two_tier), ctx)
        assert two_tier.read_raw("k", ctx) != b"secret data"

    def test_double_encrypt_is_idempotent(self, two_tier, ctx):
        put_into(two_tier, "k", b"data", "tier1", ctx)
        Encrypt(NamedObjects("k"), key="x").execute(scope(two_tier), ctx)
        once = two_tier.read_raw("k", ctx)
        Encrypt(NamedObjects("k"), key="x").execute(scope(two_tier), ctx)
        assert two_tier.read_raw("k", ctx) == once


class TestCompressUncompress:
    def test_roundtrip_and_space_savings(self, two_tier, ctx):
        data = b"compressible " * 200
        put_into(two_tier, "k", data, "tier2", ctx)
        before = two_tier.tiers.get("tier2").used
        Compress(NamedObjects("k")).execute(scope(two_tier), ctx)
        assert two_tier.tiers.get("tier2").used < before
        assert zlib.decompress(two_tier.read_raw("k", ctx)) == data
        Uncompress(NamedObjects("k")).execute(scope(two_tier), ctx)
        assert two_tier.read_raw("k", ctx) == data

    def test_compress_idempotent(self, two_tier, ctx):
        put_into(two_tier, "k", b"abc" * 100, "tier1", ctx)
        Compress(NamedObjects("k")).execute(scope(two_tier), ctx)
        once = two_tier.read_raw("k", ctx)
        Compress(NamedObjects("k")).execute(scope(two_tier), ctx)
        assert two_tier.read_raw("k", ctx) == once


class TestGrowShrink:
    def test_grow_immediate_for_block_tier(self, two_tier, ctx):
        Grow("tier2", 50.0).execute(scope(two_tier), ctx)
        assert two_tier.tiers.get("tier2").capacity == int(10 ** 7 * 1.5)

    def test_grow_memcached_waits_for_provisioning(self, two_tier, ctx):
        Grow("tier1", 100.0).execute(scope(two_tier), ctx)
        tier = two_tier.tiers.get("tier1")
        assert tier.capacity == 64 * 1024  # not yet
        assert tier.growing
        two_tier.clock.advance(61)
        assert tier.capacity == 128 * 1024
        assert not tier.growing

    def test_shrink(self, two_tier, ctx):
        Shrink("tier2", 50.0).execute(scope(two_tier), ctx)
        assert two_tier.tiers.get("tier2").capacity == 5 * 10 ** 6

    def test_unknown_tier(self, two_tier, ctx):
        with pytest.raises(UnknownTierError):
            Grow("tier9", 10.0).execute(scope(two_tier), ctx)


class TestSetAttrAndConditional:
    def test_assignment_sets_dirty(self, two_tier, ctx):
        s = insert_scope(two_tier, "k", b"v")
        SetAttr(("insert", "object", "dirty"), True).execute(s, ctx)
        assert s.action.meta.dirty is True

    def test_assignment_adds_tag(self, two_tier, ctx):
        s = insert_scope(two_tier, "k", b"v")
        SetAttr(("insert", "object", "tags"), "tmp").execute(s, ctx)
        assert "tmp" in s.action.meta.tags

    def test_conditional_then_branch(self, two_tier, ctx):
        # Figure 5's LRU: if full, move oldest out, then store.
        for i in range(4):
            put_into(two_tier, f"old{i}", b"x" * 16384, "tier1", ctx)
        s = insert_scope(two_tier, "new", b"y" * 16384)
        lru = Conditional(
            TierFull("tier1"),
            then=[Move(TierOldest("tier1"), "tier2")],
        )
        lru.execute(s, ctx)
        Store(InsertObject(), "tier1").execute(s, ctx)
        assert two_tier.meta("old0").locations == {"tier2"}
        assert two_tier.meta("new").locations == {"tier1"}

    def test_conditional_else_branch(self, two_tier, ctx):
        put_into(two_tier, "k", b"v", "tier1", ctx)
        cond = Conditional(
            Literal(False),
            then=[Delete(NamedObjects("k"))],
            otherwise=[Copy(NamedObjects("k"), "tier2")],
        )
        cond.execute(scope(two_tier), ctx)
        assert two_tier.meta("k").locations == {"tier1", "tier2"}


class TestSnapshot:
    def test_snapshot_creates_labelled_copy(self, two_tier, ctx):
        put_into(two_tier, "k", b"v1", "tier1", ctx)
        Snapshot(NamedObjects("k"), to="tier2", label="backup1").execute(
            scope(two_tier), ctx
        )
        assert two_tier.has_object("k@backup1")
        assert two_tier.read_raw("k@backup1", ctx) == b"v1"
        assert "snapshot" in two_tier.meta("k@backup1").tags
        # Overwrite the original: the snapshot keeps the old bytes.
        two_tier.write_to_tier("k", b"v2", "tier1", ctx)
        assert two_tier.read_raw("k@backup1", ctx) == b"v1"
