"""TieraInstance: data path, eviction chains, dedup, reconfiguration, cost."""

import pytest

from repro.core.conditions import EvalScope
from repro.core.durability import IntentJournal
from repro.core.errors import (
    NoCapacityError,
    NoSuchObjectError,
    TierUnavailableError,
)
from repro.core.instance import DROP
from repro.core.policy import Rule
from repro.core.events import ActionEvent
from repro.core.responses import Retrieve, Store
from repro.core.selectors import InsertObject, NamedObjects
from repro.core.server import TieraServer
from repro.kvstore import LogStore
from repro.simcloud.errors import ServiceUnavailableError
from repro.simcloud.faults import FaultProfile
from repro.simcloud.resources import RequestContext
from tests.core.conftest import build_instance


class TestDataPath:
    def test_write_updates_metadata(self, two_tier, ctx):
        two_tier.create_object("k", 3)
        two_tier.write_to_tier("k", b"abc", "tier1", ctx)
        meta = two_tier.meta("k")
        assert meta.locations == {"tier1"}
        assert meta.size == 3

    def test_read_prefers_declaration_order(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        gets_before = two_tier.tiers.get("tier1").service.op_counts.get("get", 0)
        two_tier.read_raw("k", ctx)
        assert (
            two_tier.tiers.get("tier1").service.op_counts.get("get", 0)
            == gets_before + 1
        )

    def test_read_prefer_overrides(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.read_raw("k", ctx, prefer="tier2")
        assert two_tier.tiers.get("tier2").service.op_counts.get("get", 0) == 1

    def test_read_falls_back_on_failure(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.tiers.get("tier1").service.fail()
        assert two_tier.read_raw("k", ctx) == b"x"

    def test_read_with_all_tiers_failed(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.tiers.get("tier2").service.fail()
        with pytest.raises(TierUnavailableError):
            two_tier.read_raw("k", ctx)

    def test_missing_object_raises(self, two_tier, ctx):
        with pytest.raises(NoSuchObjectError):
            two_tier.read_raw("ghost", ctx)

    def test_overflow_without_eviction_raises(self, two_tier, ctx):
        two_tier.create_object("big", 100 * 1024)
        with pytest.raises(NoCapacityError):
            two_tier.write_to_tier("big", b"x" * 100 * 1024, "tier1", ctx)

    def test_rewrite_everywhere(self, two_tier, ctx):
        two_tier.create_object("k", 4)
        two_tier.write_to_tier("k", b"aaaa", "tier1", ctx)
        two_tier.write_to_tier("k", b"aaaa", "tier2", ctx)
        two_tier.rewrite_everywhere("k", b"bb", ctx)
        assert two_tier.tiers.get("tier1").get("k", ctx) == b"bb"
        assert two_tier.tiers.get("tier2").get("k", ctx) == b"bb"
        assert two_tier.meta("k").size == 2


class TestEvictionChain:
    def test_cascading_eviction(self, registry, ctx):
        inst = build_instance(
            registry,
            [
                ("tier1", "Memcached", 8192),
                ("tier2", "EBS", 8192),
                ("tier3", "S3", None),
            ],
        )
        inst.eviction_chain.update({"tier1": "tier2", "tier2": "tier3"})
        for i in range(6):
            inst.create_object(f"k{i}", 4096)
            inst.write_to_tier(f"k{i}", bytes(4096), "tier1", ctx)
        # 6 x 4K through a 8K tier over an 8K tier: oldest land in S3.
        assert inst.meta("k0").locations == {"tier3"}
        assert inst.meta("k1").locations == {"tier3"}
        assert inst.meta("k2").locations == {"tier2"}
        assert inst.meta("k5").locations == {"tier1"}

    def test_drop_eviction_requires_second_copy(self, registry, ctx):
        inst = build_instance(
            registry,
            [("cache", "Memcached", 4096), ("store", "S3", None)],
        )
        inst.eviction_chain["cache"] = DROP
        inst.create_object("a", 4096)
        inst.write_to_tier("a", bytes(4096), "cache", ctx)
        inst.write_to_tier("a", bytes(4096), "store", ctx)
        inst.create_object("b", 4096)
        inst.write_to_tier("b", bytes(4096), "cache", ctx)  # drops a
        assert inst.meta("a").locations == {"store"}
        assert inst.meta("b").locations == {"cache"}

    def test_drop_eviction_refuses_to_lose_data(self, registry, ctx):
        inst = build_instance(
            registry, [("cache", "Memcached", 4096), ("store", "S3", None)]
        )
        inst.eviction_chain["cache"] = DROP
        inst.create_object("only", 4096)
        inst.write_to_tier("only", bytes(4096), "cache", ctx)  # not in store
        inst.create_object("b", 4096)
        with pytest.raises(NoCapacityError):
            inst.write_to_tier("b", bytes(4096), "cache", ctx)

    def test_a_victim_the_destination_holds_is_dropped_unread(self, two_tier, ctx):
        two_tier.eviction_chain["tier1"] = "tier2"
        two_tier.create_object("victim", 32 * 1024)
        for tier_name in ("tier2", "tier1"):
            two_tier.write_to_tier("victim", bytes(32 * 1024), tier_name, ctx)
        tier1 = two_tier.tiers.get("tier1").service
        gets = tier1.op_counts.get("get", 0)
        two_tier.create_object("new", 48 * 1024)
        two_tier.write_to_tier("new", bytes(48 * 1024), "tier1", ctx)
        assert two_tier.meta("victim").locations == {"tier2"}
        assert tier1.op_counts.get("get", 0) == gets


def _gets(instance):
    return {
        tier.name: tier.service.op_counts.get("get", 0)
        for tier in instance.tiers.ordered()
    }


def _sicken(registry, instance, tier_name):
    service = instance.tiers.get(tier_name).service
    registry.cluster.faults.inject(
        f"service:{service.name}", FaultProfile(error_rate=1.0)
    )


class TestRelocate:
    """The one cross-tier mover's contract."""

    THREE = [
        ("tier1", "Memcached", 10 ** 6),
        ("tier2", "EBS", 10 ** 7),
        ("tier3", "S3", None),
    ]

    def test_an_empty_to_reads_nothing(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        for tier_name in ("tier1", "tier2"):
            two_tier.write_to_tier("k", b"x", tier_name, ctx)
        before = _gets(two_tier)
        two_tier.relocate("k", (), ctx, drop_from=("tier1",))
        assert _gets(two_tier) == before
        assert two_tier.meta("k").locations == {"tier2"}
        assert not two_tier.tiers.get("tier1").contains("k")

    def test_drop_from_is_taken_on_entry(self, registry, ctx):
        # tier2 refuses; the degraded write lands in tier1, which joins
        # the live locations set mid-call and must not be dropped.
        inst = build_instance(registry, self.THREE)
        inst.enable_resilience()
        inst.create_object("k", 4)
        inst.write_to_tier("k", b"data", "tier3", ctx)
        _sicken(registry, inst, "tier2")
        inst.relocate("k", ("tier2",), ctx, drop_from=inst.meta("k").locations)
        assert inst.meta("k").locations == {"tier1"}
        assert inst.read_raw("k", ctx) == b"data"
        assert inst.resilience.repair_queue.pending("tier2") == 1

    def test_exclusive_promotion_drops_both_sources_in_name_order(
        self, registry, ctx, monkeypatch
    ):
        inst = build_instance(registry, [
            ("fast", "Memcached", 10 ** 6),
            ("zcold", "S3", None),
            ("bulk", "EBS", 10 ** 7),
        ])
        inst.create_object("k", 4)
        for tier_name in ("zcold", "bulk"):
            inst.write_to_tier("k", b"data", tier_name, ctx)
        dropped = []
        remove = inst.remove_from_tier

        def spy(key, tier_name, rctx):
            dropped.append(tier_name)
            remove(key, tier_name, rctx)

        monkeypatch.setattr(inst, "remove_from_tier", spy)
        Retrieve(NamedObjects("k"), promote_to="fast", exclusive=True).execute(
            EvalScope(instance=inst), ctx
        )
        assert dropped == ["bulk", "zcold"]
        assert inst.meta("k").locations == {"fast"}

    @pytest.mark.parametrize("redirect", [True, False])
    def test_redirect_false_raises_instead_of_degrading(
        self, registry, ctx, redirect
    ):
        inst = build_instance(registry, self.THREE)
        inst.enable_resilience()
        inst.create_object("k", 4)
        _sicken(registry, inst, "tier2")
        if redirect:
            inst.relocate("k", ("tier2",), ctx, data=b"data")
            assert inst.meta("k").locations == {"tier1"}
            return
        with pytest.raises(ServiceUnavailableError):
            inst.relocate("k", ("tier2",), ctx, data=b"data", redirect=False)
        assert inst.meta("k").locations == set()
        assert inst.resilience.repair_queue.pending() == 0


class TestDedup:
    def test_alias_lifecycle(self, two_tier, ctx):
        two_tier.create_object("a", 4)
        two_tier.write_to_tier("a", b"data", "tier1", ctx)
        two_tier.dedup_register("sum1", "a")
        two_tier.create_object("b", 4)
        two_tier.alias_object("b", "a")
        assert two_tier.resolve_alias("b") == "a"
        assert two_tier.meta("a").refcount == 1
        # Deleting the alias releases the refcount.
        two_tier.delete_object("b", ctx)
        assert two_tier.meta("a").refcount == 0

    def test_deleting_canonical_promotes_heir(self, two_tier, ctx):
        two_tier.create_object("a", 4)
        two_tier.write_to_tier("a", b"data", "tier1", ctx)
        two_tier.dedup_register("sum1", "a")
        two_tier.create_object("b", 4)
        two_tier.alias_object("b", "a")
        two_tier.delete_object("a", ctx)
        assert two_tier.meta("b").alias_of is None
        assert two_tier.dedup_lookup("sum1") == "b"
        # The heir must still be readable — from a's physical bytes.
        assert two_tier.read_raw("b", ctx) == b"data"

    def test_dedup_lookup_forgets_dead_keys(self, two_tier, ctx):
        two_tier.create_object("a", 4)
        two_tier.write_to_tier("a", b"data", "tier1", ctx)
        two_tier.dedup_register("sum1", "a")
        two_tier.delete_object("a", ctx)
        assert two_tier.dedup_lookup("sum1") is None


class TestReconfiguration:
    def test_add_and_remove_tiers(self, registry, two_tier, ctx):
        new_tier = registry.create("EphemeralStorage", tier_name="tier3", size=10 ** 6)
        two_tier.reconfigure(add_tiers=[new_tier], remove_tiers=["tier1"])
        assert two_tier.tiers.names() == ["tier2", "tier3"]

    def test_removing_tier_scrubs_locations(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.reconfigure(remove_tiers=["tier1"])
        assert two_tier.meta("k").locations == {"tier2"}

    def test_rule_changes(self, two_tier):
        rule = Rule(ActionEvent("insert"), [Store(InsertObject(), "tier2")], name="n")
        two_tier.reconfigure(add_rules=[rule])
        assert two_tier.policy.rule("n") is rule
        two_tier.reconfigure(remove_rules=["n"])
        assert len(two_tier.policy) == 0

    def test_replace_policy_wholesale(self, two_tier):
        rule = Rule(ActionEvent("insert"), [Store(InsertObject(), "tier2")], name="n")
        two_tier.reconfigure(replace_policy=[rule])
        assert [r.name for r in two_tier.policy] == ["n"]


class TestCostAccounting:
    def test_monthly_cost_by_kind(self, registry):
        inst = build_instance(
            registry,
            [("m", "Memcached", 1024 ** 3), ("e", "EBS", 1024 ** 3)],
        )
        assert inst.monthly_cost() == pytest.approx(35.0 + 0.10)

    def test_s3_costed_by_usage(self, registry, ctx):
        inst = build_instance(registry, [("s", "S3", None)])
        inst.create_object("k", 1024 * 1024)
        inst.write_to_tier("k", b"x" * 1024 * 1024, "s", ctx)
        expected = 0.03 / 1024  # 1 MiB at $0.03/GB-month
        assert inst.monthly_cost() == pytest.approx(expected)

    def test_colocated_tier_costs_nothing(self, registry):
        cache = registry.create(
            "Memcached", tier_name="m", size=1024 ** 3, colocated=True
        )
        from repro.core.instance import TieraInstance

        inst = TieraInstance(
            name="x", tiers=[cache], clock=registry.cluster.clock
        )
        assert inst.monthly_cost() == 0.0


class TestMetadataPersistence:
    def test_metadata_survives_restart(self, registry, tmp_path, ctx):
        path = str(tmp_path / "meta.db")
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            metadata_store=LogStore(path),
        )
        inst.create_object("k", 3, tags={"keep"})
        inst.write_to_tier("k", b"abc", "tier2", ctx)
        inst.shutdown()
        # A new server process over the same metadata store and tiers.
        restarted = build_instance(
            registry,
            [("tier1b", "Memcached", 10 ** 6), ("tier2b", "EBS", 10 ** 7)],
            metadata_store=LogStore(path),
        )
        meta = restarted.meta("k")
        assert meta.size == 3
        assert "keep" in meta.tags
        assert meta.locations == {"tier2"}

    @pytest.mark.parametrize("journal", [False, True], ids=["off", "on"])
    def test_acked_ops_are_in_the_store_without_a_shutdown(
        self, registry, tmp_path, journal
    ):
        """Acked means persisted: the write-back happens when each op
        ends, not at shutdown — a second process opening the log while
        the first is still up (or dead without a goodbye) sees them all,
        and, with the journal on, no intent left pending."""
        path = str(tmp_path / "meta.db")
        tiers = [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)]
        inst = build_instance(
            registry, tiers, metadata_store=LogStore(path, sync_writes=True)
        )
        if journal:
            inst.enable_durability()
        server = TieraServer(inst)
        for n in range(25):
            server.put_object(f"k{n}", f"value {n}".encode()).raise_for_error()
        for n in range(5):
            server.put_object(f"k{n}", b"overwritten").raise_for_error()
        server.delete_object("k24").raise_for_error()
        # No shutdown(), no close(): just open the same log again.
        reopened = build_instance(
            registry,
            [("tier1b", "Memcached", 10 ** 6), ("tier2b", "EBS", 10 ** 7)],
            metadata_store=LogStore(path),
        )
        assert sorted(m.key for m in reopened.iter_meta()) == sorted(
            f"k{n}" for n in range(24)
        )
        for n in range(24):
            assert reopened.meta(f"k{n}") == inst.meta(f"k{n}")
        assert reopened.meta("k0").version == 1
        assert IntentJournal(LogStore(path)).pending() == []
