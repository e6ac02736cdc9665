"""The journaled-mutation bracket: one order, three exits.

Every primitive that touches both a tier and the metadata table runs
its body inside ``instance._Journaled``: the body returned — commit; it
raised — abort (the intent is archived as a ``noop`` marker and never
replayed); the process died — the record stays pending and ``recover()``
rolls it forward.  Before the bracket only one of four hand-written
copies had an error exit, so a refused tier op left its intent pending
for the life of the process and a hole in the archived WAL.
"""

import ast
from pathlib import Path

import pytest

from repro.core import instance as instance_module
from repro.core.durability import INTENTS, fsck
from repro.core.events import ActionEvent
from repro.core.policy import Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.simcloud.errors import ProcessCrash, ServiceUnavailableError
from repro.simcloud.faults import (
    CLUSTER_CRASH_POINTS,
    CRASH_POINTS,
    CrashPointInjector,
    FaultProfile,
)
from repro.simcloud.resources import RequestContext
from tests.core.conftest import build_instance

TIERS = [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)]
WRITE_THROUGH = Rule(
    ActionEvent("insert"),
    [Store(InsertObject(), ("tier1", "tier2"))],
    name="write-through",
)
OLD, NEW = b"old bytes " * 8, b"new bytes " * 8


def _write(instance, ctx):
    instance.create_object("fresh", len(NEW))
    instance.write_to_tier("fresh", NEW, "tier2", ctx, redirect=False)


#: how each primitive is driven at tier2 (``k`` sits in both tiers)
PRIMITIVES = {
    "write": _write,
    "remove": lambda i, ctx: i.remove_from_tier("k", "tier2", ctx),
    "rewrite": lambda i, ctx: i.rewrite_everywhere(
        "k", NEW, ctx, updates={"compressed": True}
    ),
    "delete": lambda i, ctx: i.delete_object("k", ctx),
}


def _build(registry, root, resilient=False):
    """``k`` acked in both tiers, a full snapshot taken, journal +
    backups on."""
    instance = build_instance(registry, TIERS, rules=[WRITE_THROUGH])
    instance.enable_durability()
    instance.enable_backups(str(root))
    if resilient:
        instance.enable_resilience()
    TieraServer(instance).put_object("k", OLD).raise_for_error()
    instance.backup.snapshot(kind="full")
    return instance


def _sicken(registry, instance, tier_name="tier2"):
    """Every op against the tier errors; the tier still counts as
    available, so no primitive steps around it."""
    service = instance.tiers.get(tier_name).service
    return registry.cluster.faults.inject(
        f"service:{service.name}", FaultProfile(error_rate=1.0)
    )


class TestARefusedTierOpAbortsItsIntent:
    @pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
    @pytest.mark.parametrize("op", list(INTENTS))
    def test_no_pending_record_and_no_hole(self, registry, tmp_path, op, resilient):
        instance = _build(registry, tmp_path, resilient)
        manager, journal = instance.backup, instance.durability.journal
        fault = _sicken(registry, instance)
        with pytest.raises(ServiceUnavailableError):
            PRIMITIVES[op](instance, RequestContext(registry.cluster.clock))
        assert len(journal) == 0
        assert sorted(manager._wal) == list(range(manager.last_seq + 1))
        marker = manager._wal[manager.last_seq]
        assert (marker["op"], marker["record"]) == ("noop", {"was": op})
        registry.cluster.faults.clear(fault)
        TieraServer(instance).put_object("later", OLD).raise_for_error()
        drill = manager.verify_restore()
        assert drill["ok"], drill["error"]

    def test_a_half_applied_rewrite_is_one_fsck_repair(self, registry, tmp_path):
        # tier1 took the new bytes, tier2 refused, the metadata (and its
        # checksum) still describe the old ones.
        instance = _build(registry, tmp_path)
        _sicken(registry, instance)
        with pytest.raises(ServiceUnavailableError):
            instance.rewrite_everywhere(
                "k", NEW, RequestContext(registry.cluster.clock)
            )
        assert instance.tiers.get("tier1").service.peek("k") == NEW
        assert instance.tiers.get("tier2").service.peek("k") == OLD
        findings = fsck(instance, repair=True)["findings"]
        assert [(f["kind"], f["tier"], f["repair"]) for f in findings] == [
            ("checksum-mismatch", "tier1", "rewrite-from-clean-copy")
        ]
        assert fsck(instance)["clean"]

    def test_the_degraded_write_follows_its_aborted_intent(self, registry, tmp_path):
        # Resilience on: the sick tier's intent is aborted, then the
        # redirect journals (and commits) its own.
        instance = _build(registry, tmp_path, resilient=True)
        instance.create_object("fresh", len(NEW))
        before = instance.backup.last_seq
        _sicken(registry, instance)
        instance.write_to_tier(
            "fresh", NEW, "tier2", RequestContext(registry.cluster.clock)
        )
        archived = [
            (e["op"], e["record"].get("tier"))
            for s, e in sorted(instance.backup._wal.items()) if s > before
        ]
        assert archived == [("noop", None), ("write", "tier1")]
        assert len(instance.durability.journal) == 0


class TestAProcessCrashLeavesTheIntentPending:
    @pytest.mark.parametrize("op", list(INTENTS))
    def test_one_pending_record_rolled_forward(self, registry, tmp_path, op):
        instance = _build(registry, tmp_path)
        instance.crash_points = CrashPointInjector().arm(f"{op}.data")
        with pytest.raises(ProcessCrash):
            PRIMITIVES[op](instance, RequestContext(registry.cluster.clock))
        instance.crash_points = None
        pending = instance.durability.journal.pending()
        assert [record["op"] for _, record in pending] == [op]
        report = instance.durability.recover()
        assert [r["op"] for r in report["replayed"]] == [op]
        assert report["errors"] == []
        assert len(instance.durability.journal) == 0
        assert fsck(instance)["clean"]
        tier2 = instance.tiers.get("tier2").service.contents()
        if op == "write":
            assert instance.meta("fresh").locations == {"tier2"}
            assert tier2["fresh"] == NEW
        elif op == "remove":
            # ...and the scrub then re-copied what the policy wants there
            assert [f["kind"] for f in report["fsck"]["findings"]] == [
                "under-replicated"
            ]
        elif op == "rewrite":
            assert instance.meta("k").compressed
            assert tier2["k"] == NEW
        else:
            assert not instance.has_object("k") and "k" not in tier2


class TestCrashPointsFireWithoutAJournal:
    def test_bracket_and_body_points(self, registry):
        instance = build_instance(registry, TIERS, rules=[WRITE_THROUGH])
        instance.crash_points = injector = CrashPointInjector()
        server = TieraServer(instance)
        server.put_object("k", OLD).raise_for_error()
        server.delete_object("k").raise_for_error()
        assert [point for _, point in injector.schedule] == [
            "write.begin", "write.data", "write.meta",
            "write.begin", "write.data", "write.meta",
            "delete.begin", "delete.data",
        ]


class TestNoJournalNoBracket:
    def test_only_a_journal_or_an_injector_builds_the_bracket(
        self, registry, monkeypatch
    ):
        built = []
        bracket = instance_module._Journaled
        monkeypatch.setattr(
            instance_module, "_Journaled",
            lambda *args: built.append(args[1]) or bracket(*args),
        )
        instance = build_instance(registry, TIERS, rules=[WRITE_THROUGH])
        server = TieraServer(instance)
        ctx = RequestContext(registry.cluster.clock)
        server.put_object("k", OLD).raise_for_error()
        server.get_object("k").raise_for_error()
        instance.rewrite_everywhere("k", NEW, ctx)
        instance.remove_from_tier("k", "tier2", ctx)
        assert built == []
        # the write-back scope alone still writes every row
        rows = dict(instance.metadata_store.items())
        assert rows[b"k"] == instance.meta("k").to_json()
        server.delete_object("k").raise_for_error()
        assert built == [] and b"k" not in dict(instance.metadata_store.items())
        instance.crash_points = CrashPointInjector()
        server.put_object("k", OLD).raise_for_error()
        instance.crash_points = None
        instance.enable_durability()
        server.delete_object("k").raise_for_error()
        assert built == ["write", "write", "delete"]


# -- lint: one bracket, one table -------------------------------------------

CORE = Path(__file__).parents[2] / "src" / "repro" / "core"


def _scoped_nodes(path):
    """``(qualified enclosing scope, node)`` for every AST node."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)

    return walk(ast.parse(path.read_text()), "")


def _is_journal_hook(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in ("_begin", "begin_scope") or node.attr.startswith(
            "journal_"
        )
    # getattr(dur, "journal_" + op): the bracket's one call site
    return isinstance(node, ast.Constant) and node.value in (
        "journal_", *(f"journal_{op}" for op in INTENTS)
    )


class TestOneBracketOneTable:
    def test_intents_are_begun_only_by_the_bracket_and_the_rule_scope(self):
        users = {
            (path.name, scope)
            for path in sorted(CORE.glob("*.py"))
            for scope, node in _scoped_nodes(path)
            if _is_journal_hook(node)
        }
        assert users == {
            ("instance.py", "_Journaled.__enter__"),
            ("control.py", "ControlLayer._run_rule"),
            # the hooks themselves, in front of IntentJournal.begin
            ("durability.py", "_journal_hook.journal"),
            ("durability.py", "DurabilityLayer.begin_scope"),
        }

    def test_the_bracket_alone_retires_instance_intents(self):
        # commit once the write-back scope has written the op's rows,
        # abort at once when the body raised
        retiring = [
            (scope, node.attr)
            for scope, node in _scoped_nodes(CORE / "instance.py")
            if isinstance(node, ast.Attribute) and node.attr in ("commit", "abort")
        ]
        assert retiring == [
            ("_MetaWriteBack.__exit__", "commit"),
            ("_Journaled.__exit__", "abort"),
        ]

    def test_the_row_write_path_reads_no_durability(self):
        """One write-back path: whether a journal is on selects nothing
        on the way a metadata row reaches the store."""
        path = {
            "TieraInstance.persist_meta", "TieraInstance._drop_meta",
            "_MetaWriteBack.flush",
        }
        seen, reads = set(), []
        for scope, node in _scoped_nodes(CORE / "instance.py"):
            if scope in path:
                seen.add(scope)
                if getattr(node, "attr", getattr(node, "id", "")) == "durability":
                    reads.append(scope)
        assert seen == path
        assert reads == []

    def test_backup_replays_through_the_durability_layer(self):
        for _, node in _scoped_nodes(CORE / "backup.py"):
            name = getattr(node, "attr", getattr(node, "id", ""))
            assert not name.startswith("_redo_"), name
            assert name != "recovering"

    def test_every_announced_crash_point_is_registered(self):
        announced = {
            node.args[0].value
            for path in sorted(CORE.glob("*.py"))
            for _, node in _scoped_nodes(path)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", "") == "_crash_point"
            and isinstance(node.args[0], ast.Constant)
        }
        assert announced <= set(CRASH_POINTS) | set(CLUSTER_CRASH_POINTS)
        # ...and each row's body points are exactly what its primitive
        # announces (begin / journaled / commit are the bracket's, built
        # from the op name).
        assert {p for p in announced if p.split(".")[0] in INTENTS} == {
            f"{op}.{point}" for op, intent in INTENTS.items()
            for point in intent.points
        }


# -- lint: one mover ---------------------------------------------------------

SRC = CORE.parent


def _callers(attr):
    """``(module, enclosing scope)`` of every ``.<attr>(...)`` call in src."""
    return {
        (path.relative_to(SRC).as_posix(), scope)
        for path in sorted(SRC.rglob("*.py"))
        for scope, node in _scoped_nodes(path)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", "") == attr
    }


class TestOneMover:
    def test_tier_writes_go_through_write_fanout(self):
        assert _callers("write_to_tier") == {
            ("core/instance.py", "TieraInstance.write_fanout"),
            ("core/durability.py", "_redo_write"),
            ("core/durability.py", "fsck"),  # under-replication repair
        }

    def test_tier_drops_go_through_relocate(self):
        assert _callers("remove_from_tier") == {
            ("core/instance.py", "TieraInstance.relocate"),
            ("core/durability.py", "_redo_remove"),
        }
