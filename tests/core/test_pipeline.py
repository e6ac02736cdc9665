"""The one data-plane pipeline (docs/API.md, "One pipeline").

Every in-process façade runs each client op through
:func:`repro.core.api.run_request`, its batches through
:func:`repro.core.api.run_batch` and their items through
:func:`repro.core.api.schedule_lanes`; every movement of an object
between shards is ``ClusterManager._transfer``; every data op the
cluster manager sends a shard goes through ``ClusterManager._replica_op``
and every migration step through its one journal bracket.  These tests
pin the properties the hand-written copies used to disagree on.
"""

import ast
import os
import re

import pytest

from repro.core import api
from repro.core.api import BatchOp
from repro.core.cluster import MIGRATE, MIGRATION_INTENTS, ClusterConfig
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.kvstore.store import MemoryStore
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CLUSTER_CRASH_POINTS, CrashPointInjector
from repro.simcloud.resources import RequestContext
from tests.core.conftest import build_instance
from tests.core.test_cluster import CONFIG, bring_up, mark_down
from tests.core.test_journal_bracket import CORE, _scoped_nodes

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
REPRO = CORE.parent


def _src_call_nodes(*names):
    """``(path under src/repro, enclosing scope, call node)`` for every
    call of an attribute (or bare name) in ``names`` in src/repro."""
    found = []
    for path in sorted(REPRO.rglob("*.py")):
        for scope, node in _scoped_nodes(path):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name in names:
                found.append((path.relative_to(REPRO).as_posix(), scope, node))
    return found


def _src_calls(*names):
    """``(path under src/repro, enclosing scope, name)`` for every call
    of an attribute (or bare name) in ``names`` anywhere in src/repro."""
    return [
        (path, scope, getattr(node.func, "attr", getattr(node.func, "id", "")))
        for path, scope, node in _src_call_nodes(*names)
    ]


def make_shard(registry, name):
    return TieraServer(build_instance(
        registry,
        [(f"{name}-mem", "Memcached", 10 ** 7), (f"{name}-ebs", "EBS", 10 ** 8)],
        name=name,
    ))


def facades(registry):
    """One of each in-process façade: direct, routed, replicated."""
    names = ("a", "b", "c")
    yield "direct", make_shard(registry, "solo")
    yield "router", ShardedTieraServer(
        {n: make_shard(registry, f"r{n}") for n in names}
    )
    replicated = ShardedTieraServer(
        {n: make_shard(registry, f"c{n}") for n in names},
        replication=ClusterConfig(
            replication_factor=2, heartbeat_interval=1000.0,
            anti_entropy_interval=0.0,
        ),
    )
    yield "replicated", replicated
    replicated.cluster.stop()


class Boom(BaseException):
    """Like ProcessCrash: not a domain error, so it propagates."""


class TestBatchBracket:
    def test_root_is_closed_and_admission_released_when_an_item_raises(
        self, registry, monkeypatch
    ):
        """The bracket closes the batch root — with the error — and
        gives the admission back on *every* exit, on every façade."""
        def explode(self, op, ctx):
            if op.key == "k2":
                raise Boom("mid-batch")
            return original(self, op, ctx)

        original = TieraServer._apply_op
        monkeypatch.setattr(TieraServer, "_apply_op", explode)
        ops = [BatchOp.put(f"k{i}", b"v") for i in range(4)]
        for name, facade in facades(registry):
            ctx = RequestContext(facade.clock)
            with pytest.raises(Boom):
                facade.execute_batch(ops, ctx=ctx, trace=True)
            assert ctx.span is None and ctx.trace is None, name
            assert facade.admission.inflight == 0, name
            root = facade.obs.tracer.last()
            assert root.attrs["op"] == "batch", name
            assert root.error == "Boom: mid-batch", name
            for shard in getattr(facade, "shards", {}).values():
                assert shard.admission.inflight == 0, name

    def test_every_facade_reports_the_clamped_lane_count(self, registry):
        ops = [BatchOp.put(f"k{i}", b"v") for i in range(3)]
        for name, facade in facades(registry):
            assert facade.execute_batch(ops, parallelism=8).parallelism == 3
            assert facade.execute_batch([], parallelism=8).parallelism == 1
            with pytest.raises(ValueError):
                facade.execute_batch(ops, parallelism=0)

    def test_one_scheduler_one_bracket_one_failure_envelope(self):
        """The acceptance lint: each of these appears once in src/."""
        text = ""
        for folder, _, files in os.walk(SRC):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        text += handle.read()
        assert text.count("key=lanes.__getitem__") == 1
        assert len(re.findall(r'start_request\(\s*"batch"', text)) == 1
        assert len(re.findall(r"error_type=type\(exc\)\.__name__", text)) == 1
        with open(os.path.join(SRC, "repro", "core", "sharding.py")) as handle:
            assert handle.read().count("self.cluster is") <= 1
        # One request bracket: every request root is opened — by
        # run_request or run_batch — and failed in core/api.py.
        calls = _src_calls("start_request", "failed_result")
        assert sorted(
            scope for _, scope, name in calls if name == "start_request"
        ) == ["run_batch", "run_request"]
        assert {path for path, _, _ in calls} == {"core/api.py"}
        # One completion hook: run_request closes every single op through
        # its hub's ``complete``, the one place a request's trace root,
        # SLO sample and client heat access are recorded.
        assert {scope for _, scope, _ in _src_calls("complete")} == {
            "run_request"
        }
        hooks = [
            (path, scope) for path, scope, node in _src_call_nodes("record")
            if getattr(getattr(node.func, "value", None), "attr", "")
            in ("slo", "heat")
        ]
        assert hooks == [("obs/hub.py", "Observability.complete")] * 2
        assert sorted(
            scope for _, scope, _ in _src_calls("finish_request")
        ) == [
            "ClusterManager._background", "Observability.complete",
            "run_batch", "run_batch",
        ]
        # One measurement stack: no façade, RPC verb or hub reads a
        # wall profiler (benchmarks/perf times ops; Trial times phases).
        for path in (*CORE.glob("*.py"), *(REPRO / "rpc").glob("*.py"),
                     REPRO / "obs" / "hub.py"):
            assert not [
                node for _, node in _scoped_nodes(path)
                if isinstance(node, ast.Attribute) and node.attr == "profiler"
            ], path


class TestTransfer:
    """``ClusterManager._transfer``, the one shard-to-shard copy, on an
    unreplicated router's manager (shards by name)."""

    @staticmethod
    def _router(registry, *names):
        router = ShardedTieraServer({n: make_shard(registry, n) for n in names})

        def transfer(key, source, targets, verify=None):
            return router.cluster._transfer(
                key, source, targets, RequestContext(router.clock), MIGRATE,
                verify,
            )
        return router.shards, transfer

    def test_copies_bytes_and_tags_to_every_target(self, registry):
        shards, transfer = self._router(registry, "s", "t1", "t2")
        shards["s"].put_object("k", b"payload", tags=["keep"]).raise_for_error()
        written = transfer("k", "s", ["t1", "t2"])
        assert [put.ok for put in written] == [True, True]
        for target in (shards["t1"], shards["t2"]):
            assert target.get_object("k").value == b"payload"
            assert target.stat("k").tags == {"keep"}

    def test_an_unreadable_or_unverified_source_writes_nothing(self, registry):
        shards, transfer = self._router(registry, "s", "t")
        source, target = shards["s"], shards["t"]
        assert transfer("ghost", "s", ["t"]) is None
        source.put_object("k", b"payload").raise_for_error()
        assert transfer("k", "s", ["t"], verify="not-it") is None
        assert not target.contains("k")
        checksum = source.stat("k").checksum
        assert transfer("k", "s", ["t"], verify=checksum)[0].ok


def _cluster_calls(*names):
    """``(enclosing scope, call node)`` for every call in core/cluster.py
    of an attribute (or bare name) in ``names``."""
    return [
        (scope, node)
        for scope, node in _scoped_nodes(CORE / "cluster.py")
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) in names
    ]


#: A shard's data verbs: what a router may reach only through its cluster.
SHARD_VERBS = (
    "put_object", "get_object", "delete_object", "run_items", "execute_batch",
)


class TestOneReplicaOpOneMigrationBracket:
    """The lints: each fails at the commit before the bracket."""

    def test_a_shard_verb_is_called_in_one_place(self):
        scopes = {
            scope
            for scope, call in _cluster_calls(*SHARD_VERBS)
            if not (isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "self")
        }
        # the one line inside _replica_op
        assert scopes == {"_public_verb"}
        assert {scope for scope, _ in _cluster_calls("_public_verb")} == {
            "ClusterManager._replica_op"
        }

    def test_the_router_sends_every_data_op_through_its_cluster(self):
        """One data plane at every R: the router's own verbs delegate to
        ``self.cluster``, and nothing else in core/sharding.py calls a
        data verb (no second plane routing to a shard)."""
        receivers = {
            (scope, ast.unparse(call.func.value))
            for scope, call in _scoped_nodes(CORE / "sharding.py")
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", "") in SHARD_VERBS
        }
        assert {receiver for _, receiver in receivers} == {"self.cluster"}
        assert {scope for scope, _ in receivers} == {
            f"ShardedTieraServer.{verb}" for verb in SHARD_VERBS
            if verb != "run_items"
        }

    def test_intents_are_begun_and_retired_by_the_bracket_and_recover(self):
        journal_calls = {
            (scope, call.func.attr)
            for scope, call in _cluster_calls("begin", "commit", "abort")
        }
        assert journal_calls == {
            ("ClusterManager._journaled", "begin"),
            ("ClusterManager._journaled", "commit"),
            ("ClusterManager.recover", "commit"),
            ("ClusterManager.recover", "abort"),
        }

    def test_recover_dispatches_through_the_table(self):
        """No record ``kind`` is compared to a literal anywhere, and
        ``recover()`` names none: it looks the row up."""
        kinds = set(MIGRATION_INTENTS)
        for scope, node in _scoped_nodes(CORE / "cluster.py"):
            if isinstance(node, ast.Compare):
                assert not any(
                    isinstance(side, ast.Constant) and side.value in kinds
                    for side in (node.left, *node.comparators)
                ), scope
            if isinstance(node, ast.Constant) and node.value in kinds:
                assert scope != "ClusterManager.recover"

    def test_every_crash_point_is_a_rows_point(self):
        # Only the bracket announces, and only names it read off the row.
        for scope, call in _cluster_calls("_crash"):
            assert scope == "ClusterManager._journaled"
            assert isinstance(call.args[0], ast.Name)
        assert set(CLUSTER_CRASH_POINTS) == {
            point for row in MIGRATION_INTENTS.values() for point in row.points
        }

    def test_a_join_announces_exactly_the_registered_points(self, registry):
        router = ShardedTieraServer(
            {n: make_shard(registry, n) for n in "abc"}, replication=CONFIG
        )
        for i in range(12):
            router.put_object(f"k{i}", b"v").raise_for_error()
        router.cluster.crash_points = probe = CrashPointInjector()
        router.add_shard("d", make_shard(registry, "d"))
        visited = [point for _, point in probe.schedule]
        assert list(dict.fromkeys(visited)) == list(CLUSTER_CRASH_POINTS)
        router.cluster.stop()


#: Every ``op`` label the replicated plane may emit: a client's verbs
#: bare, a maintenance role's prefixed — bounded, 13 per shard.
OP_LABELS = {"put", "get", "delete", "handoff-put"} | {
    f"{role}-{verb}" for role in ("replay", "repair", "migrate")
    for verb in ("get", "put", "delete")
}


def _labels(counter):
    """``{(shard, op label): count}`` of
    ``tiera_cluster_replica_ops_total``, summed over ``outcome``."""
    seen = {}
    for labels in map(dict, counter.label_sets()):
        key = labels["shard"], labels["op"]
        seen[key] = seen.get(key, 0) + counter.value(**labels)
    return seen


class TestRoleMatrix:
    """Every path that sends a shard a data op — client or maintenance —
    moves ``tiera_cluster_replica_ops_total{outcome}`` under its role's
    label and feeds the failure detector.  The maintenance rows fail at the
    commit before ``_replica_op``: those ops went straight to the shard."""

    @pytest.fixture
    def rt(self, registry):
        router = ShardedTieraServer(
            {n: make_shard(registry, n) for n in "abcd"}, replication=CONFIG
        )
        router.fed = []
        note = router.cluster.detector.note_success
        router.cluster.detector.note_success = lambda shard: (
            router.fed.append(shard), note(shard))
        yield router
        router.cluster.stop()

    def _check(self, rt, before, expected):
        routed = _labels(rt.cluster._replica_ops)
        assert {label for _, label in routed} <= OP_LABELS
        outcomes = rt.cluster._replica_ops
        for shard, label in expected:
            assert routed.get((shard, label), 0) > before.get((shard, label), 0), (
                shard, label)
            assert outcomes.value(shard=shard, op=label, outcome="ok") == (
                routed[(shard, label)]), (shard, label)
            assert shard in rt.fed, (shard, label)

    def test_client_ops(self, rt):
        owners = rt.cluster.owners("k")
        before = _labels(rt.cluster._replica_ops)
        rt.put_object("k", b"v").raise_for_error()
        rt.get_object("k").raise_for_error()
        rt.delete_object("k").raise_for_error()
        self._check(rt, before, [
            *((o, "put") for o in owners), (owners[0], "get"),
            *((o, "delete") for o in owners),
        ])

    def test_handoff_and_hint_replay_of_a_put(self, cluster, rt):
        owners = rt.cluster.owners("k")
        handles = mark_down(cluster, rt, owners[0])
        before = _labels(rt.cluster._replica_ops)
        rt.put_object("k", b"v").raise_for_error()
        holder = next(iter(rt.cluster.hints)).holder
        self._check(rt, before, [(holder, "handoff-put")])
        rt.fed.clear()
        bring_up(cluster, rt, handles)
        self._check(rt, before, [
            (holder, "replay-get"), (owners[0], "replay-put"),
            (holder, "replay-delete"),  # the stray parked copy
        ])

    def test_a_delete_hint_sends_the_holder_nothing(self, cluster, rt):
        rt.put_object("k", b"v").raise_for_error()
        owners = rt.cluster.owners("k")
        handles = mark_down(cluster, rt, owners[0])
        before = _labels(rt.cluster._replica_ops)
        rt.delete_object("k").raise_for_error()
        holder = next(iter(rt.cluster.hints)).holder
        # Regression: the parent bumped {op="handoff-delete"} for an op
        # it never sent.
        assert {k: v for k, v in _labels(rt.cluster._replica_ops).items()
                if k[0] == holder} == {k: v for k, v in before.items()
                                       if k[0] == holder}
        rt.fed.clear()
        bring_up(cluster, rt, handles)
        self._check(rt, before, [(owners[0], "replay-delete")])

    def test_read_repair_and_anti_entropy(self, rt):
        rt.put_object("k", b"v").raise_for_error()
        owners = rt.cluster.owners("k")
        rt.shards[owners[0]].delete_object("k").raise_for_error()
        before = _labels(rt.cluster._replica_ops)
        rt.fed.clear()
        rt.get_object("k").raise_for_error()
        rt.clock.run_until(rt.clock.now() + 0.01)
        self._check(rt, before, [(owners[0], "repair-put")])
        assert any(label == "repair-get" and count > before.get((s, label), 0)
                   for (s, label), count in _labels(rt.cluster._replica_ops).items())
        rt.shards[owners[1]].put_object("k", b"newer").raise_for_error()
        before = _labels(rt.cluster._replica_ops)
        rt.fed.clear()
        assert rt.cluster.anti_entropy()["repairs"] == 2
        self._check(rt, before, [
            (owners[1], "repair-get"), (owners[0], "repair-put"),
            (owners[2], "repair-put"),
        ])

    def test_migration_copy_and_drop_and_fsck_drop(self, registry, rt):
        for i in range(12):
            rt.put_object(f"k{i}", b"v").raise_for_error()
        before = _labels(rt.cluster._replica_ops)
        rt.fed.clear()
        assert rt.add_shard("e", make_shard(registry, "e")) > 0
        after = _labels(rt.cluster._replica_ops)
        self._check(rt, before, [("e", "migrate-put")])
        for label in ("migrate-get", "migrate-delete"):
            moved = [s for (s, op) in after if op == label]
            assert moved and "e" not in moved
            self._check(rt, before, [(s, label) for s in moved])
        owners = rt.cluster.owners("k0")
        stray = next(s for s in sorted(rt.shards) if s not in owners)
        rt.shards[stray].put_object("k0", b"stray").raise_for_error()
        before = _labels(rt.cluster._replica_ops)
        rt.fed.clear()
        rt.cluster.fsck(repair=True)
        self._check(rt, before, [(stray, "repair-delete")])



class TestDropWindow:
    """A crash between the ``cluster.drop`` record and the delete it
    announces: ``recover()`` over the same journal store redoes the
    drop exactly once."""

    def test_a_pending_drop_is_redone_exactly_once(self, registry):
        class DiesOnDelete:
            """Stands in for a shard whose process dies mid-drop."""

            def __init__(self, server):
                self.server, self.deletes = server, 0

            def delete_object(self, key, **options):
                self.deletes += 1
                raise ProcessCrash("cluster.drop", 0)

            def __getattr__(self, name):
                return getattr(self.server, name)

        store = MemoryStore()
        shards = {n: make_shard(registry, n) for n in "abc"}
        config = ClusterConfig(
            replication_factor=2, heartbeat_interval=1000.0,
            anti_entropy_interval=0.0,
        )
        router = ShardedTieraServer(
            dict(shards), replication=config, journal_store=store
        )
        for i in range(24):
            router.put_object(f"k{i:02d}", b"v").raise_for_error()
        joiner = make_shard(registry, "d")
        for name in shards:
            router.shards[name] = DiesOnDelete(shards[name])
        with pytest.raises(ProcessCrash):
            router.add_shard("d", joiner)
        router.cluster.stop()
        router.clock.cancel_all()
        pending = [r for _, r in router.cluster.journal.pending()]
        assert [r["kind"] for r in pending] == [
            "cluster.membership", "cluster.drop"
        ]
        drop = pending[1]
        assert shards[drop["shard"]].contains(drop["key"])

        reopened = ShardedTieraServer(
            {**shards, "d": joiner}, replication=config, journal_store=store
        )
        report = reopened.cluster.recover()
        assert report["redone"] == 1 and report["aborted"] == 0
        assert not shards[drop["shard"]].contains(drop["key"])
        assert _labels(reopened.cluster._replica_ops)[
            drop["shard"], "migrate-delete"] >= 1
        assert len(reopened.cluster.journal) == 0
        assert reopened.cluster.recover()["redone"] == 0   # exactly once
        assert reopened.cluster.fsck()["clean"]
        for i in range(24):
            assert reopened.get_object(f"k{i:02d}").ok
        reopened.cluster.stop()


def test_failed_result_is_the_envelope_raise_for_error_undoes():
    exc = api.errors.NoSuchObjectError("k")
    result = api.failed_result("get", "k", exc, 0.25)
    assert (result.ok, result.error, result.latency) == (
        False, "NO_SUCH_OBJECT", 0.25
    )
    assert result.error_type == "NoSuchObjectError"
    with pytest.raises(api.errors.NoSuchObjectError):
        result.raise_for_error()
