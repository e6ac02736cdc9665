"""Trace recording and replay."""

import pytest

from repro.core.server import TieraServer
from repro.core.templates import low_latency_instance, memcached_ebs_instance
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.replay import TraceRecorder, TraceReplayer, load_trace


@pytest.fixture
def server(registry):
    return TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))


class TestRecorder:
    def test_records_all_op_kinds(self, server, cluster):
        with TraceRecorder(server) as recorder:
            server.put_object("a", b"x" * 100).raise_for_error()
            server.get_object("a").raise_for_error()
            server.delete_object("a").raise_for_error()
        kinds = [event["op"] for event in recorder.events]
        assert kinds == ["put", "get", "delete"]
        assert recorder.events[0]["size"] == 100

    def test_server_restored_after_exit(self, server):
        from repro.core.server import TieraServer

        with TraceRecorder(server):
            assert "put_object" in vars(server)  # hook installed
        assert "put_object" not in vars(server)  # hook removed
        assert server.put_object.__func__ is TieraServer.put_object

    def test_dump_and_load(self, server, tmp_path):
        with TraceRecorder(server) as recorder:
            server.put_object("a", b"1").raise_for_error()
            server.get_object("a").raise_for_error()
        path = str(tmp_path / "trace.jsonl")
        assert recorder.dump(path) == 2
        events = load_trace(path)
        assert [event["op"] for event in events] == ["put", "get"]

    def test_timestamps_monotone(self, server, cluster):
        with TraceRecorder(server) as recorder:
            ctx = RequestContext(cluster.clock)
            for i in range(5):
                server.put_object(f"k{i}", b"v", ctx=ctx).raise_for_error()
        times = [event["at"] for event in recorder.events]
        assert times == sorted(times)


class TestReplayer:
    def _record(self, registry, cluster):
        source = TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))
        with TraceRecorder(source) as recorder:
            ctx = RequestContext(cluster.clock)
            for i in range(20):
                source.put_object(f"k{i}", bytes(512), ctx=ctx).raise_for_error()
            for i in range(20):
                source.get_object(f"k{i % 5}", ctx=ctx).raise_for_error()
            cluster.clock.run_until(ctx.time)
        return recorder.events

    def test_replay_against_another_instance(self, registry, cluster):
        events = self._record(registry, cluster)
        target = TieraServer(low_latency_instance(registry, t=30, mem="8M", ebs="8M"))
        latencies = TraceReplayer(target, events).run(paced=False)
        assert len(latencies) == len(events)
        assert all(lat >= 0 for lat in latencies)
        assert target.contains("k0")

    def test_paced_replay_honours_spacing(self, registry):
        # Build a synthetic trace with 1-second spacing.
        events = [
            {"op": "put", "key": f"k{i}", "size": 64, "at": float(i)}
            for i in range(5)
        ]
        cluster = Cluster(seed=9)
        target = TieraServer(
            memcached_ebs_instance(TierRegistry(cluster), mem="8M", ebs="8M")
        )
        TraceReplayer(target, events).run(paced=True)
        # The clock advanced through the recorded 4-second span.
        assert cluster.clock.now() >= 4.0

    def test_replay_tolerates_missing_keys(self, registry, cluster):
        events = [{"op": "get", "key": "ghost", "at": 0.0},
                  {"op": "delete", "key": "ghost", "at": 0.1}]
        target = TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))
        latencies = TraceReplayer(target, events).run()
        assert len(latencies) == 2

    def test_empty_trace(self, registry, cluster):
        target = TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))
        assert TraceReplayer(target, []).run() == []

    def test_compare_two_instances(self, registry, cluster):
        """The intended use: one trace, two candidate specs, compare."""
        events = self._record(registry, cluster)
        fast = TieraServer(
            memcached_ebs_instance(registry, mem="8M", ebs="8M")
        )
        fast_latency = sum(TraceReplayer(fast, events).run(paced=False))
        assert fast_latency > 0


class TestPipelinedReplay:
    def _target(self, seed=9):
        cluster = Cluster(seed=seed)
        server = TieraServer(
            memcached_ebs_instance(TierRegistry(cluster), mem="8M", ebs="8M")
        )
        return cluster, server

    def _events(self, count=12):
        return [
            {"op": "put", "key": f"k{i}", "size": 64, "at": 0.0}
            for i in range(count)
        ] + [
            {"op": "get", "key": f"k{i}", "at": 0.0} for i in range(count)
        ]

    def test_depth_covers_every_event(self):
        _, target = self._target()
        latencies = TraceReplayer(target, self._events()).run(
            paced=False, depth=5
        )
        assert len(latencies) == 24
        assert target.contains("k0") and target.contains("k11")

    def test_deeper_replay_finishes_sooner(self):
        spans = {}
        for depth in (1, 4):
            cluster, target = self._target()
            TraceReplayer(target, self._events()).run(paced=False, depth=depth)
            spans[depth] = cluster.clock.now()
        assert spans[4] < spans[1]

    def test_depth_tolerates_missing_keys(self):
        _, target = self._target()
        events = [{"op": "get", "key": "ghost", "at": 0.0},
                  {"op": "delete", "key": "ghost", "at": 0.0}]
        assert len(TraceReplayer(target, events).run(depth=2)) == 2

    def test_invalid_depth_rejected(self):
        _, target = self._target()
        with pytest.raises(ValueError):
            TraceReplayer(target, self._events()).run(depth=0)


class TestProcessIndependentInputs:
    """Regression: ``str`` hashes are salted per process, so anything
    "deterministic" derived from ``hash(key)`` differs between runs."""

    def test_replayed_payload_does_not_depend_on_the_hash_seed(self):
        import zlib

        from repro.workloads.ycsb import record_payload

        op = TraceReplayer._op_for({"op": "put", "key": "user000042", "size": 512})
        assert op.data == record_payload(
            zlib.crc32(b"user000042") & 0xFFFF, 0, 512
        )

    def test_no_bare_hash_call_in_src_or_benchmarks(self):
        import ast
        from pathlib import Path

        root = Path(__file__).parents[2]
        offenders = [
            f"{path.relative_to(root)}:{node.lineno}"
            for top in ("src", "benchmarks")
            for path in sorted((root / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ]
        assert offenders == [], offenders
