"""Request tracing: span trees over the virtual timeline."""

from repro.core.events import ActionEvent
from repro.core.policy import Rule
from repro.core.responses import Copy
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core import templates
from repro.obs.trace import Span, Tracer
from repro.simcloud.clock import SimClock
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from tests.core.conftest import build_instance


class TestSpan:
    def test_child_inherits_foreground(self):
        root = Span("r", "request", 0.0, foreground=True)
        child = root.child("c", "tier-op", 1.0)
        background = root.child("b", "rule", 1.0, foreground=False)
        assert child.foreground
        assert not background.foreground
        assert not background.child("bb", "tier-op", 1.0).foreground

    def test_find_is_recursive(self):
        root = Span("r", "request", 0.0)
        rule = root.child("rule", "rule", 0.0)
        rule.child("t1.put", "tier-op", 0.0)
        root.child("t2.get", "tier-op", 0.0)
        assert [s.name for s in root.find("tier-op")] == ["t1.put", "t2.get"]

    def test_foreground_rule_seconds(self):
        root = Span("r", "request", 0.0)
        root.child("fg", "rule", 0.0).finish(0.3)
        root.child("bg", "rule", 0.0, foreground=False).finish(5.0)
        assert root.foreground_rule_seconds() == 0.3

    def test_to_dict_round_trips_tree(self):
        root = Span("put k", "request", 1.0, attrs={"op": "put"})
        root.child("t1.put", "tier-op", 1.0, bytes=5).finish(1.2)
        root.finish(1.5)
        out = root.to_dict()
        assert out["duration"] == 0.5
        assert out["attrs"] == {"op": "put"}
        assert out["children"][0]["attrs"] == {"bytes": 5}


class TestTracer:
    def test_disabled_by_default(self):
        clock = SimClock()
        tracer = Tracer(clock)
        ctx = RequestContext(clock)
        assert tracer.start_request("get", "k", ctx) is None
        assert ctx.span is None

    def test_force_overrides_disabled(self):
        clock = SimClock()
        tracer = Tracer(clock)
        ctx = RequestContext(clock)
        root = tracer.start_request("get", "k", ctx, force=True)
        assert root is not None
        assert ctx.span is root and ctx.trace is root
        tracer.finish_request(root, ctx)
        assert ctx.span is None and ctx.trace is None
        assert tracer.last() is root

    def test_nested_request_keeps_outer_root(self):
        clock = SimClock()
        tracer = Tracer(clock, enabled=True)
        ctx = RequestContext(clock)
        outer = tracer.start_request("put", "k", ctx)
        assert tracer.start_request("put", "k2", ctx) is None
        assert ctx.trace is outer

    def test_ring_drops_oldest(self):
        clock = SimClock()
        tracer = Tracer(clock, capacity=2, enabled=True)
        for n in range(3):
            ctx = RequestContext(clock)
            root = tracer.start_request("get", f"k{n}", ctx)
            tracer.finish_request(root, ctx)
        assert tracer.dropped == 1
        assert [t.attrs["key"] for t in tracer.recent()] == ["k1", "k2"]

    def test_recent_zero_is_none_and_negative_is_refused(self):
        """Regression: ``recent(0)`` sliced ``[-0:]`` and returned every
        retained trace."""
        import pytest

        clock = SimClock()
        tracer = Tracer(clock, enabled=True)
        for n in range(4):
            ctx = RequestContext(clock)
            tracer.finish_request(tracer.start_request("get", f"k{n}", ctx), ctx)
        assert tracer.recent(0) == []
        assert [t.attrs["key"] for t in tracer.recent(1)] == ["k3"]
        with pytest.raises(ValueError):
            tracer.recent(-1)


class TestTracedRequests:
    """End-to-end traces through a real instance."""

    def test_traced_get_shows_serving_tier_and_rules(self, registry):
        # A GET-path rule: promote the object to tier1 on every read.
        instance = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Copy(InsertObject(), "tier2")],
                    name="store-cold",
                ),
                Rule(
                    ActionEvent("get"),
                    [Copy(InsertObject(), "tier1")],
                    name="promote-on-read",
                ),
            ],
        )
        server = TieraServer(instance)
        server.put_object("k", b"payload").raise_for_error()
        server.get_object("k", trace=True).raise_for_error()

        trace = server.last_trace()
        assert trace is not None
        assert trace.attrs["op"] == "get"
        assert trace.attrs["served_by"] in ("tier1", "tier2")
        rule_names = [s.name for s in trace.find("rule")]
        assert "promote-on-read" in rule_names
        tier_ops = trace.find("tier-op")
        assert any(s.attrs.get("hit") for s in tier_ops if "get" in s.name)
        # Simulated timestamps are consistent: children nest inside root.
        for span in tier_ops:
            assert trace.start <= span.start <= span.end <= trace.end

    def test_traced_put_records_write_through_tiers(self, registry):
        instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
        server = TieraServer(instance)
        result = server.put_object("k", b"x" * 100, trace=True).raise_for_error()

        trace = server.last_trace()
        assert trace.attrs == {"op": "put", "key": "k"}
        assert trace.duration == result.latency
        assert [s.name for s in trace.find("rule")] == ["write-through"]
        touched = {s.attrs["tier"] for s in trace.find("tier-op")}
        assert touched == {"tier1", "tier2"}
        assert all(s.foreground for s in trace.find("rule"))

    def test_tracing_does_not_change_latency(self):
        """The observer effect: traced and untraced runs agree exactly.

        Each run gets its own identically-seeded cluster so the latency
        models draw the same random sequence.
        """
        latencies = []
        for traced in (False, True):
            cluster = Cluster(seed=99)
            instance = templates.write_through_instance(
                TierRegistry(cluster), mem="4M", ebs="4M"
            )
            server = TieraServer(instance)
            stored = server.put_object(
                "k", b"x" * 512, trace=traced
            ).raise_for_error()
            get_ctx = RequestContext(instance.clock)
            server.get_object("k", ctx=get_ctx, trace=traced).raise_for_error()
            latencies.append((stored.latency, get_ctx.elapsed))
            instance.shutdown()
        assert latencies[0] == latencies[1]

    def test_untraced_requests_leave_no_spans(self, registry):
        instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        server.get_object("k").raise_for_error()
        assert server.last_trace() is None
        assert server.obs.tracer.recent() == []
