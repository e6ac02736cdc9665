"""The measurement stack's two halves: the phase timer (wall sections)
and virtual-time attribution from registry snapshots."""

import json
import time

from repro.obs.export import virtual_breakdown
from repro.obs.profiler import Profiler
from repro.obs.registry import MetricsRegistry


class TestWallSections:
    def test_sections_nest_into_a_tree(self):
        p = Profiler()
        with p.section("outer"):
            with p.section("inner"):
                pass
            with p.section("inner"):
                pass
        assert list(p.sections) == ["outer", "outer/inner"]
        assert p.sections["outer"][1] == 1
        assert p.sections["outer/inner"][1] == 2  # same path aggregates

    def test_section_times_accumulate(self):
        p = Profiler()
        with p.section("work"):
            time.sleep(0.01)
        with p.section("work"):
            time.sleep(0.01)
        seconds, count = p.sections["work"]
        assert seconds >= 0.02
        assert count == 2

    def test_total_is_sum_of_top_level_sections(self):
        p = Profiler()
        with p.section("a"):
            with p.section("inner"):
                time.sleep(0.005)
        with p.section("b"):
            time.sleep(0.005)
        top = p.sections["a"][0] + p.sections["b"][0]
        line = p.report(top * 2)
        assert line.startswith("phases: a ")
        assert ", a/inner " in line and line.endswith(" ms")
        assert "; 50.0% of " in line  # a/inner is inside a: not counted

    def test_exception_inside_section_still_closes_it(self):
        p = Profiler()
        try:
            with p.section("risky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert p.sections["risky"][1] == 1
        # The path unwound: a new section is top-level, not a child.
        with p.section("after"):
            pass
        assert list(p.sections) == ["risky", "after"]


class TestVirtualBreakdown:
    def _registry_with_activity(self):
        registry = MetricsRegistry()
        tier_op = registry.histogram("tiera_tier_op_seconds")
        tier_op.observe(0.010, service="ebs-1", op="put")
        tier_op.observe(0.002, service="memcached-1", op="get")
        request = registry.histogram("tiera_request_seconds")
        request.observe(0.012, op="put")
        request.observe(0.003, op="get")
        rule = registry.counter("tiera_rule_seconds_total")
        rule.inc(0.011, rule="write-through", mode="foreground")
        return registry

    def test_breakdown_from_snapshot_delta(self):
        registry = self._registry_with_activity()
        report = virtual_breakdown(None, registry.snapshot())
        assert report == {
            "services": {"ebs-1": 0.010, "memcached-1": 0.002},
            "rules": {"write-through (foreground)": 0.011},
        }

    def test_before_snapshot_subtracts(self):
        registry = self._registry_with_activity()
        before = registry.snapshot()
        registry.get("tiera_tier_op_seconds").observe(
            0.100, service="ebs-1", op="get"
        )
        report = virtual_breakdown(before, registry.snapshot())
        assert report == {"services": {"ebs-1": 0.100}, "rules": {}}


class TestRendering:
    def test_report_is_json_serializable(self):
        p = Profiler()
        with p.section("x"):
            pass
        json.dumps({"wall": p.sections})
