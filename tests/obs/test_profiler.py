"""The scoped profiler: wall sections, virtual attribution, rendering."""

import json
import time

from repro.obs.profiler import (
    NULL_PROFILER,
    Profiler,
    cprofile_capture,
    render_profile,
    virtual_breakdown,
)
from repro.obs.registry import MetricsRegistry


class TestWallSections:
    def test_sections_nest_into_a_tree(self):
        p = Profiler()
        with p.section("outer"):
            with p.section("inner"):
                pass
            with p.section("inner"):
                pass
        report = p.wall_report()
        assert [s["name"] for s in report["sections"]] == ["outer"]
        outer = report["sections"][0]
        assert outer["count"] == 1
        inner = outer["children"][0]
        assert inner["name"] == "inner"
        assert inner["count"] == 2  # same path aggregates into one node

    def test_section_times_accumulate(self):
        p = Profiler()
        with p.section("work"):
            time.sleep(0.01)
        with p.section("work"):
            time.sleep(0.01)
        node = p.wall_report()["sections"][0]
        assert node["seconds"] >= 0.02
        assert node["count"] == 2

    def test_total_is_sum_of_top_level_sections(self):
        p = Profiler()
        with p.section("a"):
            time.sleep(0.005)
        with p.section("b"):
            time.sleep(0.005)
        report = p.wall_report()
        assert report["total_seconds"] == sum(
            s["seconds"] for s in report["sections"]
        )

    def test_disabled_profiler_records_nothing(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.section("x"):
            pass
        assert NULL_PROFILER.wall_report()["sections"] == []

    def test_exception_inside_section_still_closes_it(self):
        p = Profiler()
        try:
            with p.section("risky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        report = p.wall_report()
        assert report["sections"][0]["count"] == 1
        # The stack unwound: a new section is top-level, not a child.
        with p.section("after"):
            pass
        assert {s["name"] for s in p.wall_report()["sections"]} == {
            "risky", "after"
        }


class TestCProfile:
    def test_capture_lists_functions_by_cumtime(self):
        with cprofile_capture(limit=5) as result:
            sorted(range(1000))
        functions = result["functions"]
        assert len(functions) <= 5
        assert all(
            {"function", "calls", "tottime", "cumtime"} <= set(r) for r in functions
        )
        cums = [r["cumtime"] for r in functions]
        assert cums == sorted(cums, reverse=True)


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
        assert report["services"]["ebs-1"] == 0.010
        assert report["requests"]["put"]["count"] == 1
        assert report["requests"]["put"]["mean"] == 0.012
        assert report["rules"] == {"write-through (foreground)": 0.011}
        assert report["total_service_seconds"] == 0.012

    def test_before_snapshot_subtracts(self):
        registry = self._registry_with_activity()
        before = registry.snapshot()
        registry.get("tiera_request_seconds").observe(0.100, op="put")
        report = virtual_breakdown(before, registry.snapshot())
        assert report["requests"] == {
            "put": {"count": 1, "seconds": 0.100, "mean": 0.100}
        }
        assert report["services"] == {}


class TestRendering:
    def test_render_profile_text_sections(self):
        p = Profiler()
        with p.section("drive"):
            with p.section("load"):
                time.sleep(0.002)
        report = {
            "measured_wall_seconds": 0.01,
            "coverage": 0.95,
            "wall": p.wall_report(),
            "virtual": {
                "services": {"ebs-1": 1.5},
                "requests": {"get": {"count": 10, "seconds": 1.6, "mean": 0.16}},
                "rules": {},
                "total_service_seconds": 1.5,
                "total_request_seconds": 1.6,
            },
        }
        text = render_profile(report)
        assert "wall-clock (per code region)" in text
        assert "drive" in text
        assert "  load" in text
        assert "service ebs-1" in text
        assert "95.0%" in text

    def test_a_report_without_a_wall_tree_renders_only_its_blocks(self):
        """``repro profile --port`` reports virtual attribution alone."""
        text = render_profile({"virtual": {
            "services": {"ebs-1": 1.5}, "requests": {}, "rules": {},
            "total_service_seconds": 1.5, "total_request_seconds": 0.0,
        }})
        assert text.startswith("virtual time (per simulated component)")
        assert "wall-clock" not in text

    def test_report_is_json_serializable(self):
        p = Profiler()
        with p.section("x"):
            pass
        json.dumps({"wall": p.wall_report()})
