"""Workload heat telemetry: sketch, tracker, report, merge, spec hooks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import AttrRef, EvalScope, HeatHot
from repro.core.errors import PolicyError
from repro.core.server import TieraServer
from repro.obs.heat import (
    HeatTracker,
    SpaceSavingSketch,
    estimate_skew,
    merge_summaries,
    render_report,
    size_class,
)
from repro.obs.registry import MetricsRegistry
from repro.spec import compile_spec
from tests.core.conftest import build_instance


class TestSpaceSavingSketch:
    def test_exact_counts_under_capacity(self):
        sketch = SpaceSavingSketch(capacity=8)
        for key in ["a", "b", "a", "c", "a", "b"]:
            sketch.observe(key)
        assert sketch.count("a") == 3
        assert sketch.count("b") == 2
        assert sketch.error("a") == 0
        assert sketch.top() == [("a", 3, 0), ("b", 2, 0), ("c", 1, 0)]

    def test_eviction_inherits_min_count_as_error(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.observe("a")
        sketch.observe("a")
        sketch.observe("b")
        sketch.observe("c")  # evicts b (count 1): c enters at [2, 1]
        assert "b" not in sketch
        assert sketch.count("c") == 2
        assert sketch.error("c") == 1
        assert len(sketch) == 2

    def test_eviction_tie_breaks_on_lexicographic_key(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.observe("b")
        sketch.observe("a")  # both at count 1: "a" is the min victim
        sketch.observe("z")
        assert "a" not in sketch
        assert "b" in sketch and "z" in sketch

    def test_error_bound_brackets_true_count(self):
        sketch = SpaceSavingSketch(capacity=4)
        stream = (["hot"] * 50) + [f"cold{i}" for i in range(40)]
        true = {"hot": 50}
        for key in stream:
            sketch.observe(key)
        for key, count, error in sketch.top():
            truth = true.get(key, 1)
            assert count - error <= truth <= count

    def test_same_stream_yields_identical_sketch(self):
        stream = [f"k{i % 7}" for i in range(100)] + ["x", "y", "z"] * 5
        a, b = SpaceSavingSketch(4), SpaceSavingSketch(4)
        for key in stream:
            a.observe(key)
            b.observe(key)
        assert a.top() == b.top()
        assert a.to_dict() == b.to_dict()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)


class ScanSketch(SpaceSavingSketch):
    """The sketch as it was before the victim heap: every unmonitored
    key scans all entries for the smallest ``(count, key)``."""

    def observe(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += 1
            return
        if len(self._entries) < self.capacity:
            self._entries[key] = [1, 0]
            return
        victim = min(
            self._entries.items(), key=lambda item: (item[1][0], item[0])
        )
        min_count = victim[1][0]
        del self._entries[victim[0]]
        self._entries[key] = [min_count + 1, min_count]


class TestVictimHeap:
    """The heap's victim is exactly the scan's, so entries and ``top()``
    agree after every observation."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(
            # few distinct keys: repeats, count ties and re-admissions
            st.sampled_from([f"k{i}" for i in range(10)])
            | st.text("ab", min_size=1, max_size=3),
            max_size=200,
        ),
    )
    def test_equal_to_the_scan(self, capacity, stream):
        heap, scan = SpaceSavingSketch(capacity), ScanSketch(capacity)
        for key in stream:
            heap.observe(key)
            scan.observe(key)
            assert heap._entries == scan._entries
            assert heap.top() == scan.top()
        assert len(heap._heap) == len(heap)

    def test_capacity_one_replaces_every_miss(self):
        heap, scan = SpaceSavingSketch(1), ScanSketch(1)
        for key in ["a", "a", "b", "c", "c", "a"]:
            heap.observe(key)
            scan.observe(key)
        assert heap.top() == scan.top() == [("a", 6, 5)]

    def test_ties_break_on_the_smallest_key_after_increments(self):
        # "b" and "c" lag in the heap at count 1, then catch "a" up to a
        # three-way tie at 2: the victim is still the smallest key
        heap, scan = SpaceSavingSketch(3), ScanSketch(3)
        for key in ["c", "b", "a", "a", "b", "c", "z"]:
            heap.observe(key)
            scan.observe(key)
        assert heap.top() == scan.top()
        assert "a" not in heap and heap.count("z") == 3


class TestEstimateSkew:
    def test_zipfian_profile_recovers_exponent(self):
        counts = [round(1000 / rank) for rank in range(1, 21)]
        assert estimate_skew(counts) == pytest.approx(1.0, abs=0.05)

    def test_flat_profile_is_zero(self):
        assert estimate_skew([10, 10, 10, 10]) == 0.0

    def test_too_short_profile_is_zero(self):
        assert estimate_skew([]) == 0.0
        assert estimate_skew([5]) == 0.0


class TestSizeClass:
    def test_classes(self):
        assert size_class(None) == "?"
        assert size_class(100) == "<1K"
        assert size_class(4096) == "4K-16K"
        assert size_class(10 * 1024 * 1024) == ">1M"


def make_tracker(**config):
    tracker = HeatTracker(MetricsRegistry())
    tracker.enable(**config)
    return tracker


class TestHeatTracker:
    def test_disabled_tracker_is_inert(self):
        tracker = HeatTracker(MetricsRegistry())
        tracker.record("get", "k", size=10, at=1.0)
        assert tracker.summary() == {"enabled": False}
        assert tracker.is_hot("k") is False
        assert tracker.hot_keys() == []

    def test_counts_reads_writes_deletes(self):
        tracker = make_tracker()
        tracker.record("put", "k", size=100, at=0.0)
        tracker.record("get", "k", size=100, at=1.0)
        tracker.record("get", "k", size=100, at=2.0)
        tracker.record("delete", "k", at=3.0)
        stats = tracker.global_stats()
        assert stats["accesses"] == 4
        assert stats["reads"] == 2
        assert stats["writes"] == 2  # puts + deletes
        assert stats["read_fraction"] == 0.5

    def test_ewma_rate_grows_with_repeated_access(self):
        tracker = make_tracker(windows=[60.0])
        for t in range(5):
            tracker.record("get", "k", at=float(t))
        summary = tracker.summary()
        [entry] = summary["hot"]
        rate_after_5 = entry["rates"]["60s"]
        tracker.record("get", "k", at=5.0)
        [entry] = tracker.summary()["hot"]
        assert entry["rates"]["60s"] > rate_after_5

    def test_heat_rate_decays_at_read_time(self):
        # Stored rates only update on access; an idle key's rate must
        # still read as decayed so eviction logic sees it going cold.
        tracker = make_tracker(windows=[10.0])
        for t in range(5):
            tracker.record("get", "k", at=float(t))
        live = tracker.heat_rate("k")
        assert tracker.heat_rate("k", now=4.0) == live  # at last access
        later = tracker.heat_rate("k", now=34.0)        # 3 windows idle
        assert 0 < later < live / 10
        assert tracker.heat_rate("missing", now=34.0) == 0.0

    def test_object_table_is_lru_bounded(self):
        tracker = make_tracker(max_objects=3, hot_min=1)
        for i in range(6):
            tracker.record("get", f"k{i}", at=float(i))
        assert tracker.global_stats()["tracked"] == 3
        # Oldest entries fell off; the sketch still remembers them.
        summary = tracker.summary()
        tracked = {
            h["key"] for h in summary["hot"] if "reads" in h
        }
        assert tracked <= {"k3", "k4", "k5"}

    def test_hot_requires_guaranteed_count(self):
        tracker = make_tracker(hot_min=4)
        for t in range(3):
            tracker.record("get", "warm", at=float(t))
        assert not tracker.is_hot("warm")
        tracker.record("get", "warm", at=3.0)
        assert tracker.is_hot("warm")
        assert tracker.hot_keys() == ["warm"]

    def test_timeline_samples_on_interval(self):
        tracker = make_tracker(sample_interval=10.0)
        tracker.occupancy_sources["solo"] = lambda: [("tier1", 50, 100)]
        tracker.record("get", "k", at=0.0)   # first record always samples
        assert len(tracker.timeline) == 1
        tracker.record("get", "k", at=5.0)   # inside the interval: no sample
        assert len(tracker.timeline) == 1
        tracker.record("get", "k", at=10.0)  # boundary crossed
        assert len(tracker.timeline) == 2
        sample = tracker.timeline[-1]
        assert sample["tiers"]["tier1"]["utilization"] == 0.5

    def test_churn_tracks_hot_set_turnover(self):
        tracker = make_tracker(hot_min=2, sample_interval=5.0)
        for t in range(4):
            tracker.record("get", "a", at=float(t))
        tracker.sample(4.0)
        for t in range(4, 10):
            tracker.record("get", "b", at=float(t))
        tracker.sample(10.0)
        assert tracker.churn == 0.0  # {a} ⊂ {a, b}: nothing left the set
        tracker._sketch = SpaceSavingSketch(tracker.top_k)
        for t in range(10, 14):
            tracker.record("get", "c", at=float(t))
        tracker.sample(14.0)
        assert tracker.churn == 1.0  # a and b both gone

    def test_summary_round_trips_as_json(self):
        tracker = make_tracker()
        tracker.occupancy_sources["solo"] = lambda: [("tier1", 10, 100)]
        for t in range(8):
            tracker.record("put" if t % 2 else "get", f"k{t % 3}",
                           size=512, at=float(t))
        summary = tracker.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["enabled"] is True
        assert summary["accesses"]["total"] == 8
        assert summary["hot_keys"] == [h["key"] for h in summary["hot"]]

    def test_metric_families_register_and_collect(self):
        registry = MetricsRegistry()
        tracker = HeatTracker(registry)
        tracker.enable(hot_min=1)
        for t in range(5):
            tracker.record("get", "k", size=64, at=float(t))
        snap = registry.snapshot()
        families = snap["metrics"]
        assert families["tiera_heat_accesses_total"]["samples"] == {
            "op=get": 5.0
        }
        assert families["tiera_heat_tracked_objects"]["samples"] == {"": 1.0}
        assert families["tiera_heat_hot_count"]["samples"] == {"key=k": 5.0}

    def test_limit_zero_is_none_and_negative_is_refused(self):
        """Regression: ``limit=-1`` sliced ``[:-1]`` and silently dropped
        the coldest hot key (``-3`` dropped all three)."""
        tracker = make_tracker(hot_min=1)
        for t, key in enumerate(["k0"] * 3 + ["k1"] * 2 + ["k2"]):
            tracker.record("get", key, at=float(t))
        assert tracker.summary()["hot_keys"] == ["k0", "k1", "k2"]
        assert tracker.summary(limit=0)["hot_keys"] == []
        for limit in (-1, -3):
            with pytest.raises(ValueError, match="at least 0"):
                tracker.summary(limit=limit)

    def test_enable_is_idempotent_and_reconfigures(self):
        tracker = make_tracker(top_k=4)
        tracker.record("get", "k", at=0.0)
        tracker.enable(hot_min=1)
        assert tracker.hot_min == 1
        assert tracker.top_k == 4


class TestRenderReport:
    def test_disabled_summary(self):
        assert "not enabled" in render_report({"enabled": False})

    def test_report_sections(self):
        tracker = make_tracker(hot_min=2, sample_interval=1.0)
        tracker.occupancy_sources["solo"] = lambda: [
            ("tier1", 30, 100), ("tier2", 0, None),
        ]
        for t in range(6):
            tracker.record("get", "hotkey", size=256, at=float(t))
        text = render_report(tracker.summary())
        assert "workload heat: 6 accesses" in text
        assert "hot keys (1):" in text
        assert "hotkey" in text and "#" in text
        assert "tier1" in text and "tier2" in text
        assert "unbounded" in text  # capacity-less tier renders as such
        assert "occupancy timeline" in text

    def test_report_is_deterministic(self):
        def build():
            tracker = make_tracker(hot_min=1)
            tracker.occupancy_sources["solo"] = lambda: [("tier1", 5, 10)]
            for t in range(7):
                tracker.record("get", f"k{t % 2}", size=100, at=float(t))
            return render_report(tracker.summary())

        assert build() == build()


class TestMergeSummaries:
    def _summary(self, keys, start=0.0):
        tracker = make_tracker(hot_min=1)
        tracker.occupancy_sources["solo"] = lambda: [("tier1", 10, 100)]
        t = start
        for key in keys:
            tracker.record("get", key, size=128, at=t)
            tracker.record_tier("get", "tier1", at=t)
            t += 1.0
        return tracker.summary()

    def test_all_disabled(self):
        assert merge_summaries([{"enabled": False}]) == {"enabled": False}

    def test_single_part_is_identity(self):
        part = self._summary(["a", "a", "b"])
        assert merge_summaries([part, {"enabled": False}]) is part

    def test_merge_unions_hot_and_sums_traffic(self):
        left = self._summary(["a"] * 5)
        right = self._summary(["b"] * 3, start=100.0)
        merged = merge_summaries([left, right])
        assert merged["enabled"] is True
        assert merged["accesses"]["total"] == 8
        assert merged["hot_keys"][:2] == ["a", "b"]  # re-ranked by count
        assert merged["tiers"]["tier1"]["reads"] == 8
        assert merged["tracked_objects"] == 2
        assert json.loads(json.dumps(merged)) == merged


HEAT_SPEC = """
Tiera HeatDemo() {
    tier1: { name: Memcached, size: 5G };
    tier2: { name: EBS, size: 50G };
    event(insert.into) : response { store(what: insert.object, to: tier2); }
    background event(heat.hot(alpha)) : response {
        copy(what: alpha, to: tier1);
    }
}
"""


class TestHeatSpecIntegration:
    def test_promote_on_hot_fires(self, registry):
        inst = compile_spec(HEAT_SPEC, registry)
        inst.enable_heat(hot_min=4)
        server = TieraServer(inst)
        server.put_object("alpha", b"v" * 64).raise_for_error()
        server.put_object("beta", b"v" * 64).raise_for_error()
        for _ in range(6):
            server.get_object("alpha").raise_for_error()
        assert inst.obs.heat.is_hot("alpha")
        assert "tier1" not in inst.meta("alpha").locations
        # Background threshold responses run off the simulated clock.
        registry.cluster.clock.advance(1.0)
        assert "tier1" in inst.meta("alpha").locations
        assert "tier1" not in inst.meta("beta").locations

    def test_heat_hot_arity_is_checked(self, registry):
        bad = HEAT_SPEC.replace("heat.hot(alpha)", "heat.hot(alpha, beta)")
        with pytest.raises(PolicyError):
            compile_spec(bad, registry)

    def test_unknown_predicate_rejected(self, registry):
        bad = HEAT_SPEC.replace("heat.hot(alpha)", "heat.warm(alpha)")
        with pytest.raises(PolicyError):
            compile_spec(bad, registry)

    def test_heat_attr_refs_resolve(self, registry):
        inst = compile_spec(HEAT_SPEC, registry)
        inst.enable_heat(hot_min=2)
        server = TieraServer(inst)
        server.put_object("alpha", b"v" * 64).raise_for_error()
        for _ in range(3):
            server.get_object("alpha").raise_for_error()
        scope = EvalScope(instance=inst)
        assert AttrRef(("heat", "accesses")).evaluate(scope) == 4
        assert AttrRef(("heat", "reads")).evaluate(scope) == 3
        assert AttrRef(("heat", "hot_count")).evaluate(scope) == 1
        assert AttrRef(("heat", "tier2", "writes")).evaluate(scope) >= 1
        assert HeatHot("alpha").evaluate(scope) is True
        assert HeatHot("beta").evaluate(scope) is False

    def test_heat_refs_require_enabled_tracker(self, registry):
        inst = compile_spec(HEAT_SPEC, registry)
        scope = EvalScope(instance=inst)
        with pytest.raises(PolicyError):
            AttrRef(("heat", "accesses")).evaluate(scope)
        with pytest.raises(PolicyError):
            HeatHot("alpha").evaluate(scope)

    def test_unknown_heat_attrs_rejected(self, registry):
        inst = compile_spec(HEAT_SPEC, registry)
        inst.enable_heat()
        scope = EvalScope(instance=inst)
        with pytest.raises(PolicyError):
            AttrRef(("heat", "temperature")).evaluate(scope)
        with pytest.raises(PolicyError):
            AttrRef(("heat", "tier9", "reads")).evaluate(scope)
        with pytest.raises(PolicyError):
            AttrRef(("heat",)).evaluate(scope)


class TestServerHeatSurface:
    def test_health_and_summary_carry_heat(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 64 * 1024), ("tier2", "EBS", 10 ** 7)],
        )
        server = TieraServer(inst)
        assert server.invoke("heat", "summary").enabled is False
        assert "heat" not in server.health()
        server.configure("heat", hot_min=2).raise_for_error()
        server.put_object("k", b"x" * 128).raise_for_error()
        for _ in range(3):
            server.get_object("k").raise_for_error()
        health = server.health()
        assert health["heat"]["accesses"] == 4
        assert health["heat"]["hot_keys"] == ["k"]
        summary = server.invoke("heat", "summary").state
        assert summary["enabled"] and summary["hot_keys"] == ["k"]
        assert "tier1" in summary["tiers"]

    def test_new_windows_reseed_tracked_objects(self, registry):
        inst = build_instance(registry, [("tier1", "Memcached", 64 * 1024)])
        server = TieraServer(inst)
        server.configure("heat", windows=[1.0, 2.0], hot_min=1).raise_for_error()
        for key in ("a", "b", "c"):
            server.put_object(key, b"x" * 64).raise_for_error()
        server.get_object("a").raise_for_error()

        def rates():
            hot = server.invoke("heat", "summary").state["hot"]
            return {entry["key"]: entry["rates"] for entry in hot}["a"]

        before = rates()
        server.configure("heat", windows=[1.0, 2.0]).raise_for_error()
        assert rates() == before  # the same tuple keeps them
        server.configure("heat", windows=[1.0, 2.0, 3.0]).raise_for_error()
        assert rates() == dict(before, **{"3s": 0.0})
        # the longer tuple used to raise IndexError out of this GET
        server.get_object("a").raise_for_error()
        assert rates()["3s"] == round(1 / 3, 9)
        server.configure("heat", windows=[2.0]).raise_for_error()
        assert list(rates()) == ["2s"]
        server.get_object("b").raise_for_error()

    def test_the_same_top_k_keeps_the_hot_set(self, registry):
        inst = build_instance(registry, [("tier1", "Memcached", 64 * 1024)])
        server = TieraServer(inst)
        server.configure("heat", top_k=8, hot_min=1).raise_for_error()
        server.put_object("k", b"x" * 64).raise_for_error()
        for _ in range(10):
            server.get_object("k").raise_for_error()
        assert server.health()["heat"]["hot_keys"] == ["k"]
        server.configure("heat", top_k=8).raise_for_error()
        assert server.health()["heat"]["hot_keys"] == ["k"]
        server.configure("heat", top_k=4).raise_for_error()  # a new size
        assert server.health()["heat"]["hot_keys"] == []
        assert inst.obs.heat.top_k == 4

    def test_a_refused_top_k_changes_nothing(self, registry):
        inst = build_instance(registry, [("tier1", "Memcached", 64 * 1024)])
        server = TieraServer(inst)
        server.configure("heat", top_k=8, hot_min=1).raise_for_error()
        server.put_object("k", b"x" * 64).raise_for_error()
        server.get_object("k").raise_for_error()
        refused = server.configure("heat", top_k=0)
        assert not refused.ok and refused.error == "BAD_CONFIG"
        assert inst.obs.heat.top_k == 8
        assert server.health()["heat"]["hot_keys"] == ["k"]
        summary = server.invoke("heat", "summary").state
        assert summary["config"]["top_k"] == 8

    def test_a_negative_limit_is_bad_config_on_direct_and_router(
        self, registry
    ):
        from repro.core.sharding import ShardedTieraServer

        def server():
            return TieraServer(build_instance(
                registry, [("tier1", "Memcached", 64 * 1024)]
            ))

        for facade in (server(), ShardedTieraServer({"a": server(),
                                                     "b": server()})):
            facade.configure("heat").raise_for_error()
            refused = facade.invoke("heat", "summary", limit=-1)
            assert not refused.ok and refused.error == "BAD_CONFIG"
