"""The metrics registry: counters, gauges, histograms, collectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import (
    EXACT_RESERVOIR,
    ChildCache,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.simcloud.clock import SimClock


class TestCounter:
    def test_unlabelled_increment(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        assert counter.total() == 3.5

    def test_labels_partition_values(self):
        counter = Counter("c")
        counter.inc(op="get", service="mem")
        counter.inc(op="put", service="mem")
        counter.inc(op="get", service="mem")
        assert counter.value(op="get", service="mem") == 2
        assert counter.value(op="put", service="mem") == 1
        assert counter.value(op="get", service="ebs") == 0
        assert counter.total() == 3

    def test_label_order_does_not_matter(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2

    def test_counters_only_go_up(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_sample_dict_renders_labels(self):
        counter = Counter("c")
        counter.inc(op="get", tier="t1")
        assert counter.sample_dict() == {"op=get,tier=t1": 1.0}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10, tier="t1")
        gauge.inc(5, tier="t1")
        gauge.dec(2, tier="t1")
        assert gauge.value(tier="t1") == 13

    def test_gauges_can_go_negative(self):
        gauge = Gauge("g")
        gauge.dec(3)
        assert gauge.value() == -3


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)  # overflow
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)
        assert hist.cumulative() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_mean(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.mean() == 0.0
        hist.observe(0.2)
        hist.observe(0.4)
        assert hist.mean() == pytest.approx(0.3)

    def test_boundary_value_counts_in_lower_bucket(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.1)
        assert hist.cumulative() == [(0.1, 1), (1.0, 1), (float("inf"), 1)]

    def test_labelled_cells_independent(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5, op="get")
        hist.observe(0.7, op="put")
        assert hist.count(op="get") == 1
        assert hist.count(op="put") == 1
        assert hist.count(op="delete") == 0

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestBoundChildren:
    """``child(**labels)`` is the keyword form with the key resolved
    once: the same events give the same registry."""

    LABELS = [{}, {"op": "get"}, {"op": "put"}, {"op": "get", "svc": "a"}]

    @staticmethod
    def _replay(events, bound):
        clock = SimClock()
        registry = MetricsRegistry(clock)
        counter = registry.counter("c")
        hist = registry.histogram("h")
        children = {}
        if bound:  # bind every label set, used or not, before any event
            for i, labels in enumerate(TestBoundChildren.LABELS):
                children["c", i] = counter.child(**labels)
                children["h", i] = hist.child(**labels)
        for kind, i, value, repeat, step in events:
            labels = TestBoundChildren.LABELS[i]
            for _ in range(repeat):
                clock.advance(step)
                if kind == "c":
                    if bound:
                        children["c", i].inc(value)
                    else:
                        counter.inc(value, **labels)
                elif bound:
                    children["h", i].observe(value)
                else:
                    hist.observe(value, **labels)
        reservoirs = {
            key: list(cell.reservoir) for key, cell in hist._cells.items()
        }
        return registry.snapshot(), reservoirs

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["c", "h"]),
                st.integers(0, len(LABELS) - 1),
                st.floats(0.0, 10.0, allow_nan=False),
                st.sampled_from([1, 1, 2, 50, EXACT_RESERVOIR + 3]),
                st.sampled_from([0.0, 1e-4, 0.5]),
            ),
            max_size=12,
        )
    )
    def test_children_record_what_keyword_calls_record(self, events):
        assert self._replay(events, bound=True) == self._replay(
            events, bound=False
        )

    def test_unused_child_adds_no_sample(self):
        registry = MetricsRegistry(SimClock())
        registry.counter("c").child(op="get")
        registry.histogram("h").child(op="get")
        for family in registry.snapshot()["metrics"].values():
            assert family["samples"] == {}
            assert "last_updated" not in family

    def test_child_refuses_negative_amounts(self):
        counter = Counter("c")
        child = counter.child(op="get")
        with pytest.raises(ValueError):
            child.inc(-1)
        assert counter.sample_dict() == {} and not child.sampled

    def test_child_is_shared_with_the_keyword_form(self):
        counter = Counter("c")
        child = counter.child(op="get", svc="a")
        counter.inc(svc="a", op="get")
        child.inc(2)
        assert child.value == counter.value(op="get", svc="a") == 3
        assert counter.child(svc="a", op="get") is child

    def test_child_cache_binds_each_label_value_once(self):
        counter = Counter("c")
        binds = []
        cells = ChildCache(lambda op: binds.append(op) or counter.child(op=op))
        for op in ("get", "put", "get"):
            cells[op].inc()
        assert binds == ["get", "put"]
        assert counter.value(op="get") == 2 and cells.get("delete") is None

    def test_child_observation_lands_in_the_covering_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        child = hist.child()
        for value in (0.5, 1.0, 1.5, 2.0, 9.0):
            child.observe(value)
        assert hist.cumulative() == [(1.0, 2), (2.0, 4), (float("inf"), 5)]


class TestMetricsRegistry:
    def test_families_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_stamped_with_simulated_time(self):
        clock = SimClock()
        registry = MetricsRegistry(clock)
        counter = registry.counter("x", "a test counter")
        clock.advance(12.5)
        counter.inc()
        snap = registry.snapshot()
        assert snap["time"] == 12.5
        family = snap["metrics"]["x"]
        assert family["type"] == "counter"
        assert family["help"] == "a test counter"
        assert "last_updated" not in family
        assert family["samples"] == {"": 1.0}

    def test_collectors_run_before_snapshot(self):
        registry = MetricsRegistry()

        def collect(reg):
            reg.gauge("fill").set(42)

        registry.add_collector(collect)
        snap = registry.snapshot()
        assert snap["metrics"]["fill"]["samples"] == {"": 42.0}

        registry.remove_collector(collect)
        registry.gauge("fill").set(0)
        snap = registry.snapshot()
        assert snap["metrics"]["fill"]["samples"] == {"": 0.0}

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]
        assert [m.name for m in registry] == ["a", "b"]


def test_every_metric_family_in_src_is_named_in_docs():
    """The first third of the metrics lint (ROADMAP item 5): a family
    registered or read anywhere in ``src/`` is documented somewhere in
    ``docs/``, spelled out in full."""
    import os
    import re

    root = os.path.join(os.path.dirname(__file__), "..", "..")

    def read_all(folder, suffix):
        text = ""
        for parent, _, files in os.walk(os.path.join(root, folder)):
            for name in sorted(files):
                if name.endswith(suffix):
                    with open(os.path.join(parent, name)) as handle:
                        text += handle.read()
        return text

    families = set(re.findall(r'"(tiera_[a-z0-9_]+)"', read_all("src", ".py")))
    docs = read_all("docs", ".md")
    assert len(families) > 50
    assert sorted(f for f in families if f not in docs) == []
