"""The metrics registry: counters, gauges, histograms, collectors."""

import pytest

from repro.obs.registry import (
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
        assert family["last_updated"] == 12.5
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
