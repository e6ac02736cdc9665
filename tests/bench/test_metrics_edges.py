"""Edge cases of the benchmark metrics primitives.

The figure-level tests exercise the happy paths; these pin the corner
behaviors the runner and reports rely on: empty time series, the
percentile extremes, and merges that must keep label partitions apart.
"""

import math

import pytest

from repro.bench.metrics import LatencyRecorder, TimeSeries
from repro.obs.registry import nearest_rank


class TestTimeSeriesRate:
    def test_rate_with_no_samples_is_empty(self):
        series = TimeSeries(5.0)
        assert series.rate() == []
        assert series.buckets() == []
        assert series.means() == []

    def test_rate_skips_empty_buckets_between_samples(self):
        series = TimeSeries(1.0)
        series.record(0.5, 1.0)
        series.record(3.5, 1.0)  # buckets 1 and 2 never materialize
        assert series.rate() == [(0.0, 1.0), (3.0, 1.0)]

    def test_rate_divides_by_bucket_width(self):
        series = TimeSeries(4.0)
        for at in (0.0, 1.0, 2.0, 3.0):
            series.record(at, 1.0)
        assert series.rate() == [(0.0, 1.0)]  # 4 events / 4 s

    def test_nonpositive_bucket_width_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0)


class TestPercentileExtremes:
    def test_percentile_0_returns_minimum(self):
        recorder = LatencyRecorder()
        for value in (0.5, 0.1, 0.9):
            recorder.record(value)
        assert recorder.percentile(0) == 0.1

    def test_percentile_100_returns_maximum(self):
        recorder = LatencyRecorder()
        for value in (0.5, 0.1, 0.9):
            recorder.record(value)
        assert recorder.percentile(100) == 0.9

    def test_percentile_on_empty_recorder_is_zero(self):
        recorder = LatencyRecorder()
        assert recorder.percentile(0) == 0.0
        assert recorder.percentile(100) == 0.0

    def test_percentile_out_of_range_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(-1)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_single_sample_every_percentile(self):
        recorder = LatencyRecorder()
        recorder.record(0.25)
        assert recorder.percentile(0) == 0.25
        assert recorder.percentile(50) == 0.25
        assert recorder.percentile(100) == 0.25

    def test_nearest_rank_is_the_ceiling_rule(self):
        """The recorder, the histograms and the SLO windows share one
        rank rule; it must pick the rank ``math.ceil`` picks, or records
        written before they shared it would move."""
        for count in range(1, 202):
            for p in (0, 1, 5, 10, 33.3, 50, 66.7, 90, 95, 99, 99.9, 100):
                assert nearest_rank(p / 100.0, count) == math.ceil(
                    p / 100.0 * count
                )


class TestMergeLabelPartitions:
    def test_merge_keeps_labels_apart(self):
        left = LatencyRecorder()
        left.record(0.1, "read")
        left.record(0.4, "write")
        right = LatencyRecorder()
        right.record(0.2, "read")
        right.record(0.8, "write")

        left.merge(right)
        assert left.count == 4
        assert left.labels() == ["read", "write"]
        assert left.count_for("read") == 2
        assert left.count_for("write") == 2
        assert left.mean("read") == pytest.approx(0.15)
        assert left.mean("write") == pytest.approx(0.6)

    def test_merge_introduces_new_labels(self):
        left = LatencyRecorder()
        left.record(0.1, "read")
        right = LatencyRecorder()
        right.record(0.3, "delete")

        left.merge(right)
        assert left.labels() == ["delete", "read"]
        assert left.count_for("delete") == 1
        assert left.maximum("delete") == 0.3

    def test_merge_unlabelled_samples_count_globally_only(self):
        left = LatencyRecorder()
        left.record(0.1, "read")
        right = LatencyRecorder()
        right.record(0.2)  # no label

        left.merge(right)
        assert left.count == 2
        assert left.labels() == ["read"]
        assert left.count_for("read") == 1
        assert left.mean() == pytest.approx(0.15)

    def test_merge_does_not_mutate_source(self):
        left = LatencyRecorder()
        right = LatencyRecorder()
        right.record(0.2, "read")

        left.merge(right)
        left.record(0.4, "read")
        assert right.count == 1
        assert right.count_for("read") == 1
