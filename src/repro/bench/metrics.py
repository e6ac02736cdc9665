"""Latency and throughput metrics.

The paper reports transactions/sec, web interactions/sec, average and
95th-percentile latency, and several time-series plots (Figures 16 and
17).  :class:`LatencyRecorder` handles the scalar statistics;
:class:`TimeSeries` buckets samples over time for the plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.registry import nearest_rank


class LatencyRecorder:
    """Accumulates latency samples, optionally labelled by operation."""

    def __init__(self):
        self._samples: List[float] = []
        self._by_label: Dict[str, List[float]] = {}

    def record(self, latency: float, label: Optional[str] = None) -> None:
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self._samples.append(latency)
        if label is not None:
            self._by_label.setdefault(label, []).append(latency)

    def merge(self, other: "LatencyRecorder") -> None:
        self._samples.extend(other._samples)
        for label, samples in other._by_label.items():
            self._by_label.setdefault(label, []).extend(samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def labels(self) -> List[str]:
        return sorted(self._by_label)

    def _data(self, label: Optional[str]) -> List[float]:
        if label is None:
            return self._samples
        return self._by_label.get(label, [])

    def mean(self, label: Optional[str] = None) -> float:
        data = self._data(label)
        return sum(data) / len(data) if data else 0.0

    def percentile(self, p: float, label: Optional[str] = None) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        data = sorted(self._data(label))
        if not data:
            return 0.0
        rank = max(1, nearest_rank(p / 100.0, len(data)))
        return data[rank - 1]

    def p95(self, label: Optional[str] = None) -> float:
        return self.percentile(95, label)

    def maximum(self, label: Optional[str] = None) -> float:
        data = self._data(label)
        return max(data) if data else 0.0

    def count_for(self, label: str) -> int:
        return len(self._by_label.get(label, []))


class TimeSeries:
    """Samples bucketed into fixed intervals (for Figures 16 and 17)."""

    def __init__(self, bucket_seconds: float):
        if bucket_seconds <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[int, List[float]] = {}

    def record(self, at: float, value: float) -> None:
        self._buckets.setdefault(int(at // self.bucket_seconds), []).append(value)

    def buckets(self) -> List[Tuple[float, List[float]]]:
        """(bucket start time, samples) in time order."""
        return [
            (index * self.bucket_seconds, self._buckets[index])
            for index in sorted(self._buckets)
        ]

    def means(self) -> List[Tuple[float, float]]:
        return [
            (start, sum(samples) / len(samples))
            for start, samples in self.buckets()
        ]

    def counts(self) -> List[Tuple[float, int]]:
        return [(start, len(samples)) for start, samples in self.buckets()]

    def rate(self) -> List[Tuple[float, float]]:
        """Events per second in each bucket (Figure 17's ops/sec)."""
        return [
            (start, len(samples) / self.bucket_seconds)
            for start, samples in self.buckets()
        ]
