"""The metrics registry: labelled counters, gauges, and histograms.

Components record into one :class:`MetricsRegistry` under stable
metric names, and anything — benchmark reports, the RPC ``stats`` verb,
the CLI — reads one coherent snapshot stamped with simulated-clock
time.  The hand-rolled tallies that predate it
(``StorageService.op_counts``, ``ControlLayer.fired``, page-cache
hit/miss attributes) are still kept beside it, written alongside the
matching ``tiera_*`` families; they are not views over the registry.

Design constraints, in order:

1. **Zero virtual-time cost.**  Recording never touches a
   :class:`~repro.simcloud.resources.RequestContext`, a resource, or an
   RNG, so enabling metrics cannot shift a simulated latency by even a
   nanosecond (the Figure 18 "observer effect" requirement).
2. **Cheap in real time.**  A labelled increment sorts its keyword
   labels into a tuple key, then does one dict read and one dict write
   (plus a clock read for ``last_updated``).  There is no pre-resolved
   label child: hot paths pay the key construction on every event —
   pre-bound cells are ROADMAP item 5's to add.
3. **Self-describing exports.**  :meth:`MetricsRegistry.snapshot`
   returns plain JSON-able data; the Prometheus text form lives in
   :mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.simcloud.clock import Clock

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, in seconds: spans memcached hits (~100 µs)
#: through S3 round trips (tens of ms) up to the 5 s failure timeout.
DEFAULT_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 5.0
)

#: Per-cell exact-sample reservoir: the first N observations are kept
#: verbatim, so quantiles over small samples are exact instead of
#: bucket-interpolated (bucket edges are coarse below ~100 samples).
EXACT_RESERVOIR = 128


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base for one named metric family (all label combinations)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", clock: Optional[Clock] = None):
        self.name = name
        self.help = help
        self._clock = clock
        self.last_updated: Optional[float] = None

    def _stamp(self) -> None:
        if self._clock is not None:
            self.last_updated = self._clock.now()

    def label_sets(self) -> List[LabelSet]:
        raise NotImplementedError

    def sample_dict(self) -> Dict[str, object]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count, partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", clock: Optional[Clock] = None):
        super().__init__(name, help, clock)
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount
        self._stamp()

    def value(self, **labels: str) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def label_sets(self) -> List[LabelSet]:
        return sorted(self._values)

    def sample_dict(self) -> Dict[str, object]:
        return {
            _render_labels(ls): value for ls, value in sorted(self._values.items())
        }


class Gauge(Metric):
    """A value that can go up and down (tier usage, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", clock: Optional[Clock] = None):
        super().__init__(name, help, clock)
        self._values: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_labelset(labels)] = float(value)
        self._stamp()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount
        self._stamp()

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def label_sets(self) -> List[LabelSet]:
        return sorted(self._values)

    def sample_dict(self) -> Dict[str, object]:
        return {
            _render_labels(ls): value for ls, value in sorted(self._values.items())
        }


class _HistogramCell:
    __slots__ = ("counts", "sum", "count", "reservoir")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative) counts
        self.sum = 0.0
        self.count = 0
        #: the first EXACT_RESERVOIR raw observations, for exact
        #: small-sample quantiles.  Once ``count`` outgrows it the
        #: reservoir stops being representative and quantiles fall back
        #: to bucket interpolation.
        self.reservoir: List[float] = []


class Histogram(Metric):
    """A distribution over fixed buckets, partitioned by labels.

    Buckets are upper bounds (``le`` in Prometheus terms); observations
    above the last bound land in the implicit ``+Inf`` overflow.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        clock: Optional[Clock] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, clock)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._cells: Dict[LabelSet, _HistogramCell] = {}

    def _cell(self, labels: Dict[str, str]) -> _HistogramCell:
        key = _labelset(labels)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _HistogramCell(len(self.buckets) + 1)
        return cell

    def observe(self, value: float, **labels: str) -> None:
        cell = self._cell(labels)
        idx = len(self.buckets)  # overflow by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        cell.counts[idx] += 1
        cell.sum += value
        cell.count += 1
        if len(cell.reservoir) < EXACT_RESERVOIR:
            cell.reservoir.append(value)
        self._stamp()

    def count(self, **labels: str) -> int:
        cell = self._cells.get(_labelset(labels))
        return cell.count if cell else 0

    def sum(self, **labels: str) -> float:
        cell = self._cells.get(_labelset(labels))
        return cell.sum if cell else 0.0

    def mean(self, **labels: str) -> float:
        cell = self._cells.get(_labelset(labels))
        if not cell or not cell.count:
            return 0.0
        return cell.sum / cell.count

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of a cell.

        While the cell holds no more observations than its exact-sample
        reservoir, the answer is the exact nearest-rank quantile over
        the raw values.  Beyond that it falls back to linear
        interpolation within the covering bucket; observations in the
        ``+Inf`` overflow bucket report the last finite bound (the
        Prometheus convention).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        cell = self._cells.get(_labelset(labels))
        if cell is None or cell.count == 0:
            return 0.0
        rank = max(1, min(cell.count, _ceil_rank(q, cell.count)))
        if cell.count <= len(cell.reservoir):
            return sorted(cell.reservoir)[rank - 1]
        running = 0
        lower = 0.0
        for bound, n in zip(self.buckets, cell.counts):
            if running + n >= rank:
                fraction = (rank - running) / n
                return lower + (bound - lower) * fraction
            running += n
            lower = bound
        return self.buckets[-1]

    def percentile(self, p: float, **labels: str) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100] (see :meth:`quantile`)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        return self.quantile(p / 100.0, **labels)

    def cumulative(self, **labels: str) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        cell = self._cells.get(_labelset(labels))
        if cell is None:
            return []
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, cell.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + cell.counts[-1]))
        return out

    def label_sets(self) -> List[LabelSet]:
        return sorted(self._cells)

    def sample_dict(self) -> Dict[str, object]:
        """JSON-safe per-cell state: count, sum, cumulative buckets (the
        overflow bound rendered as the string ``"+Inf"`` so snapshots
        survive strict JSON), and precomputed p50/p95/p99."""
        out: Dict[str, object] = {}
        for ls, cell in sorted(self._cells.items()):
            labels = dict(ls)
            buckets: List[List[object]] = []
            running = 0
            for bound, n in zip(self.buckets, cell.counts):
                running += n
                buckets.append([bound, running])
            buckets.append(["+Inf", cell.count])
            out[_render_labels(ls)] = {
                "count": cell.count,
                "sum": cell.sum,
                "buckets": buckets,
                "p50": self.quantile(0.50, **labels),
                "p95": self.quantile(0.95, **labels),
                "p99": self.quantile(0.99, **labels),
            }
        return out


def _ceil_rank(q: float, count: int) -> int:
    """Nearest-rank index: the smallest rank covering fraction ``q``."""
    rank = int(q * count)
    if rank < q * count:
        rank += 1
    return rank


def _render_labels(labelset: LabelSet) -> str:
    """``(("op","get"),("service","s3-1"))`` → ``op=get,service=s3-1``.

    ``\\``, ``,``, and ``=`` inside a key or value are backslash-escaped
    so arbitrary label text (object keys in the heat gauges) stays
    unambiguous; :func:`repro.obs.export.parse_labels` is the inverse.
    """
    def esc(text: str) -> str:
        return (
            text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
        )

    return ",".join(f"{esc(k)}={esc(v)}" for k, v in labelset)


class MetricsRegistry:
    """All metric families of one simulated stack, by name.

    Families are created on first use (``registry.counter("x")``) and
    re-fetched idempotently; asking for an existing name with a
    different type is an error.  ``collectors`` are callbacks run just
    before a snapshot so gauges sampled from live state (tier fill,
    object counts) are fresh without polling.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- family accessors ---------------------------------------------------

    def _family(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help=help, clock=self.clock, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    # -- collectors ---------------------------------------------------------

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        self._collectors.append(fn)

    def remove_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        if fn in self._collectors:
            self._collectors.remove(fn)

    def collect(self) -> None:
        for fn in list(self._collectors):
            fn(self)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able state of every family, collectors freshly run."""
        self.collect()
        out: Dict[str, object] = {
            "time": self.clock.now() if self.clock is not None else None,
            "metrics": {},
        }
        for metric in self:
            out["metrics"][metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "last_updated": metric.last_updated,
                "samples": metric.sample_dict(),
            }
        return out
