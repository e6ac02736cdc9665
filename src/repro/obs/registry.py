"""The metrics registry: labelled counters, gauges, and histograms.

Components record into one :class:`MetricsRegistry` under stable
metric names, and anything — benchmark reports, the RPC ``stats`` verb,
the CLI — reads one coherent snapshot stamped with simulated-clock
time.  Each fact is counted once, in a registry cell: the counts a
component reports (``StorageService.op_counts``, ``ControlLayer.fired``,
the resilience and placement counts, the heat tracker's access counts,
page-cache ``hits``/``misses``) are read-only views over its own cells,
told apart from other owners on the same hub by a hub-unique owner id
(:meth:`repro.obs.hub.Observability.owner`).  Reading a view binds no
child, so it never adds a sample.

Design constraints, in order:

1. **Zero virtual-time cost.**  Recording never touches a
   :class:`~repro.simcloud.resources.RequestContext`, a resource, or an
   RNG, so enabling metrics cannot shift a simulated latency by even a
   nanosecond (the Figure 18 "observer effect" requirement).
2. **Cheap in real time.**  ``counter.child(service=…, op=…)`` and
   ``histogram.child(…)`` resolve the sorted label key once and return
   a bound cell: its ``inc`` is one dict add and its ``observe`` one
   bucket bump; an event reads no clock.  Per-op call sites hold their
   children; the keyword forms (``counter.inc(op="get")``) sort the
   labels into a key on every event, then run the same child code, and
   serve the cold sites.
3. **Self-describing exports.**  :meth:`MetricsRegistry.snapshot`
   returns plain JSON-able data, stamped once with the registry's
   clock; the Prometheus text form lives in :mod:`repro.obs.export`.
   A child creates its sample on its first event, so binding one never
   adds a zero sample.
"""

from __future__ import annotations

from bisect import bisect_left
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

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def label_sets(self) -> List[LabelSet]:
        raise NotImplementedError

    def sample_dict(self) -> Dict[str, object]:
        raise NotImplementedError


class ChildCache(dict):
    """Label value -> whatever ``bind(value)`` returns (a child, or a
    tuple of children), bound on first use.  The per-op sites key their
    children by a dynamic label value (op kind, rule, tier) with one
    dict lookup instead of sorting labels on every event."""

    __slots__ = ("_bind",)

    def __init__(self, bind: Callable[[object], object]):
        super().__init__()
        self._bind = bind

    def __missing__(self, value):
        bound = self[value] = self._bind(value)
        return bound


class CounterChild:
    """One label combination of a :class:`Counter`, resolved once."""

    __slots__ = ("_values", "_key")

    def __init__(self, family: "Counter", key: LabelSet):
        self._values = family._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        values = self._values
        values[self._key] = values.get(self._key, 0.0) + amount

    @property
    def value(self) -> float:
        return self._values.get(self._key, 0.0)

    @property
    def sampled(self) -> bool:
        """Whether this cell has had an event (and so a sample)."""
        return self._key in self._values


class Counter(Metric):
    """A monotonically increasing count, partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}
        self._children = ChildCache(lambda key: CounterChild(self, key))

    def child(self, **labels: str) -> CounterChild:
        """The cell for ``labels``, bound for repeated increments."""
        return self._children[_labelset(labels)]

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._children[_labelset(labels)].inc(amount)

    def value(self, **labels: str) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def total(self, **labels: str) -> float:
        """Sum over every label combination that carries ``labels``."""
        if not labels:
            return sum(self._values.values())
        wanted = set(_labelset(labels))
        return sum(v for key, v in self._values.items() if wanted.issubset(key))

    def label_sets(self) -> List[LabelSet]:
        return sorted(self._values)

    def sample_dict(self) -> Dict[str, object]:
        return {
            _render_labels(ls): value for ls, value in sorted(self._values.items())
        }


def owner_count(family: str) -> property:
    """A read-only int view for a class body: the total of the counter
    attribute ``family`` over the cells labelled ``instance=self.owner``."""
    return property(lambda self: int(getattr(self, family).total(instance=self.owner)))


class Gauge(Metric):
    """A value that can go up and down (tier usage, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_labelset(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

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


class HistogramChild:
    """One label combination of a :class:`Histogram`, resolved once.

    The cell itself is created on the first observation, so a bound
    but unused child adds no sample."""

    __slots__ = ("_family", "_key", "_cell")

    def __init__(self, family: "Histogram", key: LabelSet):
        self._family = family
        self._key = key
        self._cell: Optional[_HistogramCell] = family._cells.get(key)

    def observe(self, value: float) -> None:
        family = self._family
        cell = self._cell
        if cell is None:
            cell = self._cell = family._cells[self._key] = _HistogramCell(
                len(family.buckets) + 1
            )
        # the first bound >= value; past the last bound is the overflow
        cell.counts[bisect_left(family.buckets, value)] += 1
        cell.sum += value
        cell.count += 1
        if len(cell.reservoir) < EXACT_RESERVOIR:
            cell.reservoir.append(value)


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
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._cells: Dict[LabelSet, _HistogramCell] = {}
        self._children = ChildCache(lambda key: HistogramChild(self, key))

    def child(self, **labels: str) -> HistogramChild:
        """The cell for ``labels``, bound for repeated observations."""
        return self._children[_labelset(labels)]

    def observe(self, value: float, **labels: str) -> None:
        self._children[_labelset(labels)].observe(value)

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
        rank = max(1, min(cell.count, nearest_rank(q, cell.count)))
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


def nearest_rank(q: float, count: int) -> int:
    """Nearest-rank index: the smallest rank covering fraction ``q`` of
    ``count`` samples, ``ceil(q * count)``."""
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
            metric = cls(name, help=help, **kwargs)
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

    def forget(self, **labels: str) -> None:
        """Drop the gauge samples carrying ``labels``: a retired owner's
        readings of live state go with it; counters keep their history."""
        wanted = set(_labelset(labels))
        for metric in self._metrics.values():
            if isinstance(metric, Gauge):
                for key in [k for k in metric._values if wanted.issubset(k)]:
                    del metric._values[key]

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
                "samples": metric.sample_dict(),
            }
        return out
