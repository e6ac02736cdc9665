"""Common machinery for simulated storage services.

Every service is a key→bytes store with a latency model, an FCFS
resource bank (contention), usage accounting, per-operation counters,
and a failure switch.  Failures follow the paper's Figure 17 scenario:
a failed service *times out* — the request spends the full timeout on
its virtual timeline and then raises
:class:`~repro.simcloud.errors.ServiceUnavailableError`.

The service's ordered ``_data`` is the only record of what it holds
and in what recency order (least recently used first): the tier above
marks recency with :meth:`StorageService.touch` and reads it back
through :meth:`~StorageService.lru_key` / :meth:`~StorageService.mru_key`.
Offline work — fsck, snapshot restore, crash simulation, bit rot — goes
through :meth:`~StorageService.peek`, :meth:`~StorageService.contents`,
:meth:`~StorageService.install` and :meth:`~StorageService.erase`, which
spend no virtual time and count nothing.  Nothing outside this package
reads or writes ``_data`` / ``_used``.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, Iterator, Optional, Tuple

from repro.obs.registry import (
    ChildCache,
    CounterChild,
    HistogramChild,
    MetricsRegistry,
)

from repro.simcloud.clock import Clock
from repro.simcloud.errors import (
    CapacityExceededError,
    NoSuchKeyError,
    ServiceUnavailableError,
)
from repro.simcloud.cluster import Node
from repro.simcloud.latency import LatencyModel
from repro.simcloud.pricing import CostMeter
from repro.simcloud.resources import RequestContext, Resource

REQUEST_TIMEOUT = 5.0  # seconds spent before a failed service errors out

#: one op kind's ops, bytes and seconds children plus its CostMeter key
_OpCells = Tuple[CounterChild, CounterChild, HistogramChild, str]


class _OpCounts(Mapping):
    """``op -> requests`` of one service: a read-only view over its
    ``tiera_tier_ops_total`` cells (ops never counted are absent)."""

    __slots__ = ("_cells",)

    def __init__(self, cells: Dict[str, _OpCells]):
        self._cells = cells

    def __getitem__(self, op: str) -> int:
        cells = self._cells.get(op)
        if cells is None or not cells[0].sampled:
            raise KeyError(op)
        return int(cells[0].value)

    def __iter__(self) -> Iterator[str]:
        return (op for op, cells in self._cells.items() if cells[0].sampled)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(dict(self))


class StorageService:
    """Base simulated storage service (key → immutable bytes)."""

    #: pricing/classification kind: memcached | ebs | s3 | ephemeral
    kind: str = "generic"
    #: keeps its bytes when its host fails or restarts?
    durable: bool = True

    def __init__(
        self,
        name: str,
        node: Node,
        clock: Clock,
        latency: LatencyModel,
        capacity: Optional[int] = None,
        channels: int = 1,
        rng: Optional[random.Random] = None,
        meter: Optional[CostMeter] = None,
        timeout: float = REQUEST_TIMEOUT,
        obs=None,
        faults=None,
    ):
        self.name = name
        self.node = node
        self.clock = clock
        self.latency = latency
        self.capacity = capacity  # None means unlimited (S3)
        self.resource = Resource(f"{name}.resource", channels=channels)
        self.rng = rng if rng is not None else random.Random(0)
        self.meter = meter
        self.timeout = timeout
        self.failed = False
        #: key -> bytes, least recently used first
        self._data: "OrderedDict[str, bytes]" = OrderedDict()
        self._used = 0
        #: fault-injection engine (repro.simcloud.faults) — optional;
        #: when present, every operation offers the injector a hook.
        self.faults = faults
        #: observability hub (repro.obs) — optional; when present every
        #: operation lands in its metrics registry under stable names.  A
        #: bare service records into a private registry instead, which
        #: ``op_counts`` reads.
        self.obs = obs
        metrics = obs.metrics if obs is not None else MetricsRegistry(clock)
        self._ops_total = metrics.counter(
            "tiera_tier_ops_total",
            "Operations performed against each storage service.",
        )
        self._op_bytes = metrics.counter(
            "tiera_tier_op_bytes_total",
            "Payload bytes moved per service and operation.",
        )
        self._op_seconds = metrics.histogram(
            "tiera_tier_op_seconds",
            "Simulated seconds per operation (queueing included).",
        )
        self._timeouts = metrics.counter(
            "tiera_service_timeouts_total",
            "Requests that timed out against a failed service.",
        ).child(service=name)
        #: op -> its ops, bytes and seconds children + CostMeter key
        self._op_cells = ChildCache(self._bind_op)
        self.op_counts: Mapping[str, int] = _OpCounts(self._op_cells)
        node.services.append(self)

    # -- accounting ------------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes currently stored."""
        return self._used

    @property
    def free(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - self._used

    def room(self, key: str) -> Optional[int]:
        """The most bytes a put of ``key`` may store: the free bytes plus
        what ``key`` holds now; ``None`` when capacity is unlimited."""
        if self.capacity is None:
            return None
        held = self._data.get(key)
        return self.capacity - self._used + (0 if held is None else len(held))

    def _bind_op(self, op: str) -> "_OpCells":
        labels = {"service": self.name, "op": op}
        return (
            self._ops_total.child(**labels),
            self._op_bytes.child(**labels),
            self._op_seconds.child(**labels),
            f"{self.kind}.{op}",
        )

    def _count(self, op: str) -> "_OpCells":
        """Count one request of kind ``op`` (registry and cost meter);
        returns the op's cells for the caller's bytes and seconds."""
        cells = self._op_cells[op]
        cells[0].inc()
        if self.meter is not None:
            self.meter.record(cells[3])
        return cells

    # -- failure injection ------------------------------------------------

    def fail(self) -> None:
        """Make every subsequent operation time out (Figure 17)."""
        self.failed = True
        self.crash()

    def recover(self) -> None:
        self.failed = False

    def crash(self) -> None:
        """The host died or restarted: a volatile store (memcached, an
        ephemeral disk) comes back empty, a durable one keeps its bytes.
        The one rule for volatile loss — service failure, node failure
        and a simulated process crash all apply it."""
        if not self.durable:
            self.wipe()

    def wipe(self) -> None:
        """Drop every key (offline: no virtual time, no counters)."""
        self._data.clear()
        self._used = 0

    @property
    def available(self) -> bool:
        return not self.failed and not self.node.failed

    def _op_multiplier(self, op: str) -> float:
        """Service-time scaling per op kind (EBS barrier writes, etc.)."""
        return 1.0

    def _perform(self, op: str, nbytes: int, ctx: RequestContext) -> None:
        """Charge one operation's time; raise if the service is down."""
        if not self.available:
            ctx.wait(self.timeout)
            self._timeouts.inc()
            raise ServiceUnavailableError(
                self.name, node=self.node.name, zone=self.node.zone.name
            )
        start = ctx.time
        service_time = self.latency.sample(self.rng, nbytes)
        multiplier = self._op_multiplier(op)
        if multiplier != 1.0:
            service_time *= multiplier
        if self.faults is not None and self.faults.active:
            # The injector may inflate the service time (latency spike,
            # gray degradation) or abort the op (transient error, flap
            # downtime) after charging its cost to the virtual timeline.
            service_time = self.faults.before_op(
                self, op, nbytes, service_time, ctx
            )
        ctx.use(self.resource, service_time)
        _, op_bytes, op_seconds, _ = self._count(op)
        if nbytes:
            op_bytes.inc(nbytes)
        op_seconds.observe(ctx.time - start)

    # -- the storage API ---------------------------------------------------

    def put(self, key: str, data: bytes, ctx: RequestContext) -> None:
        """Store ``data`` under ``key`` (overwrite allowed)."""
        room = self.room(key)
        if room is not None and len(data) > room:
            # Reject before spending device time: provisioned stores fail
            # fast on ENOSPC, and the Tiera policy layer is responsible
            # for making room (eviction) before storing.
            free = self.free
            raise CapacityExceededError(
                self.name, needed=len(data) - room + free, available=free
            )
        self._perform("put", len(data), ctx)
        self._used += len(data) - len(self._data.get(key, b""))
        self._data[key] = data

    def get(self, key: str, ctx: RequestContext) -> bytes:
        if key not in self._data:
            # A miss still costs a round trip.
            self._perform("miss", 0, ctx)
            raise NoSuchKeyError(self.name, key)
        data = self._data[key]
        self._perform("get", len(data), ctx)
        if self.faults is not None and self.faults.active:
            # Bit-rot hook: may silently corrupt the stored copy.
            data = self.faults.on_read(self, key, data)
        return data

    def delete(self, key: str, ctx: RequestContext) -> None:
        if key not in self._data:
            self._perform("miss", 0, ctx)
            raise NoSuchKeyError(self.name, key)
        self._perform("delete", 0, ctx)
        self._used -= len(self._data.pop(key))

    def contains(self, key: str) -> bool:
        """Metadata-only membership check (no simulated time)."""
        return key in self._data

    def size_of(self, key: str) -> int:
        if key not in self._data:
            raise NoSuchKeyError(self.name, key)
        return len(self._data[key])

    def keys(self):
        return self._data.keys()

    # -- recency (the tier's LRU) -----------------------------------------

    def touch(self, key: str) -> None:
        """Mark ``key`` (held) the most recently used."""
        self._data.move_to_end(key)

    def lru_key(self) -> Optional[str]:
        """Least-recently-used key, or ``None`` when empty."""
        return next(iter(self._data), None)

    def mru_key(self) -> Optional[str]:
        """Most-recently-used key, or ``None`` when empty."""
        return next(reversed(self._data), None)

    # -- offline access (no virtual time, no counters) ---------------------

    def peek(self, key: str) -> Optional[bytes]:
        """The stored bytes of ``key``, or ``None`` when absent."""
        return self._data.get(key)

    def contents(self) -> Dict[str, bytes]:
        """A copy of everything held, ``key -> bytes``."""
        return dict(self._data)

    def install(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` with no capacity check.  An
        existing key keeps its recency; a new key becomes the most
        recent."""
        old = self._data.get(key)
        if old is not None:
            self._used -= len(old)
        self._data[key] = data
        self._used += len(data)

    def erase(self, key: str) -> None:
        """Drop ``key`` if held."""
        data = self._data.pop(key, None)
        if data is not None:
            self._used -= len(data)

    def resize(self, new_capacity: int) -> None:
        """Change provisioned capacity; shrinking below usage is refused."""
        if new_capacity < self._used:
            raise CapacityExceededError(
                self.name, needed=self._used, available=new_capacity
            )
        self.capacity = new_capacity

    def __repr__(self) -> str:
        cap = "∞" if self.capacity is None else str(self.capacity)
        return f"<{type(self).__name__} {self.name} used={self._used}/{cap}>"
