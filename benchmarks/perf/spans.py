"""In-memory span recorder for the traced pass.

The harness measures layers from outside: ``stack.install_tracing``
replaces each layer's public entry points with :meth:`Recorder.wrap`
wrappers.  Every wrapped call is one span — (layer, name, start, end,
the span that caused it, client-op id).  A span's *self time* is its
duration minus the time its child spans cover, so summing self time by
layer splits one op's wall time between the layers with no overlap.

Holding every span of a whole window would cost hundreds of MB and hand
the garbage collector millions of objects to walk, so the recorder
aggregates on span exit (calls, total and self time per trace point and
op kind) and keeps full spans only for the first ``keep_ops`` client
ops; those are what ``trace_<workload>.json`` shows.

Two threads run spans in the RPC workloads: the driver thread (client
side) and the server's connection thread.  They take strict turns, so a
server-thread span with nothing open above it on its own thread was
caused by the client call in flight: it is parented to the driver
thread's outermost open span (``TieraClient._call``, which encloses the
whole round trip, so the child fits inside it), and its duration is
taken out of the self time of the driver thread's *innermost* open span
(the ``read_frame`` blocked on the reply) — a blocked span does not own
the time another thread works on its behalf.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: op kinds the aggregates are split by (index into each point's slots).
GET, PUT, BATCH = 0, 1, 2
KINDS = 3


class Recorder:
    """Aggregating span recorder; one per traced pass."""

    def __init__(self, keep_ops: int = 200):
        self.keep_ops = keep_ops
        #: (layer, name) per trace point, indexed by point id.
        self.points: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        #: per-call durations, only for points wrapped with keep=True.
        self.durations: Dict[int, List[float]] = {}
        #: free-form counters fed by ``tally`` hooks (bytes written, …).
        self.tallies: Dict[str, float] = {}
        #: full spans of the first ``keep_ops`` client ops, as
        #: [point id, start, end, parent span or None, op, thread, self].
        self.kept: List[list] = []
        #: wall time inside driver-thread root spans (span coverage).
        self.root_time = 0.0
        self.active = False
        self.op = -1
        self.kind = GET
        self._driver = threading.get_ident()
        self._stacks: Dict[int, list] = {self._driver: []}

    def begin_op(self, op: int, kind: int) -> None:
        """Name the client op the spans that follow belong to."""
        self.op = op
        self.kind = kind

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        tally: Optional[Callable] = None,
        keep: bool = False,
    ) -> Callable:
        """A timing wrapper around ``fn``, registered as a trace point.

        ``tally(tallies, args)`` runs before the span's clock starts, so
        what it costs lands in no layer.  ``keep`` retains every call's
        duration (for medians of rare, long spans)."""
        pid = len(self.points)
        self.points.append((layer, name))
        self.calls.extend([0] * KINDS)
        self.total.extend([0.0] * KINDS)
        self.self_time.extend([0.0] * KINDS)
        durations = self.durations.setdefault(pid, []) if keep else None
        rec = self
        stacks = self._stacks
        driver = self._driver
        driver_stack = stacks[driver]
        get_ident = threading.get_ident
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if tally is not None:
                tally(rec.tallies, args)
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            span = None
            if rec.op < rec.keep_ops:
                if stack:
                    parent = stack[-1][3]
                elif tid != driver and driver_stack:
                    parent = driver_stack[0][3]
                else:
                    parent = None
                span = [pid, 0.0, 0.0, parent, rec.op, tid, 0.0]
                rec.kept.append(span)
            # frame: point id, start, time covered by children, kept span
            frame = [pid, 0.0, 0.0, span]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - frame[1]
                own = took - frame[2]
                slot = pid * KINDS + rec.kind
                rec.calls[slot] += 1
                rec.total[slot] += took
                rec.self_time[slot] += own
                if durations is not None:
                    durations.append(took)
                if stack:
                    stack[-1][2] += took
                elif tid == driver:
                    rec.root_time += took
                elif driver_stack:
                    driver_stack[-1][2] += took
                if span is not None:
                    span[1] = frame[1]
                    span[2] = end
                    span[6] = own

        return wrapper

    # -- reading the aggregates ------------------------------------------

    def _slots(self, pid: int, kind: Optional[int]):
        if kind is None:
            return range(pid * KINDS, pid * KINDS + KINDS)
        return (pid * KINDS + kind,)

    def _sum(self, series, layer, name, kind) -> float:
        return sum(
            series[slot]
            for pid, (point_layer, point_name) in enumerate(self.points)
            if point_layer == layer and (name is None or point_name == name)
            for slot in self._slots(pid, kind)
        )

    def count(self, layer: str, name: Optional[str] = None) -> int:
        """Calls of one trace point, or of a whole layer."""
        return int(self._sum(self.calls, layer, name, None))

    def seconds(self, layer: str, name: Optional[str] = None) -> float:
        """Total duration of one trace point's spans (children included)."""
        return self._sum(self.total, layer, name, None)

    def self_seconds(
        self, layer: str, name: Optional[str] = None,
        kind: Optional[int] = None,
    ) -> float:
        """Self time of a trace point or layer, optionally for one op kind."""
        return self._sum(self.self_time, layer, name, kind)

    def kept_durations(self, layer: str, name: str) -> List[float]:
        for pid, point in enumerate(self.points):
            if point == (layer, name) and pid in self.durations:
                return self.durations[pid]
        return []

    def layer_table(self, ops: int) -> Dict[str, Dict[str, float]]:
        """Per-layer aggregate written next to the kept spans."""
        table: Dict[str, Dict[str, float]] = {}
        for layer in sorted({layer for layer, _ in self.points}):
            table[layer] = {
                "calls_per_op": self.count(layer) / ops,
                "self_us_per_op": self.self_seconds(layer) * 1e6 / ops,
            }
        return table

    def kept_spans(self) -> List[Dict[str, object]]:
        """The kept spans as JSON-able dicts; ``parent`` is an index into
        this list (-1 for a root), times are seconds from the first span."""
        index = {id(span): i for i, span in enumerate(self.kept)}
        origin = min((span[1] for span in self.kept), default=0.0)
        threads: Dict[int, int] = {self._driver: 0}
        out = []
        for span in self.kept:
            layer, name = self.points[span[0]]
            parent = span[3]
            out.append({
                "layer": layer,
                "name": name,
                "start": span[1] - origin,
                "end": span[2] - origin,
                "parent": index[id(parent)] if parent is not None else -1,
                "op": span[4],
                "thread": threads.setdefault(span[5], len(threads)),
                "self_us": span[6] * 1e6,
            })
        return out
