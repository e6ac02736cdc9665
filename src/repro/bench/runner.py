"""Closed-loop load driver over the virtual timeline.

Simulates N concurrent clients, each issuing its next request the
moment the previous one completes (plus optional think time) — the
model behind "8 threads" of sysbench or "25 emulated browsers" of
TPC-W.  The driver keeps the simulation honest by advancing the
:class:`~repro.simcloud.clock.SimClock` to each request's issue instant
before running it, so timer events and background responses interleave
with client requests in true time order, and requests contend on the
services' virtual-time resources.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.bench.metrics import LatencyRecorder, TimeSeries
from repro.core.errors import TieraError
from repro.simcloud.clock import SimClock
from repro.simcloud.errors import SimCloudError
from repro.simcloud.resources import RequestContext

# op_fn(client_id, ctx) -> optional label for per-operation metrics
OpFn = Callable[[int, RequestContext], Optional[str]]


@dataclass
class RunResult:
    """What a closed-loop run produced."""

    duration: float
    operations: int = 0
    errors: int = 0
    latencies: LatencyRecorder = field(default_factory=LatencyRecorder)
    throughput_series: Optional[TimeSeries] = None
    latency_series: Optional[TimeSeries] = None
    #: per-tier activity over the run (repro.obs.export.tier_report):
    #: ops per service, simulated seconds per service, GETs served per
    #: tier, page-cache hits/misses — populated when ``obs`` was passed.
    tier_report: Optional[dict] = None

    @property
    def throughput(self) -> float:
        """Successful operations per second over the measured window."""
        return self.operations / self.duration if self.duration > 0 else 0.0


def run_closed_loop(
    clock: SimClock,
    clients: int,
    duration: float,
    op_fn: OpFn,
    think_time: float = 0.0,
    warmup: float = 0.0,
    series_bucket: Optional[float] = None,
    start_stagger: float = 0.0,
    obs=None,
) -> RunResult:
    """Drive ``clients`` closed-loop clients for ``duration`` seconds.

    The measured window is ``[start + warmup, start + duration]``;
    operations completing inside it are recorded.  ``series_bucket``
    additionally produces per-bucket throughput and mean-latency series
    (measured from the run's start, including warmup, since the
    time-series figures plot the whole window).  Failed operations
    (Tiera/cloud errors) count as errors; the client retries its next
    request after the failure's elapsed time plus think time.

    Passing the stack's :class:`~repro.obs.hub.Observability` as ``obs``
    attaches a per-tier breakdown (ops, simulated seconds, GETs served,
    cache hit/miss) for the run window to ``RunResult.tier_report``.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    if duration <= 0:
        raise ValueError("duration must be positive")
    before_snapshot = obs.metrics.snapshot() if obs is not None else None
    start = clock.now()
    end = start + duration
    measure_from = start + warmup
    result = RunResult(duration=duration - warmup)
    if series_bucket is not None:
        result.throughput_series = TimeSeries(series_bucket)
        result.latency_series = TimeSeries(series_bucket)

    # (next issue time, client id) — stagger optional to avoid lockstep.
    heap: List[Tuple[float, int]] = [
        (start + i * start_stagger, i) for i in range(clients)
    ]
    heapq.heapify(heap)

    while heap:
        issue_at, client = heapq.heappop(heap)
        if issue_at >= end:
            continue
        # Fire timers/background work due before this request starts.
        if issue_at > clock.now():
            clock.run_until(issue_at)
        ctx = RequestContext(clock, at=issue_at)
        failed = False
        label: Optional[str] = None
        try:
            label = op_fn(client, ctx)
        except (TieraError, SimCloudError):
            failed = True
        finished = ctx.time
        relative = finished - start
        if failed:
            result.errors += 1
        elif finished <= end and finished >= measure_from:
            result.operations += 1
            result.latencies.record(ctx.elapsed, label)
            if result.throughput_series is not None:
                result.throughput_series.record(relative, 1.0)
                result.latency_series.record(relative, ctx.elapsed)
        heapq.heappush(heap, (finished + think_time, client))

    if clock.now() < end:
        clock.run_until(end)
    if obs is not None:
        from repro.obs.export import tier_report

        result.tier_report = tier_report(before_snapshot, obs.metrics.snapshot())
    return result


def run_pipelined(
    clock: SimClock,
    server,
    op_source,
    operations: int,
    depth: int = 8,
    obs=None,
) -> RunResult:
    """Drive one pipelined client for a fixed operation count.

    Ops flow through ``server.execute_batch`` in chunks of ``depth``;
    within a chunk, independent items overlap in virtual time across
    ``depth`` lanes, so the chunk costs roughly its slowest lane rather
    than the sum of its items.  ``depth=1`` degenerates to a serial
    closed loop (one op per round trip) — the baseline batched runs are
    compared against.

    ``op_source`` supplies the operations: either an object with a
    ``batch(count)`` method (e.g. :class:`~repro.workloads.ycsb.
    YcsbWorkload`) or a callable ``count -> List[BatchOp]``.  The
    returned :class:`RunResult`'s ``duration`` is the virtual time the
    whole run spanned, so ``throughput`` is directly comparable across
    depths.  Item failures count as errors; a refused batch
    (backpressure) propagates to the caller.
    """
    if operations < 1:
        raise ValueError("need at least one operation")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    before_snapshot = obs.metrics.snapshot() if obs is not None else None
    take = op_source.batch if hasattr(op_source, "batch") else op_source
    start = clock.now()
    result = RunResult(duration=0.0)
    issued = 0
    cursor = start
    while issued < operations:
        count = min(depth, operations - issued)
        ops = take(count)
        if cursor > clock.now():
            clock.run_until(cursor)
        ctx = RequestContext(clock, at=cursor)
        try:
            batch = server.execute_batch(ops, parallelism=depth, ctx=ctx)
        except (TieraError, SimCloudError):
            result.errors += count
            issued += count
            cursor = ctx.time
            continue
        for item in batch.results:
            if item.ok:
                result.operations += 1
                result.latencies.record(item.latency, item.op)
            else:
                result.errors += 1
        issued += count
        cursor = ctx.time
    result.duration = cursor - start
    if clock.now() < cursor:
        clock.run_until(cursor)
    if obs is not None:
        from repro.obs.export import tier_report

        result.tier_report = tier_report(before_snapshot, obs.metrics.snapshot())
    return result
