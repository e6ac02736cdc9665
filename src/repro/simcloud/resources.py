"""Virtual-time resources and request contexts.

Simulated services do not sleep; they *account* for time.  Every client
request carries a :class:`RequestContext` whose ``time`` field is the
request's position on the virtual timeline.  When a service performs
work it calls :meth:`RequestContext.use` against the service's
:class:`Resource` — a bank of FCFS channels — which queues the request
behind conflicting bookings and moves the context's time to the
completion instant.

Bookings are *interval-based*: concurrent clients advance along their
own timelines, so requests arrive at a resource out of global time
order; a channel therefore remembers its busy intervals and lets a
request backfill any idle gap wide enough for its service time.  (A
simple per-channel frontier would make a request queue behind another
client's *future* bookings — measurably wrong at low utilisation.)

This is how contention appears in the reproduction: eight sysbench
threads hammering one EBS volume (Figure 8) genuinely saturate the
volume's two channels, and an uncapped background replication
(Figure 14) parks 50 MB of transfer time on the channel foreground
requests need.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Optional, Tuple

from repro.simcloud.clock import Clock

#: Bookings older than this far behind the latest arrival are dropped.
#: No client request spans anywhere near this long, so pruning cannot
#: affect feasibility.
PRUNE_HORIZON = 600.0
_PRUNE_EVERY = 512


class _Channel:
    """One FCFS service channel: a sorted list of busy intervals."""

    __slots__ = ("intervals",)

    def __init__(self):
        self.intervals: List[Tuple[float, float]] = []  # (start, end), sorted

    def feasible_start(self, at: float, duration: float) -> float:
        """Earliest start >= ``at`` with an idle gap of ``duration``."""
        candidate = at
        idx = bisect_left(self.intervals, (at, float("-inf")))
        # The interval just before may still cover ``at``.
        if idx > 0 and self.intervals[idx - 1][1] > candidate:
            candidate = self.intervals[idx - 1][1]
        for start, end in self.intervals[idx:]:
            if candidate + duration <= start:
                break
            if end > candidate:
                candidate = end
        return candidate

    def book(self, start: float, duration: float) -> None:
        insort(self.intervals, (start, start + duration))

    def prune(self, before: float) -> None:
        """Drop the intervals that end before ``before``.  Intervals never
        overlap, so their ends are sorted like their starts: the dropped
        ones are a prefix, found by bisection and deleted in place.  The
        bisection is on starts; at most one interval starts before
        ``before`` yet ends at or after it, so the cut steps back over it."""
        intervals = self.intervals
        idx = bisect_left(intervals, (before, float("-inf")))
        while idx > 0 and intervals[idx - 1][1] >= before:
            idx -= 1
        del intervals[:idx]


class Resource:
    """A bank of identical FCFS channels in virtual time.

    ``channels`` models service parallelism: a magnetic EBS volume is
    close to 1-2, a memcached server handles many requests at once.
    Work goes to the channel that can start it earliest.
    """

    __slots__ = ("name", "_channels", "busy_time", "_ops", "_max_at")

    def __init__(self, name: str, channels: int = 1):
        if channels < 1:
            raise ValueError("a resource needs at least one channel")
        self.name = name
        self._channels = [_Channel() for _ in range(channels)]
        self.busy_time = 0.0  # total committed service time, for utilisation
        self._ops = 0
        self._max_at = 0.0

    @property
    def channels(self) -> int:
        return len(self._channels)

    def acquire(self, at: float, service_time: float) -> Tuple[float, float]:
        """Book ``service_time`` seconds starting no earlier than ``at``.

        Returns ``(start, finish)`` in virtual time.
        """
        if service_time < 0:
            raise ValueError("service time cannot be negative")
        best_channel = None
        best_start = None
        for channel in self._channels:
            start = channel.feasible_start(at, service_time)
            if best_start is None or start < best_start:
                best_start = start
                best_channel = channel
                if start <= at:
                    break  # cannot start earlier than the request arrival
        best_channel.book(best_start, service_time)
        self.busy_time += service_time
        self._max_at = max(self._max_at, at)
        self._ops += 1
        if self._ops % _PRUNE_EVERY == 0:
            cutoff = self._max_at - PRUNE_HORIZON
            for channel in self._channels:
                channel.prune(cutoff)
        return best_start, best_start + service_time

    def reset(self) -> None:
        for channel in self._channels:
            channel.intervals.clear()
        self.busy_time = 0.0
        self._ops = 0


class RequestContext:
    """One request's walk along the virtual timeline.

    Created at the moment the request arrives; every service hop either
    queues on a :class:`Resource` (:meth:`use`) or burns unqueued time
    (:meth:`wait`, e.g. network propagation).  ``elapsed`` at the end is
    the client-observed latency.
    """

    __slots__ = ("clock", "start", "time", "hops", "span", "trace",
                 "tally", "served_by")

    def __init__(self, clock: Clock, at: Optional[float] = None):
        self.clock = clock
        self.start = clock.now() if at is None else at
        self.time = self.start
        self.hops: int = 0
        #: current tracing span (rule or request) — instrumented layers
        #: attach child spans here when tracing is active; ``None`` keeps
        #: the hot path to a single identity check.
        self.span = None
        #: root span of the traced request this context belongs to.
        self.trace = None
        #: while an untraced policy rule runs: the tier name of each tier
        #: op it made, for its audit record (a traced rule reads its
        #: ``tier-op`` spans instead); ``None`` outside rules.
        self.tally = None
        #: name of the tier that served the most recent read, if any.
        self.served_by: Optional[str] = None

    def use(self, resource: Resource, service_time: float) -> None:
        """Queue on ``resource`` for ``service_time`` seconds of work."""
        _, finish = resource.acquire(self.time, service_time)
        self.time = finish
        self.hops += 1

    def wait(self, seconds: float) -> None:
        """Spend unqueued time (propagation delay, fixed overheads)."""
        if seconds < 0:
            raise ValueError("cannot wait a negative duration")
        self.time += seconds

    def fork(self) -> "RequestContext":
        """A context branching off at the current instant.

        Used when a policy does asynchronous work on behalf of a request
        (background responses): the background work starts now but its
        time does not flow back into the client's latency.  The fork
        carries no trace span or rule tally — background work is
        attributed through the audit log, not the client's trace.
        """
        return RequestContext(self.clock, at=self.time)

    def scatter(self, at: Optional[float] = None) -> "BranchSet":
        """Open a scatter/join region at the current instant (or at an
        earlier ``at``: work already done on this context overlaps the
        branches, as a failover read's first attempt does).

        Independent pieces of work within *one* request (a multi-tier
        store's inserts, failover read attempts, the items of a batch)
        do not wait on each other in a real system; they overlap.  Each
        :meth:`BranchSet.branch` starts a branch context at the scatter
        instant; :meth:`BranchSet.join` advances this
        context to the *latest* branch completion.  The request thus
        pays ``max()`` over branch latencies — plus whatever queueing
        each branch suffered on its tier's channels, since branches book
        the same :class:`Resource` banks and contend normally.

        Unlike :meth:`fork`, branches stay on the client path: they
        inherit the current trace span (or rule tally), and their hops
        count toward the request.
        """
        return BranchSet(self, at)

    @property
    def elapsed(self) -> float:
        return self.time - self.start


class BranchSet:
    """Parallel composition of branches of one request (scatter/join).

    Branch *state* effects still happen in code order — the simulation
    executes branches sequentially, so RNG draws, tier contents, and
    digests are identical to a serial implementation.  Only the time
    accounting changes: the parent's clock advances to the maximum
    branch completion instead of accumulating each branch in turn.
    """

    __slots__ = ("parent", "origin", "branches")

    def __init__(self, parent: RequestContext, at: Optional[float] = None):
        self.parent = parent
        self.origin = parent.time if at is None else at
        self.branches: List[RequestContext] = []

    def branch(self, at: Optional[float] = None) -> RequestContext:
        """A context starting at the scatter instant, on the client path.

        ``at`` starts the branch later than the scatter instant — how a
        bounded lane pool models an item queueing behind the previous
        item on its lane (batch execution with ``parallelism`` lanes).
        """
        start = self.origin if at is None else max(at, self.origin)
        ctx = RequestContext(self.parent.clock, at=start)
        ctx.span = self.parent.span
        ctx.trace = self.parent.trace
        ctx.tally = self.parent.tally
        self.branches.append(ctx)
        return ctx

    def join(self) -> float:
        """Advance the parent to the latest branch completion.

        Failed branches count: a branch that burned a 5 s timeout before
        raising still holds the join back, exactly as an in-flight
        parallel attempt would.  Returns the new parent time.
        """
        latest = self.origin
        for ctx in self.branches:
            if ctx.time > latest:
                latest = ctx.time
            self.parent.hops += ctx.hops
        if latest > self.parent.time:
            self.parent.time = latest
        return self.parent.time
