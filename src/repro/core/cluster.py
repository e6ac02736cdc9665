"""Replicated, self-healing shard cluster (paper §6 future work).

The consistent-hash router in :mod:`repro.core.sharding` maps each key
to exactly one shard, so one dead shard loses every key it owns.  This
module adds the Dynamo/Cassandra-style machinery that lets the cluster
*survive* shard loss (see docs/CLUSTER.md):

* **replication** — every key lives on R distinct ring successors;
  writes ack once a configurable quorum of owners took the bytes, reads
  fail over along the owner list with a checksum majority vote;
* **failure detection** — a virtual-time heartbeat probes every shard's
  tier services through :meth:`FaultInjector.down_now` (a deterministic,
  RNG-free liveness read), combining probe misses with data-path
  failures into up → suspect → down transitions;
* **hinted handoff** — writes for a down owner land on the next healthy
  successor with a :class:`Hint`; the queue drains deterministically
  when the owner returns;
* **anti-entropy** — periodic Merkle-tree comparison of replica groups,
  repairing divergence toward the highest ``(version, checksum)`` copy;
* **crash-safe migration** — add/remove-shard journals a membership
  intent plus per-key move intents through a durability-layer
  :class:`~repro.core.durability.IntentJournal`, so a crash mid-
  migration never loses or double-owns a key; :meth:`ClusterManager.fsck`
  checks the cluster-scope invariants (replica count, no orphan hints,
  single ownership, empty journal).

Everything runs on the simulated clock and draws no randomness of its
own: same-seed runs produce byte-identical op envelopes, transition
logs, and repair logs — the CI ``cluster-resilience`` job diffs exactly
that.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import api
from repro.core.api import BatchOp, BatchResult, OpResult
from repro.core.durability import IntentJournal
from repro.core.errors import ClusterUnavailableError, NoQuorumError
from repro.kvstore.store import MemoryStore
from repro.obs.audit import AuditRecord
from repro.simcloud.resources import RequestContext

#: Failure-detector states, in order of decreasing health.
UP, SUSPECT, DOWN = "up", "suspect", "down"
_STATE_VALUE = {UP: 0, SUSPECT: 1, DOWN: 2}

#: Error codes that indicate the *shard* (not the request) is sick;
#: only these feed the failure detector and trigger hinted handoff.
_INFRA_CODES = frozenset(
    {
        "SERVICE_UNAVAILABLE",
        "TRANSIENT_ERROR",
        "TIER_UNAVAILABLE",
        "BREAKER_OPEN",
        "CLUSTER_UNAVAILABLE",
    }
)

#: Bound on the in-memory transition / repair-run logs.
_LOG_CAP = 1000

#: Consecutive probe misses before a shard is marked down (one miss
#: already makes it suspect).
DOWN_AFTER_MISSES = 2
#: Consecutive data-path infra failures before a shard is marked down
#: without waiting for the prober.
OP_FAILURE_THRESHOLD = 3
#: Leaf buckets per shard in the Merkle comparison.
MERKLE_BUCKETS = 16


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables for the replication + self-healing layer."""

    #: copies of every key, over distinct ring successors (capped at
    #: the shard count).
    replication_factor: int = 3
    #: owner acks required before a write reports success; ``None``
    #: means majority (R // 2 + 1).  Hinted copies never count.
    write_quorum: Optional[int] = None
    #: seconds between failure-detector probe rounds.
    heartbeat_interval: float = 5.0
    #: seconds between anti-entropy sweeps (0 disables the timer;
    #: :meth:`ClusterManager.anti_entropy` can still be called).
    anti_entropy_interval: float = 60.0

    def quorum(self, replicas: int) -> int:
        if self.write_quorum is not None:
            return max(1, min(self.write_quorum, replicas))
        return replicas // 2 + 1

    def describe(self) -> Dict[str, object]:
        return {
            "replication_factor": self.replication_factor,
            "write_quorum": self.write_quorum,
            "heartbeat_interval": self.heartbeat_interval,
            "down_after_misses": DOWN_AFTER_MISSES,
            "op_failure_threshold": OP_FAILURE_THRESHOLD,
            "anti_entropy_interval": self.anti_entropy_interval,
            "merkle_buckets": MERKLE_BUCKETS,
        }


@dataclass
class Hint:
    """One write owed to a down shard, parked on a healthy one."""

    key: str
    target: str          #: the down owner the write was destined for
    holder: str          #: healthy shard holding the bytes meanwhile
    op: str              #: ``put`` or ``delete``
    checksum: str = ""
    created_at: float = 0.0
    attempts: int = 0


class HintQueue:
    """FIFO of hinted writes, newest write per (target, key) wins."""

    def __init__(self):
        self._hints: "OrderedDict[Tuple[str, str], Hint]" = OrderedDict()
        self.recorded = 0
        self.replayed = 0

    def add(self, hint: Hint) -> None:
        # A newer write to the same (target, key) supersedes the parked
        # one; an existing slot keeps its queue position so drain order
        # is stable.
        self._hints[(hint.target, hint.key)] = hint
        self.recorded += 1

    def discard(self, target: str, key: str) -> None:
        self._hints.pop((target, key), None)

    def take(self, target: Optional[str] = None) -> List[Hint]:
        """Remove and return hints (for one target, or all), FIFO."""
        out = []
        for slot in list(self._hints):
            if target is None or slot[0] == target:
                out.append(self._hints.pop(slot))
        return out

    def requeue(self, hint: Hint) -> None:
        hint.attempts += 1
        slot = (hint.target, hint.key)
        if slot not in self._hints:
            self._hints[slot] = hint

    def pending(self, target: Optional[str] = None) -> int:
        if target is None:
            return len(self._hints)
        return sum(1 for slot in self._hints if slot[0] == target)

    def holders_of(self, key: str) -> List[str]:
        """Shards currently holding a parked copy of ``key``."""
        return sorted(
            {h.holder for h in self._hints.values()
             if h.key == key and h.op == api.PUT}
        )

    def targets(self) -> List[str]:
        return sorted({slot[0] for slot in self._hints})

    def __iter__(self):
        return iter(list(self._hints.values()))

    def __len__(self) -> int:
        return len(self._hints)


class FailureDetector:
    """Virtual-time heartbeat + data-path feedback per shard.

    A probe round asks the fault injector — deterministically, without
    drawing randomness — whether every tier service of a shard would
    time out right now; a shard whose every tier is unreachable misses
    its heartbeat.  Data-path infra errors count as strikes between
    probes, so a busy cluster notices death faster than the prober.
    """

    def __init__(self, manager: "ClusterManager"):
        self.manager = manager
        self.state: Dict[str, str] = {}
        self.misses: Dict[str, int] = {}
        self.op_failures: Dict[str, int] = {}
        self.transitions: List[Dict[str, object]] = []

    def register(self, shard: str) -> None:
        self.state.setdefault(shard, UP)
        self.misses.setdefault(shard, 0)
        self.op_failures.setdefault(shard, 0)
        self.manager._state_gauge.set(_STATE_VALUE[UP], shard=shard)

    def forget(self, shard: str) -> None:
        self.state.pop(shard, None)
        self.misses.pop(shard, None)
        self.op_failures.pop(shard, None)

    def is_down(self, shard: str) -> bool:
        return self.state.get(shard) == DOWN

    def _unreachable(self, shard: str) -> bool:
        server = self.manager.shards.get(shard)
        if server is None:
            return True
        faults = self.manager.faults
        for tier in server.instance.tiers:
            service = tier.service
            if faults is not None:
                if not faults.down_now(service):
                    return False
            elif service.available:
                return False
        return True

    def tick(self) -> None:
        """One probe round over every shard, in name order."""
        for shard in sorted(self.state):
            if self._unreachable(shard):
                self.misses[shard] += 1
            else:
                self.misses[shard] = 0
                self.op_failures[shard] = 0
            self._recompute(shard)

    def note_failure(self, shard: str) -> None:
        if shard in self.state:
            self.op_failures[shard] += 1
            self._recompute(shard)

    def note_success(self, shard: str) -> None:
        if shard in self.state:
            self.op_failures[shard] = 0
            self.misses[shard] = 0
            self._recompute(shard)

    def _recompute(self, shard: str) -> None:
        misses = self.misses[shard]
        failures = self.op_failures[shard]
        if misses >= DOWN_AFTER_MISSES or failures >= OP_FAILURE_THRESHOLD:
            new = DOWN
        elif misses > 0 or failures > 0:
            new = SUSPECT
        else:
            new = UP
        old = self.state[shard]
        if new == old:
            return
        self.state[shard] = new
        self.manager._state_gauge.set(_STATE_VALUE[new], shard=shard)
        if len(self.transitions) < _LOG_CAP:
            self.transitions.append(
                {
                    "time": self.manager.clock.now(),
                    "shard": shard,
                    "from": old,
                    "to": new,
                }
            )
        self.manager._note_transition(shard, old, new)

    def summary(self) -> Dict[str, str]:
        return {shard: self.state[shard] for shard in sorted(self.state)}


def transfer(
    key: str, source, targets: Sequence, ctx: Optional[RequestContext] = None,
    verify: Optional[str] = None,
) -> Optional[List[OpResult]]:
    """Copy ``key`` — bytes and tags — from one shard to others: one
    read of ``source``, one put per target, all on ``ctx``.

    Every movement of an object between shards is this function:
    migration (journaled or not), hint replay, replica repair.  Returns
    the puts' envelopes in ``targets`` order, or ``None`` without
    writing anything when the source copy cannot be read or — given
    ``verify``, the checksum its metadata records — does not match it.
    """
    fetched = source.get_object(key, ctx=ctx)
    if not fetched.ok or (verify is not None and fetched.checksum != verify):
        return None
    tags = sorted(source.stat(key).tags)
    return [
        target.put_object(key, fetched.value, tags=tags, ctx=ctx)
        for target in targets
    ]


class ClusterManager:
    """Replication, healing, and journaled migration over the router.

    Owned by a :class:`~repro.core.sharding.ShardedTieraServer` built
    with ``replication=ClusterConfig(...)``; the router delegates its
    whole data path here.  ``router`` supplies the ring, the shard map,
    the clock, and the observability hub.
    """

    def __init__(
        self,
        router,
        config: ClusterConfig,
        journal_store=None,
    ):
        self.router = router
        self.config = config
        self.clock = router.clock
        self.obs = router.obs
        self.ring = router.ring
        self.shards: Dict[str, object] = router.shards
        self.hints = HintQueue()
        self.journal = IntentJournal(
            journal_store if journal_store is not None else MemoryStore()
        )
        #: armed by crash tests/benches; mirrors ``instance.crash_points``.
        self.crash_points = None
        self.migrations = 0
        self.anti_entropy_runs: List[Dict[str, object]] = []
        self.replay_runs: List[Dict[str, object]] = []
        self._timers: List[object] = []
        self.faults = self._find_injector()

        metrics = self.obs.metrics
        self._state_gauge = metrics.gauge(
            "tiera_cluster_shard_state",
            "Failure-detector state per shard (0 up, 1 suspect, 2 down).",
        )
        self._replica_ops = metrics.counter(
            "tiera_cluster_replica_ops_total",
            "Per-replica operations, by shard, op, and outcome.",
        )
        self._quorum_failures = metrics.counter(
            "tiera_cluster_quorum_failures_total",
            "Writes that could not reach their quorum, by op.",
        )
        self._failover_reads = metrics.counter(
            "tiera_cluster_failover_reads_total",
            "Reads served by a non-primary replica, by skipped shard.",
        )
        self._hints_recorded = metrics.counter(
            "tiera_cluster_hints_total", "Hinted writes recorded, by target."
        )
        self._hint_replays = metrics.counter(
            "tiera_cluster_hint_replays_total",
            "Hint replay attempts, by target and outcome.",
        )
        self._hints_pending = metrics.gauge(
            "tiera_cluster_hints_pending", "Hinted writes awaiting replay."
        )
        self._ae_runs = metrics.counter(
            "tiera_cluster_antientropy_runs_total", "Anti-entropy sweeps run."
        )
        self._ae_repairs = metrics.counter(
            "tiera_cluster_antientropy_repairs_total",
            "Replica copies rewritten by anti-entropy, by shard.",
        )
        self._moves = metrics.counter(
            "tiera_cluster_moves_total",
            "Journaled migration operations, by kind (copy/drop).",
        )
        self.detector = FailureDetector(self)
        for shard in sorted(self.shards):
            self.detector.register(shard)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Arm the heartbeat and anti-entropy timers."""
        if self._timers:
            return
        self._timers.append(
            self.clock.schedule_repeating(
                self.config.heartbeat_interval, self.detector.tick
            )
        )
        if self.config.anti_entropy_interval > 0:
            self._timers.append(
                self.clock.schedule_repeating(
                    self.config.anti_entropy_interval,
                    lambda: self.anti_entropy(),
                )
            )

    def stop(self) -> None:
        """Cancel the repeating timers (lets ``run_all`` terminate)."""
        for timer in self._timers:
            timer.cancel()
        self._timers = []

    def _find_injector(self):
        for name in sorted(self.shards):
            for tier in self.shards[name].instance.tiers:
                injector = getattr(tier.service, "faults", None)
                if injector is not None:
                    return injector
        return None

    def replicas(self) -> int:
        return min(self.config.replication_factor, len(self.shards))

    def owners(self, key: str) -> List[str]:
        return self.ring.owners(key, self.replicas())

    # -- the replicated data path ----------------------------------------

    def _ctx(self, ctx: Optional[RequestContext]) -> RequestContext:
        return ctx if ctx is not None else RequestContext(self.clock)

    def _shard_op(self, shard: str, op: str) -> None:
        self.router._shard_ops.inc(shard=shard, op=op)

    def _feed_detector(self, shard: str, result: OpResult) -> None:
        if result.ok:
            self.detector.note_success(shard)
        elif result.error in _INFRA_CODES:
            self.detector.note_failure(shard)

    def _handoff_target(
        self, key: str, owners: Sequence[str], taken: set
    ) -> Optional[str]:
        """Next healthy non-owner successor on the ring, skipping shards
        already used as a handoff for this write."""
        for candidate in self.ring.owners(key, len(self.shards)):
            if candidate in owners or candidate in taken:
                continue
            if not self.detector.is_down(candidate):
                return candidate
        return None

    def _record_hint(
        self, key: str, target: str, holder: str, op: str, checksum: str
    ) -> None:
        self.hints.add(
            Hint(
                key=key,
                target=target,
                holder=holder,
                op=op,
                checksum=checksum,
                created_at=self.clock.now(),
            )
        )
        self._hints_recorded.inc(target=target)
        self._hints_pending.set(len(self.hints))

    def put_object(
        self,
        key: str,
        data: bytes,
        *,
        tags: Optional[List[str]] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._write(BatchOp.put(key, data, tags=tags), ctx, trace)

    def delete_object(
        self,
        key: str,
        *,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._write(BatchOp.delete(key), ctx, trace)

    def _write(
        self, write: BatchOp, ctx: Optional[RequestContext], trace: bool
    ) -> OpResult:
        op, key = write.op, write.key
        ctx = self._ctx(ctx)
        root = self.obs.tracer.start_request(op, key, ctx, force=trace)
        started = ctx.time
        owners = self.owners(key)
        quorum = self.config.quorum(len(owners))
        acked: List[Tuple[str, OpResult]] = []
        causes: List[Tuple[str, BaseException]] = []
        handoffs_taken: set = set()
        branches = ctx.scatter()
        for shard in owners:
            if self.detector.is_down(shard):
                # Don't burn a timeout on a known-dead shard: park the
                # write on the next healthy successor instead.
                self._hinted_write(
                    write, shard, owners, handoffs_taken, branches, causes
                )
                continue
            bctx = branches.branch()
            self._shard_op(shard, op)
            result = self._apply_write(self.shards[shard], write, bctx)
            self._feed_detector(shard, result)
            self._replica_ops.inc(
                shard=shard, op=op, outcome="ok" if result.ok else "error"
            )
            if result.ok:
                acked.append((shard, result))
            else:
                causes.append((shard, result.exception))
                if result.error in _INFRA_CODES:
                    # The owner timed out under us mid-detection: hint
                    # the write so the shard heals when it returns.
                    self._hinted_write(
                        write, shard, owners, handoffs_taken, branches,
                        causes,
                    )
        branches.join()
        if len(acked) >= quorum:
            shard_names, results = zip(*acked)
            template = results[0]
            return OpResult(
                op=op,
                key=key,
                ok=True,
                latency=api.close_request(self.obs, op, root, ctx, started),
                tier=",".join(sorted(shard_names)),
                checksum=template.checksum,
                size=template.size,
            )
        self._quorum_failures.inc(op=op)
        exc = NoQuorumError(key, len(acked), quorum, causes)
        return api.failed_result(
            op, key, exc,
            api.close_request(self.obs, op, root, ctx, started, exc),
        )

    def _apply_write(self, server, write: BatchOp, bctx) -> OpResult:
        if write.op == api.PUT:
            return server.put_object(
                write.key, write.data, tags=write.tags, ctx=bctx
            )
        result = server.delete_object(write.key, ctx=bctx)
        if not result.ok and result.error == "NO_SUCH_OBJECT":
            # Deleting a key a replica never got is a successful delete
            # from the cluster's point of view.
            return OpResult(op=api.DELETE, key=write.key, ok=True,
                            latency=result.latency)
        return result

    def _hinted_write(
        self, write: BatchOp, target, owners, taken, branches, causes
    ) -> None:
        op, key = write.op, write.key
        holder = self._handoff_target(key, owners, taken)
        if holder is None:
            causes.append(
                (target, ClusterUnavailableError(
                    key, detail=f"no healthy handoff for {target!r}"))
            )
            return
        taken.add(holder)
        bctx = branches.branch()
        self._shard_op(holder, f"handoff-{op}")
        if op == api.PUT:
            result = self._apply_write(self.shards[holder], write, bctx)
            if result.ok:
                self._record_hint(key, target, holder, op, result.checksum)
            else:
                causes.append((holder, result.exception))
                self._feed_detector(holder, result)
        else:
            # A delete owed to a down shard needs no bytes parked — just
            # the intent to delete when the target returns.
            self._record_hint(key, target, holder, op, "")

    def get_object(
        self,
        key: str,
        *,
        prefer: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        """Checksum-verified failover read along the owner list.

        Attempts are sequential (a client retries replicas one after
        another), skipping detector-down shards.  A returned payload is
        accepted only if its content checksum matches the majority of
        the owners' recorded checksums; a corrupt or stale copy is
        skipped and queued for background repair.
        """
        ctx = self._ctx(ctx)
        root = self.obs.tracer.start_request(api.GET, key, ctx, force=trace)
        started = ctx.time
        owners = self.owners(key)
        candidates = [s for s in owners if not self.detector.is_down(s)]
        if not candidates:
            candidates = list(owners)  # last resort: try them anyway
        expected = self._checksum_vote(key, owners)
        causes: List[Tuple[str, BaseException]] = []
        missing = 0
        for shard in candidates:
            self._shard_op(shard, api.GET)
            result = self.shards[shard].get_object(key, prefer=prefer, ctx=ctx)
            self._feed_detector(shard, result)
            self._replica_ops.inc(
                shard=shard, op=api.GET,
                outcome="ok" if result.ok else "error",
            )
            if result.ok:
                if expected is not None and result.checksum != expected:
                    causes.append(
                        (shard, ClusterUnavailableError(
                            key, detail=f"checksum mismatch on {shard!r}"))
                    )
                    self._schedule_repair(key, reason="divergent-read")
                    continue
                if shard != owners[0]:
                    self._failover_reads.inc(shard=owners[0])
                if missing or causes:
                    self._schedule_repair(key, reason="read-repair")
                result.latency = api.close_request(
                    self.obs, api.GET, root, ctx, started
                )
                return result
            missing += result.error == "NO_SUCH_OBJECT"
            causes.append((shard, result.exception))
        if missing == len(candidates):
            # Every reachable replica agrees the key does not exist.
            exc = causes[0][1]
        else:
            exc = ClusterUnavailableError(key, causes=causes)
        return api.failed_result(
            api.GET, key, exc,
            api.close_request(self.obs, api.GET, root, ctx, started, exc),
        )

    def _checksum_vote(self, key: str, owners: Sequence[str]) -> Optional[str]:
        """Majority content checksum across reachable owners' metadata.

        Metadata reads are free (no virtual time), mirroring how the
        resilience layer consults recorded checksums.  Returns ``None``
        when fewer than two copies can vote — a single copy cannot be
        outvoted."""
        votes: List[str] = []
        for shard in owners:
            if self.detector.is_down(shard):
                continue
            server = self.shards[shard]
            if server.contains(key):
                votes.append(server.stat(key).checksum)
        if len(votes) < 2:
            return None
        tally: Dict[str, int] = {}
        for checksum in votes:
            tally[checksum] = tally.get(checksum, 0) + 1
        best = max(tally.values())
        if best <= len(votes) - best:
            return None  # no strict majority: cannot arbitrate
        return min(c for c, n in tally.items() if n == best)

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> BatchResult:
        """Batch over the replicated path: the same bracket and lane
        scheduler as the single-instance server (admission is the
        router's), each item fanning out to its own replica set."""
        return api.run_batch(
            ops, parallelism, self._ctx(ctx), trace,
            self.obs.tracer, self.router.admission, self._run_items,
        )

    def _run_items(self, ops: Sequence[BatchOp], lanes: int, ctx, parent):
        results = api.schedule_lanes(ops, lanes, ctx, parent, self._run_op)
        return results, {"parallelism": lanes}

    def _run_op(self, op: BatchOp, ctx: RequestContext) -> OpResult:
        if op.op == api.GET:
            return self.get_object(op.key, prefer=op.prefer, ctx=ctx)
        return self._write(op, ctx, False)

    # -- metadata views ---------------------------------------------------

    def contains(self, key: str) -> bool:
        return any(
            self.shards[s].contains(key) for s in self.owners(key)
        )

    def stat(self, key: str):
        for shard in self.owners(key):
            if self.shards[shard].contains(key):
                return self.shards[shard].stat(key)
        return self.shards[self.owners(key)[0]].stat(key)  # raises

    # -- self-healing: hint replay ---------------------------------------

    @contextmanager
    def _background(
        self, name: str, section: str,
        ctx: Optional[RequestContext] = None, **attrs: object,
    ):
        """The bracket around a piece of maintenance work: a fresh
        context under a background trace root (or the ``ctx`` of the
        sweep this work is part of, nesting under that sweep's root),
        timed as profiler section ``cluster:<section>``.  Yields the
        context and the root (``None`` when tracing is off or the
        context was lent)."""
        root = None
        if ctx is None:
            ctx = RequestContext(self.clock)
            root = self.obs.tracer.start_background(name, ctx, **attrs)
        try:
            with self.obs.profiler.section(f"cluster:{section}"):
                yield ctx, root
        finally:
            self.obs.tracer.finish_request(root, ctx)

    def _audit(
        self, name: str, origin: str, detail: Dict[str, object],
        moved: int = 0,
    ) -> None:
        self.obs.audit.append(
            AuditRecord(
                time=self.clock.now(),
                category="cluster",
                name=name,
                origin=origin,
                foreground=False,
                objects_moved=moved,
                detail=detail,
            )
        )

    def _note_transition(self, shard: str, old: str, new: str) -> None:
        self._audit(shard, "failure-detector", {"from": old, "to": new})
        if old == DOWN and new != DOWN:
            # The shard came back: drain its hints, then reconcile any
            # writes that arrived while it was dark.
            self.clock.schedule(0.0, lambda: self._heal(shard))

    def _heal(self, shard: str) -> None:
        if shard not in self.shards or self.detector.is_down(shard):
            return
        self.replay_hints(target=shard)
        self.anti_entropy()

    def replay_hints(self, target: Optional[str] = None) -> Dict[str, object]:
        """Drain parked writes whose targets are reachable, FIFO.

        Hints for still-down targets (a flapping shard can drop mid-
        replay) re-queue; a hint whose holder lost the bytes is dropped
        — anti-entropy owns that divergence."""
        replayed = dropped = requeued = 0
        with self._background(
            f"hint-replay {target or '*'}", "hint-replay",
            target=target or "*",
        ) as (ctx, root):
            for hint in self.hints.take(target):
                if (hint.target not in self.shards
                        or self.detector.is_down(hint.target)):
                    self.hints.requeue(hint)
                    requeued += 1
                    continue
                if hint.op == api.DELETE:
                    result = self.shards[hint.target].delete_object(
                        hint.key, ctx=ctx
                    )
                    ok = result.ok or result.error == "NO_SUCH_OBJECT"
                else:
                    ok = self._replay_put(hint, ctx)
                    if ok is None:  # holder lost the bytes: drop the hint
                        dropped += 1
                        self._hint_replays.inc(
                            target=hint.target, outcome="dropped"
                        )
                        continue
                if ok:
                    replayed += 1
                    self.hints.replayed += 1
                    self._hint_replays.inc(target=hint.target, outcome="ok")
                else:
                    self.hints.requeue(hint)
                    requeued += 1
                    self._hint_replays.inc(
                        target=hint.target, outcome="requeued"
                    )
            self._hints_pending.set(len(self.hints))
            if root is not None:
                root.attrs.update(
                    replayed=replayed, dropped=dropped, requeued=requeued
                )
        counts = {
            "target": target or "*",
            "replayed": replayed,
            "dropped": dropped,
            "requeued": requeued,
        }
        record = {"time": self.clock.now(), **counts}
        if replayed or dropped or requeued:
            if len(self.replay_runs) < _LOG_CAP:
                self.replay_runs.append(record)
            self._audit(target or "*", "hint-replay", counts, moved=replayed)
        return record

    def _replay_put(self, hint: Hint, ctx: RequestContext) -> Optional[bool]:
        holder = self.shards.get(hint.holder)
        if holder is None or not holder.contains(hint.key):
            return None
        written = transfer(
            hint.key, holder, [self.shards[hint.target]], ctx
        )
        if written is None or not written[0].ok:
            return False
        if (hint.holder not in self.owners(hint.key)
                and hint.holder not in self.hints.holders_of(hint.key)):
            # The parked copy served its purpose; drop the stray so the
            # key is held only by its owners again.
            holder.delete_object(hint.key, ctx=ctx)
        return True

    # -- self-healing: Merkle anti-entropy -------------------------------

    def _bucket(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:4], "big") % MERKLE_BUCKETS

    def _merkle(self, shard: str, keys: Sequence[str]) -> Tuple[str, List[str]]:
        """(root, per-bucket digests) of ``shard``'s view of ``keys``.

        A leaf line is ``key=checksum`` for keys the shard holds,
        ``key=absent`` for keys it is missing — presence differences
        hash differently, so a lost replica shows up as divergence.
        Versions are deliberately left out of the leaves: a repair
        rewrite bumps the repaired copy's version, and hashing versions
        would keep a healed group "divergent" forever."""
        buckets: List[List[str]] = [[] for _ in range(MERKLE_BUCKETS)]
        server = self.shards[shard]
        for key in keys:
            if server.contains(key):
                line = f"{key}={server.stat(key).checksum}"
            else:
                line = f"{key}=absent"
            buckets[self._bucket(key)].append(line)
        digests = [
            hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
            for lines in buckets
        ]
        root = hashlib.sha256("".join(digests).encode()).hexdigest()
        return root, digests

    def anti_entropy(self) -> Dict[str, object]:
        """One sweep: compare every replica group's Merkle trees and
        repair divergent keys toward the highest (version, checksum)
        copy.  Groups with an unreachable member are compared among the
        reachable ones only; the next sweep after recovery finishes the
        job."""
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for key in self.router.keys():
            groups.setdefault(tuple(self.owners(key)), []).append(key)
        divergent_groups = 0
        skipped_groups = 0
        repairs = 0
        with self._background("anti-entropy", "anti-entropy") as (ctx, root):
            for owner_set in sorted(groups):
                keys = sorted(groups[owner_set])
                reachable = [s for s in owner_set
                             if not self.detector.is_down(s)]
                if len(reachable) < 2:
                    skipped_groups += 1
                    continue
                trees = {s: self._merkle(s, keys) for s in reachable}
                roots = {tree[0] for tree in trees.values()}
                if len(roots) == 1:
                    continue
                divergent_groups += 1
                suspect_buckets = set()
                for bucket in range(MERKLE_BUCKETS):
                    digests = {trees[s][1][bucket] for s in reachable}
                    if len(digests) > 1:
                        suspect_buckets.add(bucket)
                for key in keys:
                    if self._bucket(key) in suspect_buckets:
                        repairs += self._sync_key(key, ctx=ctx)
            self._ae_runs.inc()
            if root is not None:
                root.attrs.update(divergent=divergent_groups, repairs=repairs)
        counts = {
            "groups": len(groups),
            "divergent": divergent_groups,
            "skipped": skipped_groups,
            "repairs": repairs,
        }
        record = {"time": self.clock.now(), **counts}
        if len(self.anti_entropy_runs) < _LOG_CAP:
            self.anti_entropy_runs.append(record)
        if divergent_groups:
            self._audit("anti-entropy", "timer", counts, moved=repairs)
        return record

    def _schedule_repair(self, key: str, reason: str) -> None:
        self.clock.schedule(0.0, lambda: self._sync_key(key))

    def _sync_key(
        self, key: str, ctx: Optional[RequestContext] = None
    ) -> int:
        """Converge one key's reachable replicas to the winner copy.

        The winner is the reachable replica with the highest
        ``(version, checksum)`` whose bytes actually verify against its
        recorded checksum — a bit-rotted copy cannot win.  Returns the
        number of replicas rewritten.  Standalone calls (scheduled
        read-repair) open their own background trace root; an
        anti-entropy sweep passes its ``ctx`` so repairs nest under the
        sweep's root instead."""
        with self._background(
            f"read-repair {key}", "read-repair", ctx, key=key
        ) as (ctx, _):
            return self._converge_replicas(key, ctx)

    def _converge_replicas(self, key: str, ctx: RequestContext) -> int:
        reachable = [
            s for s in self.owners(key) if not self.detector.is_down(s)
        ]
        candidates = sorted(
            (self._rank(key, s) for s in reachable
             if self.shards[s].contains(key)),
            reverse=True,
        )
        recorded = {shard: checksum for _, checksum, shard in candidates}
        for _, checksum, shard in candidates:
            # Trust a recorded checksum equal to the winner's; deep
            # verification is the read path's job.  Divergence here
            # means a missed or torn write.
            stale = [s for s in reachable if recorded.get(s) != checksum]
            written = transfer(
                key, self.shards[shard], [self.shards[s] for s in stale],
                ctx, verify=checksum,
            )
            if written is None:
                continue  # bit-rotted or unreadable: cannot win
            repaired = [s for s, put in zip(stale, written) if put.ok]
            for name in repaired:
                self._ae_repairs.inc(shard=name)
            return len(repaired)
        return 0

    # -- crash-safe migration --------------------------------------------

    def _crash(self, point: str) -> None:
        if self.crash_points is not None:
            self.crash_points.reach(point)

    def add_shard(self, name: str, server) -> int:
        """Join a shard with journaled, crash-safe key migration."""
        self._crash("cluster.migrate.begin")
        member_seq = self.journal.begin(
            {"kind": "cluster.membership", "action": "add", "shard": name}
        )
        self.shards[name] = server
        self.ring.add(name)
        self.detector.register(name)
        moved = self._rebalance()
        self._crash("cluster.migrate.done")
        self.journal.commit(member_seq)
        return self._migrated("add", name, moved)

    def remove_shard(self, name: str) -> int:
        """Drain and remove a shard, journaled like :meth:`add_shard`."""
        self._crash("cluster.migrate.begin")
        member_seq = self.journal.begin(
            {"kind": "cluster.membership", "action": "remove", "shard": name}
        )
        self.ring.remove(name)
        # The departing shard stays in the map while the rebalance sweep
        # copies its keys to their new owners (it is a source, never a
        # target, once off the ring).
        moved = self._rebalance()
        self._crash("cluster.migrate.done")
        del self.shards[name]
        self.detector.forget(name)
        self.journal.commit(member_seq)
        return self._migrated("remove", name, moved)

    def _migrated(self, action: str, shard: str, moved: int) -> int:
        self.migrations += moved
        self._audit(
            shard, f"migrate-{action}", {"action": action, "moved": moved},
            moved=moved,
        )
        return moved

    def _rebalance(self) -> int:
        """Make key placement match the ring, one journaled move at a
        time: copy to missing owners, then drop from non-owners.  Every
        move is redo-logged, so replaying a crashed rebalance converges
        to the same placement."""
        ctx = RequestContext(self.clock)
        moved = 0
        for key in self.router.keys():
            owners = self.owners(key)
            holders = self._holders(key)
            if not holders:
                continue
            source = max(holders, key=lambda s: self._rank(key, s))
            for target in owners:
                if target in holders:
                    continue
                seq = self.journal.begin(
                    {"kind": "cluster.move", "key": key,
                     "source": source, "target": target}
                )
                self._crash("cluster.move.intent")
                if self._copy_key(key, source, target, ctx):
                    moved += 1
                    self._moves.inc(kind="copy")
                self._crash("cluster.move.copied")
                self.journal.commit(seq)
                self._crash("cluster.move.done")
            hint_holders = set(self.hints.holders_of(key))
            for holder in holders:
                if holder in owners or holder in hint_holders:
                    continue
                seq = self.journal.begin(
                    {"kind": "cluster.drop", "key": key, "shard": holder}
                )
                self.shards[holder].delete_object(key, ctx=ctx)
                self.journal.commit(seq)
                self._moves.inc(kind="drop")
        return moved

    def _holders(self, key: str) -> List[str]:
        return [s for s in sorted(self.shards) if self.shards[s].contains(key)]

    def _rank(self, key: str, shard: str) -> Tuple[int, str, str]:
        """Replica precedence: the highest (version, checksum) wins."""
        meta = self.shards[shard].stat(key)
        return meta.version, meta.checksum, shard

    def _copy_key(
        self, key: str, source: str, target: str, ctx: RequestContext
    ) -> bool:
        src = self.shards.get(source)
        if src is None or not src.contains(key):
            return False
        written = transfer(key, src, [self.shards[target]], ctx)
        return written is not None and written[0].ok

    def recover(self) -> Dict[str, object]:
        """Finish whatever a crashed migration left in flight.

        Build the manager over the *same* journal store and the union of
        shards (including any shard that was mid-join), then call this:
        pending per-key moves are redone or confirmed, pending drops
        redone, and a full rebalance sweep reconciles placement with the
        ring before the membership intent commits."""
        ctx = RequestContext(self.clock)
        membership_seqs: List[int] = []
        redone = confirmed = aborted = 0
        for seq, record in self.journal.pending():
            kind = record.get("kind")
            if kind == "cluster.membership":
                membership_seqs.append(seq)
            elif kind == "cluster.move":
                key = record["key"]
                target = record["target"]
                source = record["source"]
                if (target in self.shards
                        and self.shards[target].contains(key)):
                    confirmed += 1
                    self.journal.commit(seq)
                elif self._copy_key(key, source, target, ctx):
                    redone += 1
                    self.journal.commit(seq)
                else:
                    aborted += 1
                    self.journal.abort(seq)
            elif kind == "cluster.drop":
                key = record["key"]
                shard = record["shard"]
                if (shard in self.shards
                        and self.shards[shard].contains(key)
                        and shard not in self.owners(key)):
                    self.shards[shard].delete_object(key, ctx=ctx)
                    redone += 1
                else:
                    confirmed += 1
                self.journal.commit(seq)
            else:
                aborted += 1
                self.journal.abort(seq)
        rebalanced = self._rebalance()
        for seq in membership_seqs:
            self.journal.commit(seq)
        report = {
            "redone": redone,
            "confirmed": confirmed,
            "aborted": aborted,
            "rebalanced": rebalanced,
            "journal_pending": len(self.journal),
        }
        self._audit(
            "recover", "migration-journal", dict(report),
            moved=redone + rebalanced,
        )
        return report

    # -- cluster fsck -----------------------------------------------------

    def fsck(self, repair: bool = False) -> Dict[str, object]:
        """Cross-check the cluster's placement invariants.

        Findings: ``under-replicated`` (an owner lacks a copy),
        ``orphan-copy`` (a non-owner holds a copy no hint explains),
        ``divergent-replicas`` (owners disagree on content),
        ``orphan-hint`` (a hint whose target or holder is gone), and
        ``migration-journal`` (an uncommitted move intent).  With
        ``repair=True`` each finding is healed in place — replay /
        sync / drop / recover — and annotated with what was done."""
        findings: List[Dict[str, object]] = []

        def found(kind: str, key: str, shard: str, detail: str) -> None:
            findings.append(
                {"kind": kind, "key": key, "shard": shard, "detail": detail}
            )

        keys = self.router.keys()
        for key in keys:
            owners = self.owners(key)
            holders = self._holders(key)
            if not holders:
                continue
            hint_targets = {h.target for h in self.hints if h.key == key}
            hint_holders = set(self.hints.holders_of(key))
            for owner in owners:
                if owner not in holders and owner not in hint_targets:
                    found("under-replicated", key, owner,
                          f"owner {owner!r} holds no copy")
            for holder in holders:
                if holder not in owners and holder not in hint_holders:
                    found("orphan-copy", key, holder,
                          f"non-owner {holder!r} holds a copy")
            checksums = {
                self.shards[s].stat(key).checksum
                for s in holders if s in owners
            }
            if len(checksums) > 1:
                found("divergent-replicas", key,
                      ",".join(s for s in owners if s in holders),
                      f"{len(checksums)} distinct checksums")
        for hint in self.hints:
            orphaned = self._orphaned(hint)
            if orphaned is not None:
                found("orphan-hint", hint.key, *orphaned)
        for seq, record in self.journal.pending():
            found("migration-journal",
                  str(record.get("key", record.get("shard", ""))),
                  str(record.get("target", "")),
                  f"uncommitted {record.get('kind')} intent (seq {seq})")
        if repair and findings:
            self._repair_findings(findings)
        return {
            "clean": not findings,
            "checked_keys": len(keys),
            "checked_hints": len(self.hints),
            "findings": findings,
        }

    def _orphaned(self, hint: Hint) -> Optional[Tuple[str, str]]:
        """(the shard that is gone, why) for a hint nothing can honour."""
        if hint.target not in self.shards:
            return hint.target, "hint target left the cluster"
        if hint.op == api.PUT and (
                hint.holder not in self.shards
                or not self.shards[hint.holder].contains(hint.key)):
            return hint.holder, "hint holder lost the parked copy"
        return None

    def _repair_findings(self, findings: List[Dict[str, object]]) -> None:
        ctx = RequestContext(self.clock)
        recovered = False
        for finding in findings:
            kind = finding["kind"]
            if kind in ("under-replicated", "divergent-replicas"):
                repaired = self._sync_key(finding["key"])
                finding["repair"] = f"synced {repaired} replica(s)"
            elif kind == "orphan-copy":
                shard = finding["shard"]
                key = finding["key"]
                owners = self.owners(key)
                if any(self.shards[o].contains(key) for o in owners):
                    self.shards[shard].delete_object(key, ctx=ctx)
                    finding["repair"] = "dropped orphan copy"
                else:
                    repaired = self._copy_key(
                        key, shard, owners[0], ctx
                    )
                    finding["repair"] = (
                        "promoted orphan to owner" if repaired
                        else "kept (sole copy)"
                    )
            elif kind == "orphan-hint":
                for hint in self.hints:
                    if hint.key == finding["key"] and self._orphaned(hint):
                        self.hints.discard(hint.target, hint.key)
                finding["repair"] = "dropped orphan hint"
                self._hints_pending.set(len(self.hints))
            elif kind == "migration-journal" and not recovered:
                report = self.recover()
                finding["repair"] = (
                    f"recovered journal ({report['redone']} redone)"
                )
                recovered = True
            elif kind == "migration-journal":
                finding["repair"] = "recovered journal"

    # -- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-able snapshot for health()/stats/CLI."""
        ae_last = self.anti_entropy_runs[-1] if self.anti_entropy_runs else None
        return {
            "config": self.config.describe(),
            "replicas": self.replicas(),
            "shards": self.detector.summary(),
            "hints": {
                "pending": len(self.hints),
                "recorded": self.hints.recorded,
                "replayed": self.hints.replayed,
            },
            "anti_entropy": {
                "runs": len(self.anti_entropy_runs),
                "last": ae_last,
            },
            "migrations": self.migrations,
            "journal_pending": len(self.journal),
            "transitions": self.detector.transitions[-20:],
        }
