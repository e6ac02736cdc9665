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
  successor and park a hint, a :class:`~repro.core.deferred.Deferred`
  naming that holder, in the deferred-write queue the instance's
  resilience layer uses too; it drains deterministically when the
  owner returns;
* **anti-entropy** — a periodic key-by-key comparison of each replica
  group's owners, repairing divergence toward the highest
  ``(version, checksum)`` copy;
* **crash-safe migration** — add/remove-shard journals a membership
  intent plus per-key move intents through a durability-layer
  :class:`~repro.core.durability.IntentJournal`, so a crash mid-
  migration never loses or double-owns a key; :meth:`ClusterManager.fsck`
  checks the cluster-scope invariants (replica count, no orphan hints,
  single ownership, empty journal).

Everything runs on the simulated clock and draws no randomness of its
own: same-seed runs produce byte-identical op envelopes, transition
logs, and repair logs — the ``shard_failover`` figure row's report
digests pin exactly that.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import api
from repro.core.api import BatchOp, BatchResult, OpResult
from repro.core.deferred import (
    DROPPED,
    REPLAYED,
    REQUEUED,
    Deferred,
    DeferredQueue,
)
from repro.core.durability import Intent, IntentJournal
from repro.core.errors import ClusterUnavailableError, NoQuorumError, TieraError
from repro.core.objects import ObjectMeta
from repro.kvstore.store import MemoryStore
from repro.obs.audit import AuditRecord
from repro.obs.registry import ChildCache
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

#: Bound on the in-memory transition / repair-run logs, which keep
#: their newest entries.
_LOG_CAP = 1000

#: Consecutive probe misses before a shard is marked down (one miss
#: already makes it suspect).
DOWN_AFTER_MISSES = 2
#: Consecutive data-path infra failures before a shard is marked down
#: without waiting for the prober.
OP_FAILURE_THRESHOLD = 3
#: Who sends a replica op besides a client request: the role prefixes
#: the op in the routing and outcome counters (``replay-put``; a
#: client's op is bare).
HANDOFF, REPLAY, REPAIR, MIGRATE = "handoff", "replay", "repair", "migrate"


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
        }


#: What a router built without ``replication=`` runs its membership
#: changes at: one owner per key, no timers.
UNREPLICATED = ClusterConfig(
    replication_factor=1, write_quorum=1, anti_entropy_interval=0
)


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
        if shard not in self.state or (
                self.state[shard] == UP and not self.misses[shard]
                and not self.op_failures[shard]):
            return  # unknown, or up with nothing to forget
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
        _log(self.transitions, {
            "time": self.manager.clock.now(),
            "shard": shard,
            "from": old,
            "to": new,
        })
        self.manager._note_transition(shard, old, new)

    def summary(self) -> Dict[str, str]:
        return {shard: self.state[shard] for shard in sorted(self.state)}


def _log(entries: List[Dict[str, object]], record: Dict[str, object]) -> None:
    """Append ``record`` to a cluster log, dropping its oldest entries
    past :data:`_LOG_CAP`."""
    entries.append(record)
    del entries[:-_LOG_CAP]


def _precedence(copies: Dict[str, ObjectMeta]):
    """The sort key of replica precedence over a
    :meth:`ClusterManager._copies` view: the highest
    ``(version, checksum)`` wins, ties to the greater shard name."""
    return lambda shard: (copies[shard].version, copies[shard].checksum, shard)


def _public_verb(server, op: BatchOp, ctx) -> OpResult:
    """``op`` through ``server``'s public verb: the one place this
    module calls a shard's data API."""
    if op.op == api.GET:
        return server.get_object(op.key, prefer=op.prefer, ctx=ctx)
    if op.op == api.PUT:
        return server.put_object(op.key, op.data, tags=op.tags, ctx=ctx)
    return server.delete_object(op.key, ctx=ctx)


def _gone(result: OpResult) -> bool:
    """Is ``result`` a delete of a copy the replica never held?  From
    the cluster's point of view that replica took the delete."""
    return result.op == api.DELETE and result.error == "NO_SUCH_OBJECT"


def _took(written: Optional[List[OpResult]]) -> bool:
    """Did a :meth:`ClusterManager._transfer` read its source and land
    every put?"""
    return written is not None and all(put.ok for put in written)


# -- the migration intents: every journaled cluster mutation, declared once --

#: What a pending record's redo came to (the ``recover()`` report's keys).
REDONE, CONFIRMED, ABORTED = "redone", "confirmed", "aborted"


def _fields(*names: str):
    """A plan that journals its arguments under ``names``."""
    return lambda *values: dict(zip(names, values))


def _redo_membership(manager, record, ctx) -> None:
    """Nothing of its own: the rebalance sweep every ``recover()`` ends
    with is what finishes a membership change, so the record is retired
    after it (``None``: not yet)."""
    return None


def _redo_move(manager, record, ctx) -> str:
    key, source, target = record["key"], record["source"], record["target"]
    if target not in manager.shards:
        return ABORTED  # the target left the cluster
    if manager.shards[target].contains(key):
        return CONFIRMED
    if (source in manager.shards and manager.shards[source].contains(key)
            and _took(manager._transfer(key, source, [target], ctx, MIGRATE))):
        return REDONE
    return ABORTED


def _redo_drop(manager, record, ctx) -> str:
    key, shard = record["key"], record["shard"]
    if (shard not in manager.shards
            or not manager.shards[shard].contains(key)
            or shard in manager.owners(key)):
        return CONFIRMED
    # Only while an owner holds the key; else the sweep re-plans it.
    took = manager.contains(key) and manager._drop(shard, key, ctx, MIGRATE).ok
    return REDONE if took else ABORTED


#: The journaled migration steps.  ``plan(*args)`` gives the record's
#: own fields; ``redo(manager, record, ctx)`` is what ``recover()`` does
#: with a pending one; ``points`` are the crash points the bracket
#: (:meth:`ClusterManager._journaled`) announces after the begin, after
#: the body and after the commit, as far as the row names them.
MIGRATION_INTENTS: Dict[str, Intent] = {
    "cluster.membership": Intent(
        _fields("action", "shard"), _redo_membership,
        ("cluster.migrate.begin", "cluster.migrate.done"),
    ),
    "cluster.move": Intent(
        _fields("key", "source", "target"), _redo_move,
        ("cluster.move.intent", "cluster.move.copied", "cluster.move.done"),
    ),
    "cluster.drop": Intent(_fields("key", "shard"), _redo_drop, ()),
}

#: Every boundary the bracket announces, in pass order: the membership
#: bracket opens, the per-key rows run inside it, it closes.
_membership, *_per_key = MIGRATION_INTENTS.values()
MIGRATION_CRASH_POINTS: Tuple[str, ...] = (
    _membership.points[:1]
    + tuple(point for row in _per_key for point in row.points)
    + _membership.points[1:]
)


class ClusterManager:
    """The data plane, replication, healing, and journaled migration
    over the router.

    Every :class:`~repro.core.sharding.ShardedTieraServer` owns one: it
    is the one way a client op reaches a shard and the one way shards
    join and leave, at every replication factor.  A router built with
    ``replication=ClusterConfig(...)`` arms the timers; without, it runs
    at :data:`UNREPLICATED`.  ``router`` supplies the ring, the shard
    map, the clock, and the observability hub.
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
        self.hints = DeferredQueue()
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
        self._op_cells = ChildCache(self._bind_op)
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

    # -- the data path ----------------------------------------------------

    def _ctx(self, ctx: Optional[RequestContext]) -> RequestContext:
        return ctx if ctx is not None else RequestContext(self.clock)

    def _replica_op(
        self, shard: str, op: BatchOp, ctx: RequestContext, role: str = ""
    ) -> OpResult:
        """Send ``op`` to ``shard`` — the only way this class does: the
        shard's public verb → detector feedback → outcome counter → the
        envelope, for the caller to act on.  A client request's fan-out,
        hinted handoff and failover read call it directly; hint replay,
        replica repair and migration reach it through :meth:`_transfer`
        and :meth:`_drop`."""
        ok, failed = self._op_cells[shard, role, op.op]
        result = _public_verb(self.shards[shard], op, ctx)
        took = result.ok or _gone(result)
        if took:
            self.detector.note_success(shard)
        elif result.error in _INFRA_CODES:
            self.detector.note_failure(shard)
        (ok if took else failed).inc()
        return result

    def _bind_op(self, key: Tuple[str, str, str]):
        """The ok/error outcome cells of one ``(shard, role, verb)``,
        whose ``op`` label is ``role-verb``."""
        shard, role, verb = key
        label = f"{role}-{verb}" if role else verb
        return (
            self._replica_ops.child(shard=shard, op=label, outcome="ok"),
            self._replica_ops.child(shard=shard, op=label, outcome="error"),
        )

    def _drop(
        self, shard: str, key: str, ctx: RequestContext, role: str
    ) -> OpResult:
        """Delete ``shard``'s copy of ``key`` as ``role``; a copy the
        shard never held is an ok drop."""
        result = self._replica_op(shard, BatchOp.delete(key), ctx, role)
        if _gone(result):
            return OpResult(op=api.DELETE, key=key, ok=True,
                            latency=result.latency)
        return result

    def _transfer(
        self, key: str, source: str, targets: Sequence[str],
        ctx: RequestContext, role: str, verify: Optional[str] = None,
    ) -> Optional[List[OpResult]]:
        """Copy ``key`` — bytes and tags — from one shard to others, by
        name: one read of ``source``, one put per target, all on ``ctx``
        and sent by :meth:`_replica_op` as ``role``.

        Every movement of an object between shards is this method:
        migration, hint replay, replica repair.  Returns the puts'
        envelopes in ``targets`` order, or ``None`` without writing
        anything when the source copy cannot be read or — given
        ``verify``, the checksum its metadata records — does not match
        it."""
        fetched = self._replica_op(source, BatchOp.get(key), ctx, role)
        if not fetched.ok or (verify is not None and fetched.checksum != verify):
            return None
        copy = BatchOp.put(
            key, fetched.value, tags=sorted(self.shards[source].stat(key).tags)
        )
        return [self._replica_op(target, copy, ctx, role) for target in targets]

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

    def put_object(
        self,
        key: str,
        data: bytes,
        *,
        tags: Optional[List[str]] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._run_op(
            BatchOp.put(key, data, tags=tags), self._ctx(ctx), trace
        )

    def delete_object(
        self,
        key: str,
        *,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._run_op(BatchOp.delete(key), self._ctx(ctx), trace)

    def _run_op(
        self, op: BatchOp, ctx: RequestContext, trace: bool = False
    ) -> OpResult:
        """One client op — the owner's own op when a key has one owner,
        else a quorum write or a failover read — inside the request
        bracket (:func:`repro.core.api.run_request`), which closes it on
        the router's own hub once, whatever R is."""
        if self.replicas() == 1:
            body = self._owner_op
        else:
            body = self._read if op.op == api.GET else self._write
        return api.run_request(self.obs, op, ctx, trace, body)

    def _owner_op(self, op: BatchOp, ctx: RequestContext) -> OpResult:
        """A key with one owner: that shard's envelope, or its error
        raised.  One copy has nothing to vote against and a hinted copy
        could never count toward its quorum, so there is no vote, no
        hint, and a refusal keeps the shard's own code."""
        result = self._replica_op(self.ring.owner(op.key), op, ctx)
        if result.ok:
            return result
        raise result.exception

    def _write(self, write: BatchOp, ctx: RequestContext) -> OpResult:
        """Fan ``write`` out to the key's owners; the envelope once a
        quorum acked, :class:`NoQuorumError` otherwise."""
        op, key = write.op, write.key
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
            result = self._replica_op(shard, write, branches.branch())
            if result.ok or _gone(result):
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
                tier=",".join(sorted(shard_names)),
                checksum=template.checksum,
                size=template.size,
            )
        self._quorum_failures.inc(op=op)
        raise NoQuorumError(key, len(acked), quorum, causes)

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
        if op == api.PUT:
            # A delete owed to a down shard parks no bytes — just the
            # intent to delete when the target returns, so only a put
            # sends the holder anything.
            result = self._replica_op(
                holder, write, branches.branch(), HANDOFF
            )
            if not result.ok:
                causes.append((holder, result.exception))
                return
        self.hints.add(Deferred(key, target, holder, op))
        self._hints_recorded.inc(target=target)
        self._hints_pending.set(len(self.hints))

    def get_object(
        self,
        key: str,
        *,
        prefer: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._run_op(
            BatchOp.get(key, prefer=prefer), self._ctx(ctx), trace
        )

    def _read(self, read: BatchOp, ctx: RequestContext) -> OpResult:
        """Checksum-verified failover read along the owner list.

        Attempts are sequential (a client retries replicas one after
        another), detector-down shards last: down is not missing, and
        trying one feeds the detector.  A returned payload is
        accepted only if its content checksum matches the majority of
        the owners' recorded checksums; a corrupt or stale copy is
        skipped and queued for background repair.  When no replica
        serves it, raises the missing-key error only if every owner
        answered missing, else :class:`ClusterUnavailableError`.
        """
        key = read.key
        owners = self.owners(key)
        # A stable sort: the up owners in ring order, then the down ones.
        candidates = sorted(owners, key=self.detector.is_down)
        expected = self._checksum_vote(key, owners)
        causes: List[Tuple[str, BaseException]] = []
        missing = 0
        for shard in candidates:
            result = self._replica_op(shard, read, ctx)
            if result.ok:
                if expected is not None and result.checksum != expected:
                    causes.append(
                        (shard, ClusterUnavailableError(
                            key, detail=f"checksum mismatch on {shard!r}"))
                    )
                    self._schedule_repair(key)
                    continue
                if shard != owners[0]:
                    self._failover_reads.inc(shard=owners[0])
                if missing or causes:
                    self._schedule_repair(key)
                return result
            missing += result.error == "NO_SUCH_OBJECT"
            causes.append((shard, result.exception))
        if missing == len(candidates):
            # Every owner agrees the key does not exist.
            raise causes[0][1]
        raise ClusterUnavailableError(key, causes=causes)

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
        """Fan a batch out by ring owner, at every R.

        Items group by their key's ring owner and each group runs on its
        own branch of a scatter/join, lane-scheduled over ``parallelism``
        lanes, every item one client op (:meth:`_run_op`).  Owners are
        independent instances, so the router pays the slowest group,
        not the sum, and results come back in submission order.  The
        bracket (:func:`repro.core.api.run_batch`) admits the whole
        batch on the router and each group's share on its owner before
        any item runs.  With tracing on, each group gets a ``shard``
        child of the batch root, its items' ``op`` spans under it.
        """
        ops = list(ops)
        groups: Dict[str, List[int]] = {}  # submission indices, by owner
        for index, op in enumerate(ops):
            groups.setdefault(self.ring.owner(op.key), []).append(index)
        names = sorted(groups)

        def fan_out(ops, lanes, ctx, parent):
            results: List[Optional[OpResult]] = [None] * len(ops)
            branches = ctx.scatter()
            for name in names:
                indices = groups[name]
                bctx = branches.branch()
                span = None
                if parent is not None:
                    span = bctx.span = parent.child(
                        name, "shard", bctx.time,
                        shard=name, items=len(indices),
                    )
                group = api.schedule_lanes(
                    [ops[i] for i in indices], lanes, bctx, span,
                    self._run_op,
                )
                if span is not None:
                    span.finish(bctx.time)
                    bctx.span = None
                for index, item in zip(indices, group):
                    results[index] = item
            branches.join()
            return results, {"shards": len(groups)}

        return api.run_batch(
            ops, parallelism, self._ctx(ctx), trace, self.obs,
            self.router.admission, fan_out,
            shares=[
                (self.shards[name].admission, len(groups[name]))
                for name in names
            ],
        )

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
        self, name: str, ctx: Optional[RequestContext] = None,
        **attrs: object,
    ):
        """The bracket around a piece of maintenance work: a fresh
        context under a background trace root (or the ``ctx`` of the
        sweep this work is part of, nesting under that sweep's root).
        Yields the context and the root (``None`` when tracing is off
        or the context was lent)."""
        root = None
        if ctx is None:
            ctx = RequestContext(self.clock)
            root = self.obs.tracer.start_background(name, ctx, **attrs)
        try:
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
        if self.replicas() > 1:  # one owner per key: no copies to compare
            self.anti_entropy()

    def replay_hints(self, target: Optional[str] = None) -> Dict[str, object]:
        """Drain parked writes whose targets are reachable, FIFO
        (docs/RESILIENCE.md, "One deferred-write queue").

        Hints for a target that is down, or that refused one replay in
        this drain, re-queue; a hint whose holder lost the bytes is
        dropped — anti-entropy owns that divergence."""

        def replay(hint: Deferred) -> str:
            outcome = self._replay(hint, ctx)
            self._hint_replays.inc(
                target=hint.target,
                outcome="ok" if outcome == REPLAYED else outcome,
            )
            return outcome

        with self._background(
            f"hint-replay {target or '*'}", target=target or "*",
        ) as (ctx, root):
            counts = {"target": target or "*",
                      **self.hints.drain(target, self._ready, replay)}
            self._hints_pending.set(len(self.hints))
            moved = counts[REPLAYED]
            if root is not None:
                root.attrs.update(
                    replayed=moved, dropped=counts[DROPPED],
                    requeued=counts[REQUEUED],
                )
        record = {"time": self.clock.now(), **counts}
        if moved or counts[DROPPED] or counts[REQUEUED]:
            _log(self.replay_runs, record)
            self._audit(target or "*", "hint-replay", counts, moved=moved)
        return record

    def _ready(self, shard: str) -> bool:
        """May hints replay to ``shard`` now?"""
        return shard in self.shards and not self.detector.is_down(shard)

    def _parked_on(self, key: str) -> set:
        """Shards holding a parked copy of ``key`` for some hint."""
        return {h.holder for h in self.hints.for_key(key) if h.op == api.PUT}

    def _replay(self, hint: Deferred, ctx: RequestContext) -> str:
        """Send one hint's write to its target: ``replayed``,
        ``requeued`` (the target refused) or ``dropped``."""
        if hint.op == api.DELETE:
            took = self._drop(hint.target, hint.key, ctx, REPLAY).ok
            return REPLAYED if took else REQUEUED
        holder = self.shards.get(hint.holder)
        if holder is None or not holder.contains(hint.key):
            return DROPPED  # the holder lost the bytes
        if not _took(self._transfer(
                hint.key, hint.holder, [hint.target], ctx, REPLAY)):
            return REQUEUED
        if (hint.holder not in self.owners(hint.key)
                and hint.holder not in self._parked_on(hint.key)):
            # The parked copy served its purpose; drop the stray so the
            # key is held only by its owners again.  The replay took
            # either way: a refused drop has fed the detector and its
            # outcome counter (the bracket), and the stray it leaves is
            # fsck's ``orphan-copy`` to find and drop.
            self._drop(hint.holder, hint.key, ctx, REPLAY)
        return REPLAYED

    # -- self-healing: anti-entropy ----------------------------------------

    def _copies(self, key: str, shards: Sequence[str]) -> Dict[str, ObjectMeta]:
        """The replica view: ``{shard: its copy's metadata}`` for each of
        ``shards`` that holds ``key``, in the order given.  One
        ``contains`` and one ``stat`` per shard, no payload read and no
        virtual time; anti-entropy, fsck, replica repair and the
        rebalance sweep all ask the shards through it."""
        copies: Dict[str, ObjectMeta] = {}
        for shard in shards:
            server = self.shards[shard]
            if server.contains(key):
                copies[shard] = server.stat(key)
        return copies

    def _diverges(self, key: str, shards: Sequence[str]) -> bool:
        """Do ``shards`` disagree on ``key``?  Each one's view is its
        copy's checksum, or absent.  Versions stay out: a repair bumps
        the version of the copy it rewrites, so comparing versions would
        keep a healed group divergent forever."""
        copies = self._copies(key, shards)
        views = {copies[s].checksum if s in copies else None for s in shards}
        return len(views) > 1

    def anti_entropy(self) -> Dict[str, object]:
        """One sweep: compare every replica group's reachable owners key
        by key and repair each key whose views differ toward the highest
        (version, checksum) copy.  Groups with an unreachable member are
        compared among the reachable ones only; the next sweep after
        recovery finishes the job."""
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for key in self.router.keys():
            groups.setdefault(tuple(self.owners(key)), []).append(key)
        divergent_groups = 0
        skipped_groups = 0
        repairs = 0
        with self._background("anti-entropy") as (ctx, root):
            for owner_set in sorted(groups):
                reachable = [s for s in owner_set
                             if not self.detector.is_down(s)]
                if len(reachable) < 2:
                    skipped_groups += 1
                    continue
                divergent = [key for key in sorted(groups[owner_set])
                             if self._diverges(key, reachable)]
                divergent_groups += bool(divergent)
                for key in divergent:
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
        _log(self.anti_entropy_runs, record)
        if divergent_groups:
            self._audit("anti-entropy", "timer", counts, moved=repairs)
        return record

    def _schedule_repair(self, key: str) -> None:
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
        with self._background(f"read-repair {key}", ctx, key=key) as (ctx, _):
            return self._converge_replicas(key, ctx)

    def _converge_replicas(self, key: str, ctx: RequestContext) -> int:
        reachable = [
            s for s in self.owners(key) if not self.detector.is_down(s)
        ]
        copies = self._copies(key, reachable)
        recorded = {shard: meta.checksum for shard, meta in copies.items()}
        for shard in sorted(copies, key=_precedence(copies), reverse=True):
            # Trust a recorded checksum equal to the winner's; deep
            # verification is the read path's job.  Divergence here
            # means a missed or torn write.
            checksum = recorded[shard]
            stale = [s for s in reachable if recorded.get(s) != checksum]
            written = self._transfer(
                key, shard, stale, ctx, REPAIR, verify=checksum
            )
            if written is None:
                continue  # bit-rotted or unreadable: cannot win
            repaired = [s for s, put in zip(stale, written) if put.ok]
            for name in repaired:
                self._ae_repairs.inc(shard=name)
            return len(repaired)
        return 0

    # -- crash-safe migration --------------------------------------------

    def _crash(self, point: Optional[str]) -> None:
        if point is not None and self.crash_points is not None:
            self.crash_points.reach(point)

    def _journaled(self, kind: str, *args: object, body) -> bool:
        """The migration bracket: journal the ``kind`` row's intent, run
        ``body()``, commit — the row's crash points after each step.
        There are two exits and no abort: the body took (it returned
        true) and the record is committed, or anything else — a shard
        refused with an error envelope, an exception, the process died —
        and the record stays pending, which is :meth:`recover`'s (and
        fsck's ``migration-journal``) to finish.  Returns whether it
        committed."""
        row = MIGRATION_INTENTS[kind]
        journaled, applied, retired = (row.points + (None,) * 3)[:3]
        seq = self.journal.begin({"kind": kind, **row.plan(*args)})
        self._crash(journaled)
        if not body():
            return False
        self._crash(applied)
        self.journal.commit(seq)
        self._crash(retired)
        return True

    def add_shard(self, name: str, server) -> int:
        """Join a shard with journaled, crash-safe key migration."""
        def join() -> None:
            self.shards[name] = server
            self.ring.add(name)
            self.detector.register(name)

        return self._change_membership(
            "add", name, join, lambda: self.ring.remove(name)
        )

    def remove_shard(self, name: str) -> int:
        """Drain and remove a shard, journaled like :meth:`add_shard`.
        The departing shard stays in the map while the rebalance sweep
        copies its keys to their new owners (it is a source, never a
        target, once off the ring)."""
        return self._change_membership(
            "remove", name, lambda: self.ring.remove(name),
            lambda: self.ring.add(name),
        )

    def _change_membership(self, action: str, shard: str, change, revert) -> int:
        """One membership intent around the ring ``change`` and the
        rebalance sweep that follows it; it commits once the sweep has
        visited every key (a step the sweep could not finish keeps its
        own record pending) and left every key held by an owner.

        Otherwise the change is refused: ``revert`` restores the ring,
        :meth:`recover` moves every copy back under it, retires what the
        sweep left pending and lets a drained joiner go, and a
        :class:`TieraError` says so."""
        moved, stranded = 0, []

        def sweep() -> bool:
            nonlocal moved, stranded
            change()
            moved = self._rebalance()
            stranded = self._stranded()
            return not stranded

        if not self._journaled("cluster.membership", action, shard, body=sweep):
            revert()
            self.recover()
            done = "added" if action == "add" else "removed"
            raise TieraError(
                f"shard {shard!r} not {done}: {len(stranded)} keys would "
                "have no owner holding them"
            )
        if action == "remove":
            self._leave(shard)
        self.migrations += moved
        self._audit(
            shard, f"migrate-{action}", {"action": action, "moved": moved},
            moved=moved,
        )
        return moved

    def _rebalance(self) -> int:
        """Make key placement match the ring, one journaled step at a
        time: copy to missing owners, then drop from non-owners.  Every
        step is redo-logged, so replaying a crashed rebalance converges
        to the same placement; a step a shard refuses stays pending and
        uncounted, and the sweep carries on."""
        ctx = RequestContext(self.clock)
        moved = 0
        names = sorted(self.shards)
        for key in self.router.keys():
            owners = self.owners(key)
            holders = self._copies(key, names)
            if not holders:
                continue
            source = max(holders, key=_precedence(holders))
            for target in owners:
                if target not in holders and self._journaled(
                    "cluster.move", key, source, target,
                    body=lambda: _took(self._transfer(
                        key, source, [target], ctx, MIGRATE)),
                ):
                    moved += 1
                    self._moves.inc(kind="copy")
            hint_holders = self._parked_on(key)
            for holder in holders:
                # A copy goes only while an owner holds the key.
                if (holder not in owners and holder not in hint_holders
                        and self.contains(key) and self._journaled(
                            "cluster.drop", key, holder,
                            body=lambda: self._drop(
                                holder, key, ctx, MIGRATE).ok)):
                    self._moves.inc(kind="drop")
        return moved

    def _stranded(self) -> List[str]:
        """Keys some shard holds and none of their owners does."""
        return [key for key in self.router.keys() if not self.contains(key)]

    def _leave(self, shard: str) -> None:
        del self.shards[shard]
        self.detector.forget(shard)
        if self.hints.discard(shard):  # writes owed to it go with it
            self._hints_pending.set(len(self.hints))

    def recover(self) -> Dict[str, object]:
        """Finish whatever a crashed or refused migration left pending.

        Build the manager over the *same* journal store and the union of
        shards (including any shard that was mid-join), then call this:
        each pending record goes through its row's ``redo`` — a move is
        confirmed, redone or (its source or target gone) aborted, a drop
        redone, confirmed or (no owner holds the key) aborted — and a
        full rebalance sweep reconciles placement with the ring before
        the membership intents commit.  A shard off the ring (a refused
        joiner) leaves the map once the sweep has drained it."""
        ctx = RequestContext(self.clock)
        counts = {REDONE: 0, CONFIRMED: 0, ABORTED: 0}
        after_sweep: List[int] = []
        for seq, record in self.journal.pending():
            row = MIGRATION_INTENTS.get(record.get("kind"))
            outcome = ABORTED if row is None else row.redo(self, record, ctx)
            if outcome is None:
                after_sweep.append(seq)
                continue
            counts[outcome] += 1
            if outcome == ABORTED:
                self.journal.abort(seq)
            else:
                self.journal.commit(seq)
        rebalanced = self._rebalance()
        for name in set(self.shards) - set(self.ring.shards()):
            if not self.shards[name].keys():
                self._leave(name)  # a refused joiner, drained
        for seq in after_sweep:
            self.journal.commit(seq)
        report = {
            **counts,
            "rebalanced": rebalanced,
            "journal_pending": len(self.journal),
        }
        self._audit(
            "recover", "migration-journal", dict(report),
            moved=report[REDONE] + rebalanced,
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
        names = sorted(self.shards)
        for key in keys:
            owners = self.owners(key)
            holders = self._copies(key, names)
            if not holders:
                continue
            hint_targets = {h.target for h in self.hints.for_key(key)}
            hint_holders = self._parked_on(key)
            for owner in owners:
                if owner not in holders and owner not in hint_targets:
                    found("under-replicated", key, owner,
                          f"owner {owner!r} holds no copy")
            for holder in holders:
                if holder not in owners and holder not in hint_holders:
                    found("orphan-copy", key, holder,
                          f"non-owner {holder!r} holds a copy")
            checksums = {
                meta.checksum for s, meta in holders.items() if s in owners
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

    def _orphaned(self, hint: Deferred) -> Optional[Tuple[str, str]]:
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
        recovered: Optional[Dict[str, object]] = None
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
                    dropped = self._drop(shard, key, ctx, REPAIR)
                    finding["repair"] = (
                        "dropped orphan copy" if dropped.ok
                        else f"kept (drop refused: {dropped.error})"
                    )
                else:
                    promoted = _took(self._transfer(
                        key, shard, owners[:1], ctx, REPAIR
                    ))
                    finding["repair"] = (
                        "promoted orphan to owner" if promoted
                        else "kept (sole copy)"
                    )
            elif kind == "orphan-hint":
                for hint in self.hints.for_key(finding["key"]):
                    if self._orphaned(hint):
                        self.hints.discard(hint.target, hint.key)
                finding["repair"] = "dropped orphan hint"
                self._hints_pending.set(len(self.hints))
            elif kind == "migration-journal":
                if recovered is None:  # one recover() finishes them all
                    recovered = self.recover()
                finding["repair"] = (
                    f"recovered journal ({recovered[REDONE]} redone)"
                )

    # -- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-able snapshot for health()/stats/CLI."""
        if not self._timers:
            # No heartbeat is armed (an unreplicated router): reading
            # the detector is the probe.
            self.detector.tick()
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
                "runs": int(self._ae_runs.value()),
                "last": ae_last,
            },
            "migrations": self.migrations,
            "journal_pending": len(self.journal),
            "transitions": self.detector.transitions[-20:],
        }
