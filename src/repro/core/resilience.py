"""The resilience layer: retries, circuit breakers, degraded-mode serving.

The paper's headline demo (Figure 17) survives an EBS outage by a
*human-scale* mechanism: an external monitor notices canary writes
failing and swaps the tier out minutes later.  This module adds the
machine-scale mechanisms that ride through transient weather without a
visible outage:

* **Retries** — transient errors (:class:`TransientServiceError`) are
  retried per tier with exponential backoff plus jitter, charged to the
  request's *virtual* timeline (never wall clock).  Hard unavailability
  (the full-timeout path) is not retried; it feeds the breaker instead.
* **Circuit breakers** — per tier, closed → open after a run of
  failures, half-open after a virtual-time cooldown, closed again on a
  successful trial.  An open breaker fails fast: no 5-second timeout is
  paid per request against a dead service.
* **Degraded-mode writes** — a write whose target tier is sick (breaker
  open, or retries exhausted) redirects to a surviving tier and parks a
  deferred write (:mod:`repro.core.deferred`, the queue the shard
  cluster's hinted handoff uses too); the repair queue replays the
  redirected writes to the original tier when it is ready again.
* **Verified failover reads** — when an object's recorded checksum is
  verifiable, reads are checked against it; corrupt copies are skipped
  (the next located tier serves) and repaired in the background from a
  good replica (read-repair).

Determinism: the only randomness is retry jitter, drawn from the
layer's own seeded RNG only when a retry actually happens.  With zero
faults injected there are no retries, no breaker transitions, no queue
activity, and no RNG draws — enabling the layer does not move a single
simulated timestamp.

Everything observable lands in the PR-1 obs layer: counters
(``tiera_retries_total``, ``tiera_degraded_writes_total``,
``tiera_read_repairs_total``, ``tiera_repair_replays_total``,
``tiera_corruptions_detected_total``), gauges (``tiera_breaker_state``,
``tiera_repair_queue_depth``), and audit records for breaker
transitions, degraded writes, read-repairs, and replay batches.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Collection, Dict, List, TypeVar

from repro.core.deferred import (
    DROPPED,
    REPLAYED,
    REQUEUED,
    Deferred,
    DeferredQueue,
)
from repro.core.errors import BreakerOpenError, TieraError
from repro.obs.audit import AuditRecord
from repro.obs.registry import owner_count
from repro.simcloud.errors import (
    ServiceUnavailableError,
    SimCloudError,
    TransientServiceError,
)
from repro.simcloud.resources import RequestContext

T = TypeVar("T")

#: Breaker states, also the value of the ``tiera_breaker_state`` gauge.
CLOSED, HALF_OPEN, OPEN = "closed", "half-open", "open"
_STATE_VALUE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


#: Retry policy: attempts per operation, the first backoff (virtual
#: seconds), its growth per attempt, and the extra fraction of each
#: backoff drawn in ``[0, JITTER)``.
RETRY_ATTEMPTS = 3
BACKOFF_BASE = 0.05
BACKOFF_MULTIPLIER = 2.0
JITTER = 0.5
#: Circuit breaker: consecutive failures that open it, and the open →
#: half-open cooldown (virtual seconds).
BREAKER_THRESHOLD = 3
BREAKER_RESET = 30.0


def backoff(attempt: int, rng: random.Random) -> float:
    """Backoff before attempt ``attempt + 1`` (attempt counts from 1)."""
    base = BACKOFF_BASE * (BACKOFF_MULTIPLIER ** (attempt - 1))
    return base * (1.0 + JITTER * rng.random())


class CircuitBreaker:
    """One tier's closed/open/half-open state machine."""

    def __init__(self, tier: str, clock):
        self.tier = tier
        self.clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.transitions = 0

    def allow(self) -> bool:
        """May an operation proceed right now?  An open breaker flips to
        half-open (one trial allowed) once the cooldown has passed."""
        if self.state == OPEN:
            if self.clock.now() - self.opened_at >= BREAKER_RESET:
                self._transition(HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> bool:
        """Returns True when this success *closed* a non-closed breaker."""
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._transition(CLOSED)
            return True
        return False

    def record_failure(self) -> bool:
        """Returns True when this failure *opened* the breaker."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self._transition(OPEN)
            return True
        if (
            self.state == CLOSED
            and self.consecutive_failures >= BREAKER_THRESHOLD
        ):
            self._transition(OPEN)
            return True
        return False

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions += 1
        if state == OPEN:
            self.opened_at = self.clock.now()

    def describe(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "transitions": self.transitions,
        }


class ResilienceLayer:
    """Retries + breakers + repair queue for one Tiera instance."""

    def __init__(self, instance):
        self.instance = instance
        self.clock = instance.clock
        # The jitter RNG's seed comes from the instance name.
        self.rng = random.Random(
            zlib.crc32(instance.name.encode("utf-8")) ^ 0x9E3779B9
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.repair_queue = DeferredQueue()
        self._replay_scheduled: Dict[str, bool] = {}
        obs = instance.obs
        self.obs = obs
        self.owner = instance.owner
        metrics = obs.metrics
        self._retries = metrics.counter(
            "tiera_retries_total", "Transient-error retries, by tier and op."
        )
        self._breaker_gauge = metrics.gauge(
            "tiera_breaker_state",
            "Circuit breaker state per tier (0 closed, 1 half-open, 2 open).",
        )
        self._degraded = metrics.counter(
            "tiera_degraded_writes_total",
            "Writes redirected to a surviving tier, by original tier.",
        )
        self._repairs = metrics.counter(
            "tiera_repair_replays_total",
            "Repair-queue tasks replayed to their original tier.",
        )
        self._read_repairs = metrics.counter(
            "tiera_read_repairs_total",
            "Corrupt tier copies rewritten from a verified replica.",
        )
        self._corruptions = metrics.counter(
            "tiera_corruptions_detected_total",
            "Checksum mismatches caught by verifying reads.",
        )
        metrics.add_collector(self._collect)

    # -- counts: read-only views over this layer's own cells ------------

    retry_count = owner_count("_retries")
    degraded_write_count = owner_count("_degraded")
    read_repair_count = owner_count("_read_repairs")
    replay_count = owner_count("_repairs")
    corruption_count = owner_count("_corruptions")

    # -- breaker plumbing -------------------------------------------------

    def breaker(self, tier_name: str) -> CircuitBreaker:
        br = self.breakers.get(tier_name)
        if br is None:
            br = self.breakers[tier_name] = CircuitBreaker(tier_name, self.clock)
            self._breaker_gauge.set(0, instance=self.owner, tier=tier_name)
        return br

    def allow(self, tier) -> bool:
        """Breaker admission check; audits open → half-open flips."""
        br = self.breaker(tier.name)
        before = br.state
        allowed = br.allow()
        if br.state != before:
            self._note_transition(br, before)
        return allowed

    def open_error(self, tier) -> BreakerOpenError:
        br = self.breaker(tier.name)
        return BreakerOpenError(
            tier.name, until=br.opened_at + BREAKER_RESET
        )

    def _note_transition(self, br: CircuitBreaker, before: str) -> None:
        self._breaker_gauge.set(
            _STATE_VALUE[br.state], instance=self.owner, tier=br.tier
        )
        self._audit(
            "breaker", br.tier, "resilience", foreground=False,
            detail={"from": before, "to": br.state},
        )

    def _audit(self, category: str, name: str, origin: str, **fields) -> None:
        self.obs.audit.append(AuditRecord(
            time=self.clock.now(), category=category, name=name,
            origin=origin, **fields,
        ))

    def _on_success(self, tier) -> None:
        br = self.breaker(tier.name)
        before = br.state
        if br.record_success():
            self._note_transition(br, before)
        # Recovery detection is traffic-driven: a success against a tier
        # with pending repairs (breaker just closed, or failures healed
        # before the breaker ever opened) schedules a background replay.
        if self.repair_queue.pending(tier.name):
            self.schedule_replay(tier.name)

    def _on_failure(self, tier) -> None:
        br = self.breaker(tier.name)
        before = br.state
        if br.record_failure():
            self._note_transition(br, before)

    # -- guarded operations ----------------------------------------------

    def attempt(
        self, tier, op: str, fn: Callable[[], T], ctx
    ) -> T:
        """Run one tier operation under breaker + retry policy.

        Transient errors retry with backoff charged to ``ctx``'s virtual
        timeline; hard unavailability and exhausted retries feed the
        breaker and propagate.
        """
        if not self.allow(tier):
            raise self.open_error(tier)
        attempt = 1
        while True:
            try:
                result = fn()
            except TransientServiceError:
                if attempt >= RETRY_ATTEMPTS:
                    self._on_failure(tier)
                    raise
                self._retries.inc(instance=self.owner, tier=tier.name, op=op)
                ctx.wait(backoff(attempt, self.rng))
                attempt += 1
                continue
            except ServiceUnavailableError:
                self._on_failure(tier)
                raise
            self._on_success(tier)
            return result

    def guarded_put(self, tier, key: str, data: bytes, ctx) -> None:
        self.attempt(tier, "put", lambda: tier.put(key, data, ctx), ctx)

    def guarded_get(self, tier, key: str, ctx) -> bytes:
        return self.attempt(tier, "get", lambda: tier.get(key, ctx), ctx)

    def guarded_delete(self, tier, key: str, ctx) -> None:
        self.attempt(tier, "delete", lambda: tier.delete(key, ctx), ctx)

    # -- degraded-mode writes ---------------------------------------------

    def redirect_write(
        self, key: str, data: bytes, failed_tier: str, ctx, cause: Exception,
        avoid: Collection[str] = (),
    ) -> str:
        """Write ``key`` to a surviving tier instead of ``failed_tier``
        and defer the write to ``failed_tier``; returns the fallback
        tier's name.

        ``avoid`` are the tiers the caller is moving ``key`` out of: an
        eviction never degrades into its own source.  Raises the
        original ``cause`` when no tier can take the write (nowhere to
        degrade to — a genuine outage)."""
        instance = self.instance
        fallback = None
        for tier in instance.tiers.ordered():
            if tier.name == failed_tier or tier.name in avoid or not tier.available:
                continue
            if self.breaker(tier.name).state == OPEN:
                continue
            if not tier.can_fit(len(data)):
                continue  # a degraded write never evicts
            fallback = tier
            break
        if fallback is None:
            raise cause
        instance.relocate(key, (fallback.name,), ctx, data=data, redirect=False)
        self._degraded.inc(
            instance=self.owner, tier=failed_tier, fallback=fallback.name
        )
        enqueued = self.defer(key, failed_tier)
        self._audit(
            "degraded-write", key, "resilience",
            tiers_touched=(failed_tier, fallback.name),
            error=f"{type(cause).__name__}: {cause}",
            detail={"fallback": fallback.name, "repair_enqueued": enqueued},
        )
        return fallback.name

    # -- verified reads + read-repair -------------------------------------

    def verifiable(self, meta) -> bool:
        """Can stored bytes be checked against ``meta.checksum``?
        Compression/encryption rewrite the stored form, so only plain
        objects with a recorded content checksum are verifiable."""
        return bool(
            meta.checksum and not meta.compressed and not meta.encrypted
        )

    def verify(self, meta, data: bytes) -> bool:
        from repro.core.objects import content_checksum

        return content_checksum(data) == meta.checksum

    def note_corruption(self, tier, key: str) -> None:
        self._corruptions.inc(instance=self.owner, tier=tier.name)

    def read_repair(
        self, key: str, data: bytes, corrupted_tiers: List[str], ctx
    ) -> None:
        """Rewrite a verified copy over each corrupt one, off the client's
        latency path (background context forked at the current instant)."""
        bg = ctx.fork()
        for tier_name in corrupted_tiers:
            try:
                self.instance.relocate(
                    key, (tier_name,), bg, data=data, redirect=False
                )
            except Exception as exc:  # noqa: BLE001 - repair is best-effort
                self.defer(key, tier_name)
                self._audit(
                    "repair", key, "read-repair", foreground=False,
                    tiers_touched=(tier_name,),
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            self._read_repairs.inc(instance=self.owner, tier=tier_name)
            self._audit(
                "repair", key, "read-repair", foreground=False,
                tiers_touched=(tier_name,), objects_moved=1,
            )

    # -- repair replay -----------------------------------------------------

    def defer(self, key: str, tier_name: str) -> bool:
        """Park a write of ``key`` owed to ``tier_name``; True when it
        opened a new slot.  Replay copies the row's current bytes."""
        return self.repair_queue.add(Deferred(key, tier_name))

    def _ready(self, tier_name: str) -> bool:
        """May parked writes replay to ``tier_name`` now?"""
        tiers = self.instance.tiers
        return (
            tiers.has(tier_name)
            and tiers.get(tier_name).available
            and self.breaker(tier_name).state != OPEN
        )

    def schedule_replay(self, tier_name: str) -> None:
        """Queue a background replay of pending repairs for a tier."""
        if self._replay_scheduled.get(tier_name):
            return
        self._replay_scheduled[tier_name] = True
        self.clock.schedule(0.0, lambda: self._replay_tier(tier_name))

    def replay_pending(self) -> int:
        """Kick replays for every tier that looks ready (used by the
        monitor after a healthy probe, and callable explicitly)."""
        kicked = 0
        for tier_name in self.repair_queue.targets():
            if not self.instance.tiers.has(tier_name):
                self.repair_queue.discard(tier_name)
            elif self._ready(tier_name):
                self.schedule_replay(tier_name)
                kicked += 1
        return kicked

    def _replay_tier(self, tier_name: str) -> None:
        self._replay_scheduled[tier_name] = False
        instance = self.instance
        if not instance.tiers.has(tier_name):
            self.repair_queue.discard(tier_name)
            return
        ctx = RequestContext(self.clock)
        errors: List[str] = []

        def replay(task: Deferred) -> str:
            if not instance.has_object(task.key):
                return DROPPED  # deleted since; nothing to repair
            try:
                instance.relocate(task.key, (tier_name,), ctx, redirect=False)
            except (TieraError, SimCloudError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                return REQUEUED  # still sick; the breaker will re-gate
            self._repairs.inc(instance=self.owner, tier=tier_name)
            return REPLAYED

        counts = self.repair_queue.drain(tier_name, self._ready, replay)
        replayed = counts[REPLAYED]
        if replayed or errors:
            self._audit(
                "repair", tier_name, "replay", foreground=False,
                tiers_touched=(tier_name,), objects_moved=replayed,
                duration=ctx.elapsed, error=errors[0] if errors else None,
                detail={"pending": self.repair_queue.pending(tier_name)},
            )

    # -- introspection ----------------------------------------------------

    def _collect(self, registry) -> None:
        registry.gauge(
            "tiera_repair_queue_depth",
            "Redirected writes awaiting replay to their original tier.",
        ).set(self.repair_queue.pending(), instance=self.owner)

    def breaker_states(self) -> Dict[str, Dict[str, object]]:
        return {
            name: self.breakers[name].describe()
            for name in sorted(self.breakers)
        }

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-able snapshot (health, RPC, chaos report)."""
        return {
            "retries": self.retry_count,
            "degraded_writes": self.degraded_write_count,
            "read_repairs": self.read_repair_count,
            "replays": self.replay_count,
            "corruptions_detected": self.corruption_count,
            "repair_queue": {
                "pending": self.repair_queue.pending(),
                "enqueued": self.repair_queue.enqueued,
                "dropped": self.repair_queue.dropped,
            },
            "breakers": self.breaker_states(),
        }

    def detach(self) -> None:
        self.obs.metrics.remove_collector(self._collect)
