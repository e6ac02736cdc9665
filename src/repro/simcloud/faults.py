"""Deterministic fault injection for the simulated cloud.

The Figure 17 reproduction models exactly one failure shape: a binary
``fail()``/``recover()`` switch that times out every request.  Real
multi-tier stores ride through much messier weather — transient error
bursts, latency spikes, services that flap up and down, slow "gray"
degradation, and silent bit rot.  This module supplies those shapes as
schedulable, *deterministic* fault profiles:

* every random decision draws from the injector's own seeded RNG (a
  stream separate from the cluster RNG that drives latency sampling, so
  merely wiring the injector in perturbs nothing);
* every time-dependent decision reads the cluster's virtual clock;
* every injected effect is counted (``tiera_faults_injected_total``)
  and logged, and :meth:`FaultInjector.report` renders the whole run as
  a JSON-able structure that is byte-identical across same-seed runs —
  the ``chaos`` figure row's report digests pin exactly that.

Services consult the injector through two hooks —
:meth:`FaultInjector.before_op` inside
:meth:`~repro.simcloud.services.base.StorageService._perform` and
:meth:`FaultInjector.on_read` inside ``get`` — and pay for injected
slowness/errors on the request's virtual timeline, never wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.cluster import MIGRATION_CRASH_POINTS
from repro.core.durability import INTENT_CRASH_POINTS
from repro.simcloud.clock import Clock
from repro.simcloud.errors import ProcessCrash, TransientServiceError

#: Library of named chaos scenarios, filled in at module bottom.
SCENARIOS: Dict[str, "ChaosScenario"] = {}

#: Crash points the instance data path announces, in the order a write
#: primitive passes them.  Registered here (not discovered at runtime)
#: so the sweep harness and the docs agree on the full set; the
#: journaled primitives' rows come from the intent table, and their
#: ``*.journaled`` / ``*.commit`` boundaries only fire when the
#: durability layer is enabled.
CRASH_POINTS: Tuple[str, ...] = INTENT_CRASH_POINTS + (
    "checkpoint.begin", "checkpoint.done",
    "backup.snapshot.begin", "backup.snapshot.temp", "backup.snapshot.done",
)

#: Crash points the *cluster* migration path announces, from its own
#: intent table (kept separate from :data:`CRASH_POINTS` so the
#: single-instance crash sweep's boundary enumeration is unchanged).
#: ``cluster.move.*`` fire once per journaled key move; the ``migrate.*``
#: pair brackets the whole membership change.
CLUSTER_CRASH_POINTS: Tuple[str, ...] = MIGRATION_CRASH_POINTS


@dataclass(frozen=True)
class FaultProfile:
    """One shape of misbehaviour, applied to matching services.

    All effects compose: a profile may both slow a service down and
    make a fraction of its operations fail.
    """

    name: str = "fault"
    #: probability an operation errors after spending its service time
    error_rate: float = 0.0
    #: virtual seconds a transiently failed op charges (None: the op's
    #: own sampled service time — it "ran", then errored)
    error_latency: Optional[float] = None
    #: constant service-time multiplier (latency spike)
    latency_multiplier: float = 1.0
    #: extra multiplier added per active minute (gray degradation: the
    #: service gets slower and slower without ever reporting failure)
    gray_ramp_per_minute: float = 0.0
    #: > 0: the target alternates up/down with this period, seconds
    flap_period: float = 0.0
    #: fraction of each flap period the target is up
    flap_duty: float = 0.5
    #: probability a GET silently flips one stored bit (bit rot)
    corrupt_rate: float = 0.0

    def describe(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name}
        if self.error_rate:
            out["error_rate"] = self.error_rate
        if self.error_latency is not None:
            out["error_latency"] = self.error_latency
        if self.latency_multiplier != 1.0:
            out["latency_multiplier"] = self.latency_multiplier
        if self.gray_ramp_per_minute:
            out["gray_ramp_per_minute"] = self.gray_ramp_per_minute
        if self.flap_period:
            out["flap_period"] = self.flap_period
            out["flap_duty"] = self.flap_duty
        if self.corrupt_rate:
            out["corrupt_rate"] = self.corrupt_rate
        return out


@dataclass(frozen=True)
class FaultEvent:
    """One window of one profile applied to one target.

    ``target`` selects services: ``"service:<name>"``, ``"node:<name>"``,
    ``"zone:<name>"``, ``"kind:<kind>"`` (memcached/ebs/s3/ephemeral), or
    ``"*"`` for everything.
    """

    at: float            #: seconds after scenario activation
    duration: float      #: window length, seconds (0: until cleared)
    target: str
    profile: FaultProfile


@dataclass(frozen=True)
class ChaosScenario:
    """A named, composable sequence of fault events."""

    name: str
    events: Tuple[FaultEvent, ...]

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "events": [
                {
                    "at": e.at,
                    "duration": e.duration,
                    "target": e.target,
                    "profile": e.profile.describe(),
                }
                for e in self.events
            ],
        }


def _match(target: str, service) -> bool:
    if target == "*":
        return True
    kind, _, name = target.partition(":")
    if kind == "service":
        return service.name == name
    if kind == "node":
        return service.node.name == name
    if kind == "zone":
        return service.node.zone.name == name
    if kind == "kind":
        return getattr(service, "kind", None) == name
    raise ValueError(f"bad fault target {target!r}")


@dataclass
class _ActiveFault:
    """A profile currently applied to a target."""

    target: str
    profile: FaultProfile
    applied_at: float
    scenario: str = ""
    cleared: bool = False


class FaultInjector:
    """The per-cluster fault engine services consult on every operation.

    With nothing active the hooks are two attribute reads — wiring the
    injector into a cluster that never schedules a fault changes no
    simulated timing and draws no randomness.
    """

    def __init__(
        self,
        clock: Clock,
        rng: Optional[random.Random] = None,
        obs=None,
    ):
        self.clock = clock
        self.rng = rng if rng is not None else random.Random(0xFA17)
        self._active: List[_ActiveFault] = []
        self.log: List[Dict[str, object]] = []
        self.counts: Dict[str, int] = {}
        self._scenario_events: List[Dict[str, object]] = []
        self._scenarios_run: List[str] = []
        self._injected_counter = None
        if obs is not None:
            self._injected_counter = obs.metrics.counter(
                "tiera_faults_injected_total",
                "Fault effects injected, by kind and service.",
            )

    # -- scheduling ------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._active)

    def inject(
        self,
        target: str,
        profile: FaultProfile,
        duration: float = 0.0,
        scenario: str = "",
    ) -> _ActiveFault:
        """Apply ``profile`` to ``target`` now; auto-clear after
        ``duration`` seconds when positive."""
        _match(target, _ProbeService())  # validate target syntax eagerly
        fault = _ActiveFault(
            target=target,
            profile=profile,
            applied_at=self.clock.now(),
            scenario=scenario,
        )
        self._active.append(fault)
        self._note_event("apply", fault)
        if duration > 0:
            self.clock.schedule(duration, lambda: self.clear(fault))
        return fault

    def clear(self, fault: _ActiveFault) -> None:
        if fault.cleared:
            return
        fault.cleared = True
        if fault in self._active:
            self._active.remove(fault)
        self._note_event("clear", fault)

    def run_scenario(self, scenario: ChaosScenario, at: float = 0.0) -> None:
        """Schedule every event of ``scenario`` relative to now + ``at``."""
        self._scenarios_run.append(scenario.name)
        for event in scenario.events:
            def apply(event: FaultEvent = event) -> None:
                self.inject(
                    event.target,
                    event.profile,
                    duration=event.duration,
                    scenario=scenario.name,
                )

            self.clock.schedule(at + event.at, apply)

    def _note_event(self, what: str, fault: _ActiveFault) -> None:
        self._scenario_events.append(
            {
                "event": what,
                "time": self.clock.now(),
                "target": fault.target,
                "profile": fault.profile.name,
                "scenario": fault.scenario,
            }
        )

    # -- the service hooks ------------------------------------------------

    def before_op(self, service, op: str, nbytes: int, service_time: float, ctx):
        """Adjust (or abort) one service operation.

        Returns the possibly-inflated service time; raises
        :class:`TransientServiceError` for injected errors and flap
        downtime, after charging the fault's cost to ``ctx``.
        """
        now = self.clock.now()
        for fault in self._active:
            profile = fault.profile
            if not _match(fault.target, service):
                continue
            if profile.flap_period > 0 and self._flapped_down(fault, now):
                # A flapping target behaves hard-down for the off phase:
                # the request burns the full timeout, like fail().
                ctx.wait(service.timeout)
                self._record("flap-timeout", service, op)
                raise TransientServiceError(
                    service.name,
                    node=service.node.name,
                    zone=service.node.zone.name,
                    message=f"service {service.name!r} is flapping (down phase)",
                )
            if profile.error_rate > 0 and self.rng.random() < profile.error_rate:
                charged = (
                    profile.error_latency
                    if profile.error_latency is not None
                    else service_time
                )
                ctx.use(service.resource, charged)
                self._record("transient-error", service, op)
                raise TransientServiceError(
                    service.name,
                    node=service.node.name,
                    zone=service.node.zone.name,
                )
            multiplier = profile.latency_multiplier
            if profile.gray_ramp_per_minute > 0:
                minutes = (now - fault.applied_at) / 60.0
                multiplier += profile.gray_ramp_per_minute * minutes
            if multiplier != 1.0:
                service_time *= multiplier
                self._record("latency", service, op, log=False)
        return service_time

    def down_now(self, service) -> bool:
        """Deterministic liveness read: would an op against ``service``
        time out *right now*?

        True for a failed service/node and for any matching fault in its
        flap-down phase — the two shapes that behave hard-down.  Random
        weather (``error_rate``) is deliberately *not* "down": a probe
        draws no randomness, so wiring a failure detector in perturbs no
        fault sequence and stays byte-identical across same-seed runs.
        """
        if not service.available:
            return True
        now = self.clock.now()
        for fault in self._active:
            profile = fault.profile
            if profile.flap_period <= 0:
                continue
            if _match(fault.target, service) and self._flapped_down(fault, now):
                return True
        return False

    def on_read(self, service, key: str, data: bytes) -> bytes:
        """Bit-rot hook: may silently flip one bit of the *stored* copy.

        Corruption is persistent (the flipped bit stays until something
        rewrites the key) and silent (the read succeeds) — exactly the
        failure checksum-verifying failover reads exist to catch.
        """
        for fault in self._active:
            profile = fault.profile
            if profile.corrupt_rate <= 0 or not _match(fault.target, service):
                continue
            if data and self.rng.random() < profile.corrupt_rate:
                bit = self.rng.randrange(len(data) * 8)
                corrupted = bytearray(data)
                corrupted[bit // 8] ^= 1 << (bit % 8)
                data = bytes(corrupted)
                service.install(key, data)
                self._record("corruption", service, "get")
        return data

    def _flapped_down(self, fault: _ActiveFault, now: float) -> bool:
        profile = fault.profile
        phase = ((now - fault.applied_at) % profile.flap_period) / profile.flap_period
        return phase >= profile.flap_duty

    def _record(self, kind: str, service, op: str, log: bool = True) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._injected_counter is not None:
            self._injected_counter.inc(kind=kind, service=service.name)
        if log and len(self.log) < 10_000:
            self.log.append(
                {
                    "time": self.clock.now(),
                    "kind": kind,
                    "service": service.name,
                    "op": op,
                }
            )

    # -- reporting --------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Deterministic, JSON-able record of everything injected."""
        return {
            "scenarios": list(self._scenarios_run),
            "schedule": list(self._scenario_events),
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "injections": list(self.log),
        }


class CrashPointInjector:
    """Kills the process at a chosen operation boundary.

    The instance's data path calls :meth:`reach` at every named crash
    point.  An unarmed injector only records the visit (building the
    deterministic crash-point schedule a sweep enumerates); an armed one
    raises :class:`ProcessCrash` when the chosen visit — by global hit
    index, or by (name, per-name occurrence) — comes around.

    ``on_hit`` is the reference run's observation hook: called on every
    visit *before* any crash decision, it lets the sweep harness record
    the state digest at each boundary without perturbing the run.
    """

    def __init__(self, on_hit=None):
        #: total visits across all points (the sweep's schedule index)
        self.total = 0
        #: per-point visit counts
        self.hits: Dict[str, int] = {}
        #: every visit in order: (global index, point name)
        self.schedule: List[Tuple[int, str]] = []
        self.on_hit = on_hit
        self._armed_index: Optional[int] = None
        self._armed_point: Optional[Tuple[str, int]] = None
        #: the (point, occurrence) that actually fired, if any
        self.fired: Optional[Tuple[str, int]] = None

    def arm_index(self, index: int) -> "CrashPointInjector":
        """Crash at the ``index``-th crash-point visit (0-based)."""
        self._armed_index = index
        return self

    def arm(self, point: str, occurrence: int = 0) -> "CrashPointInjector":
        """Crash at the ``occurrence``-th visit of ``point`` (0-based)."""
        self._armed_point = (point, occurrence)
        return self

    def reach(self, point: str) -> None:
        index = self.total
        occurrence = self.hits.get(point, 0)
        self.total = index + 1
        self.hits[point] = occurrence + 1
        self.schedule.append((index, point))
        if self.on_hit is not None:
            self.on_hit(index, point)
        if self._armed_index == index or self._armed_point == (point, occurrence):
            self.fired = (point, occurrence)
            raise ProcessCrash(point, occurrence)


class _ProbeService:
    """Stand-in used only to validate target syntax at inject() time."""

    name = ""
    kind = ""

    class _Zone:
        name = ""

    class node:  # noqa: N801 - mimics Node's attribute shape
        name = ""
        zone = None

    node.zone = _Zone()


# -- canned scenario library -------------------------------------------------


def transient_errors(
    target: str = "kind:ebs",
    rate: float = 0.20,
    at: float = 60.0,
    duration: float = 120.0,
) -> ChaosScenario:
    """An error burst: ``rate`` of ops against ``target`` fail transiently."""
    return ChaosScenario(
        name="transient-errors",
        events=(
            FaultEvent(
                at=at,
                duration=duration,
                target=target,
                profile=FaultProfile(name="error-burst", error_rate=rate),
            ),
        ),
    )


def latency_spike(
    target: str = "kind:memcached",
    multiplier: float = 10.0,
    at: float = 60.0,
    duration: float = 60.0,
) -> ChaosScenario:
    """A sudden slow-down: every op takes ``multiplier``× longer."""
    return ChaosScenario(
        name="latency-spike",
        events=(
            FaultEvent(
                at=at,
                duration=duration,
                target=target,
                profile=FaultProfile(
                    name="latency-spike", latency_multiplier=multiplier
                ),
            ),
        ),
    )


def flapping(
    target: str = "kind:ebs",
    period: float = 20.0,
    duty: float = 0.5,
    at: float = 60.0,
    duration: float = 120.0,
) -> ChaosScenario:
    """Intermittent availability: the target cycles up/down."""
    return ChaosScenario(
        name="flapping",
        events=(
            FaultEvent(
                at=at,
                duration=duration,
                target=target,
                profile=FaultProfile(
                    name="flapping", flap_period=period, flap_duty=duty
                ),
            ),
        ),
    )


def gray_failure(
    target: str = "kind:ebs",
    ramp_per_minute: float = 4.0,
    at: float = 60.0,
    duration: float = 180.0,
) -> ChaosScenario:
    """Gray degradation: latency ramps up without a failure signal."""
    return ChaosScenario(
        name="gray-failure",
        events=(
            FaultEvent(
                at=at,
                duration=duration,
                target=target,
                profile=FaultProfile(
                    name="gray", gray_ramp_per_minute=ramp_per_minute
                ),
            ),
        ),
    )


def bitrot(
    target: str = "kind:memcached",
    rate: float = 0.05,
    at: float = 30.0,
    duration: float = 180.0,
) -> ChaosScenario:
    """Silent corruption: reads occasionally flip a stored bit.

    Defaults to the memcached tier — the serving tier in every canned
    deployment — so corrupt bytes actually reach clients unless a
    checksum-verifying read catches them."""
    return ChaosScenario(
        name="bitrot",
        events=(
            FaultEvent(
                at=at,
                duration=duration,
                target=target,
                profile=FaultProfile(name="bitrot", corrupt_rate=rate),
            ),
        ),
    )


def ebs_outage_2011(
    target: str = "kind:ebs", at: float = 245.0
) -> ChaosScenario:
    """The paper's Figure 17 shape as a scenario: a hard, open-ended
    flap-down (every request times out) starting at ``at``."""
    return ChaosScenario(
        name="ebs-outage-2011",
        events=(
            FaultEvent(
                at=at,
                duration=0.0,
                target=target,
                profile=FaultProfile(
                    name="hard-outage", flap_period=1e9, flap_duty=0.0
                ),
            ),
        ),
    )


def shard_loss(
    targets=("kind:ebs",),
    at: float = 60.0,
    outage: float = 90.0,
    flap_period: float = 20.0,
    flap_duty: float = 0.5,
    flap_duration: float = 60.0,
) -> ChaosScenario:
    """A whole-shard loss with a messy comeback.

    Every ``target`` (pass the node targets of one shard's tiers to
    take out the whole shard) goes hard-down for ``outage`` seconds,
    then *flaps* for ``flap_duration`` more before staying up — the
    shape that exercises a failure detector's down→suspect→up
    transitions, hinted-handoff replay, and anti-entropy convergence
    rather than a clean binary fail/recover."""
    events = []
    for target in targets:
        events.append(
            FaultEvent(
                at=at,
                duration=outage,
                target=target,
                profile=FaultProfile(
                    name="shard-outage", flap_period=1e9, flap_duty=0.0
                ),
            )
        )
        if flap_duration > 0:
            events.append(
                FaultEvent(
                    at=at + outage,
                    duration=flap_duration,
                    target=target,
                    profile=FaultProfile(
                        name="shard-flap-recovery",
                        flap_period=flap_period,
                        flap_duty=flap_duty,
                    ),
                )
            )
    return ChaosScenario(name="shard-loss", events=tuple(events))


SCENARIOS.update(
    {
        "transient-errors": transient_errors(),
        "latency-spike": latency_spike(),
        "flapping": flapping(),
        "gray-failure": gray_failure(),
        "bitrot": bitrot(),
        "ebs-outage-2011": ebs_outage_2011(),
        "shard-loss": shard_loss(),
    }
)
