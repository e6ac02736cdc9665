"""Declarative SLOs over the virtual timeline, with burn-rate alerting.

An :class:`SloObjective` states what "healthy" means for one operation
family — "GET p99 ≤ 5 ms over a 60 s window", "PUT availability ≥
99.9 %" — and the :class:`SloEngine` continuously evaluates the
objectives from the same per-request stream the latency histograms
record (the server feeds every request completion in).  Everything is
measured in *virtual* time: windows slide on the simulated clock, so
same-seed runs produce byte-identical SLO state, breaches included.

Alerting follows the multi-window burn-rate recipe: each request that
violates the objective (too slow, or failed) consumes error budget;
the burn rate is the violating fraction divided by the budget
(``1 - target`` for availability, ``1 - percentile`` for latency).  An
objective *alerts* only when both the long window and the short window
burn faster than ``burn_threshold`` — the long window proves the
problem is real, the short window proves it is still happening.

Surfaces:

* ``tiera_slo_*`` metric families (burn rates, compliance gauges,
  breach transition counters),
* audit records (category ``slo``) on every alert transition,
* ``TieraServer.health()["slo"]`` and the management API's ``slo``
  feature (``configure("slo")`` / ``feature_status("slo")``),
* the spec-language condition primitive ``slo.<name>.<attr>`` (see
  :mod:`repro.core.conditions`), so policy rules can react to burn —
  e.g. ``event(slo.get_latency.burning) : response { grow(...) }``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.audit import AuditRecord
from repro.obs.registry import nearest_rank

#: How often (virtual seconds) the engine re-evaluates objectives while
#: samples stream in.  Evaluation also happens on demand (health, RPC).
DEFAULT_EVAL_INTERVAL = 1.0

_INF = float("inf")


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective over an operation family.

    ``kind`` is ``"latency"`` (compliant while the windowed
    ``percentile`` stays at or under ``target`` seconds) or
    ``"availability"`` (compliant while the windowed success fraction
    stays at or above ``target``).  ``op`` narrows to one operation
    family (``get``/``put``/``delete``) or ``"*"`` for all.
    """

    name: str
    op: str
    kind: str
    target: float
    percentile: float = 0.99
    window: float = 60.0
    short_window: float = 5.0
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "availability" and not 0.0 < self.target < 1.0:
            raise ValueError("availability target must be in (0, 1)")
        if self.kind == "latency" and not 0.0 < self.percentile < 1.0:
            raise ValueError("latency percentile must be in (0, 1)")
        if self.window <= 0 or self.short_window <= 0:
            raise ValueError("SLO windows must be positive")
        if self.short_window > self.window:
            raise ValueError("short window cannot exceed the long window")

    @property
    def budget(self) -> float:
        """Allowed violating fraction: the error budget per window."""
        if self.kind == "availability":
            return 1.0 - self.target
        return 1.0 - self.percentile

    def violates(self, latency: float, ok: bool) -> bool:
        """Does one request consume error budget under this objective?"""
        if not ok:
            return True
        return self.kind == "latency" and latency > self.target

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "op": self.op,
            "kind": self.kind,
            "target": self.target,
            "percentile": self.percentile,
            "window": self.window,
            "short_window": self.short_window,
            "burn_threshold": self.burn_threshold,
        }


def default_slos() -> List[SloObjective]:
    """The canned objectives the chaos harness (and docs) install.

    Tight enough that injected faults breach them, loose enough that a
    healthy write-through instance never does.
    """
    return [
        SloObjective(
            name="get_availability", op="get", kind="availability",
            target=0.999, window=30.0, short_window=5.0,
        ),
        SloObjective(
            name="put_availability", op="put", kind="availability",
            target=0.999, window=30.0, short_window=5.0,
        ),
        SloObjective(
            name="get_latency", op="get", kind="latency",
            target=0.25, percentile=0.99, window=30.0, short_window=5.0,
        ),
        SloObjective(
            name="put_latency", op="put", kind="latency",
            target=0.5, percentile=0.99, window=30.0, short_window=5.0,
        ),
    ]


@dataclass
class _ObjectiveState:
    """Mutable evaluation state for one installed objective.

    ``record`` only appends to ``samples``; :meth:`fold` brings the
    running window state up to date when the engine evaluates, at a
    cost set by the samples recorded and pruned since the last fold.
    """

    objective: SloObjective
    #: (completion time, latency, ok) — pruned to the long window
    samples: Deque[Tuple[float, float, bool]] = field(default_factory=deque)
    #: whether each folded sample consumed budget — the first
    #: ``len(flags)`` samples are folded in, the rest are new
    flags: Deque[bool] = field(default_factory=deque)
    #: budget-consuming samples among the folded ones
    bad: int = 0
    #: latency objectives: the folded samples' latencies, ascending, a
    #: failure at ``+inf``
    ranked: List[float] = field(default_factory=list)
    alerting: bool = False
    compliant: bool = True
    burn_rate: float = 0.0
    burn_rate_short: float = 0.0
    current: float = 0.0
    breaches: int = 0

    def fold(self, now: float) -> None:
        """Fold in the samples recorded since the last fold, then prune
        the window at ``now`` and unfold what leaves it."""
        samples, flags = self.samples, self.flags
        objective = self.objective
        latency_kind = objective.kind == "latency"
        target = objective.target
        ranked = self.ranked
        fresh = len(samples) - len(flags)
        if fresh:
            new = list(islice(reversed(samples), fresh))
            for _, latency, ok in reversed(new):
                bad = not ok or (latency_kind and latency > target)
                flags.append(bad)
                self.bad += bad
                if latency_kind:
                    insort(ranked, latency if ok else _INF)
        horizon = now - objective.window
        while samples and samples[0][0] < horizon:
            _, latency, ok = samples.popleft()
            self.bad -= flags.popleft()
            if latency_kind:
                # the oldest sample is the first of its equal values
                del ranked[bisect_left(ranked, latency if ok else _INF)]

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.objective.name,
            "op": self.objective.op,
            "kind": self.objective.kind,
            "target": self.objective.target,
            "current": round(self.current, 6),
            "compliant": self.compliant,
            "burn_rate": round(self.burn_rate, 6),
            "burn_rate_short": round(self.burn_rate_short, 6),
            "alerting": self.alerting,
            "breaches": self.breaches,
            "samples": len(self.samples),
        }


class SloEngine:
    """Evaluates installed objectives from the live request stream.

    The engine is part of the observability hub; it is inert (and
    free) until :meth:`install` gives it objectives.  ``record`` is
    called by the serving layer on every request completion with the
    request's *virtual* completion time — recording never advances
    virtual time, keeping the Figure 18 observer-effect rule.
    """

    def __init__(self, metrics, audit, clock=None,
                 eval_interval: float = DEFAULT_EVAL_INTERVAL):
        self._metrics = metrics
        self._audit = audit
        self._clock = clock
        self.eval_interval = eval_interval
        self._states: Dict[str, _ObjectiveState] = {}
        self._next_eval: Optional[float] = None
        self._last_seen = 0.0
        self._burn_gauge = None
        self._compliant_gauge = None
        self._alerting_gauge = None
        self._breaches = None
        #: alert transitions, oldest first — survives audit-ring churn
        #: (a busy run's rule records would evict the breach otherwise).
        self.transitions: Deque[Dict[str, object]] = deque(maxlen=256)

    # -- configuration -------------------------------------------------------

    @property
    def objectives(self) -> List[SloObjective]:
        return [state.objective for state in self._states.values()]

    def install(self, objectives) -> None:
        """Install (or add) objectives; names must be unique."""
        for objective in objectives:
            if objective.name in self._states:
                raise ValueError(f"SLO {objective.name!r} already installed")
            self._states[objective.name] = _ObjectiveState(objective)
        if self._states and self._burn_gauge is None:
            self._burn_gauge = self._metrics.gauge(
                "tiera_slo_burn_rate",
                "Error-budget burn rate per SLO and window.",
            )
            self._compliant_gauge = self._metrics.gauge(
                "tiera_slo_compliant",
                "1 while the SLO's windowed objective holds, else 0.",
            )
            self._alerting_gauge = self._metrics.gauge(
                "tiera_slo_alerting",
                "1 while the SLO's multi-window burn alert is firing.",
            )
            self._breaches = self._metrics.counter(
                "tiera_slo_breaches_total",
                "Alert transitions (ok -> breaching) per SLO.",
            )

    def clear(self) -> None:
        self._states.clear()
        self._next_eval = None

    def has(self, name: str) -> bool:
        return name in self._states

    # -- the data path -------------------------------------------------------

    def record(self, op: str, latency: float, ok: bool, at: float) -> None:
        """Feed one request completion (virtual time ``at``)."""
        if not self._states:
            return
        self._last_seen = max(self._last_seen, at)
        for state in self._states.values():
            objective = state.objective
            if objective.op != "*" and objective.op != op:
                continue
            state.samples.append((at, latency, ok))
        if self._next_eval is None:
            self._next_eval = at + self.eval_interval
        elif at >= self._next_eval:
            self.evaluate(at)

    # -- evaluation ----------------------------------------------------------

    def _now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if self._clock is not None:
            return max(self._clock.now(), self._last_seen)
        return self._last_seen

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """Re-evaluate every objective at virtual instant ``now``.

        Updates the ``tiera_slo_*`` gauges, appends an audit record on
        every alert transition, and returns the per-objective states.
        All inputs are virtual-time; same-seed runs evaluate (and
        transition) identically.
        """
        now = self._now(now)
        self._next_eval = now + self.eval_interval
        out = []
        for name in sorted(self._states):
            state = self._states[name]
            objective = state.objective
            state.fold(now)
            samples = state.samples
            total = len(samples)
            bad = state.bad
            # The short window walks newest first over the stored flags
            # and stops at the first older sample: batch items complete
            # out of order, so the short window is not a suffix by time.
            short_horizon = now - objective.short_window
            short_total = short_bad = 0
            for (at, _, _), flag in zip(reversed(samples), reversed(state.flags)):
                if at < short_horizon:
                    break
                short_total += 1
                short_bad += flag
            budget = objective.budget
            state.burn_rate = (bad / total / budget) if total else 0.0
            state.burn_rate_short = (
                (short_bad / short_total / budget) if short_total else 0.0
            )
            if objective.kind == "availability":
                state.current = (total - bad) / total if total else 1.0
                state.compliant = state.current >= objective.target
            else:
                # Nearest rank over the window's latencies, failures
                # ranked at +inf (an errored GET is not evidence of good
                # latency); an empty window reports 0, a rank that lands
                # on a failure the slowest latency plus one second.
                ranked = state.ranked
                current = 0.0
                if ranked:
                    rank = nearest_rank(objective.percentile, len(ranked))
                    current = ranked[max(1, min(len(ranked), rank)) - 1]
                if current == _INF:
                    current = max(
                        (lat for _, lat, _ok in samples), default=0.0
                    ) + 1.0
                state.current = current
                state.compliant = state.current <= objective.target
            alerting = (
                state.burn_rate > objective.burn_threshold
                and state.burn_rate_short > objective.burn_threshold
            )
            if alerting != state.alerting:
                self._transition(state, now, alerting)
            state.alerting = alerting
            self._export(state)
            out.append(state.to_dict())
        return out

    def _transition(self, state: _ObjectiveState, now: float,
                    alerting: bool) -> None:
        objective = state.objective
        if alerting:
            state.breaches += 1
            if self._breaches is not None:
                self._breaches.inc(slo=objective.name)
        self.transitions.append(
            {
                "time": round(now, 6),
                "name": objective.name,
                "alerting": alerting,
                "burn_rate": round(state.burn_rate, 6),
                "burn_rate_short": round(state.burn_rate_short, 6),
            }
        )
        self._audit.append(
            AuditRecord(
                time=now,
                category="slo",
                name=objective.name,
                origin="burn-rate",
                foreground=False,
                error=(
                    f"SLO breach: burn {state.burn_rate:.2f}x "
                    f"(short {state.burn_rate_short:.2f}x) over budget"
                    if alerting else None
                ),
                detail={
                    "alerting": alerting,
                    "burn_rate": round(state.burn_rate, 6),
                    "burn_rate_short": round(state.burn_rate_short, 6),
                    "current": round(state.current, 6),
                    "target": objective.target,
                    "kind": objective.kind,
                },
            )
        )

    def _export(self, state: _ObjectiveState) -> None:
        if self._burn_gauge is None:
            return
        name = state.objective.name
        self._burn_gauge.set(state.burn_rate, slo=name, window="long")
        self._burn_gauge.set(state.burn_rate_short, slo=name, window="short")
        self._compliant_gauge.set(1.0 if state.compliant else 0.0, slo=name)
        self._alerting_gauge.set(1.0 if state.alerting else 0.0, slo=name)

    # -- queries -------------------------------------------------------------

    def state(self, name: str, now: Optional[float] = None) -> Dict[str, object]:
        """Current evaluated state of one objective (for conditions)."""
        if name not in self._states:
            raise KeyError(f"no SLO named {name!r}")
        self.evaluate(now)
        return self._states[name].to_dict()

    def summary(self, now: Optional[float] = None) -> Dict[str, object]:
        """Everything health()/RPC/chaos reports attach."""
        states = self.evaluate(now)
        return {
            "objectives": states,
            "breaching": [s["name"] for s in states if not s["compliant"]],
            "alerting": [s["name"] for s in states if s["alerting"]],
        }
