"""The control layer: rule evaluation, timers, foreground/background.

§3 of the paper: timer events are watched by a dedicated thread which
signals a worker to run the response; threshold events are evaluated
either synchronously with the actions that affect their operands
(foreground, the default) or asynchronously (background, must be
declared); action events run in the context of the thread servicing the
client request, so their responses directly affect request latency —
which is exactly how this reproduction charges time: foreground
responses bill the client's :class:`RequestContext`, background ones a
forked context.

The control layer also charges a small per-rule-evaluation CPU cost so
the "overhead of the Tiera control layer" experiment (Figure 18) has
something real to measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.actions import Action
from repro.core.conditions import EvalScope
from repro.core.errors import TieraError
from repro.core.events import ThresholdEvent
from repro.core.policy import Policy, Rule
from repro.obs.audit import AuditRecord
from repro.obs.registry import ChildCache, MetricsRegistry
from repro.simcloud.clock import Clock, Timer
from repro.simcloud.errors import ProcessCrash, SimCloudError
from repro.simcloud.resources import RequestContext

#: CPU cost of evaluating one rule against one action (seconds).  A few
#: microseconds of dict lookups and comparisons — the measured Python
#: cost is in this range, and it is what keeps Figure 18's overhead
#: under 2 % of a sub-millisecond memcached round trip.
EVAL_OVERHEAD = 5e-6


class ControlLayer:
    """Evaluates the policy's rules against the live instance."""

    def __init__(
        self,
        instance,
        policy: Policy,
        clock: Clock,
        eval_overhead: float = EVAL_OVERHEAD,
    ):
        self.instance = instance
        self.policy = policy
        self.clock = clock
        self.eval_overhead = eval_overhead
        self.background_errors: List[Tuple[str, Exception]] = []
        self._timers: Dict[Tuple[str, float], Timer] = {}
        self._started = False
        # Observability: the instance's hub, when it has one (a bare
        # stub counts into a private registry and audits nothing).  Every
        # rule firing is counted under the instance's owner id and
        # audited; background failures stop being silent.
        self.obs = getattr(instance, "obs", None)
        self.owner = getattr(instance, "owner", "")
        metrics = self.obs.metrics if self.obs is not None else MetricsRegistry(clock)
        self._fired_counter = metrics.counter(
            "tiera_rules_fired_total", "Policy rule firings, by rule."
        )
        self._rule_seconds = metrics.counter(
            "tiera_rule_seconds_total",
            "Simulated seconds spent executing rule responses, "
            "split foreground (client path) vs background.",
        )
        self._bg_errors = metrics.counter(
            "tiera_background_errors_total",
            "Errors raised by background/timer policy work.",
        )
        #: (rule, mode) -> its fired, seconds and background-error children
        self._rule_cells = ChildCache(lambda key: (
            self._fired_counter.child(instance=self.owner, rule=key[0]),
            self._rule_seconds.child(instance=self.owner, rule=key[0], mode=key[1]),
            self._bg_errors.child(instance=self.owner, source=key[0]),
        ))
        policy.subscribe(self._on_policy_change)

    @property
    def fired(self) -> Dict[str, int]:
        """``rule -> firings``: a read-only view over this layer's
        ``tiera_rules_fired_total`` cells, in first-firing order."""
        return {rule: int(c[0].value) for (rule, _), c in self._rule_cells.items()}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm timer rules.  Idempotent."""
        if self._started:
            return
        self._started = True
        self._sync_timers()

    def shutdown(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._started = False

    def _on_policy_change(self) -> None:
        if self._started:
            self._sync_timers()

    def _sync_timers(self) -> None:
        """Arm one timer per ``(name, interval)`` of the timer rules.

        A timer resolves its rule by name when it fires, so replacing a
        rule at the same interval keeps the timer's phase and runs the
        new responses; a new interval cancels the old timer and arms one
        at the new cadence.
        """
        wanted = [(r.name, r.event.interval) for r in self.policy.timer_rules()]
        for key in list(self._timers):
            if key not in wanted:
                self._timers.pop(key).cancel()
        for key in wanted:
            if key not in self._timers:
                self._timers[key] = self.clock.schedule_repeating(
                    key[1], self._make_timer_callback(key[0])
                )

    def armed(self, name: str) -> bool:
        """Whether a timer is armed for the timer rule ``name``."""
        return any(armed_name == name for armed_name, _ in self._timers)

    def _make_timer_callback(self, name: str):
        def fire() -> None:
            ctx = RequestContext(self.clock)
            scope = EvalScope(instance=self.instance)
            rule = self.policy.rule(name)
            self._run_rule(rule, scope, ctx, swallow=True, origin="timer")
            self._check_thresholds_after_mutation()

        return fire

    # -- action dispatch -----------------------------------------------------

    def dispatch_action(self, action: Action, ctx: RequestContext) -> bool:
        """Run every rule whose action event matches; returns whether any
        foreground rule handled (placed/handled data for) the action."""
        scope = EvalScope(instance=self.instance, action=action)
        origin = f"action:{action.kind}"
        handled = False
        for rule in self.policy.action_rules():
            ctx.wait(self.eval_overhead)
            if not rule.event.matches(action, scope):
                continue
            if rule.background:
                self._schedule_background(rule, action, origin=origin)
            else:
                self._run_rule(rule, scope, ctx, swallow=False, origin=origin)
            handled = True
        self.evaluate_thresholds(ctx, action=action)
        return handled

    def _schedule_background(
        self, rule: Rule, action: Optional[Action], origin: str = "action"
    ) -> None:
        def run() -> None:
            ctx = RequestContext(self.clock)
            scope = EvalScope(instance=self.instance, action=action)
            self._run_rule(rule, scope, ctx, swallow=True, origin=origin)
            self._check_thresholds_after_mutation()

        self.clock.schedule(0.0, run)

    # -- threshold evaluation ---------------------------------------------------

    def evaluate_thresholds(
        self, ctx: RequestContext, action: Optional[Action] = None
    ) -> None:
        """Re-check threshold rules after a state-changing operation.

        Foreground thresholds run inline on the caller's context;
        background ones are scheduled (§3's background events).
        """
        rules = self.policy.threshold_rules()
        if not rules:
            return
        scope = EvalScope(instance=self.instance, action=action)
        for rule in rules:
            ctx.wait(self.eval_overhead)
            event = rule.event
            assert isinstance(event, ThresholdEvent)
            if not event.should_fire(scope):
                continue
            if rule.background:
                self._schedule_background(rule, action, origin="threshold")
            else:
                self._run_rule(rule, scope, ctx, swallow=False, origin="threshold")

    def _check_thresholds_after_mutation(self) -> None:
        """Threshold re-check from a background/timer context."""
        ctx = RequestContext(self.clock)
        try:
            self.evaluate_thresholds(ctx)
        except (TieraError, SimCloudError) as exc:
            self._note_background_error("threshold", exc, ctx.time)

    def _note_background_error(
        self, source: str, exc: Exception, at: float
    ) -> None:
        """A background failure: keep the legacy list, but surface it."""
        self.background_errors.append((source, exc))
        self._bg_errors.inc(instance=self.owner, source=source)
        if self.obs is not None:
            self.obs.audit.append(
                AuditRecord(
                    time=at,
                    category="background-error",
                    name=source,
                    foreground=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    # -- execution -----------------------------------------------------------------

    def _run_rule(
        self,
        rule: Rule,
        scope: EvalScope,
        ctx: RequestContext,
        swallow: bool,
        origin: str = "",
    ) -> None:
        """Execute one rule's responses, auditing what they did.

        The rule runs with a tier tally on ``ctx``
        (:attr:`RequestContext.tally`: one tier name per tier op, shared
        by scatter branches), and a nested rule folds its tally into the
        enclosing rule's; the audit record names the tiers touched and
        counts the tier ops from it.  In a traced request the rule is
        also a ``rule`` child span of the current one, with its tier ops
        as ``tier-op`` spans under it.  ``swallow`` marks background
        execution — errors are recorded, not raised.
        """
        cells = self._rule_cells[rule.name, "background" if swallow else "foreground"]
        cells[0].inc()
        start = ctx.time
        parent = ctx.span
        span = None
        if parent is not None:
            span = ctx.span = parent.child(
                rule.name, "rule", start, foreground=not swallow, origin=origin
            )
        enclosing = ctx.tally
        tally = ctx.tally = []
        error: Optional[str] = None
        # Scope record: marks the whole (possibly multi-step) response
        # block as in flight so recovery can name rules cut short by a
        # crash.  Committed on every exit except ProcessCrash — policy
        # errors end the rule; only process death leaves it open.
        dur = getattr(self.instance, "durability", None)
        scope_seq = dur.begin_scope(rule.name, origin) if dur is not None else None
        crashed = False
        try:
            for response in rule.responses:
                try:
                    response.execute(scope, ctx)
                except (TieraError, SimCloudError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    if not swallow:
                        raise
                    self.background_errors.append((rule.name, exc))
        except ProcessCrash:
            crashed = True
            raise
        finally:
            if scope_seq is not None and not crashed:
                dur.commit_scope(scope_seq)
            if span is not None:
                ctx.span = parent
                span.finish(ctx.time)
                span.error = error
            ctx.tally = enclosing
            if enclosing is not None:
                enclosing.extend(tally)
            self._audit_rule(
                rule, start, ctx.time - start, tally, origin, swallow, error,
                cells,
            )

    def _audit_rule(
        self,
        rule: Rule,
        start: float,
        duration: float,
        tiers: List[str],
        origin: str,
        swallow: bool,
        error: Optional[str],
        cells,
    ) -> None:
        """Count one firing's seconds (and background error) and append
        its audit record; ``tiers`` names each tier op's tier."""
        _, seconds, bg_errors = cells
        seconds.inc(duration)
        if error is not None and swallow:
            bg_errors.inc()
        if self.obs is None:
            return
        self.obs.audit.append(
            AuditRecord(
                time=start,
                category="rule",
                name=rule.name,
                origin=origin,
                foreground=not swallow,
                responses=len(rule.responses),
                tiers_touched=tuple(sorted(set(tiers))),
                objects_moved=len(tiers),
                duration=duration,
                error=error,
            )
        )
