"""Control layer: dispatch, timers, foreground/background semantics."""

import pytest

from repro.core.actions import Action
from repro.core.conditions import AttrRef, Comparison, Literal
from repro.core.events import ActionEvent, ThresholdEvent, TimerEvent
from repro.core.policy import Rule
from repro.core.responses import Copy, Response, Store
from repro.core.selectors import InsertObject
from repro.simcloud.resources import RequestContext
from tests.core.conftest import build_instance


class Probe(Response):
    """A response that records when it executed (context time)."""

    def __init__(self):
        self.calls = []

    def execute(self, scope, ctx):
        self.calls.append(ctx.time)


class Failing(Response):
    def execute(self, scope, ctx):
        from repro.core.errors import PolicyError

        raise PolicyError("boom")


def insert_action(instance, key="k", data=b"v"):
    meta = instance.create_object(key, len(data))
    return Action(kind="insert", key=key, meta=meta, data=data)


class TestActionDispatch:
    def test_matching_foreground_rule_runs_inline(self, registry, ctx):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(ActionEvent("insert"), [probe], name="p")],
        )
        inst.control.dispatch_action(insert_action(inst), ctx)
        assert len(probe.calls) == 1
        assert inst.control.fired["p"] == 1

    def test_non_matching_rule_skipped(self, registry, ctx):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(ActionEvent("delete"), [probe], name="p")],
        )
        handled = inst.control.dispatch_action(insert_action(inst), ctx)
        assert not handled
        assert probe.calls == []

    def test_background_rule_deferred_to_clock(self, registry, ctx):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[
                Rule(ActionEvent("insert"), [probe], background=True, name="p")
            ],
        )
        inst.control.dispatch_action(insert_action(inst), ctx)
        assert probe.calls == []  # not yet
        inst.clock.advance(0.001)
        assert len(probe.calls) == 1

    def test_foreground_cost_lands_on_client(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Store(InsertObject(), ("tier1", "tier2"))],
                    name="wt",
                )
            ],
        )
        ctx = RequestContext(inst.clock)
        inst.control.dispatch_action(insert_action(inst, data=b"x" * 4096), ctx)
        assert ctx.elapsed > 0.003  # paid for the EBS write inline

    def test_background_cost_not_on_client(self, registry):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=[
                Rule(
                    ActionEvent("insert"),
                    [Copy(InsertObject(), "tier2"), probe],
                    background=True,
                    name="bg",
                )
            ],
        )
        ctx = RequestContext(inst.clock)
        inst.control.dispatch_action(insert_action(inst, data=b"x" * 4096), ctx)
        assert ctx.elapsed < 0.001
        inst.clock.advance(1)
        assert len(probe.calls) == 1

    def test_rule_evaluation_charges_overhead(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(ActionEvent("delete"), [Probe()], name="p")],
            eval_overhead=1e-4,
        )
        ctx = RequestContext(inst.clock)
        inst.control.dispatch_action(insert_action(inst), ctx)
        assert ctx.elapsed == pytest.approx(1e-4)


class TestTimerRules:
    def test_timer_fires_repeatedly(self, registry):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(10), [probe], name="t")],
        )
        inst.clock.advance(35)
        assert len(probe.calls) == 3

    def test_removed_timer_stops(self, registry):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(10), [probe], name="t")],
        )
        inst.clock.advance(15)
        inst.policy.remove("t")
        inst.clock.advance(50)
        assert len(probe.calls) == 1

    def test_added_timer_starts(self, registry):
        probe = Probe()
        inst = build_instance(registry, [("tier1", "Memcached", 10 ** 6)])
        inst.policy.add(Rule(TimerEvent(5), [probe], name="t"))
        inst.clock.advance(11)
        assert len(probe.calls) == 2

    def test_replaced_rule_fires_its_new_responses(self, registry):
        old, new = Probe(), Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(10), [old], name="t")],
        )
        inst.policy.replace("t", Rule(TimerEvent(2), [new], name="t"))
        inst.clock.advance(21)
        assert old.calls == []
        assert len(new.calls) == 10

    def test_same_interval_replace_keeps_the_phase(self, registry):
        old, new = Probe(), Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(10), [old], name="t")],
        )
        start = inst.clock.now()
        inst.clock.advance(7)
        inst.policy.replace("t", Rule(TimerEvent(10), [new], name="t"))
        inst.clock.advance(5)
        assert old.calls == []
        assert new.calls == [start + 10]

    def test_replace_policy_re_arms_timer_rules(self, registry):
        old, new = Probe(), Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(10), [old], name="t")],
        )
        inst.reconfigure(replace_policy=[Rule(TimerEvent(3), [new], name="t")])
        inst.clock.advance(10)
        assert old.calls == []
        assert len(new.calls) == 3

    def test_timer_errors_are_swallowed_and_recorded(self, registry):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(5), [Failing()], name="t")],
        )
        inst.clock.advance(6)  # must not raise
        assert inst.control.background_errors
        assert inst.control.background_errors[0][0] == "t"

    def test_shutdown_cancels_timers(self, registry):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6)],
            rules=[Rule(TimerEvent(5), [probe], name="t")],
        )
        inst.control.shutdown()
        inst.clock.advance(30)
        assert probe.calls == []


class TestThresholdRules:
    def _rule(self, probe, background=False):
        return Rule(
            ThresholdEvent(
                Comparison(">=", AttrRef(("tier1", "filled")), Literal(0.5)),
            ),
            [probe],
            background=background,
            name="th",
        )

    def test_foreground_threshold_fires_inline(self, registry, ctx):
        probe = Probe()
        inst = build_instance(
            registry, [("tier1", "Memcached", 1000)], rules=[self._rule(probe)]
        )
        inst.create_object("a", 600)
        inst.write_to_tier("a", b"x" * 600, "tier1", ctx)
        inst.control.evaluate_thresholds(ctx)
        assert len(probe.calls) == 1

    def test_background_threshold_defers(self, registry, ctx):
        probe = Probe()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 1000)],
            rules=[self._rule(probe, background=True)],
        )
        inst.create_object("a", 600)
        inst.write_to_tier("a", b"x" * 600, "tier1", ctx)
        inst.control.evaluate_thresholds(ctx)
        assert probe.calls == []
        inst.clock.advance(0.01)
        assert len(probe.calls) == 1

    def test_edge_trigger_through_dispatch(self, registry, ctx):
        probe = Probe()
        inst = build_instance(
            registry, [("tier1", "Memcached", 1000)], rules=[self._rule(probe)]
        )
        inst.create_object("a", 600)
        inst.write_to_tier("a", b"x" * 600, "tier1", ctx)
        inst.control.evaluate_thresholds(ctx)
        inst.control.evaluate_thresholds(ctx)  # still above: no refire
        assert len(probe.calls) == 1
