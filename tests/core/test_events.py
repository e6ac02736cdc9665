"""Events: action matching, timer validation, threshold edge-triggering."""

import pytest

from repro.core.actions import Action
from repro.core.conditions import AttrRef, Comparison, EvalScope, Literal
from repro.core.events import ActionEvent, ThresholdEvent, TimerEvent
from repro.core.objects import ObjectMeta


def scope(instance, action=None):
    return EvalScope(instance=instance, action=action)


def insert_action(key="k", tier=None, dirty=False):
    return Action(
        kind="insert", key=key, meta=ObjectMeta(key=key, dirty=dirty), tier=tier
    )


class TestActionEvent:
    def test_matches_kind(self, two_tier):
        event = ActionEvent("insert")
        assert event.matches(insert_action(), scope(two_tier))
        delete = Action(kind="delete", key="k", meta=ObjectMeta(key="k"))
        assert not event.matches(delete, scope(two_tier))

    def test_tier_narrowing(self, two_tier):
        event = ActionEvent("insert", tier="tier1")
        assert event.matches(insert_action(tier="tier1"), scope(two_tier))
        assert not event.matches(insert_action(tier="tier2"), scope(two_tier))

    def test_untargeted_action_matches_tiered_event(self, two_tier):
        # A PUT with no explicit target still matches insert.into == X
        # (the server sets the default target; None is treated as open).
        event = ActionEvent("insert", tier="tier1")
        assert event.matches(insert_action(tier=None), scope(two_tier))

    def test_guard_condition(self, two_tier):
        guard = Comparison(
            "==", AttrRef(("insert", "object", "dirty")), Literal(True)
        )
        event = ActionEvent("insert", guard=guard)
        action = insert_action(dirty=True)
        assert event.matches(action, scope(two_tier, action))
        clean = insert_action(dirty=False)
        assert not event.matches(clean, scope(two_tier, clean))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ActionEvent("explode")


class TestTimerEvent:
    def test_interval_positive(self):
        assert TimerEvent(5.0).interval == 5.0
        with pytest.raises(ValueError):
            TimerEvent(0)


class TestThresholdEvent:
    def _tier1_half_full(self):
        return Comparison(">=", AttrRef(("tier1", "filled")), Literal(0.5))

    def test_fires_on_crossing_only(self, two_tier, ctx):
        event = ThresholdEvent(self._tier1_half_full())
        s = scope(two_tier)
        assert not event.should_fire(s)
        two_tier.create_object("a", 40 * 1024)
        two_tier.write_to_tier("a", b"x" * (40 * 1024), "tier1", ctx)
        assert event.should_fire(s)          # crossed
        assert not event.should_fire(s)      # still above: no refire

    def test_rearms_after_going_false(self, two_tier, ctx):
        event = ThresholdEvent(self._tier1_half_full())
        s = scope(two_tier)
        two_tier.create_object("a", 40 * 1024)
        two_tier.write_to_tier("a", b"x" * (40 * 1024), "tier1", ctx)
        assert event.should_fire(s)
        # demote: tier2 keeps a copy (a live row's last one is never removed)
        two_tier.write_to_tier("a", b"x" * (40 * 1024), "tier2", ctx)
        two_tier.remove_from_tier("a", "tier1", ctx)
        assert not event.should_fire(s)      # below again: re-arm
        two_tier.write_to_tier("a", b"x" * (40 * 1024), "tier1", ctx)
        assert event.should_fire(s)          # second crossing fires

    def test_reset(self, two_tier, ctx):
        event = ThresholdEvent(self._tier1_half_full())
        s = scope(two_tier)
        two_tier.create_object("a", 40 * 1024)
        two_tier.write_to_tier("a", b"x" * (40 * 1024), "tier1", ctx)
        assert event.should_fire(s)
        event.reset()
        assert event.should_fire(s)
