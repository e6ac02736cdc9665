"""Policy container: rule bookkeeping and runtime modification."""

import pytest

from repro.core.errors import PolicyError
from repro.core.events import ActionEvent, ThresholdEvent, TimerEvent
from repro.core.conditions import Literal
from repro.core.policy import Policy, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from tests.core.conftest import build_instance


def store_rule(name="r1", event=None):
    return Rule(
        event if event is not None else ActionEvent("insert"),
        [Store(InsertObject(), "tier1")],
        name=name,
    )


class TestRule:
    def test_needs_responses(self):
        with pytest.raises(PolicyError):
            Rule(ActionEvent("insert"), [], name="empty")

    def test_auto_names_are_unique(self):
        a = Rule(ActionEvent("insert"), [Store(InsertObject(), "t")])
        b = Rule(ActionEvent("insert"), [Store(InsertObject(), "t")])
        assert a.name != b.name

    def test_background_threshold_event_forces_background(self):
        rule = Rule(
            ThresholdEvent(Literal(True)),
            [Store(InsertObject(), "t")],
            background=True,
        )
        # One flag: the rule's.  The event carries none to disagree with.
        assert rule.background and not hasattr(rule.event, "background")


class TestPolicy:
    def test_kind_partitions(self):
        rules = [
            store_rule("a"),
            store_rule("t", event=TimerEvent(5)),
            store_rule("th", event=ThresholdEvent(Literal(False))),
        ]
        policy = Policy(rules)
        assert [r.name for r in policy.action_rules()] == ["a"]
        assert [r.name for r in policy.timer_rules()] == ["t"]
        assert [r.name for r in policy.threshold_rules()] == ["th"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(PolicyError):
            Policy([store_rule("same"), store_rule("same")])

    def test_add_remove(self):
        policy = Policy([store_rule("a")])
        policy.add(store_rule("b"))
        assert len(policy) == 2
        removed = policy.remove("a")
        assert removed.name == "a"
        assert [r.name for r in policy] == ["b"]

    def test_add_duplicate_rejected(self):
        policy = Policy([store_rule("a")])
        with pytest.raises(PolicyError):
            policy.add(store_rule("a"))

    def test_remove_unknown_rejected(self):
        with pytest.raises(PolicyError):
            Policy([]).remove("ghost")

    def test_replace_keeps_position(self):
        policy = Policy([store_rule("a"), store_rule("b"), store_rule("c")])
        policy.replace("b", store_rule("b2"))
        assert [r.name for r in policy] == ["a", "b2", "c"]

    def test_replace_all(self):
        policy = Policy([store_rule("a")])
        policy.replace_all([store_rule("x"), store_rule("y")])
        assert [r.name for r in policy] == ["x", "y"]

    def test_replace_all_rejects_duplicate_names(self):
        policy = Policy([store_rule("a")])
        with pytest.raises(PolicyError, match="'x'"):
            policy.replace_all([store_rule("x"), store_rule("x")])
        assert [r.name for r in policy] == ["a"]

    def test_replace_rejects_a_name_already_taken(self):
        policy = Policy([store_rule("a"), store_rule("b")])
        with pytest.raises(PolicyError, match="'b'"):
            policy.replace("a", store_rule("b"))
        assert [r.name for r in policy] == ["a", "b"]

    def test_replace_may_keep_the_name(self):
        policy = Policy([store_rule("a"), store_rule("b")])
        policy.replace("a", store_rule("a"))
        assert [r.name for r in policy] == ["a", "b"]

    def test_reconfigure_refuses_duplicate_policy(self, registry):
        instance = build_instance(
            registry, [("tier1", "Memcached", 10 ** 6)],
            rules=[store_rule("a")],
        )
        before = list(instance.policy)
        with pytest.raises(PolicyError):
            instance.reconfigure(
                replace_policy=[store_rule("x"), store_rule("x")]
            )
        assert list(instance.policy) == before

    def test_listeners_notified_on_every_change(self):
        policy = Policy([store_rule("a")])
        changes = []
        policy.subscribe(lambda: changes.append(1))
        policy.add(store_rule("b"))
        policy.remove("a")
        policy.replace("b", store_rule("b2"))
        policy.replace_all([])
        assert len(changes) == 4
