"""Policies: ordered event → response rules, replaceable at runtime.

"An important aspect of Tiera's novelty lies in the ability to
dynamically modify, add, or replace policies while running" (§4.2.3).
A :class:`Policy` is a mutable ordered rule list; the control layer
subscribes to its changes so timers start/stop and thresholds re-arm as
rules come and go.  The list is partitioned by event kind when it
changes, not on every op that asks for its action or threshold rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.core.errors import PolicyError
from repro.core.events import ActionEvent, Event, ThresholdEvent, TimerEvent
from repro.core.responses import Response

_rule_ids = itertools.count(1)


def _unique(rules: Sequence["Rule"]) -> List["Rule"]:
    """``rules`` as a list, or :class:`PolicyError` if two share a name:
    timers and firing counts are keyed by name, so a duplicate would
    silently shadow its twin."""
    seen = set()
    for rule in rules:
        if rule.name in seen:
            raise PolicyError(f"rule {rule.name!r} already installed")
        seen.add(rule.name)
    return list(rules)


@dataclass
class Rule:
    """One event with the responses it triggers.

    ``background`` follows §3: background rules run asynchronously
    (their cost never lands on the triggering client's latency); the
    default is foreground.  The spec language's ``background event``
    prefix sets it.
    """

    event: Event
    responses: Tuple[Response, ...]
    background: bool = False
    name: str = ""

    def __init__(self, event, responses, background=False, name=""):
        self.event = event
        self.responses = tuple(responses)
        self.background = background
        self.name = name or f"rule-{next(_rule_ids)}"
        if not self.responses:
            raise PolicyError(f"{self.name}: a rule needs at least one response")


class Policy:
    """An ordered, runtime-mutable collection of rules."""

    def __init__(self, rules: Sequence[Rule] = ()):
        self._listeners: List[Callable[[], None]] = []
        self._install(_unique(rules))

    def _install(self, rules: List[Rule]) -> None:
        """Make ``rules`` the policy and partition them by event kind."""
        self._rules = rules
        self._actions = [r for r in rules if isinstance(r.event, ActionEvent)]
        self._timers = [r for r in rules if isinstance(r.event, TimerEvent)]
        self._thresholds = [
            r for r in rules if isinstance(r.event, ThresholdEvent)
        ]

    def __iter__(self):
        return iter(list(self._rules))

    def __len__(self) -> int:
        return len(self._rules)

    def rule(self, name: str) -> Rule:
        for r in self._rules:
            if r.name == name:
                return r
        raise PolicyError(f"no rule named {name!r}")

    # The partitions are shared: callers iterate, never edit them.

    def action_rules(self) -> List[Rule]:
        return self._actions

    def timer_rules(self) -> List[Rule]:
        return self._timers

    def threshold_rules(self) -> List[Rule]:
        return self._thresholds

    # -- runtime modification (§4.2.3) ------------------------------------

    def add(self, rule: Rule) -> None:
        self._change(self._rules + [rule])

    def remove(self, name: str) -> Rule:
        rule = self.rule(name)
        self._change([r for r in self._rules if r is not rule])
        return rule

    def replace(self, name: str, new_rule: Rule) -> None:
        """Swap a rule in place, keeping its position in the order."""
        rules = list(self._rules)
        rules[rules.index(self.rule(name))] = new_rule
        self._change(rules)

    def replace_all(self, rules: Sequence[Rule]) -> None:
        """Install a completely new policy (the Figure 17 reconfiguration)."""
        self._change(rules)

    def subscribe(self, listener: Callable[[], None]) -> None:
        self._listeners.append(listener)

    def _change(self, rules: Sequence[Rule]) -> None:
        self._install(_unique(rules))
        for listener in self._listeners:
            listener()
