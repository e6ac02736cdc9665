"""Policies: ordered event → response rules, replaceable at runtime.

"An important aspect of Tiera's novelty lies in the ability to
dynamically modify, add, or replace policies while running" (§4.2.3).
A :class:`Policy` is a mutable ordered rule list; the control layer
subscribes to its changes so timers start/stop and thresholds re-arm as
rules come and go.
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
        self._rules: List[Rule] = _unique(rules)
        self._listeners: List[Callable[[], None]] = []

    def __iter__(self):
        return iter(list(self._rules))

    def __len__(self) -> int:
        return len(self._rules)

    def rule(self, name: str) -> Rule:
        for r in self._rules:
            if r.name == name:
                return r
        raise PolicyError(f"no rule named {name!r}")

    def action_rules(self) -> List[Rule]:
        return [r for r in self._rules if isinstance(r.event, ActionEvent)]

    def timer_rules(self) -> List[Rule]:
        return [r for r in self._rules if isinstance(r.event, TimerEvent)]

    def threshold_rules(self) -> List[Rule]:
        return [r for r in self._rules if isinstance(r.event, ThresholdEvent)]

    # -- runtime modification (§4.2.3) ------------------------------------

    def add(self, rule: Rule) -> None:
        self._rules = _unique(self._rules + [rule])
        self._notify()

    def remove(self, name: str) -> Rule:
        rule = self.rule(name)
        self._rules.remove(rule)
        self._notify()
        return rule

    def replace(self, name: str, new_rule: Rule) -> None:
        """Swap a rule in place, keeping its position in the order."""
        rules = list(self._rules)
        rules[rules.index(self.rule(name))] = new_rule
        self._rules = _unique(rules)
        self._notify()

    def replace_all(self, rules: Sequence[Rule]) -> None:
        """Install a completely new policy (the Figure 17 reconfiguration)."""
        self._rules = _unique(rules)
        self._notify()

    def subscribe(self, listener: Callable[[], None]) -> None:
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener()
