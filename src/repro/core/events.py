"""The three event kinds: action, timer, threshold (§2.2, §3).

* :class:`ActionEvent` fires when the application performs an operation
  (insert/delete/get), optionally narrowed to a tier
  (``insert.into == tier1``) and guarded by an extra condition — the
  paper's "events can be combined such that a particular response is
  initiated only when all the conditions hold".
* :class:`TimerEvent` fires every ``interval`` seconds (granularity of
  seconds in the prototype).
* :class:`ThresholdEvent` fires when its condition *becomes* true
  (edge-triggered — "occur when the value of the attribute reaches a
  certain value").

Whether a rule runs in the foreground (synchronously inside the
triggering request) or the background (asynchronously, §3) is the
:class:`~repro.core.policy.Rule`'s flag, not the event's.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Optional

from repro.core.actions import Action, KINDS
from repro.core.conditions import Condition, EvalScope


class Event(ABC):
    """Base event; concrete kinds below."""


@dataclass
class ActionEvent(Event):
    """Fires on a matching application action.

    ``kind`` is one of ``insert``/``delete``/``get``; ``tier`` narrows to
    actions targeting that tier; ``guard`` is an optional extra
    condition that must also hold.
    """

    kind: str
    tier: Optional[str] = None
    guard: Optional[Condition] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")

    def matches(self, action: Action, scope: EvalScope) -> bool:
        if action.kind != self.kind:
            return False
        if self.tier is not None and action.tier not in (None, self.tier):
            return False
        if self.guard is not None and not self.guard.truthy(scope):
            return False
        return True


@dataclass
class TimerEvent(Event):
    """Fires every ``interval`` seconds (Figure 3's ``event(time=t)``)."""

    interval: float

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("timer interval must be positive")


@dataclass
class ThresholdEvent(Event):
    """Fires when ``condition`` transitions from false to true.

    The transition state lives on the event instance (``_armed``): after
    firing, the event re-arms only once the condition has gone false
    again, so ``tier1.filled == 75%`` does not refire on every
    subsequent insert while the tier stays above the threshold.
    """

    condition: Condition
    _armed: bool = field(default=True, repr=False, compare=False)

    def should_fire(self, scope: EvalScope) -> bool:
        holds = self.condition.truthy(scope)
        if holds and self._armed:
            self._armed = False
            return True
        if not holds:
            self._armed = True
        return False

    def reset(self) -> None:
        self._armed = True
