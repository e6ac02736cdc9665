"""Condition expressions over objects, tiers, and actions.

The paper's specifications guard responses with expressions like
``object.location == tier1 && object.dirty == true`` (Figure 3) or
``tier1.filled == 75%`` (Figure 6).  This module is the evaluated AST
for those expressions.  The same AST backs three uses:

* **threshold events** — edge-triggered conditions over tier attributes,
* **selector predicates** — per-object filters in ``what:`` clauses,
* **if-statements** inside response blocks (Figure 5's LRU/MRU).

Evaluation happens against an :class:`EvalScope` naming the instance,
the in-flight action (if any), and the object currently under
consideration (for per-object predicates).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.core.actions import Action
from repro.core.errors import PolicyError, UnknownTierError
from repro.core.objects import ObjectMeta


@dataclass
class EvalScope:
    """Name-resolution scope for one condition evaluation."""

    instance: Any  # TieraInstance (typed loosely to avoid an import cycle)
    action: Optional[Action] = None
    obj: Optional[ObjectMeta] = None

    @property
    def now(self) -> float:
        return self.instance.clock.now()


class Condition(ABC):
    """A boolean- or value-producing expression node."""

    @abstractmethod
    def evaluate(self, scope: EvalScope) -> Any:
        """Produce this node's value in ``scope``."""

    def truthy(self, scope: EvalScope) -> bool:
        return bool(self.evaluate(scope))


@dataclass
class Literal(Condition):
    """A constant: number, string, bool, or a percentage (as a fraction)."""

    value: Any

    def evaluate(self, scope: EvalScope) -> Any:
        return self.value


# Attributes resolvable on an ObjectMeta via AttrRef.
_OBJECT_ATTRS = frozenset(
    {
        "location",
        "dirty",
        "size",
        "tags",
        "access_frequency",
        "last_access",
        "last_modified",
        "access_count",
        "version",
        "checksum",
        "compressed",
        "encrypted",
    }
)

_TIER_ATTRS = frozenset(
    {"filled", "used", "capacity", "oldest", "newest", "available", "name"}
)

# Attributes resolvable on an SLO objective via ``slo.<name>.<attr>``.
_SLO_ATTRS = frozenset(
    {
        "alerting",
        "burning",  # alias for alerting, reads well in specs
        "compliant",
        "burn_rate",
        "burn_rate_short",
        "current",
        "breaches",
    }
)

# Per-tier attributes resolvable via ``heat.<tier>.<attr>``.
_HEAT_TIER_ATTRS = frozenset(
    {
        "reads",
        "writes",
        "accesses",
        "read_fraction",
        "write_fraction",
        "used",
        "capacity",
        "utilization",
    }
)

# Workload-level attributes resolvable via ``heat.<attr>``.
_HEAT_ATTRS = frozenset(
    {
        "accesses",
        "reads",
        "writes",
        "read_fraction",
        "tracked",
        "hot_count",
        "skew",
        "churn",
    }
)


@dataclass
class AttrRef(Condition):
    """A dotted attribute path: ``object.dirty``, ``tier1.filled``, …

    Resolution rules (in order):

    * ``insert.object[.attr]`` / ``insert.into`` — the in-flight action,
    * ``object.attr`` — the object under consideration,
    * ``<tiername>[.attr]`` — a tier of the instance,
    * ``time`` — current clock time,
    * ``slo.<name>[.attr]`` — live SLO state (``burning``, ``compliant``,
      ``burn_rate``, …); bare ``slo.<name>`` is the alerting flag, so
      ``event(slo.get_latency.burning) : response { ... }`` lets policy
      react to error-budget burn,
    * ``heat.<attr>`` / ``heat.<tier>.<attr>`` — live workload heat
      (``skew``, ``churn``, ``hot_count``, per-tier ``read_fraction``,
      ``utilization``, …) from the heat tracker, so policy can react to
      measured access patterns (``event(heat.tier1.utilization > 90%)``).
    """

    path: Tuple[str, ...]

    def evaluate(self, scope: EvalScope) -> Any:
        head = self.path[0]
        if head == "insert":
            return self._resolve_action(scope)
        if head == "object":
            return self._resolve_object(scope.obj, self.path[1:], scope)
        if head == "time":
            return scope.now
        if head == "slo":
            return self._resolve_slo(scope, self.path[1:])
        if head == "heat":
            return self._resolve_heat(scope, self.path[1:])
        if scope.instance is not None and scope.instance.tiers.has(head):
            return self._resolve_tier(scope, head, self.path[1:])
        raise PolicyError(f"cannot resolve attribute path {'.'.join(self.path)!r}")

    def _resolve_action(self, scope: EvalScope) -> Any:
        if scope.action is None:
            raise PolicyError(
                f"{'.'.join(self.path)!r} referenced outside an action context"
            )
        rest = self.path[1:]
        if not rest:
            raise PolicyError("bare 'insert' is not a value")
        if rest[0] == "into":
            return scope.action.tier
        if rest[0] == "object":
            return self._resolve_object(scope.action.meta, rest[1:], scope)
        raise PolicyError(f"unknown action attribute {rest[0]!r}")

    def _resolve_object(
        self,
        meta: Optional[ObjectMeta],
        rest: Sequence[str],
        scope: EvalScope,
    ) -> Any:
        if meta is None:
            raise PolicyError(
                f"{'.'.join(self.path)!r}: no object in evaluation scope"
            )
        if not rest:
            return meta
        attr = rest[0]
        if attr not in _OBJECT_ATTRS:
            raise PolicyError(f"unknown object attribute {attr!r}")
        if attr == "location":
            return set(meta.copies())
        if attr == "access_frequency":
            return meta.access_frequency(scope.now)
        return getattr(meta, attr)

    def _resolve_slo(self, scope: EvalScope, rest: Sequence[str]) -> Any:
        if not rest:
            raise PolicyError("bare 'slo' is not a value; use slo.<name>")
        engine = scope.instance.obs.slo
        name = rest[0]
        if not engine.has(name):
            raise PolicyError(f"no SLO named {name!r} is installed")
        state = engine.state(name, scope.now)
        if len(rest) == 1:
            return state["alerting"]
        attr = rest[1]
        if attr not in _SLO_ATTRS:
            raise PolicyError(f"unknown SLO attribute {attr!r}")
        if attr == "burning":
            attr = "alerting"
        return state[attr]

    def _resolve_heat(self, scope: EvalScope, rest: Sequence[str]) -> Any:
        if not rest:
            raise PolicyError("bare 'heat' is not a value; use heat.<attr>")
        tracker = getattr(scope.instance.obs, "heat", None)
        if tracker is None or not tracker.enabled:
            raise PolicyError(
                "heat tracking is not enabled on this instance"
            )
        head = rest[0]
        if len(rest) == 1:
            if head not in _HEAT_ATTRS:
                raise PolicyError(f"unknown heat attribute {head!r}")
            return tracker.global_stats()[head]
        if not scope.instance.tiers.has(head):
            raise PolicyError(
                f"heat.{head}: {head!r} is neither a heat attribute nor a tier"
            )
        attr = rest[1]
        if attr not in _HEAT_TIER_ATTRS:
            raise PolicyError(f"unknown heat tier attribute {attr!r}")
        return tracker.tier_stats(head)[attr]

    def _resolve_tier(self, scope: EvalScope, tier_name: str, rest) -> Any:
        tier = scope.instance.tiers.get(tier_name)
        if not rest:
            return tier
        attr = rest[0]
        if attr not in _TIER_ATTRS:
            raise PolicyError(f"unknown tier attribute {attr!r}")
        return getattr(tier, attr)

    def __str__(self) -> str:
        return ".".join(self.path)


_OPS = {
    "==": lambda a, b: _loose_eq(a, b),
    "!=": lambda a, b: not _loose_eq(a, b),
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _loose_eq(a: Any, b: Any) -> bool:
    """Equality with the paper's container conventions.

    ``object.location == tier1`` means *membership* (the object's
    location is a set of tiers), and ``object.tags == "tmp"`` likewise.
    """
    if isinstance(a, (set, frozenset)) and not isinstance(b, (set, frozenset)):
        return b in a
    if isinstance(b, (set, frozenset)) and not isinstance(a, (set, frozenset)):
        return a in b
    return a == b


@dataclass
class Comparison(Condition):
    """``lhs <op> rhs`` with the operators the spec language allows."""

    op: str
    lhs: Condition
    rhs: Condition

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise PolicyError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, scope: EvalScope) -> bool:
        left = self.lhs.evaluate(scope)
        right = self.rhs.evaluate(scope)
        # Tier operands compare by name ("insert.into == tier1").
        left = getattr(left, "name", left) if _is_tier(left) else left
        right = getattr(right, "name", right) if _is_tier(right) else right
        return _OPS[self.op](left, right)


def _is_tier(value: Any) -> bool:
    return hasattr(value, "filled") and hasattr(value, "service")


@dataclass
class And(Condition):
    parts: Tuple[Condition, ...]

    def __init__(self, *parts: Condition):
        object.__setattr__(self, "parts", tuple(parts))

    def evaluate(self, scope: EvalScope) -> bool:
        return all(part.truthy(scope) for part in self.parts)


@dataclass
class Or(Condition):
    parts: Tuple[Condition, ...]

    def __init__(self, *parts: Condition):
        object.__setattr__(self, "parts", tuple(parts))

    def evaluate(self, scope: EvalScope) -> bool:
        return any(part.truthy(scope) for part in self.parts)


@dataclass
class Not(Condition):
    inner: Condition

    def evaluate(self, scope: EvalScope) -> bool:
        return not self.inner.truthy(scope)


@dataclass
class TierFull(Condition):
    """Truthiness of a bare ``tierX.filled`` in an if-statement (Figure 5).

    "Full" means: the pending insert (if any) would not fit; with no
    pending insert, at or above capacity.
    """

    tier_name: str

    def evaluate(self, scope: EvalScope) -> bool:
        if not scope.instance.tiers.has(self.tier_name):
            raise UnknownTierError(self.tier_name)
        tier = scope.instance.tiers.get(self.tier_name)
        pending = 0
        if scope.action is not None and scope.action.data is not None:
            pending = scope.action.size - _resident_size(tier, scope.action.key)
        if pending > 0:
            return not tier.can_fit(pending)
        return tier.filled >= 1.0


def _resident_size(tier, key: str) -> int:
    if tier.contains(key):
        return tier.service.size_of(key)
    return 0


@dataclass
class HeatHot(Condition):
    """True while ``key`` is in the heat tracker's current hot set.

    Backs the spec form ``event(heat.hot(key))``: edge-triggered on the
    key *entering* the hot set, so a promote-on-hot response fires once
    per heating-up rather than on every access.
    """

    key: str

    def evaluate(self, scope: EvalScope) -> bool:
        tracker = getattr(scope.instance.obs, "heat", None)
        if tracker is None or not tracker.enabled:
            raise PolicyError(
                "heat tracking is not enabled on this instance"
            )
        return tracker.is_hot(self.key)


@dataclass
class TierDirtyBytes(Condition):
    """Total bytes of dirty objects resident in a tier.

    The Figure 14 experiment replicates "after [a] certain amount of new
    data has been written into the first volume" (50 MB); that amount is
    exactly the dirty bytes accumulated since the last copy, which the
    copy response resets by clearing dirty flags.
    """

    tier_name: str

    def evaluate(self, scope: EvalScope) -> int:
        return sum(
            meta.size
            for meta in scope.instance.iter_meta()
            if meta.dirty and meta.holds(self.tier_name)
        )
