"""Compiler: specification AST → a live Tiera instance.

The paper's prototype hand-codes each policy; compilation of
specification files is listed as future work (§3).  Here we implement
it.  A :class:`Compiler` lowers parsed declarations onto the core
policy machinery, part by part:

* :meth:`Compiler.tiers` provisions the tier declarations through the
  :class:`~repro.tiers.registry.TierRegistry`;
* :meth:`Compiler.rules` lowers each event declaration to a
  :class:`Rule` named by its ``event "name"`` (else ``<Instance>-rule-N``):
  ``event(insert.into [== tierX] [&& guard])`` → :class:`ActionEvent`;
  ``event(time=t)`` → :class:`TimerEvent`; any other event expression →
  :class:`ThresholdEvent` (an ``==`` against a percent literal is
  lowered to ``>=`` because the paper's ``tier1.filled == 75%`` means
  "reaches"); the ``background`` prefix marks the rule background;
  response-block statements map onto the Table 1 response classes,
  assignments onto :class:`SetAttr`, ``if`` onto :class:`Conditional`;
* :meth:`Compiler.eviction_chain` collects the tiers' ``evict_to:``.

:meth:`Compiler.compile` assembles the three into a
:class:`TieraInstance`; a runtime reconfiguration takes the parts it
needs.  Parameters are bound at construction: declared defaults first,
then ``args`` (a string argument such as ``"1G"`` reads as the literal
it spells); an argument the spec does not declare is an error.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.conditions import (
    And,
    AttrRef,
    Comparison,
    Condition,
    HeatHot,
    Literal,
    Or,
    TierDirtyBytes,
    TierFull,
)
from repro.core.errors import PolicyError
from repro.core.events import ActionEvent, Event, ThresholdEvent, TimerEvent
from repro.core.instance import DROP, TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.responses import (
    Compress,
    Conditional,
    Copy,
    Decrypt,
    Delete,
    Encrypt,
    Grow,
    Move,
    Response,
    Retrieve,
    SetAttr,
    Shrink,
    Store,
    StoreOnce,
    Uncompress,
)
from repro.core.selectors import (
    InsertObject,
    NamedObjects,
    ObjectsWhere,
    Selector,
    TierNewest,
    TierOldest,
)
from repro.spec import ast
from repro.spec.lexer import SpecSyntaxError
from repro.spec.parser import parse, parse_literal
from repro.tiers.base import Tier
from repro.tiers.registry import TierRegistry

_ACTION_HEADS = {
    ("insert", "into"): "insert",
    ("delete", "of"): "delete",
    ("delete", "from"): "delete",
    ("get", "of"): "get",
    ("get", "from"): "get",
}


def _arg_value(value: object) -> object:
    """A string argument that spells one literal (``"1G"``, ``"40KB/s"``,
    ``"false"``) becomes that literal's value; anything else is kept."""
    if isinstance(value, str):
        try:
            return parse_literal(value).value
        except (SpecSyntaxError, ValueError):
            return value
    return value


class Compiler:
    def __init__(
        self,
        spec: ast.InstanceSpec,
        registry: Optional[TierRegistry],
        args: Optional[Dict[str, object]] = None,
    ):
        self.spec = spec
        self.registry = registry
        self.tier_names = {t.tier_name for t in spec.tiers}
        declared = {p.name for p in spec.params}
        unknown = set(args or {}) - declared
        if unknown:
            raise PolicyError(
                f"instance {spec.name!r} has no parameters {sorted(unknown)}"
            )
        self.args = {
            p.name: p.default.value for p in spec.params if p.default is not None
        }
        self.args.update({k: _arg_value(v) for k, v in (args or {}).items()})
        missing = declared - set(self.args)
        if missing:
            raise PolicyError(
                f"instance {spec.name!r} needs arguments for: {sorted(missing)}"
            )

    # -- parts ----------------------------------------------------------------

    def tiers(self) -> List[Tier]:
        tiers = []
        for decl in self.spec.tiers:
            if not self.registry.known(decl.product):
                raise PolicyError(
                    f"line {decl.line}: unknown tier product {decl.product!r}"
                )
            size = self._field(decl.size)
            if isinstance(size, str):
                raise PolicyError(f"line {decl.line}: no parameter {size!r}")
            extra = {"colocated": True} if self._field(decl.colocated) else {}
            tiers.append(
                self.registry.create(
                    decl.product,
                    tier_name=decl.tier_name,
                    size=size,
                    zone=self._field(decl.zone) or "us-east-1a",
                    **extra,
                )
            )
        return tiers

    def rules(self) -> List[Rule]:
        return [
            self._compile_event(decl, index)
            for index, decl in enumerate(self.spec.events, start=1)
        ]

    def eviction_chain(self) -> Dict[str, str]:
        chain = {}
        for decl in self.spec.tiers:
            target = self._field(decl.evict_to)
            if target is None:
                continue
            if target != "drop" and target not in self.tier_names:
                raise PolicyError(f"line {decl.line}: unknown tier {target!r}")
            chain[decl.tier_name] = DROP if target == "drop" else target
        return chain

    def compile(self) -> TieraInstance:
        instance = TieraInstance(
            name=self.spec.name,
            tiers=self.tiers(),
            policy=Policy(self.rules()),
            clock=self.registry.cluster.clock,
        )
        instance.eviction_chain.update(self.eviction_chain())
        return instance

    def _field(self, value: ast.FieldValue) -> object:
        """A tier field: an identifier naming a parameter reads as its value."""
        return self.args.get(value, value) if isinstance(value, str) else value

    # -- events ---------------------------------------------------------------

    def _compile_event(self, decl: ast.EventDecl, index: int) -> Rule:
        return Rule(
            self._classify_event(decl),
            [self._compile_stmt(stmt) for stmt in decl.body],
            background=decl.background,
            name=decl.name or f"{self.spec.name}-rule-{index}",
        )

    def _classify_event(self, decl: ast.EventDecl) -> Event:
        expr = decl.expr
        if isinstance(expr, ast.BoolExpr) and expr.op == "and":
            # `get.of && <guard>`: an action event narrowed by a condition.
            event = self._action_event(expr.parts[0], decl)
            if event is not None:
                rest = expr.parts[1:]
                guard = rest[0] if len(rest) == 1 else ast.BoolExpr("and", rest)
                event.guard = self._compile_condition(guard)
                return event
        event = self._action_event(expr, decl)
        if event is not None:
            return event
        if (
            isinstance(expr, ast.CompareExpr)
            and isinstance(expr.lhs, ast.PathExpr)
            and expr.lhs.parts == ("time",)
            and expr.op in ("=", "==")
        ):
            return TimerEvent(self._numeric_value(expr.rhs))
        return ThresholdEvent(self._compile_condition(expr, threshold=True))

    def _action_event(
        self, expr: ast.Expr, decl: ast.EventDecl
    ) -> Optional[ActionEvent]:
        if isinstance(expr, ast.PathExpr):
            kind = _ACTION_HEADS.get(expr.parts)
            return ActionEvent(kind) if kind is not None else None
        if (
            isinstance(expr, ast.CompareExpr)
            and isinstance(expr.lhs, ast.PathExpr)
            and expr.lhs.parts in _ACTION_HEADS
            and expr.op in ("=", "==")
        ):
            if not isinstance(expr.rhs, ast.PathExpr) or len(expr.rhs.parts) != 1:
                raise PolicyError(
                    f"line {decl.line}: action event must compare to a tier name"
                )
            return ActionEvent(_ACTION_HEADS[expr.lhs.parts], tier=expr.rhs.parts[0])
        return None

    def _numeric_value(self, expr: ast.Expr) -> float:
        if isinstance(expr, ast.LiteralExpr):
            return float(expr.value)
        if isinstance(expr, ast.PathExpr) and len(expr.parts) == 1:
            name = expr.parts[0]
            if name in self.args:
                return float(self.args[name])
        raise PolicyError(f"expected a number or parameter, got {expr!r}")

    # -- conditions ------------------------------------------------------------

    def _compile_condition(self, expr: ast.Expr, threshold: bool = False) -> Condition:
        if isinstance(expr, ast.BoolExpr):
            parts = [self._compile_condition(p, threshold) for p in expr.parts]
            return And(*parts) if expr.op == "and" else Or(*parts)
        if isinstance(expr, ast.CompareExpr):
            op = "==" if expr.op == "=" else expr.op
            # "tier1.filled == 75%" means *reaches* 75% (edge threshold).
            if (
                threshold
                and op == "=="
                and isinstance(expr.rhs, ast.LiteralExpr)
                and expr.rhs.unit == "percent"
            ):
                op = ">="
            return Comparison(
                op, self._compile_value(expr.lhs), self._compile_value(expr.rhs)
            )
        if isinstance(expr, ast.PathExpr):
            # Bare `tierX.filled` in a boolean position means "is full".
            if (
                len(expr.parts) == 2
                and expr.parts[0] in self.tier_names
                and expr.parts[1] == "filled"
            ):
                return TierFull(expr.parts[0])
            return self._compile_value(expr)
        if isinstance(expr, ast.LiteralExpr):
            return Literal(expr.value)
        if isinstance(expr, ast.CallExpr):
            return self._compile_call_expr(expr)
        raise PolicyError(f"cannot compile condition {expr!r}")

    def _compile_call_expr(self, expr: ast.CallExpr) -> Condition:
        if expr.func == ("heat", "hot"):
            if len(expr.args) != 1:
                raise PolicyError("heat.hot() takes exactly one key argument")
            return HeatHot(self._string_arg(expr.args[0], "heat.hot"))
        raise PolicyError(
            f"unknown predicate {'.'.join(expr.func)!r} in condition"
        )

    def _string_arg(self, expr: ast.Expr, context: str) -> str:
        """A string-valued call argument: a string literal, a parameter,
        or a bare identifier taken as a literal key (the `store(to:
        tier1)` idiom)."""
        if isinstance(expr, ast.LiteralExpr) and expr.unit == "string":
            return str(expr.value)
        if isinstance(expr, ast.PathExpr) and len(expr.parts) == 1:
            name = expr.parts[0]
            if name in self.args:
                return str(self.args[name])
            return name
        raise PolicyError(f"{context}: argument must be a key name or string")

    def _compile_value(self, expr: ast.Expr) -> Condition:
        if isinstance(expr, ast.LiteralExpr):
            return Literal(expr.value)
        if isinstance(expr, ast.PathExpr):
            if len(expr.parts) == 1:
                name = expr.parts[0]
                if name in self.args:
                    return Literal(self.args[name])
                if name in self.tier_names:
                    return Literal(name)  # tiers compare by name
            if expr.parts[1:] == ("dirty_bytes",) and expr.parts[0] in self.tier_names:
                return TierDirtyBytes(expr.parts[0])
            return AttrRef(expr.parts)
        if isinstance(expr, (ast.CompareExpr, ast.BoolExpr)):
            return self._compile_condition(expr)
        if isinstance(expr, ast.CallExpr):
            return self._compile_call_expr(expr)
        raise PolicyError(f"cannot compile value {expr!r}")

    # -- statements ---------------------------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt) -> Response:
        if isinstance(stmt, ast.AssignStmt):
            return self._compile_assign(stmt)
        if isinstance(stmt, ast.IfStmt):
            return Conditional(
                self._compile_condition(stmt.condition),
                then=[self._compile_stmt(s) for s in stmt.then],
                otherwise=[self._compile_stmt(s) for s in stmt.otherwise],
            )
        if isinstance(stmt, ast.CallStmt):
            return self._compile_call(stmt)
        raise PolicyError(f"cannot compile statement {stmt!r}")

    def _compile_assign(self, stmt: ast.AssignStmt) -> SetAttr:
        if not isinstance(stmt.value, ast.LiteralExpr):
            raise PolicyError(
                f"line {stmt.line}: assignments take literal values only"
            )
        return SetAttr(tuple(stmt.target.parts), stmt.value.value)

    def _compile_call(self, stmt: ast.CallStmt) -> Response:
        name = stmt.name
        builder = getattr(self, f"_call_{name}", None)
        if builder is None:
            raise PolicyError(f"line {stmt.line}: unknown response {name!r}")
        return builder(stmt)

    # -- per-response argument handling ----------------------------------------------

    def _selector(self, stmt: ast.CallStmt, arg: str = "what") -> Selector:
        expr = stmt.args.get(arg)
        if expr is None:
            raise PolicyError(f"line {stmt.line}: {stmt.name} needs '{arg}:'")
        if isinstance(expr, ast.PathExpr):
            if expr.parts == ("insert", "object"):
                return InsertObject()
            if len(expr.parts) == 2 and expr.parts[0] in self.tier_names:
                if expr.parts[1] == "oldest":
                    return TierOldest(expr.parts[0])
                if expr.parts[1] == "newest":
                    return TierNewest(expr.parts[0])
            if len(expr.parts) == 1 and expr.parts[0] not in self.tier_names:
                return NamedObjects(expr.parts[0])
        if isinstance(expr, ast.LiteralExpr) and expr.unit == "string":
            return NamedObjects(str(expr.value))
        if isinstance(expr, (ast.CompareExpr, ast.BoolExpr)):
            return ObjectsWhere(self._compile_condition(expr))
        raise PolicyError(
            f"line {stmt.line}: cannot interpret 'what:' selector for {stmt.name}"
        )

    def _tier_arg(self, stmt: ast.CallStmt, arg: str, required: bool = True):
        """A tier name; a ``to:`` target may also be a ``[tier, ...]`` list."""
        expr = stmt.args.get(arg)
        if expr is None:
            if required:
                raise PolicyError(f"line {stmt.line}: {stmt.name} needs '{arg}:'")
            return None
        if isinstance(expr, ast.ListExpr) and arg == "to":
            return tuple(self._tier_name(stmt, arg, item) for item in expr.items)
        return self._tier_name(stmt, arg, expr)

    def _tier_name(self, stmt: ast.CallStmt, arg: str, expr: ast.Expr) -> str:
        if isinstance(expr, ast.PathExpr) and len(expr.parts) == 1:
            tier = expr.parts[0]
            if tier not in self.tier_names:
                raise PolicyError(f"line {stmt.line}: unknown tier {tier!r}")
            return tier
        raise PolicyError(f"line {stmt.line}: '{arg}:' must name a tier")

    def _literal_arg(self, stmt: ast.CallStmt, arg: str, unit: Optional[str] = None):
        expr = stmt.args.get(arg)
        if expr is None:
            return None
        if isinstance(expr, ast.LiteralExpr):
            if unit is not None and expr.unit != unit:
                raise PolicyError(
                    f"line {stmt.line}: '{arg}:' must be a {unit} literal"
                )
            return expr.value
        if isinstance(expr, ast.PathExpr) and len(expr.parts) == 1:
            name = expr.parts[0]
            if name in self.args:
                return self.args[name]
        raise PolicyError(f"line {stmt.line}: '{arg}:' must be a literal")

    def _call_store(self, stmt: ast.CallStmt) -> Store:
        return Store(
            self._selector(stmt),
            self._tier_arg(stmt, "to"),
            evict_to=self._tier_arg(stmt, "evict_to", required=False),
        )

    def _call_storeOnce(self, stmt: ast.CallStmt) -> StoreOnce:
        return StoreOnce(
            self._selector(stmt),
            self._tier_arg(stmt, "to"),
            evict_to=self._tier_arg(stmt, "evict_to", required=False),
        )

    def _call_retrieve(self, stmt: ast.CallStmt) -> Retrieve:
        return Retrieve(
            self._selector(stmt),
            promote_to=self._tier_arg(stmt, "promote_to", required=False),
            exclusive=bool(self._literal_arg(stmt, "exclusive", unit="bool")),
        )

    def _call_copy(self, stmt: ast.CallStmt) -> Copy:
        return Copy(
            self._selector(stmt),
            self._tier_arg(stmt, "to"),
            bandwidth=self._literal_arg(stmt, "bandwidth"),
            clear_dirty=self._literal_arg(stmt, "clear_dirty", unit="bool") is not False,
        )

    def _call_move(self, stmt: ast.CallStmt) -> Move:
        return Move(
            self._selector(stmt),
            self._tier_arg(stmt, "to"),
            bandwidth=self._literal_arg(stmt, "bandwidth"),
        )

    def _call_delete(self, stmt: ast.CallStmt) -> Delete:
        source = self._tier_arg(stmt, "from_tier", required=False)
        return Delete(self._selector(stmt), tiers=(source,) if source else None)

    def _call_encrypt(self, stmt: ast.CallStmt) -> Encrypt:
        key = self._literal_arg(stmt, "key", unit="string")
        if key is None:
            raise PolicyError(f"line {stmt.line}: encrypt needs 'key:'")
        return Encrypt(self._selector(stmt), str(key))

    def _call_decrypt(self, stmt: ast.CallStmt) -> Decrypt:
        key = self._literal_arg(stmt, "key", unit="string")
        if key is None:
            raise PolicyError(f"line {stmt.line}: decrypt needs 'key:'")
        return Decrypt(self._selector(stmt), str(key))

    def _call_compress(self, stmt: ast.CallStmt) -> Compress:
        return Compress(self._selector(stmt))

    def _call_uncompress(self, stmt: ast.CallStmt) -> Uncompress:
        return Uncompress(self._selector(stmt))

    def _call_grow(self, stmt: ast.CallStmt) -> Grow:
        percent = self._literal_arg(stmt, "increment", unit="percent")
        if percent is None:
            raise PolicyError(f"line {stmt.line}: grow needs 'increment:'")
        return Grow(
            self._tier_arg(stmt, "what"),
            float(percent) * 100.0,
            provisioning_delay=self._literal_arg(stmt, "delay"),
        )

    def _call_snapshot(self, stmt: ast.CallStmt) -> "Response":
        from repro.core.responses import Snapshot

        label = self._literal_arg(stmt, "label", unit="string")
        if label is None:
            raise PolicyError(f"line {stmt.line}: snapshot needs 'label:'")
        return Snapshot(
            self._selector(stmt), to=self._tier_arg(stmt, "to"), label=str(label)
        )

    def _word_arg(self, stmt: ast.CallStmt, name: str, default: str) -> str:
        """A keyword-like argument: a bare identifier (the
        ``store(to: tier1)`` idiom) or a string."""
        expr = stmt.args.get(name)
        if expr is None:
            return default
        if (
            isinstance(expr, ast.PathExpr)
            and len(expr.parts) == 1
            and expr.parts[0] not in self.args
        ):
            return expr.parts[0]
        return str(self._literal_arg(stmt, name, unit="string"))

    def _call_backupSnapshot(self, stmt: ast.CallStmt) -> "Response":
        from repro.core.responses import BackupSnapshot

        kind = self._word_arg(stmt, "kind", "auto")
        if kind not in ("auto", "full", "incremental"):
            raise PolicyError(
                f"line {stmt.line}: backupSnapshot 'kind:' must be "
                f"\"auto\", \"full\", or \"incremental\""
            )
        return BackupSnapshot(kind=kind)

    def _call_verifyBackup(self, stmt: ast.CallStmt) -> "Response":
        from repro.core.responses import VerifyBackup

        return VerifyBackup()

    def _call_adaptive_placement(self, stmt: ast.CallStmt) -> "Response":
        from repro.core.placement import check_options
        from repro.core.responses import AdaptivePlacement

        interval_expr = stmt.args.get("interval")
        options = {
            "objective": self._word_arg(stmt, "objective", "balanced"),
            "interval": 60.0 if interval_expr is None
            else self._numeric_value(interval_expr),
        }
        try:
            return AdaptivePlacement(**check_options(options))
        except (TypeError, ValueError) as exc:
            raise PolicyError(
                f"line {stmt.line}: adaptive_placement: {exc}"
            ) from None

    def _call_shrink(self, stmt: ast.CallStmt) -> Shrink:
        percent = self._literal_arg(stmt, "decrement", unit="percent")
        if percent is None:
            raise PolicyError(f"line {stmt.line}: shrink needs 'decrement:'")
        return Shrink(self._tier_arg(stmt, "what"), float(percent) * 100.0)


def compile_spec(
    source: str,
    registry: TierRegistry,
    args: Optional[Dict[str, object]] = None,
) -> TieraInstance:
    """Parse and compile a specification string into a live instance."""
    return Compiler(parse(source), registry, args).compile()
