"""AST nodes produced by the spec parser.

Deliberately close to the surface syntax: conditions and values stay as
small expression trees; the compiler (not the parser) decides what an
event expression *means* (action vs timer vs threshold) and which
response class a call maps to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union


# -- value/condition expressions ------------------------------------------------


@dataclass
class PathExpr:
    """A dotted path: ``insert.object.dirty``, ``tier1.filled``."""

    parts: Tuple[str, ...]

    def dotted(self) -> str:
        return ".".join(self.parts)


@dataclass
class LiteralExpr:
    """A literal with its unit already applied.

    ``unit`` records the surface flavour: ``None`` (plain), ``size``
    (bytes), ``percent`` (fraction), ``bandwidth`` (bytes/sec),
    ``string``, ``bool``, ``none`` (the ``none`` literal: "not set").
    """

    value: object
    unit: Optional[str] = None


@dataclass
class CompareExpr:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass
class BoolExpr:
    """``&&`` / ``||`` over two or more operands."""

    op: str  # "and" | "or"
    parts: Tuple["Expr", ...]


@dataclass
class CallExpr:
    """A call in expression position: ``heat.hot(key)``.

    ``func`` is the (possibly dotted) callee path; ``args`` are
    positional expressions.  Only a handful of built-in predicates
    accept this form — the compiler validates the callee.
    """

    func: Tuple[str, ...]
    args: Tuple["Expr", ...]


@dataclass
class ListExpr:
    """A bracketed list: ``[tier1, tier2]`` (a multi-tier ``to:`` target)."""

    items: Tuple["Expr", ...]


Expr = object  # PathExpr | LiteralExpr | CompareExpr | BoolExpr | CallExpr | ListExpr


# -- statements inside response blocks ----------------------------------------


@dataclass
class CallStmt:
    """``store(what: insert.object, to: tier1);``"""

    name: str
    args: Dict[str, Expr]
    line: int = field(default=0, compare=False)


@dataclass
class AssignStmt:
    """``insert.object.dirty = true;``"""

    target: PathExpr
    value: Expr
    line: int = field(default=0, compare=False)


@dataclass
class IfStmt:
    """``if (cond) { ... } else { ... }``"""

    condition: Expr
    then: List["Stmt"] = field(default_factory=list)
    otherwise: List["Stmt"] = field(default_factory=list)
    line: int = field(default=0, compare=False)


Stmt = object  # CallStmt | AssignStmt | IfStmt


# -- declarations ------------------------------------------------------------------


FieldValue = Union[int, bool, str, None]


@dataclass
class TierDecl:
    """``tier1: { name: Memcached, size: 5G, evict_to: tier2 };``

    A field value is a literal or, as a string, an identifier — which
    the compiler reads as a parameter when one has that name.
    """

    tier_name: str
    product: str
    size: FieldValue
    zone: FieldValue = None
    evict_to: FieldValue = None
    colocated: FieldValue = None
    line: int = field(default=0, compare=False)


@dataclass
class EventDecl:
    """``[background] event ["name"](<expr>) : response { <stmts> }``"""

    expr: Expr
    body: List[Stmt]
    background: bool = False
    name: Optional[str] = None
    line: int = field(default=0, compare=False)


@dataclass
class Param:
    """A formal parameter: ``time t`` (type then name) or bare ``t``,
    optionally with a default: ``size mem = 5G``."""

    name: str
    type_name: Optional[str] = None
    default: Optional[LiteralExpr] = None


@dataclass
class InstanceSpec:
    """A whole ``Tiera Name(params) { ... }`` declaration."""

    name: str
    params: List[Param]
    tiers: List[TierDecl]
    events: List[EventDecl]
