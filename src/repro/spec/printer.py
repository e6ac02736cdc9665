"""Pretty-printer: specification AST → canonical source text.

The inverse of the parser.  Useful for normalising hand-written specs,
for emitting a spec from a programmatically assembled AST, and for the
parse → print → parse roundtrip property the test suite checks (the
printer is proof the AST loses nothing the grammar can express).
"""

from __future__ import annotations

import re
from typing import List

from repro.core.units import format_size
from repro.spec import ast

INDENT = "    "
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def print_spec(spec: ast.InstanceSpec) -> str:
    """Render a full instance declaration in canonical form."""
    params = ", ".join(
        (f"{p.type_name} {p.name}" if p.type_name else p.name)
        + (f" = {_literal(p.default)}" if p.default is not None else "")
        for p in spec.params
    )
    lines: List[str] = [f"Tiera {spec.name}({params}) {{"]
    for tier in spec.tiers:
        lines.append(INDENT + _tier(tier))
    for event in spec.events:
        lines.append("")
        lines.extend(_event(event))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tier(tier: ast.TierDecl) -> str:
    fields = [f"name: {tier.product}"]
    for name in ("size", "zone", "evict_to", "colocated"):
        value = getattr(tier, name)
        if value is not None:
            fields.append(f"{name}: {_field(value)}")
    return f"{tier.tier_name}: {{ {', '.join(fields)} }};"


def _field(value: ast.FieldValue) -> str:
    """A tier field: quoted unless it lexes back as the same identifier."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return format_size(value)
    if _IDENT.fullmatch(value) and value not in ("true", "false", "none"):
        return value
    return _string(value)


def _event(event: ast.EventDecl) -> List[str]:
    prefix = "background " if event.background else ""
    name = f" {_string(event.name)}" if event.name is not None else ""
    lines = [INDENT + f"{prefix}event{name}({_expr(event.expr)}) : response {{"]
    for stmt in event.body:
        lines.extend(_stmt(stmt, depth=2))
    lines.append(INDENT + "}")
    return lines


def _stmt(stmt: ast.Stmt, depth: int) -> List[str]:
    pad = INDENT * depth
    if isinstance(stmt, ast.AssignStmt):
        return [pad + f"{stmt.target.dotted()} = {_expr(stmt.value)};"]
    if isinstance(stmt, ast.CallStmt):
        args = ", ".join(
            f"{name}: {_expr(value)}" for name, value in stmt.args.items()
        )
        return [pad + f"{stmt.name}({args});"]
    if isinstance(stmt, ast.IfStmt):
        lines = [pad + f"if ({_expr(stmt.condition)}) {{"]
        for inner in stmt.then:
            lines.extend(_stmt(inner, depth + 1))
        if stmt.otherwise:
            lines.append(pad + "} else {")
            for inner in stmt.otherwise:
                lines.extend(_stmt(inner, depth + 1))
        lines.append(pad + "}")
        return lines
    raise TypeError(f"cannot print statement {stmt!r}")


def _expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.PathExpr):
        return expr.dotted()
    if isinstance(expr, ast.LiteralExpr):
        return _literal(expr)
    if isinstance(expr, ast.CompareExpr):
        return f"{_expr(expr.lhs)} {expr.op} {_expr(expr.rhs)}"
    if isinstance(expr, ast.BoolExpr):
        joiner = " && " if expr.op == "and" else " || "
        return joiner.join(_expr(part) for part in expr.parts)
    if isinstance(expr, ast.CallExpr):
        args = ", ".join(_expr(arg) for arg in expr.args)
        return f"{'.'.join(expr.func)}({args})"
    if isinstance(expr, ast.ListExpr):
        return f"[{', '.join(_expr(item) for item in expr.items)}]"
    raise TypeError(f"cannot print expression {expr!r}")


def _literal(lit: ast.LiteralExpr) -> str:
    if lit.unit == "percent":
        value = lit.value * 100
        return f"{value:g}%"
    if lit.unit == "size":
        return format_size(int(lit.value))
    if lit.unit == "bandwidth":
        rate = float(lit.value)
        for suffix, factor in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
            if rate >= factor and rate % factor == 0:
                return f"{int(rate // factor)}{suffix}/s"
        return f"{int(rate)}B/s"
    if lit.unit == "string":
        return _string(str(lit.value))
    if lit.unit == "bool":
        return "true" if lit.value else "false"
    if lit.unit == "none":
        return "none"
    return f"{lit.value:g}" if isinstance(lit.value, float) else str(lit.value)


def _string(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
