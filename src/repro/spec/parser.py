"""Recursive-descent parser for Tiera instance specifications."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.spec import ast
from repro.spec.lexer import SpecSyntaxError, Token, tokenize

_COMPARE_OPS = ("==", "!=", "<=", ">=", "<", ">")


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- primitives -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> SpecSyntaxError:
        token = token if token is not None else self._peek()
        return SpecSyntaxError(message, token.line, token.column)

    def _expect_punct(self, text: str) -> Token:
        token = self._advance()
        if not token.is_punct(text):
            raise self._error(f"expected {text!r}, found {token.text!r}", token)
        return token

    def _expect_ident(self, expected: Optional[str] = None) -> Token:
        token = self._advance()
        if token.kind != "IDENT":
            raise self._error(f"expected identifier, found {token.text!r}", token)
        if expected is not None and token.text != expected:
            raise self._error(f"expected {expected!r}, found {token.text!r}", token)
        return token

    def _match_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._advance()
            return True
        return False

    def _match_ident(self, text: str) -> bool:
        token = self._peek()
        if token.kind == "IDENT" and token.text == text:
            self._advance()
            return True
        return False

    # -- grammar ------------------------------------------------------------------

    def parse_instance(self) -> ast.InstanceSpec:
        self._expect_ident("Tiera")
        name = self._expect_ident().text
        params = self._parse_params()
        self._expect_punct("{")
        tiers: List[ast.TierDecl] = []
        events: List[ast.EventDecl] = []
        while not self._peek().is_punct("}"):
            token = self._peek()
            if token.kind == "IDENT" and token.text in ("event", "background"):
                events.append(self._parse_event())
            elif token.kind == "IDENT":
                tiers.append(self._parse_tier())
            else:
                raise self._error(
                    f"expected tier or event declaration, found {token.text!r}"
                )
        self._expect_punct("}")
        if self._peek().kind != "EOF":
            raise self._error("trailing input after instance declaration")
        return ast.InstanceSpec(name=name, params=params, tiers=tiers, events=events)

    def _parse_params(self) -> List[ast.Param]:
        self._expect_punct("(")
        params: List[ast.Param] = []
        if not self._peek().is_punct(")"):
            while True:
                first = self._expect_ident().text
                param = ast.Param(name=first)
                if self._peek().kind == "IDENT":
                    param = ast.Param(name=self._advance().text, type_name=first)
                if self._match_punct("="):
                    token = self._peek()
                    param.default = self._parse_operand()
                    if not isinstance(param.default, ast.LiteralExpr):
                        raise self._error("a parameter default must be a literal", token)
                params.append(param)
                if not self._match_punct(","):
                    break
        self._expect_punct(")")
        return params

    def _parse_tier(self) -> ast.TierDecl:
        name_token = self._expect_ident()
        self._expect_punct(":")
        self._expect_punct("{")
        fields: Dict[str, Token] = {}
        while not self._peek().is_punct("}"):
            field_name = self._expect_ident().text
            self._expect_punct(":")
            fields[field_name] = self._advance()
            if not self._match_punct(","):
                break
        self._expect_punct("}")
        self._expect_punct(";")
        if "name" not in fields:
            raise self._error(
                f"tier {name_token.text!r} is missing its 'name' field", name_token
            )
        size_token = fields.get("size")
        if size_token is not None and size_token.kind not in ("SIZE", "NUMBER", "IDENT"):
            raise self._error(f"bad size for tier {name_token.text!r}", size_token)
        values = {name: _field_value(token) for name, token in fields.items()}
        return ast.TierDecl(
            tier_name=name_token.text,
            product=fields["name"].text,
            size=values.get("size"),
            zone=values.get("zone"),
            evict_to=values.get("evict_to"),
            colocated=values.get("colocated"),
            line=name_token.line,
        )

    def _parse_event(self) -> ast.EventDecl:
        background = self._match_ident("background")
        start = self._expect_ident("event")
        name = self._advance().value if self._peek().kind == "STRING" else None
        self._expect_punct("(")
        expr = self._parse_expr()
        self._expect_punct(")")
        self._expect_punct(":")
        self._expect_ident("response")
        body = self._parse_block()
        return ast.EventDecl(
            expr=expr, body=body, background=background, name=name, line=start.line
        )

    def _parse_block(self) -> List[ast.Stmt]:
        self._expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not self._peek().is_punct("}"):
            stmts.append(self._parse_stmt())
        self._expect_punct("}")
        return stmts

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        if token.kind == "IDENT" and token.text == "if":
            return self._parse_if()
        # Disambiguate assignment (`path = value ;`) from a call
        # (`name ( ... ) ;`) by looking past the dotted path.
        offset = 0
        while (
            self._peek(offset).kind == "IDENT"
            and self._peek(offset + 1).is_punct(".")
        ):
            offset += 2
        if self._peek(offset).kind == "IDENT" and self._peek(offset + 1).is_punct("("):
            return self._parse_call()
        return self._parse_assign()

    def _parse_if(self) -> ast.IfStmt:
        start = self._expect_ident("if")
        self._expect_punct("(")
        condition = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_block()
        otherwise: List[ast.Stmt] = []
        if self._match_ident("else"):
            otherwise = self._parse_block()
        return ast.IfStmt(
            condition=condition, then=then, otherwise=otherwise, line=start.line
        )

    def _parse_call(self) -> ast.CallStmt:
        name_token = self._expect_ident()
        self._expect_punct("(")
        args: Dict[str, object] = {}
        if not self._peek().is_punct(")"):
            while True:
                arg_name = self._expect_ident().text
                self._expect_punct(":")
                args[arg_name] = self._parse_expr()
                if not self._match_punct(","):
                    break
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.CallStmt(name=name_token.text, args=args, line=name_token.line)

    def _parse_assign(self) -> ast.AssignStmt:
        target = self._parse_path()
        self._expect_punct("=")
        value = self._parse_expr()
        self._expect_punct(";")
        return ast.AssignStmt(target=target, value=value, line=self._peek().line)

    # -- expressions --------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        parts = [self._parse_and()]
        while self._peek().is_punct("||"):
            self._advance()
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return ast.BoolExpr(op="or", parts=tuple(parts))

    def _parse_and(self) -> ast.Expr:
        parts = [self._parse_comparison()]
        while self._peek().is_punct("&&"):
            self._advance()
            parts.append(self._parse_comparison())
        if len(parts) == 1:
            return parts[0]
        return ast.BoolExpr(op="and", parts=tuple(parts))

    def _parse_comparison(self) -> ast.Expr:
        lhs = self._parse_operand()
        token = self._peek()
        if token.kind == "PUNCT" and token.text in _COMPARE_OPS:
            op = self._advance().text
            rhs = self._parse_operand()
            return ast.CompareExpr(op=op, lhs=lhs, rhs=rhs)
        # `event(time=t)` uses a single '='.
        if token.is_punct("="):
            self._advance()
            rhs = self._parse_operand()
            return ast.CompareExpr(op="=", lhs=lhs, rhs=rhs)
        return lhs

    def _parse_operand(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "IDENT":
            if token.text in ("true", "false"):
                self._advance()
                return ast.LiteralExpr(value=token.text == "true", unit="bool")
            if token.text == "none":
                self._advance()
                return ast.LiteralExpr(value=None, unit="none")
            path = self._parse_path()
            # `heat.hot(key)` — a path followed by `(` is a predicate call.
            if self._peek().is_punct("("):
                self._advance()
                args = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._match_punct(","):
                            break
                self._expect_punct(")")
                return ast.CallExpr(func=path.parts, args=tuple(args))
            return path
        if token.kind == "NUMBER":
            self._advance()
            return ast.LiteralExpr(value=token.value)
        if token.kind == "SIZE":
            self._advance()
            return ast.LiteralExpr(value=token.value, unit="size")
        if token.kind == "PERCENT":
            self._advance()
            return ast.LiteralExpr(value=token.value, unit="percent")
        if token.kind == "BANDWIDTH":
            self._advance()
            return ast.LiteralExpr(value=token.value, unit="bandwidth")
        if token.kind == "STRING":
            self._advance()
            return ast.LiteralExpr(value=token.value, unit="string")
        if self._match_punct("["):
            items = [self._parse_operand()]
            while self._match_punct(","):
                items.append(self._parse_operand())
            self._expect_punct("]")
            return ast.ListExpr(items=tuple(items))
        raise self._error(f"expected a value, found {token.text!r}")

    def _parse_path(self) -> ast.PathExpr:
        parts = [self._expect_ident().text]
        while self._peek().is_punct("."):
            self._advance()
            parts.append(self._expect_ident().text)
        return ast.PathExpr(parts=tuple(parts))


def _field_value(token: Token) -> ast.FieldValue:
    """A tier field's token: a size, a quoted string, ``true``/``false``,
    or an identifier (kept as its text)."""
    if token.kind in ("SIZE", "NUMBER"):
        return int(token.value)
    if token.kind == "IDENT" and token.text in ("true", "false"):
        return token.text == "true"
    return token.value if token.kind == "STRING" else token.text


def parse(source: str) -> ast.InstanceSpec:
    """Parse a complete instance specification."""
    return Parser(tokenize(source)).parse_instance()


def parse_literal(text: str) -> ast.LiteralExpr:
    """Parse exactly one literal: ``1G``, ``40KB/s``, ``75%``, ``true``, ``none``."""
    parser = Parser(tokenize(text))
    literal = parser._parse_operand()
    if not isinstance(literal, ast.LiteralExpr) or parser._peek().kind != "EOF":
        raise parser._error(f"expected one literal, found {text!r}")
    return literal
