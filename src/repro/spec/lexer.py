"""Tokenizer for the Tiera specification language.

Token kinds:

* ``IDENT`` — identifiers and keywords (``Tiera``, ``event``, tier names)
* ``NUMBER`` — plain numbers (``2``, ``0.5``)
* ``SIZE`` — numbers with a size suffix (``5G``, ``200M``, ``40KB``)
* ``PERCENT`` — numbers with ``%`` (``75%``) — value stored as fraction
* ``BANDWIDTH`` — sizes with ``/s`` (``40KB/s``) — value in bytes/second
* ``STRING`` — double-quoted strings
* operators/punctuation — ``{ } ( ) [ ] : ; , . == != <= >= < > = && ||``

``%`` immediately after a number is the percent unit; any other ``%``
begins a comment that runs to end of line (the paper's comment style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.units import parse_size
from repro.simcloud.bandwidth import parse_bandwidth

PUNCT = ("==", "!=", "<=", ">=", "&&", "||", "{", "}", "(", ")", "[", "]",
         ":", ";", ",", ".", "<", ">", "=")


class SpecSyntaxError(Exception):
    """A lexing or parsing error, with line/column context."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass
class Token:
    kind: str  # IDENT | NUMBER | SIZE | PERCENT | BANDWIDTH | STRING | PUNCT | EOF
    text: str
    value: object
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.kind == "PUNCT" and self.text == text


class Lexer:
    """Single-pass tokenizer with the number/comment ``%`` disambiguation."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> SpecSyntaxError:
        return SpecSyntaxError(message, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.source[self.pos : self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += n
        return text

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind == "EOF":
                return out

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        ch = self._peek()
        if not ch:
            return Token("EOF", "", None, line, column)
        if ch == '"':
            return self._string(line, column)
        if ch.isdigit():
            return self._number(line, column)
        if ch.isalpha() or ch == "_":
            return self._ident(line, column)
        for punct in PUNCT:
            if self.source.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token("PUNCT", punct, None, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _skip_trivia(self) -> None:
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "%":
                # Not following a number (the number lexer consumes its
                # own '%'), so this is a comment to end of line.
                while self._peek() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated string")
            if ch == '"':
                self._advance()
                text = "".join(chars)
                return Token("STRING", text, text, line, column)
            if ch == "\\" and self._peek(1) in ('"', "\\"):
                self._advance()
            chars.append(self._advance())

    def _number(self, line: int, column: int) -> Token:
        digits: List[str] = []
        while self._peek().isdigit() or self._peek() == ".":
            # A trailing '.' that is not part of a decimal belongs to a
            # dotted path; only consume '.' when a digit follows.
            if self._peek() == "." and not self._peek(1).isdigit():
                break
            digits.append(self._advance())
        text = "".join(digits)
        number = float(text) if "." in text else int(text)
        # Unit suffixes directly attached: %, G/M/K/B combos, '/s'.
        if self._peek() == "%":
            self._advance()
            return Token("PERCENT", text + "%", number / 100.0, line, column)
        suffix_chars: List[str] = []
        while self._peek().isalpha():
            suffix_chars.append(self._advance())
        suffix = "".join(suffix_chars)
        if suffix and self._peek() == "/" and self._peek(1) == "s":
            self._advance(2)
            full = f"{text}{suffix}/s"
            try:
                rate = parse_bandwidth(full)
            except ValueError as exc:
                raise self._error(str(exc)) from None
            return Token("BANDWIDTH", full, rate, line, column)
        if suffix:
            full = text + suffix
            try:
                nbytes = parse_size(full)
            except ValueError:
                raise self._error(f"bad size literal {full!r}") from None
            return Token("SIZE", full, nbytes, line, column)
        return Token("NUMBER", text, number, line, column)

    def _ident(self, line: int, column: int) -> Token:
        chars: List[str] = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        text = "".join(chars)
        return Token("IDENT", text, text, line, column)


def tokenize(source: str) -> List[Token]:
    return Lexer(source).tokens()
