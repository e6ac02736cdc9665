"""Line counts for the source tree — the two figures every PR reports.

``python benchmarks/loc.py [path]`` (default ``src``) prints ``<total>
<code>`` summed over the ``*.py`` files under ``path`` (or for one
file).  *Total* is physical lines.  *Code* is lines carrying at least
one token other than a comment, a newline or indentation, minus the
lines of module, class and function docstrings — so blank lines,
comments and docstrings do not count, and a multi-line statement counts
every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> Tuple[int, int]:
    """``(total, code)`` line counts of one module's source text."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def count_tree(path: Path) -> Tuple[int, int]:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    counts = [count(f.read_text(encoding="utf-8")) for f in files]
    return sum(t for t, _ in counts), sum(c for _, c in counts)


if __name__ == "__main__":
    print(*count_tree(Path(sys.argv[1] if len(sys.argv) > 1 else "src")))
