"""Count Python code lines: no blanks, comments or docstrings.

The size figure ROADMAP.md and CHANGES.md quote for ``src/``. A line
counts when it carries at least one token that is not a comment and
does not belong to a docstring (the first statement of a module,
class or function when that is a bare string, found with ``ast``);
``tokenize`` decides what a token is, so a ``#`` inside a string and a
string continued over several lines are both counted correctly.

Usage::

    python tools/code_lines.py [PATH ...]      # default: src

Prints the total for the given files / directories.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, Set

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def python_files(paths: Iterable[str]) -> Iterable[Path]:
    """The ``*.py`` files named by, or found under, ``paths``."""
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv) -> int:
    print(sum(
        code_lines(path.read_text(encoding="utf-8"))
        for path in python_files(argv or ["src"])
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
