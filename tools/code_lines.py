"""Count code lines of Python modules: non-blank lines outside comments and docstrings.

A line counts when a token other than a comment, a newline or an
indentation change covers it (`tokenize`) and it lies outside every module,
class and function docstring (`ast`). Prints one line per module and the
total.

usage: python tools/code_lines.py [PATH ...]   (default: src)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one module."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    roots = [Path(p) for p in (argv if argv is not None else sys.argv[1:]) or ["src"]]
    modules = sorted(
        path for root in roots for path in ([root] if root.is_file() else root.rglob("*.py"))
    )
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
