"""Count the code-only lines of each module of ``src/doslab``.

A line counts when it holds a Python token other than a comment, NL,
NEWLINE, INDENT or DEDENT, after the docstring lines of each module, class
and function are dropped (a docstring is a string literal that is the
first statement of its body).  Blank lines, comment lines and docstrings
therefore do not count; a statement spread over three lines counts three.

Usage: ``python tools/code_lines.py [package_dir]`` prints one
``count  module`` line per module, sorted by name, then the total.
"""
from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code-only line count of one module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    package = pathlib.Path(argv[1]) if len(argv) > 1 else root / "src" / "doslab"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
