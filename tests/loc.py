"""Count lines of code: lines that hold a token other than a comment, a
docstring or layout, so blank lines, comment lines and docstrings count
for nothing.

    python tests/loc.py                       # each module of src/klrdim, and the total
    python tests/loc.py a.py b.py             # the named files, and their total
    python tests/loc.py tests/oracles.py::bar  # one top-level function or class

A docstring is a string statement that opens a module, class or function.
The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, span: tuple[int, int] | None = None) -> int:
    """The number of code lines in ``source``, or in its lines
    ``span = (first, last)`` only."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    if span is not None:
        lines = {n for n in lines if span[0] <= n <= span[1]}
    return len(lines)


def count(target: str) -> int:
    """Code lines of a file, or of ``file::name``, a top-level definition
    in it (decorators included)."""
    path, _, name = target.partition("::")
    source = Path(path).read_text()
    if not name:
        return code_lines(source)
    for node in ast.parse(source).body:
        if getattr(node, "name", None) == name:
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            return code_lines(source, (first, node.end_lineno))
    raise SystemExit(f"no top-level definition {name!r} in {path}")


def main(argv: list[str]) -> None:
    targets = argv or sorted(os.path.relpath(p) for p in (ROOT / "src" / "klrdim").glob("*.py"))
    total = 0
    for target in targets:
        n = count(target)
        total += n
        print(f"{n:6d}  {target}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
