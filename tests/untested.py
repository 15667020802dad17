"""Which statements of ``src/klrdim`` does no test execute?

``coverage`` is not a dependency, so this script traces the lines itself.
It runs the test suite in-process under a ``sys.settrace`` line tracer
that follows only the frames of ``src/klrdim``, and then prints every
statement of the library that no test executed, as ``file:line: text``.
A statement counts as executed when any line of its own (its header, for
a compound statement, decorators included) ran.  Lines that compile to
no bytecode, such as function docstrings, are never reported.

Tracing slows the suite down several times, so a run takes minutes, and
tests with a wall-clock budget (the acceptance criteria) may then fail.
Such failures are listed after the statements and do not count: the
statements they would have run were still traced up to the failure.
Run

    python tests/untested.py            # the whole suite
    python tests/untested.py ARGS ...   # pytest ARGS, e.g. one test file

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "klrdim"


def executable_lines(code) -> set[int]:
    """The lines that some bytecode of ``code`` or its nested code carries."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of the statements
    nested in it: the whole of a simple statement, and the header of a
    compound one, from its first decorator to the line before its body."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, own lines) of each statement of the file that compiles
    to some bytecode."""
    source = path.read_text()
    runnable = executable_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = own_lines(node)
            if runnable.intersection(lines):
                out.append((node.lineno, lines))
    return sorted(out, key=lambda item: item[0])


class Tracer:
    """Records (file, line) of every line run in a library frame."""

    def __init__(self):
        self.hits: set[tuple[str, int]] = set()
        self.prefix = str(LIBRARY) + "/"

    def call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self.line
        return None

    def line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line


class Failures:
    """A pytest plugin that keeps the ids of the tests that failed."""

    def __init__(self):
        self.failed: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)


def main(args: list[str]) -> int:
    import pytest

    if "klrdim" in sys.modules:
        raise SystemExit("klrdim is already imported; its import would go untraced")
    sys.path.insert(0, str(ROOT / "src"))
    tracer, failures = Tracer(), Failures()
    sys.settrace(tracer.call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])],
                     plugins=[failures])
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(LIBRARY.glob("*.py")):
        text = path.read_text().splitlines()
        for first, lines in statements(path):
            if not any((str(path), n) in tracer.hits for n in lines):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements of src/klrdim ran in no test")
    if failures.failed:
        print(f"{len(failures.failed)} tests failed under tracing (not counted):")
        for nodeid in failures.failed:
            print(f"  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
