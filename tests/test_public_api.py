"""The package's public surface: ``klrdim.__all__``."""

import ast
import doctest
import importlib
import pkgutil
import types
from pathlib import Path

import klrdim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Exported names with no production caller yet, each with the step that
# gives it one.
AWAITING_A_CALLER = {
    "crossing_degree": "the graded basis product (ROADMAP item 3)",
    "quantum_factorial": "the run step of the pair walk (ROADMAP item 8)",
}
# Top-level library functions and classes outside ``__all__`` with no
# production caller yet, each with the step that gives it one.
UNEXPORTED_AWAITING_A_CALLER = {
    "divide_exact": "the graded freeness check (ROADMAP item 4)",
}
# Library functions that still call themselves, each with the step that
# turns it into a loop.
STILL_RECURSIVE = {
    "dims.graded_dim_recursive.rec": "an explicit stack with the same memo keys (ROADMAP item 10)",
}


def demo_imports():
    """Every name a demo script imports from the top-level package."""
    names = set()
    for script in DEMOS:
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "klrdim":
                names.update(alias.name for alias in node.names)
    return names


def production_references(skip):
    """Every name that library code, a demo or a perfbench script uses, by
    name or as an attribute, outside the top-level functions and classes
    named in ``skip``.  A ``def`` or ``class`` line defines its name and
    does not use it, and ``__init__.py`` only re-exports."""
    library = (ROOT / "src" / "klrdim").glob("*.py")
    scripts = [p for p in library if p.name != "__init__.py"]
    scripts += DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for script in scripts:
        for top in ast.parse(script.read_text()).body:
            if getattr(top, "name", None) in skip:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_export_has_a_production_caller():
    # A name only tests call belongs in tests/oracles.py, not in __all__.
    # Uses inside such a name's body do not count, so a name whose only
    # caller is another unused export is found too.
    unused: set = set()
    while True:
        used = production_references(unused - AWAITING_A_CALLER.keys())
        grown = {name for name in klrdim.__all__ if name not in used}
        if grown == unused:
            break
        unused = grown
    assert unused == set(AWAITING_A_CALLER)


def library_definitions():
    """Every top-level function and class of ``src/klrdim/`` outside
    ``__init__.py``."""
    names = set()
    for path in (ROOT / "src" / "klrdim").glob("*.py"):
        if path.name != "__init__.py":
            names.update(
                top.name for top in ast.parse(path.read_text()).body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            )
    return names


def test_every_library_definition_has_a_production_caller():
    # The export test's fixpoint, over every top-level definition, so that a
    # helper nothing calls is found whether or not it is exported.
    waiting = AWAITING_A_CALLER.keys() | UNEXPORTED_AWAITING_A_CALLER.keys()
    defined = library_definitions()
    unused: set = set()
    while True:
        used = production_references(unused - waiting)
        grown = {name for name in defined if name not in used}
        if grown == unused:
            break
        unused = grown
    assert unused == waiting


def test_all_is_an_explicit_list_of_functions_and_types():
    names = klrdim.__all__
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(klrdim, name)  # every entry resolves
        assert not isinstance(value, types.ModuleType), name


def test_demo_imports_are_public():
    used = demo_imports()
    assert used  # the demos do import from the package
    assert used <= set(klrdim.__all__)


def test_docstring_examples_run():
    # A stale ``>>>`` example in a library docstring fails here.
    modules = [klrdim] + [
        importlib.import_module(f"klrdim.{info.name}")
        for info in pkgutil.iter_modules(klrdim.__path__)
    ]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0


def self_calls():
    """Every function in ``src/klrdim/`` that calls itself by name (or as
    ``self.name``/``cls.name``), as ``module.enclosing.name``."""
    def callee(func):
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.attr if func.value.id in ("self", "cls") else None
        return None

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in sorted((ROOT / "src" / "klrdim").glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text()))]
        while stack:
            scope, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (*functions, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, functions) and any(
                    isinstance(n, ast.Call) and callee(n.func) == child.name
                    for n in ast.walk(child)
                ):
                    found.add(inner)
                stack.append((inner, child))
    return found


def test_no_library_function_calls_itself():
    # A function that recurses once per letter or per part overflows the
    # stack on long input; the ones left wait for their loop.
    assert self_calls() == set(STILL_RECURSIVE)
