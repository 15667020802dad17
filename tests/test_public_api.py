"""The package's public surface: ``klrdim.__all__``."""

import ast
import doctest
import importlib
import pkgutil
import types
from pathlib import Path

import klrdim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def demo_imports():
    """Every name a demo script imports from the top-level package."""
    names = set()
    for script in DEMOS:
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "klrdim":
                names.update(alias.name for alias in node.names)
    return names


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
