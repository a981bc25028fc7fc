"""Every name a module imports is read somewhere in that module, and every
private helper a package module defines is read in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package __init__ imports names in order to re-export them
MODULES = sorted(p for d in ("src", "tests", "demos", "bench")
                 for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src").rglob("*.py"))


def _read_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of source that are never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = _read_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def unused_private_helpers(source: str) -> list[str]:
    """The module-level _name functions, classes and constants of source
    that are never read in it."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = _read_names(tree)
    return [f"{name} (line {line})" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_the_scan_sees_imports_that_are_never_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\n"
              "def f(x: np.ndarray):\n    return os.sep, pi\n")
    assert unused_imports(source) == ["turn (line 4)"]


def test_the_scan_sees_private_helpers_that_are_never_read():
    # methods are not module-level helpers, and dunder names are public
    source = ("_USED, _LEFT = 1, 2\n_TABLE: dict = {}\n__all__ = []\nPUBLIC = 3\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    return _helper()\n"
              "class _Gone:\n    def _method(self):\n        pass\n")
    assert unused_private_helpers(source) == [
        "_LEFT (line 1)", "_TABLE (line 2)", "_orphan (line 7)", "_Gone (line 9)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_helper_outlives_its_last_caller(path):
    assert unused_private_helpers(path.read_text(encoding="utf-8")) == []
