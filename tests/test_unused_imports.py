"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package __init__ imports names in order to re-export them
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


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
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_the_scan_sees_imports_that_are_never_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\n"
              "def f(x: np.ndarray):\n    return os.sep, pi\n")
    assert unused_imports(source) == ["turn (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
