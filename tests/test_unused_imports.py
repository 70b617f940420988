"""No module of ``src/repro`` imports a name it never uses.

A stdlib ``ast`` scan, so it needs no linter. Package ``__init__`` modules
re-export and are skipped. A name counts as used when the module reads it,
lists it in ``__all__`` or names it in an annotation, string annotations
included. An import kept only for its side effect says so with
``# noqa: F401`` on its line.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _names(node, out):
    """Every name ``node`` reads, and those inside its string constants."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                _names(ast.parse(sub.value, mode="eval"), out)
            except SyntaxError:
                pass


def unused_imports(source):
    """``(line, name)`` of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _names(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            _names(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _names(node.annotation, used)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            _names(node.value, used)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = (
        "from typing import Dict, List, Optional\n"
        "import math, os\n"
        "import json  # noqa: F401\n"
        "__all__ = ['exported']\n"
        "from m import exported\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(1, "List"), (2, "math")]
