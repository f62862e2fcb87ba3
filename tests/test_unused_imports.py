"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_catches_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(stmt) -> list:
    """Private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _unreferenced_privates(sources: dict) -> list:
    """Private top-level names of ``sources`` (module name -> source) that no
    statement other than their own definition refers to, in any module."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _private_definitions(stmt)
            defined += [(module, name) for name in own]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:
                    referenced.add(name)
    return sorted((m, n) for m, n in defined if n not in referenced)


def test_guard_catches_an_unreferenced_private():
    sources = {
        "a": "_USED = 1\n_LEFT = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n",
        "b": "from a import _USED\nx = _USED\n",
    }
    assert _unreferenced_privates(sources) == [("a", "_LEFT"), ("a", "_recursive")]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unreferenced_privates(sources) == []
