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


def _special_imports(source: str) -> list:
    """Lines of ``source`` that import ``scipy.special`` or a module under it."""
    def special(module):
        return module == "scipy.special" or module.startswith("scipy.special.")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(special(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hit = special(node.module) or node.module == "scipy" and any(
                special("scipy." + alias.name) for alias in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_guard_catches_a_special_import():
    source = ("import scipy\nimport scipy.special\nfrom scipy.special import ndtr\n"
              "from scipy.special._ufuncs import ndtri\nfrom scipy import special\n"
              "from scipy.integrate import quad\nfrom ._special import ndtr\n")
    assert _special_imports(source) == [2, 3, 4, 5]


def test_special_functions_have_one_home():
    # tse._special imports scipy's ufuncs without scipy.special's package
    # import; the lazy scipy.integrate import of the quadrature route loads
    # it anyway and is not counted.
    found = {p.name: _special_imports(p.read_text()) for p in SRC.glob("*.py")
             if p.name != "_special.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def _unpassed_defaults(sources: dict) -> list:
    """``(function, parameter)`` pairs of the defaulted parameters of private
    functions in ``sources`` (module name -> source) that no call in any of
    them passes: by name, by position, or through ``*`` or ``**``.  A
    method's ``self`` or ``cls`` takes no position of the call."""
    trees = [ast.parse(source) for source in sources.values()]
    defaults = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                named = positional[len(positional) - len(args.defaults):]
                named = [(positional.index(n), n) for n in named]
                named += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                defaults.setdefault(node.name, set()).update(named)
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaults:
                continue
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for pos, param in defaults[name]:
                if star or None in keywords or param in keywords \
                        or pos is not None and pos < len(node.args):
                    passed.add((name, param))
    return sorted((f, p) for f, params in defaults.items() for _, p in params
                  if (f, p) not in passed)


def test_guard_catches_an_unpassed_default():
    sources = {
        "a": ("def _f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
              "def _g(x, y=0):\n    return x\n"
              "def _h(u=0):\n    return u\n"
              "class K:\n    def _m(self, z=0):\n        return z\n"),
        "b": ("from a import _f, _g, _h, K\n_f(1, 2, e=5)\n_g(*[1, 2])\n"
              "_h(**{'u': 1})\nK()._m(1)\n"),
    }
    assert _unpassed_defaults(sources) == [("_f", "c"), ("_f", "d")]


def test_every_private_default_is_passed():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unpassed_defaults(sources) == []
