"""Source hygiene of the package, checked with the standard-library ``ast``.

Every module-level import in ``src/umbral`` (the package ``__init__`` aside,
which imports to re-export) is either read somewhere in its module or named
in the module's ``__all__``.  Every module-level private function or class
(``_name``) is read somewhere in the package, by name or as an attribute.
Every name in a module's ``__all__`` is bound at the module's top level.
An import or a helper left behind when its last use is deleted, or an
export left behind when its definition is, fails here, with the module and
the name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "umbral"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """(bound name, line) for each module-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in _imported_names(tree)
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "from math import comb, lcm\n"
        "import itertools as it\n"
        "from .rationals import exact\n"
        "__all__ = ['exact']\n"
        "def f(n: int) -> int:\n"
        "    return comb(n, 2)\n"
    )
    assert _unused_imports(source) == ["line 2: lcm", "line 3: it"]


def _undefined_exports(source: str) -> list:
    """Names in ``__all__`` that no top-level def, class, assignment or import binds."""
    tree = ast.parse(source)
    bound = {name for name, _ in _imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                )
    return sorted(_exported_names(tree) - bound)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert _undefined_exports(path.read_text()) == []


def test_the_check_sees_a_stale_export():
    source = (
        "from math import lcm\n"
        "__all__ = ['exact', 'lcm', 'over_common_denominator', 'ONE']\n"
        "ONE: int = 1\n"
        "def exact(value):\n"
        "    return value\n"
    )
    assert _undefined_exports(source) == ["over_common_denominator"]


def _unreferenced_helpers(sources: dict) -> list:
    """``module line n: name`` for each module-level private function or class
    of ``sources`` (module name -> source text) that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module} line {node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_helpers(sources) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "series.py": (
            "def _numerators(coeffs):\n"
            "    return coeffs\n"
            "def _convolve(a, b):\n"
            "    return a\n"
            "def multiply(f, g):\n"
            "    return _convolve(f, g)\n"
        ),
        "umbra.py": (
            "from . import series as ps\n"
            "class _Table:\n"
            "    pass\n"
            "_numerators = None\n"
            "def gf(u):\n"
            "    return ps._convolve(u, _Table())\n"
        ),
    }
    assert _unreferenced_helpers(sources) == ["series.py line 1: _numerators"]
