"""Source hygiene of the package, checked with the standard-library ``ast``.

Every module-level import in ``src/umbral`` (the package ``__init__`` aside,
which imports to re-export) is either read somewhere in its module or named
in the module's ``__all__``.  Every module-level private function or class
(``_name``) is read somewhere in the package, by name or as an attribute.
Every name in a module's ``__all__`` is bound at the module's top level.
An import or a helper left behind when its last use is deleted, or an
export left behind when its definition is, fails here, with the module and
the name.  Every class with a ``denominator`` (a method or property, a
class attribute, a slot or a ``self.denominator`` store) derives from
``rationals.RationalVector``, so exact values keep one canonical form.

The benchmark harness in ``benchmarks/`` names package functions as data:
the layers its tracer wraps, the metrics it reports inclusive time and
growth for, and what it imports from ``umbral`` and reads off the imported
modules.  Each of those names must resolve in the package, so renaming a
traced function fails here instead of only when the harness runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

import umbral

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "umbral"
BENCHMARKS = PACKAGE.parent.parent / "benchmarks"
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


def _class_attributes(node: ast.ClassDef) -> set:
    """The attribute names a class binds: its methods, the names assigned in
    its body (and the strings of its ``__slots__``), and ``self.name`` stores."""
    names = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__slots__" in bound:
                bound.update(ast.literal_eval(stmt.value))
            names |= bound
    return names | {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and ast.unparse(n.value) == "self"
    }


def _classes_off_the_base(sources: dict) -> list:
    """``module line n: name`` for each class of ``sources`` (module name ->
    source text) that has a ``denominator`` but does not derive from
    ``RationalVector`` through classes of ``sources``."""
    classes = {
        node.name: (module, node)
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    }

    def derives(name: str) -> bool:
        bases = classes[name][1].bases if name in classes else ()
        return name == "RationalVector" or any(derives(ast.unparse(b).rpartition(".")[2]) for b in bases)

    return [
        f"{module} line {node.lineno}: {name}"
        for name, (module, node) in classes.items()
        if "denominator" in _class_attributes(node) and not derives(name)
    ]


def test_every_exact_value_is_a_rational_vector():
    # one canonical form: a class with a denominator is a rationals.RationalVector
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _classes_off_the_base(sources) == []


def test_the_check_sees_a_stray_class():
    sources = {
        "rationals.py": (
            "class RationalVector:\n"
            "    __slots__ = ('_num', '_den')\n"
            "    @property\n"
            "    def denominator(self):\n"
            "        return self._den\n"
        ),
        "umbra.py": (
            "from .rationals import RationalVector\n"
            "class Umbra(RationalVector):\n"
            "    pass\n"
            "class Moments(Umbra):\n"
            "    denominator: int = 1\n"
        ),
        "sheffer.py": (
            "from . import rationals\n"
            "class Array(rationals.RationalVector):\n"
            "    def scale(self, denominator):\n"
            "        self.denominator = denominator\n"
            "class Table:\n"
            "    __slots__ = ('rows', 'denominator')\n"
            "class Grid:\n"
            "    def __init__(self, rows, d):\n"
            "        self.rows, self.denominator = rows, d\n"
            "class Pair:\n"
            "    def scale(self, other):\n"
            "        denominator = 2\n"
            "        other.denominator = denominator\n"
        ),
    }
    assert _classes_off_the_base(sources) == ["sheffer.py line 5: Table", "sheffer.py line 7: Grid"]


def _assigned(tree: ast.Module, name: str):
    """The literal value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no module-level {name}")


def _harness_names(sources: dict) -> list:
    """Dotted names below ``umbral`` that the harness (file name -> source
    text) reads: ``LAYERS`` of tracer.py, ``INCLUSIVE`` and ``GROWTH`` of
    run.py, every name imported from ``umbral`` and every attribute read off
    an imported ``umbral`` module, in every file."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    layers = _assigned(trees["tracer.py"], "LAYERS")
    names = [f"{module}.{qual}" for module, quals in layers.items() for qual in quals]
    names += [*_assigned(trees["run.py"], "INCLUSIVE"), *_assigned(trees["run.py"], "GROWTH")]
    for tree in trees.values():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "umbral":
                base = node.module.partition(".")[2]
                for alias in node.names:
                    name = f"{base}.{alias.name}" if base else alias.name
                    names.append(name)
                    modules[alias.asname or alias.name] = name
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names if a.name.startswith("umbral.")]
                names += [name.partition(".")[2] for name in imported]
        names += [
            f"{modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ]
    return names


def _missing_in_package(names) -> list:
    """The names that do not resolve as submodules and attributes of
    ``umbral``; a metric name may drop a method's dunders (``Polynomial.mul``)."""
    missing = []
    for name in names:
        obj = umbral
        for part in name.split("."):
            for attr in (part, f"__{part}__"):
                if hasattr(obj, attr):
                    obj = getattr(obj, attr)
                    break
            else:
                try:
                    obj = importlib.import_module(f"{obj.__name__}.{part}")
                except (AttributeError, ImportError):
                    missing.append(name)
                    break
    return missing


def test_the_harness_reads_names_the_package_has():
    sources = {path.name: path.read_text() for path in sorted(BENCHMARKS.glob("*.py"))}
    names = _harness_names(sources)
    traced = {"umbra.gf", "umbra.from_series", "series.power", "polynomials.Polynomial.mul"}
    assert traced <= set(names)
    assert _missing_in_package(names) == []


def test_the_check_sees_a_missing_harness_name():
    sources = {
        "tracer.py": (
            "LAYERS = {'umbra': ('gf', 'generating_function'),\n"
            "          'polynomials': ('Polynomial.__mul__',)}\n"
        ),
        "run.py": (
            "INCLUSIVE = ('series.revert', 'series.invert')\n"
            "GROWTH = ('polynomials.Polynomial.mul',)\n"
        ),
        "workloads.py": (
            "def ops():\n"
            "    from umbral.umbra import gf, to_series\n"
            "    from umbral import series as ps\n"
            "    return ps.power, ps.exponential_lift, gf, to_series\n"
        ),
    }
    assert _missing_in_package(_harness_names(sources)) == [
        "umbra.generating_function",
        "series.invert",
        "umbra.to_series",
        "series.exponential_lift",
    ]
