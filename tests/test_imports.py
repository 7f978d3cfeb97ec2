"""Every module of the package reads the names it binds: its imports, its
private definitions and the parameters of its functions; and it imports
nothing but the standard library, numpy and the package itself."""

import ast
import pathlib
import sys
from collections import Counter

import pytest

import hybridspec

PACKAGE = pathlib.Path(hybridspec.__file__).parent
# the package's __init__ imports names to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the source's imports (apart from __future__) that
    no expression reads; ``a.b`` reads ``a``."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_detects_an_unused_name():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(e, x)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list) -> list:
    """``_``-prefixed functions, classes and methods (not dunders) defined
    in the sources that no expression in them reads, as a name or as an
    attribute, outside their own definition: a function that only calls
    itself is unread."""
    trees = [ast.parse(source) for source in sources]

    def reads(tree) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load))

    total = sum(map(reads, trees), Counter())
    return sorted({node.name for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name.startswith("_")
                   and not node.name.endswith("__")
                   and total[node.name] == reads(node)[node.name]})


def test_detects_an_unread_private_name():
    sources = ["def _a():\n    pass\n\n\nclass _B:\n    def __init__(self):\n"
               "        self._c = 1\n\n    def _c(self):\n        pass\n\n"
               "    def _d(self, n):\n        return self._d(n - 1)\n",
               "from m import _B\n_B()\n"]
    assert unread_private_names(sources) == ["_a", "_c", "_d"]


def test_package_reads_its_private_definitions():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def unread_parameters(source: str) -> list:
    """(function, parameter) of every parameter of a function or lambda in
    the source that its body does not read; a parameter that a callback
    must accept but ignores is named with a leading underscore."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (a.posonlyargs + a.args + a.kwonlyargs
                                  + [a.vararg, a.kwarg]) if p is not None]
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(getattr(node, "name", "<lambda>"), p) for p in params
                   if p not in read and not p.startswith("_")]
    return unread


def test_detects_an_unread_parameter():
    source = ("def f(a, b, *c, d=1, **e):\n    return a + d\n\n\n"
              "def g(_x, y):\n    h = lambda z, _w: z\n    return y\n")
    assert unread_parameters(source) == [
        ("f", "b"), ("f", "c"), ("f", "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_its_parameters(path):
    assert unread_parameters(path.read_text()) == []


def foreign_imports(source: str) -> list:
    """Top-level modules imported by the source that are neither in the
    standard library nor numpy nor this package (relative imports)."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return sorted(imported - set(sys.stdlib_module_names)
                  - {"numpy", "hybridspec"})


def test_detects_a_foreign_import():
    source = ("import os.path\nimport numpy as np\nfrom scipy import linalg\n"
              "from . import core\nfrom hybridspec.core import x\n"
              "import matplotlib.pyplot\n")
    assert foreign_imports(source) == ["matplotlib", "scipy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_is_numpy_only(path):
    assert foreign_imports(path.read_text()) == []
