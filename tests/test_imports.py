"""No dead imports and no dead definitions, checked with the stdlib ``ast``.

Imports: a stand-in for a linter's unused-import rule.  In every ``.py`` file
under ``src/``, ``scripts/`` and ``tests/``, a name bound by an import must be
read somewhere in the module.  Package ``__init__.py`` files (whose imports
are re-exports) and ``from __future__`` imports are exempt.

Definitions: every module-level function, class and constant under ``src/``,
and every method of those classes (dunders exempt), must be referenced by
name, attribute or import in some file under ``src/``, ``scripts/``,
``tests/`` or ``bench/``, so that removing a caller does not leave dead code
behind.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for top in ("src", "scripts", "tests")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


REFERENCING = sorted(
    path
    for top in ("src", "scripts", "tests", "bench")
    for path in (ROOT / top).rglob("*.py")
)


def _names_read(tree: ast.AST) -> set[str]:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | _string_annotation_names(tree))


def _string_annotation_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            ann = getattr(node, "annotation", None)
        # a string annotation such as -> "ManyBodySpec" reads its names too
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= _names_read(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = _names_read(tree)
    return sorted((line, name) for line, name in bound if name not in read)


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "from typing import Iterable\n"
        "def f(x: 'Iterable[int]') -> float:\n"
        "    return np.sum(list(x)) * pi + len(os.path.sep)\n"
    )
    assert unused_imports(source) == [(2, "sys"), (4, "tau")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants, and the methods of
    those classes as ``Class.method``; dunder names left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in out if not name.split(".")[-1].startswith("__")]


def references(source: str) -> set[str]:
    """Every name a module reads, attribute it touches or name it imports."""
    tree = ast.parse(source)
    out = _string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for a in node.names for part in a.name.split("."))
    return out


def dead_definitions(source: str, read: set[str]) -> list[str]:
    return [name for name in definitions(source) if name.split(".")[-1] not in read]


def test_definition_checker_flags_only_unreferenced_names():
    source = (
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "__all__ = []\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.limit = LIMIT\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        pass\n"
        "def f() -> 'A':\n"
        "    return A().used()\n"
    )
    assert dead_definitions(source, references(source)) == ["UNUSED", "A.unused", "f"]
    assert dead_definitions(source, references("from m import f")) == [
        "LIMIT", "UNUSED", "A", "A.used", "A.unused"]


def test_no_dead_definitions():
    read = set().union(*(references(path.read_text()) for path in REFERENCING))
    dead = [f"{path.relative_to(ROOT)}: {name}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for name in dead_definitions(path.read_text(), read)]
    assert dead == []
