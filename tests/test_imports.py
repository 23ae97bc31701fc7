"""No dead imports: a stdlib stand-in for a linter's unused-import rule.

Every ``.py`` file under ``src/``, ``scripts/`` and ``tests/`` is parsed with
``ast``; a name bound by an import must be read somewhere in the module.
Package ``__init__.py`` files (whose imports are re-exports) and
``from __future__`` imports are exempt.
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


def _names_read(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
