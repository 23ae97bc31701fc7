"""No dead imports and no dead definitions, checked with the stdlib ``ast``.

Imports: a stand-in for a linter's unused-import rule.  In every ``.py`` file
under ``src/`` and ``tests/``, a name bound by an import must be read
somewhere in the module.  Package ``__init__.py`` files (whose imports
are re-exports) and ``from __future__`` imports are exempt.

Definitions: every module-level function, class and constant under ``src/``,
and every method of those classes (dunders exempt), must be referenced by
name, attribute or import in some file under ``src/``, ``tests/`` or
``bench/``, so that removing a caller does not leave dead code behind.  One
that ``fluxchain/__init__.py`` does not re-export (itself or its class)
must be read under ``src/`` or ``bench/``: a definition only tests read is
a test oracle and belongs in ``tests/``.

Parameters: every parameter with a default, of a function or method under
``src/``, must be passed somewhere in those files: as a keyword in any call
(which covers helpers that forward ``**kw``), as a string key, or by position
in a call of that function's name.  A default that no caller overrides is a
constant.

Layout: ``manybody.BasisIndexer`` owns the packed basis, so under ``src/``
only ``manybody.py`` uses the attributes that spell it out as full-space
indices, ``spin_dim`` and ``indices``; other modules go through the
indexer's ``product``.

Validation: under ``src/``, a dataclass's ``__post_init__`` reads through
``self`` only that dataclass's own fields (``getattr(self, name)`` is
exempt), so a derived quantity such as ``ManyBodySpec.dimension`` is checked
by the code that uses it, not on every construction.

Runtime: the package runs on numpy alone, so importing it and running CLI
commands in a fresh interpreter must load no ``scipy`` module; tests and
the benchmark use scipy only as an independent oracle.

Tracing: ``bench/tracing.py`` wraps package names from outside, and reports
a name it cannot find as absent.  A rename under ``src/`` must not leave a
traced name behind, so the names it may miss are only the two that are
known stale.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for top in ("src", "tests")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


REFERENCING = sorted(
    path
    for top in ("src", "tests", "bench")
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


def test_no_test_only_definitions():
    init = ast.parse((ROOT / "src" / "fluxchain" / "__init__.py").read_text())
    exported = {a.asname or a.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    read = set().union(*(references(path.read_text()) for path in REFERENCING
                         if path.relative_to(ROOT).parts[0] != "tests"))
    test_only = [f"{path.relative_to(ROOT)}: {name}"
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 for name in dead_definitions(path.read_text(), read)
                 if name.split(".")[0] not in exported]
    assert test_only == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) of every parameter with a default.

    The position counts the arguments a caller writes before it (a method's
    ``self`` or ``cls`` left out); it is None for keyword-only parameters.
    """
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, functions)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, functions):
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if id(node) in methods else 0:]
        first = len(positional) - len(args.defaults)
        out += [(node.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
        out += [(node.name, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def passed_arguments(source: str) -> tuple[set[str], dict[str, int]]:
    """Keywords and string keys a module uses, and for each called name the
    most positional arguments one call passes it (a starred one counts as
    unbounded)."""
    keys, positional = set(), {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            keys.update(kw.arg for kw in node.keywords if kw.arg)
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positional[name] = max(positional.get(name, 0), count)
        elif isinstance(node, ast.Subscript):
            keys.add(getattr(node.slice, "value", None))
        elif isinstance(node, ast.Dict):
            keys.update(getattr(k, "value", None) for k in node.keys)
    return keys, positional


def unpassed_parameters(source: str, keys: set[str],
                        positional: dict[str, int]) -> list[str]:
    return [f"{function}({param})"
            for function, param, position in defaulted_parameters(source)
            if param not in keys
            and (position is None or positional.get(function, 0) <= position)]


def test_parameter_checker_flags_only_unpassed_defaults():
    source = (
        "class A:\n"
        "    def m(self, x, y=1, z=2):\n"
        "        return x + y + z\n"
        "def f(a, b=0, *, c=1, d=2, e=3):\n"
        "    return A().m(a, b)\n"
        "def g(*rows, scale=1.0, **kw):\n"
        "    return f(*rows, c=scale, **kw)\n"
        "def h(w=1):\n"
        "    return g(d=4, w=w)\n"
    )
    keys, positional = passed_arguments(source)
    assert unpassed_parameters(source, keys, positional) == [
        "f(e)", "g(scale)", "m(z)"]
    keys, positional = passed_arguments("A().m(1, 2, 3)\ncfg['e'] = 0\n{'scale': 1}\n")
    assert unpassed_parameters(source, keys, positional) == [
        "f(b)", "f(c)", "f(d)", "h(w)"]


def test_no_unpassed_parameters():
    keys, positional = set(), {}
    for path in REFERENCING:
        k, p = passed_arguments(path.read_text())
        keys |= k
        for name, count in p.items():
            positional[name] = max(positional.get(name, 0), count)
    unpassed = [f"{path.relative_to(ROOT)}: {name}"
                for path in sorted((ROOT / "src").rglob("*.py"))
                for name in unpassed_parameters(path.read_text(), keys, positional)]
    assert unpassed == []


#: attributes of the full-space layout that only ``manybody.py`` may use
LAYOUT_ATTRIBUTES = ("spin_dim", "indices")


def layout_uses(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of every use of a ``LAYOUT_ATTRIBUTES`` attribute."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES)


def test_layout_checker_flags_only_these():
    source = (
        "def f(spec, idx, modes, spin, indices):\n"
        "    spin_dim = spec.spin_dim\n"
        "    part = modes[idx.indices // spin_dim] * spin[indices]\n"
        "    return idx.product(modes, spin), spec.dimension, idx.shape\n"
    )
    assert layout_uses(source) == [(2, "spin_dim"), (3, "indices")]


def test_only_manybody_uses_the_full_space_layout():
    uses = [f"{path.relative_to(ROOT)}:{line}: {attr}"
            for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "manybody.py"
            for line, attr in layout_uses(path.read_text())]
    assert uses == []


def derived_reads(source: str) -> list[tuple[int, str]]:
    """(line, ``Class.attribute``) of every read through ``self`` in a
    dataclass's ``__post_init__`` of an attribute that is not one of its own
    fields; ``getattr(self, name)`` is no attribute read and passes."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in cls.decorator_list)):
            continue
        own = {item.target.id for item in cls.body
               if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                out += [(node.lineno, f"{cls.name}.{node.attr}") for node in ast.walk(item)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and getattr(node.value, "id", None) == "self"
                        and node.attr not in own]
    return sorted(out)


def test_derived_read_checker_flags_only_these():
    source = (
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    n: int\n"
        "    def __post_init__(self):\n"
        "        if self.n < 1 or self.size > 9 or getattr(self, 'n') > 9:\n"
        "            self.n = self.n.real\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.n * self.n\n"
        "@dataclass\n"
        "class B:\n"
        "    a: A\n"
        "    def __post_init__(self):\n"
        "        self.check(self.a.size)\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        return self.size\n"
    )
    assert derived_reads(source) == [(5, "A.size"), (14, "B.check")]


def test_post_init_checks_only_the_fields():
    # a derived property such as ManyBodySpec.dimension is validated where it
    # is used, not on every construction
    reads = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line, name in derived_reads(path.read_text())]
    assert reads == []


_NO_SCIPY_RUN = """
import sys
import fluxchain, fluxchain.cli
for argv in (
    ["derive", "--l1", "1e-9", "--l2", "1e-9", "--l-r", "1e-6", "--c-r", "4e-10",
     "--a", "1e-3", "--n", "5", "--e-j", "1e-24", "--e-cj", "3e-25"],
    ["fluxonium", "--e-j", "3", "--e-cj", "1", "--e-lj", "0.15",
     "--wavefunction-csv", "true"],
    ["spectrum", "--n", "2", "--n-m", "1", "--g", "0.5", "--count", "3"],
    ["overlap", "--n", "2", "--n-m", "1", "--g-grid", "[0, 0.5]"],
):
    assert fluxchain.cli.main(argv + ["--out-dir", sys.argv[1]]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_cli_load_no_scipy(tmp_path):
    # a fresh interpreter: this test session has scipy loaded already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["derive", "fluxonium", "overlap", "spectrum"]


#: traced names that no longer exist under ``src/``: ``dense_matrix`` went
#: with the full-space Hamiltonian and ``disorder.ground_splitting`` when
#: ensembles moved onto ``ground_splittings``
STALE_TRACED = {"fluxchain.manybody.dense_matrix", "fluxchain.disorder.ground_splitting"}


def test_benchmark_tracer_finds_its_names(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        absent = tracing.install(tracer)
    finally:
        tracing.uninstall(tracer)
    assert set(absent) <= STALE_TRACED
    assert not tracer.patched
