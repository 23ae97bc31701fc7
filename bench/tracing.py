"""Layer spans recorded from outside the package.

``install`` replaces public names of fluxchain's modules with wrappers that
open a span around each call; nothing under ``src/`` changes.  Spans carry a
name, start, end, the id of the span that was open in the same thread when
they started, and a few counts taken from arguments and results.  They stay
in memory and are written out once, when the pass ends.  A name that a
later version of the package no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.patched: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, after=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {"id": next(self._ids), "parent": stack[-1]["id"] if stack else None,
                "name": name, "thread": threading.get_ident()}
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _wrap(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, after)
    return wrapper


# -- counts taken at the boundaries ------------------------------------------


def _matvec_counts(span, args, kwargs, out):
    # computed traffic of one matrix-free product: read x, write out, read
    # the diagonal, and per nonzero coupling term one gathered read of x plus
    # a read-modify-write of out
    engine, x = args[0], args[1]
    terms = int(np.count_nonzero(getattr(engine, "couplings", np.ones(1))))
    vec = x.size * x.itemsize
    span["bytes"] = vec * (2 + 3 * terms) + x.shape[0] * 8


def _dense_counts(span, args, kwargs, out):
    span["dim"] = int(out.shape[0])


def _spectrum_counts(span, args, kwargs, out):
    span["method"] = str(getattr(out, "method", ""))


def _solver_counts(span, args, kwargs, out):
    span["matvecs"] = int(getattr(out, "matvec_count", 0))
    span["restarts"] = int(getattr(out, "restarts", 0))


def _command_counts(span, args, kwargs, out):
    span["command"] = str(args[0] if args else kwargs.get("command"))


def _write_counts(span, args, kwargs, out):
    path = args[0] if args else kwargs.get("path")
    span["bytes"] = os.path.getsize(path)


def _traced_solver(tracer, fn):
    """lowest_eigenpairs with its operator traced as the child span krylov.operator."""

    @functools.wraps(fn)
    def wrapper(matvec, dim, k, *args, **kwargs):
        itemsize = []

        def operator(x):
            y = tracer.call("krylov.operator", matvec, (x,), {})
            itemsize.append(y.itemsize)
            return y

        def after(span, a, kw, out):
            _solver_counts(span, a, kw, out)
            basis = kwargs.get("basis_size") or max(2 * k + 28, 36)
            basis = min(max(basis, k + 4), dim)
            span["basis_bytes"] = dim * (basis + 1) * (itemsize[0] if itemsize else 16)

        return tracer.call("krylov.solve", fn, (operator, dim, k) + args, kwargs, after)

    return wrapper


#: (module, attribute path, span name, count hook); a dotted attribute path
#: names a method, patched on its class
TARGETS = [
    ("fluxchain.manybody", "HamiltonianEngine.matvec", "manybody.matvec", _matvec_counts),
    ("fluxchain.manybody", "BasisIndexer.__init__", "manybody.indexer", None),
    ("fluxchain.manybody", "dense_matrix", "manybody.dense_assembly", _dense_counts),
    ("fluxchain.manybody", "lowest_spectrum", "manybody.lowest_spectrum", _spectrum_counts),
    ("fluxchain.manybody", "lowest_eigenpairs", "krylov.solve", None),
    ("fluxchain.asymptotics", "asymptotic_vacuum", "asymptotics.vacuum", None),
    ("fluxchain.asymptotics", "subspace_overlap", "asymptotics.overlap", None),
    ("fluxchain.disorder", "ensemble_splitting", "disorder.ensemble", None),
    ("fluxchain.disorder", "ground_splitting", "disorder.realization", None),
    ("fluxchain.cli", "run", "cli.command", _command_counts),
    ("fluxchain.cli", "write_csv", "cli.write", _write_counts),
    ("fluxchain.cli", "write_json", "cli.write", _write_counts),
    ("fluxchain.circuit", "derive_constants", "circuit.derive", None),
    ("fluxchain.fluxonium", "solve_levels", "fluxonium.solve", None),
    ("fluxchain.hopfield", "branch_sweep", "hopfield.sweep", None),
]


def install(tracer: Tracer) -> list[str]:
    """Patch every target that exists; return the dotted names that do not."""
    absent = []
    for module_name, attr, span_name, hook in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        if span_name == "krylov.solve":
            wrapped = _traced_solver(tracer, original)
        else:
            wrapped = _wrap(tracer, span_name, original, hook)
        setattr(owner, leaf, wrapped)
        tracer.patched.append((owner, leaf, original))
    return absent


def uninstall(tracer: Tracer) -> None:
    """Put back every name ``install`` replaced."""
    while tracer.patched:
        owner, leaf, original = tracer.patched.pop()
        setattr(owner, leaf, original)


# -- per-layer metrics ---------------------------------------------------------

CLI_COMMANDS = ("derive", "fluxonium", "polariton", "spectrum",
                "splitting-sweep", "fit-beta", "disorder")

#: metric -> unit, in the order reported
LAYER_UNITS = {
    "manybody.matvec_s": "s", "manybody.matvec_calls": "count",
    "manybody.matvec_gbps": "GB/s", "manybody.sector_overhead_s": "s",
    "manybody.dense_assembly_s": "s", "manybody.dense_solve_s": "s",
    "manybody.dense_max_dim": "count", "manybody.indexer_s": "s",
    "manybody.sector_solves": "count",
    "krylov.solve_s": "s", "krylov.self_s": "s", "krylov.matvecs": "count",
    "krylov.restarts": "count", "krylov.basis_mib": "MiB",
    "asymptotics.vacuum_s": "s", "asymptotics.overlap_s": "s",
    "disorder.realizations": "count", "disorder.ensemble_s": "s",
    "disorder.realization_s": "s",
    **{f"cli.command_s.{c}": "s" for c in CLI_COMMANDS},
    "cli.write_s": "s", "cli.bytes_written": "B",
    "circuit.derive_s": "s", "fluxonium.solve_s": "s", "hopfield.sweep_s": "s",
    "process.cpu_s": "s", "process.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
}

#: span name each metric is read from, for reporting absent layers
METRIC_SPAN = {
    "manybody.matvec": ("manybody.matvec_s", "manybody.matvec_calls",
                        "manybody.matvec_gbps", "manybody.sector_overhead_s"),
    "manybody.dense_assembly": ("manybody.dense_assembly_s", "manybody.dense_solve_s",
                                "manybody.dense_max_dim"),
    "manybody.lowest_spectrum": ("manybody.dense_solve_s", "manybody.sector_solves"),
    "manybody.indexer": ("manybody.indexer_s",),
    "krylov.solve": ("krylov.solve_s", "krylov.self_s", "krylov.matvecs",
                     "krylov.restarts", "krylov.basis_mib",
                     "manybody.sector_overhead_s"),
    "asymptotics.vacuum": ("asymptotics.vacuum_s",),
    "asymptotics.overlap": ("asymptotics.overlap_s",),
    "disorder.ensemble": ("disorder.ensemble_s",),
    "disorder.realization": ("disorder.realizations", "disorder.realization_s"),
    "cli.command": tuple(f"cli.command_s.{c}" for c in CLI_COMMANDS),
    "cli.write": ("cli.write_s", "cli.bytes_written"),
    "circuit.derive": ("circuit.derive_s",),
    "fluxonium.solve": ("fluxonium.solve_s",),
    "hopfield.sweep": ("hopfield.sweep_s",),
}


def absent_metrics(absent_targets: list[str]) -> list[str]:
    """Metrics that cannot be measured because their wrapped name is gone."""
    span_of = {f"{m}.{a}": s for m, a, s, _ in TARGETS}
    out = []
    for target in absent_targets:
        out.extend(METRIC_SPAN.get(span_of[target], ()))
    return sorted(set(out))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced pass (process and trace rows excluded)."""
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def under(span, name):
        return sum(dur(c) for c in spans
                   if c["name"] == name and c["parent"] == span["id"])

    matvec_s = total("manybody.matvec")
    operator_s = total("krylov.operator")
    in_operator = sum(dur(s) for s in named("manybody.matvec")
                      if s["parent"] in by_id
                      and by_id[s["parent"]]["name"] == "krylov.operator")
    spectra = named("manybody.lowest_spectrum")
    dense = [s for s in spectra if s.get("method") == "dense"]
    solves = named("krylov.solve")
    realizations = [dur(s) for s in named("disorder.realization")]
    commands = named("cli.command")
    out = {
        "manybody.matvec_s": matvec_s,
        "manybody.matvec_calls": len(named("manybody.matvec")),
        "manybody.matvec_gbps": (sum(s["bytes"] for s in named("manybody.matvec"))
                                 / matvec_s / 1e9 if matvec_s else 0.0),
        "manybody.sector_overhead_s": operator_s - in_operator,
        "manybody.dense_assembly_s": total("manybody.dense_assembly"),
        "manybody.dense_solve_s": sum(dur(s) - under(s, "manybody.dense_assembly")
                                      for s in dense),
        "manybody.dense_max_dim": max((s["dim"] for s in named("manybody.dense_assembly")),
                                      default=0),
        "manybody.indexer_s": total("manybody.indexer"),
        "manybody.sector_solves": sum(1 for s in spectra
                                      if s.get("method") in ("dense", "lanczos")),
        "krylov.solve_s": total("krylov.solve"),
        "krylov.self_s": total("krylov.solve") - operator_s,
        "krylov.matvecs": sum(s.get("matvecs", 0) for s in solves),
        "krylov.restarts": sum(s.get("restarts", 0) for s in solves),
        "krylov.basis_mib": max((s.get("basis_bytes", 0) for s in solves),
                                default=0) / 2**20,
        "asymptotics.vacuum_s": total("asymptotics.vacuum"),
        "asymptotics.overlap_s": total("asymptotics.overlap"),
        "disorder.realizations": len(realizations),
        "disorder.ensemble_s": total("disorder.ensemble"),
        "disorder.realization_s": statistics.median(realizations) if realizations else 0.0,
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": sum(s.get("bytes", 0) for s in named("cli.write")),
        "circuit.derive_s": total("circuit.derive"),
        "fluxonium.solve_s": total("fluxonium.solve"),
        "hopfield.sweep_s": total("hopfield.sweep"),
    }
    for c in CLI_COMMANDS:
        out[f"cli.command_s.{c}"] = sum(dur(s) for s in commands if s.get("command") == c)
    return out
