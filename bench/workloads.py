"""The three workloads: inputs from the seed, one pass, and the checks.

Each workload covers one of fluxchain's solve regimes:

* ``splitting_n3`` -- ``fluxchain splitting-sweep`` on a three-atom,
  three-mode chain: eight parity-sector ground-state Lanczos solves.
* ``spectrum_n5`` -- the flow of ``scripts/spectrum_vs_coupling.py`` on a
  five-atom, three-mode chain: several pairs per sector with vectors, the
  asymptotic vacua and the doublet fidelity.
* ``cli_small`` -- one CLI session of small dense problems, ending with an
  exact disorder ensemble on a thread pool of ``nproc`` workers.

``make_inputs`` is the only place the seed enters.  ``run_pass`` executes in
a fresh process with fluxchain importable; ``collect`` and ``check`` run in
the parent, after the timed passes, and never import fluxchain.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WORKLOADS = ("splitting_n3", "spectrum_n5", "cli_small")

#: splittings at or below this fraction of omega_F sit at the numerical floor
FLOOR = 1e-13
#: eigenvalues agree with the reference to this, relative to max(1, |E|)
ENERGY_RTOL = 1e-9
#: relative agreement of a splitting with the reference splitting
DELTA_RTOL = 1e-6

PROFILES = {
    "splitting_n3": {
        "bench": dict(N=3, N_m=3, g_grid=[0.7, 1.0], even_floor=8, safety=2.5,
                      tol=1e-2),
        "quick": dict(N=2, N_m=1, g_grid=[1.2, 1.6], even_floor=4, safety=4.0,
                      tol=1e-2),
    },
    "spectrum_n5": {
        "bench": dict(N=5, N_m=3, g_grid=[0.5, 0.8], safety=2.5, pairs=3,
                      min_fidelity=0.98),
        "quick": dict(N=5, N_m=1, g_grid=[0.3, 0.8], safety=2.5, pairs=3,
                      min_fidelity=0.9),
    },
    "cli_small": {
        "bench": dict(spectrum=dict(N=2, N_m=2, g=1.0, cutoffs=[29, 8], count=4),
                      sweep=dict(N=2, N_m=1, g_grid=[1.0, 1.2, 1.4, 1.6]),
                      disorder=dict(N=2, N_m=2, g=1.2, amplitude=0.3, count=4,
                                    even_floor=6),
                      rabi_count=33),
        "quick": dict(spectrum=dict(N=2, N_m=1, g=1.0, cutoffs=[12], count=4),
                      sweep=dict(N=2, N_m=1, g_grid=[1.0, 1.2, 1.4, 1.6]),
                      disorder=dict(N=2, N_m=1, g=1.0, amplitude=0.3, count=2,
                                    even_floor=4),
                      rabi_count=9),
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_inputs(workload: str, seed: int, quick: bool = False) -> dict:
    """All inputs of one pass, a pure function of (workload, seed, quick).

    The seed detunes the atoms from mode 1 by at most 0.5% and, for
    ``cli_small``, seeds the disorder ensemble and scales the circuit and
    fluxonium energies by at most 1%.  None of this changes a Fock cutoff or
    a matrix dimension, so the work per pass does not depend on the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inp = dict(PROFILES[workload]["quick" if quick else "bench"])
    inp.update(workload=workload, seed=seed,
               omega_F=1.0 + 0.01 * (float(rng.random()) - 0.5))
    if workload == "cli_small":
        inp.update(disorder_seed=int(rng.integers(1, 2**31)),
                   energy_scale=1.0 + 0.02 * (float(rng.random()) - 0.5),
                   jobs=nproc())
    return inp


# -- passes (fresh process, fluxchain importable) -----------------------------


def cli_operations(inp: dict, out_dir: str, jobs: int) -> list[tuple[str, list[str]]]:
    """(operation, argv) of the cli_small session, in order."""
    s = inp["energy_scale"]
    wf = repr(inp["omega_F"])
    sp, sw, di = inp["spectrum"], inp["sweep"], inp["disorder"]
    ops = [
        ("derive", ["derive", "--l1", "1e-9", "--l2", "1e-9", "--l-r", "1e-6",
                    "--c-r", "4e-10", "--a", "1e-3", "--n", "5",
                    "--e-j", repr(1e-24 * s), "--e-cj", "3e-25"]),
        ("fluxonium", ["fluxonium", "--e-j", repr(3.0 * s), "--e-cj", "1",
                       "--e-lj", "0.15", "--wavefunction-csv", "true"]),
        ("polariton", ["polariton", "--omega-k", "1", "--omega-f", wf,
                       "--rabi-max", "0.8", "--rabi-count", str(inp["rabi_count"])]),
        ("spectrum", ["spectrum", "--n", str(sp["N"]), "--n-m", str(sp["N_m"]),
                      "--g", repr(sp["g"]), "--cutoffs", json.dumps(sp["cutoffs"]),
                      "--count", str(sp["count"]), "--omega-f", wf]),
        ("splitting-sweep", ["splitting-sweep", "--n", str(sw["N"]),
                             "--n-m", str(sw["N_m"]), "--g-grid", json.dumps(sw["g_grid"]),
                             "--omega-f", wf]),
        ("fit-beta", ["fit-beta", "--records-csv",
                      os.path.join(out_dir, "splitting-sweep", "splitting_sweep.csv")]),
        ("disorder", ["disorder", "--n", str(di["N"]), "--n-m", str(di["N_m"]),
                      "--g", repr(di["g"]), "--amplitude", repr(di["amplitude"]),
                      "--count", str(di["count"]), "--even-floor", str(di["even_floor"]),
                      "--omega-f", wf, "--seed", str(inp["disorder_seed"]),
                      "--jobs", str(jobs)]),
    ]
    return [(op, argv + ["--out-dir", out_dir]) for op, argv in ops]


def run_cli(argv: list[str]) -> None:
    from fluxchain import cli

    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fluxchain {argv[0]} exited with {rc}")


def _pass_splitting(inp, out_dir):
    argv = ["splitting-sweep", "--n", str(inp["N"]), "--n-m", str(inp["N_m"]),
            "--g-grid", json.dumps(inp["g_grid"]),
            "--even-floor", str(inp["even_floor"]), "--safety", repr(inp["safety"]),
            "--tol", repr(inp["tol"]), "--refine", "true", "--jobs", "1",
            "--omega-f", repr(inp["omega_F"]), "--out-dir", out_dir]
    try:
        run_cli(argv)
    except Exception as exc:  # every coupling point of the sweep failed
        return {f"g={g}": repr(exc) for g in inp["g_grid"]}
    return {}


def _spectrum_point(inp, g):
    from fluxchain import asymptotics, manybody

    spec = manybody.ManyBodySpec.from_coupling(
        inp["N"], inp["N_m"], g, safety=inp["safety"],
        omega_atoms=(inp["omega_F"],) * inp["N"])
    even = manybody.lowest_spectrum(spec, "even", inp["pairs"], with_vectors=True)
    odd = manybody.lowest_spectrum(spec, "odd", inp["pairs"], with_vectors=True)
    merged = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))
    full = manybody.BasisIndexer(spec, "full")
    pair = []
    for res in (even, odd):
        vec = np.zeros(full.dimension, dtype=complex)
        vec[res.vectors[0].indexer.indices] = res.vectors[0].data
        pair.append(manybody.Wavefunction(full, vec))
    fidelity = asymptotics.subspace_overlap(
        tuple(pair),
        (asymptotics.asymptotic_vacuum(spec, +1), asymptotics.asymptotic_vacuum(spec, -1)),
    ).fidelity
    return {"g": g, "cutoffs": list(spec.cutoffs),
            "even": even.eigenvalues.tolist(), "odd": odd.eigenvalues.tolist(),
            "merged": merged.tolist(), "fidelity": float(fidelity)}


def _pass_spectrum(inp, out_dir):
    errors, points = {}, []
    for g in inp["g_grid"]:
        try:
            points.append(_spectrum_point(inp, g))
        except Exception as exc:
            errors[f"g={g}"] = repr(exc)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spectrum.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["g", "level", "energy", "energy_minus_ground", "fidelity"])
        for p in points:
            e = p["merged"]
            for i, level in enumerate(e):
                w.writerow([p["g"], i, level, level - e[0], p["fidelity"] if i == 0 else ""])
    with open(os.path.join(out_dir, "points.json"), "w") as fh:
        json.dump(points, fh)
    return errors


def _pass_cli(inp, out_dir):
    errors = {}
    for op, argv in cli_operations(inp, out_dir, inp["jobs"]):
        try:
            run_cli(argv)
        except Exception as exc:
            errors[op] = repr(exc)
    return errors


PASSES = {"splitting_n3": _pass_splitting, "spectrum_n5": _pass_spectrum,
          "cli_small": _pass_cli}


def run_pass(inp: dict, out_dir: str) -> dict[str, str]:
    """One pass of the workload; returns {operation: error} for ops that raised."""
    return PASSES[inp["workload"]](inp, out_dir)


def operations(inp: dict) -> list[str]:
    """Names of the operations one pass attempts."""
    if inp["workload"] == "cli_small":
        return [op for op, _ in cli_operations(inp, "", 1)]
    return [f"g={g}" for g in inp["g_grid"]]


# -- outputs, reference and checks (parent process) ----------------------------


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Unreadable(str):
    """Stands in for an artifact that is missing or does not parse."""


def _load(reader, path):
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        return Unreadable(f"{os.path.basename(path)}: {exc}")


def collect(inp: dict, out_dir: str) -> dict:
    """The artifacts of one pass, read back for checking."""
    wl = inp["workload"]
    if wl == "splitting_n3":
        return {"sweep": _load(_read_csv, os.path.join(out_dir, "splitting-sweep",
                                                       "splitting_sweep.csv"))}
    if wl == "spectrum_n5":
        return {"points": _load(_read_json, os.path.join(out_dir, "points.json"))}
    files = {
        "derive": ("derive", "derive.json", _read_json),
        "fluxonium": ("fluxonium", "fluxonium.json", _read_json),
        "wavefunctions": ("fluxonium", "wavefunctions.csv", _read_csv),
        "polariton": ("polariton", "polariton.csv", _read_csv),
        "spectrum": ("spectrum", "spectrum.csv", _read_csv),
        "sweep": ("splitting-sweep", "splitting_sweep.csv", _read_csv),
        "fit-beta": ("fit-beta", "fit_beta.json", _read_json),
        "disorder": ("disorder", "disorder.csv", _read_csv),
    }
    return {key: _load(reader, os.path.join(out_dir, sub, name))
            for key, (sub, name, reader) in files.items()}


def reference(inp: dict, out: dict) -> dict:
    """Independent eigenvalues for the checks, from ``reference.py``.

    Cutoffs are inputs of the reference: taken from the sweep CSV, from the
    pass's points, or from the benchmark's own ``--cutoffs``.
    """
    # imported here: pass processes import this module, and scipy.sparse
    # must not count towards their set-up time
    from reference import sector_levels

    wl = inp["workload"]
    if wl == "splitting_n3":
        ref = {}
        for row in [] if isinstance(out["sweep"], Unreadable) else out["sweep"]:
            g = float(row["g"])
            cuts = [int(row[f"n_max_{k}"]) for k in range(1, inp["N_m"] + 1)]
            ref[g] = {s: float(sector_levels(inp["N"], inp["N_m"], g, inp["omega_F"],
                                             cuts, s, 1)[0]) for s in ("even", "odd")}
        return ref
    if wl == "spectrum_n5":
        points = [] if isinstance(out["points"], Unreadable) else out["points"]
        low = [p for p in points if p["g"] == inp["g_grid"][0]]
        if not low:
            return {}
        p = low[0]
        return {s: sector_levels(inp["N"], inp["N_m"], p["g"], inp["omega_F"],
                                 p["cutoffs"], s, inp["pairs"]).tolist()
                for s in ("even", "odd")}
    sp = inp["spectrum"]
    return {"spectrum": sector_levels(sp["N"], sp["N_m"], sp["g"], inp["omega_F"],
                                      sp["cutoffs"], "full", sp["count"]).tolist()}


def _close(value: float, ref: float, rtol: float = ENERGY_RTOL) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def beta_bounds(n_atoms: int) -> tuple[float, float]:
    """The decay exponent of delta ~ exp(-beta g^2) lies in (1.6 N^2, 2.1 N^2)."""
    return 1.6 * n_atoms**2, 2.1 * n_atoms**2


class Checks:
    """Failed checks per operation; an operation with none passed."""

    def __init__(self, ops):
        self.failures = {op: [] for op in ops}

    def expect(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.failures[op].append(message)

    def artifact(self, op: str, value) -> bool:
        """Record an unreadable artifact against ``op``; True when readable."""
        bad = isinstance(value, Unreadable)
        self.expect(op, not bad, f"unreadable artifact {value}")
        return not bad


def check(inp: dict, out: dict, ref: dict) -> dict[str, list[str]]:
    """{operation: failed checks} for one pass."""
    checks = Checks(operations(inp))
    {"splitting_n3": _check_splitting, "spectrum_n5": _check_spectrum,
     "cli_small": _check_cli}[inp["workload"]](inp, out, ref, checks)
    return checks.failures


def _check_splitting(inp, out, ref, checks):
    grid = inp["g_grid"]
    rows = out["sweep"]
    if not all([checks.artifact(f"g={g}", rows) for g in grid]):
        return
    by_g = {float(r["g"]): r for r in rows}
    for g in grid:
        op = f"g={g}"
        row = by_g.get(g)
        checks.expect(op, row is not None, "no record")
        if row is None:
            continue
        checks.expect(op, row["converged"] == "true", "record not converged")
        checks.expect(op, float(row["delta_over_omegaF"]) > FLOOR,
                      "splitting at the numerical floor")
        for s, col in (("even", "E_even"), ("odd", "E_odd")):
            checks.expect(op, g in ref and _close(float(row[col]), ref[g][s]),
                          f"{col} {row[col]} differs from reference {ref.get(g, {}).get(s)}")
    lo, hi = by_g.get(grid[0]), by_g.get(grid[-1])
    if lo is None or hi is None:
        return
    d_lo, d_hi = float(lo["delta"]), float(hi["delta"])
    if grid[0] in ref:
        d_ref = abs(ref[grid[0]]["even"] - ref[grid[0]]["odd"])
        checks.expect(f"g={grid[0]}", abs(d_lo - d_ref) <= DELTA_RTOL * d_ref,
                      f"delta {d_lo} differs from reference {d_ref}")
    beta = (math.log(d_lo / d_hi) / (grid[-1] ** 2 - grid[0] ** 2)
            if d_lo > 0 and d_hi > 0 else math.nan)
    b_lo, b_hi = beta_bounds(inp["N"])
    checks.expect(f"g={grid[-1]}", b_lo < beta < b_hi,
                  f"two-point exponent {beta} outside ({b_lo}, {b_hi})")


def _check_spectrum(inp, out, ref, checks):
    grid = inp["g_grid"]
    points = out["points"]
    if not all([checks.artifact(f"g={g}", points) for g in grid]):
        return
    by_g = {p["g"]: p for p in points}
    for g in grid:
        op = f"g={g}"
        p = by_g.get(g)
        checks.expect(op, p is not None, "no result")
        if p is None:
            continue
        merged = p["merged"]
        checks.expect(op, all(a <= b for a, b in zip(merged, merged[1:])),
                      "merged levels not ascending")
        checks.expect(op, merged == sorted(p["even"] + p["odd"]),
                      "merged levels are not the union of the sector levels")
        checks.expect(op, 0.0 <= p["fidelity"] <= 1.0,
                      f"fidelity {p['fidelity']} outside [0, 1]")
    lo, hi = by_g.get(grid[0]), by_g.get(grid[-1])
    if lo is not None:
        for s in ("even", "odd"):
            ok = s in ref and len(ref[s]) == len(lo[s]) and all(
                _close(a, b) for a, b in zip(lo[s], ref[s]))
            checks.expect(f"g={grid[0]}", ok,
                          f"{s} levels {lo[s]} differ from reference {ref.get(s)}")
    if lo is not None and hi is not None:
        op = f"g={grid[-1]}"
        checks.expect(op, hi["fidelity"] > lo["fidelity"],
                      "fidelity does not grow with g")
        checks.expect(op, hi["fidelity"] >= inp["min_fidelity"],
                      f"fidelity {hi['fidelity']} below {inp['min_fidelity']}")
        gap = [p["merged"][1] - p["merged"][0] for p in (lo, hi)]
        checks.expect(op, gap[1] < gap[0], f"doublet gap does not shrink: {gap}")


DERIVE_KEYS = {"E_Lr", "E_LJ", "G", "E_Cr", "l_r_renorm", "chi"}


def _check_cli(inp, out, ref, checks):
    if checks.artifact("derive", out["derive"]):
        checks.expect("derive", set(out["derive"]) == DERIVE_KEYS,
                      f"derive keys {sorted(out['derive'])}")

    if checks.artifact("fluxonium", out["fluxonium"]):
        fx = out["fluxonium"]
        checks.expect("fluxonium", abs(fx["phi01"] - math.pi) <= 0.1 * math.pi,
                      f"phi01 {fx['phi01']} not within 10% of pi")
        checks.expect("fluxonium", fx["two_level_ok"] is True, "two_level_ok is false")
    if checks.artifact("fluxonium", out["wavefunctions"]):
        checks.expect("fluxonium", len(out["wavefunctions"]) > 0
                      and set(out["wavefunctions"][0]) == {"phi", "psi0", "psi1"},
                      "wavefunction CSV is empty or has other columns")

    if checks.artifact("polariton", out["polariton"]):
        critical = math.sqrt(inp["omega_F"]) / 2.0
        for row in out["polariton"]:
            omega = float(row["Omega"])
            stable = omega <= critical
            checks.expect("polariton", (row["stable"] == "true") == stable,
                          f"Omega={omega}: stable={row['stable']}, critical {critical}")
            checks.expect("polariton", math.isnan(float(row["lower"])) == (not stable),
                          f"Omega={omega}: lower branch {row['lower']}")

    if checks.artifact("spectrum", out["spectrum"]):
        levels = [float(r["energy"]) for r in out["spectrum"]]
        ok = len(levels) == len(ref["spectrum"]) and all(
            _close(a, b) for a, b in zip(levels, ref["spectrum"]))
        checks.expect("spectrum", ok, f"levels {levels} differ from reference {ref['spectrum']}")

    if checks.artifact("splitting-sweep", out["sweep"]):
        checks.expect("splitting-sweep", len(out["sweep"]) == len(inp["sweep"]["g_grid"]),
                      "sweep record count")
        for row in out["sweep"]:
            checks.expect("splitting-sweep", row["converged"] == "true",
                          f"g={row['g']}: record not converged")

    if checks.artifact("fit-beta", out["fit-beta"]):
        beta = out["fit-beta"]["beta"]
        b_lo, b_hi = beta_bounds(inp["sweep"]["N"])
        checks.expect("fit-beta", b_lo < beta < b_hi, f"beta {beta} outside ({b_lo}, {b_hi})")

    if checks.artifact("disorder", out["disorder"]):
        di = inp["disorder"]
        rows = out["disorder"]
        checks.expect("disorder", len(rows) == di["count"], "realization count")
        for r, row in enumerate(rows):
            xi = np.random.default_rng([inp["disorder_seed"], r]).standard_normal(di["N"])
            want = inp["omega_F"] * (1.0 + di["amplitude"] * xi)
            got = [float(row[f"omega_F_{j}"]) for j in range(1, di["N"] + 1)]
            checks.expect("disorder", np.allclose(got, want, rtol=1e-12, atol=0.0),
                          f"realization {r}: frequencies {got} are not the draws {want}")
            checks.expect("disorder", float(row["delta"]) > 0.0,
                          f"realization {r}: delta {row['delta']} not positive")
