"""Configuration-driven command-line front end.

Every run resolves a flat key=value configuration (file keys overridden by
command-line flags), validates it against the command's schema (unknown keys
are rejected with their line number), executes, and writes its artifacts plus
a ``manifest.json`` echoing the resolved configuration and its hash, the
fluxchain and numpy versions and the BLAS/OpenMP thread variables
(``THREAD_ENV``).  Flags are decoded like file values, so ``resolve_config``
alone converts and checks every value.  Nothing in any output depends on
wall time, so reruns are byte-identical.

``COMMANDS`` maps each command to its schema and its implementation, which
returns ``{file name: payload}`` (a dict for JSON, ``(header, rows)`` for
CSV) for ``run`` to write.  The default output directory comes from
``FLUXCHAIN_OUTDIR`` (falling back to ./runs).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import __version__, asymptotics, circuit, disorder, fluxonium, hopfield, manybody

ENV_OUTDIR = "FLUXCHAIN_OUTDIR"
#: thread-count variables of the BLAS and OpenMP runtimes, echoed in manifests
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BetaFit:
    """Least-squares slope of log(delta/omega_F) against g^2."""

    n_atoms: int
    n_modes: int
    beta: float
    intercept: float
    g2_min: float
    g2_max: float
    residual_rms: float
    point_count: int


def fit_beta(records) -> BetaFit:
    """Fit the splitting decay exponent from converged sweep records.

    All records must come from one chain (one N and N_m).  Only converged
    records with delta/omega above the numerical floor enter; excluded floor
    points are warned about.  Requires at least four usable points whose g^2
    values span a factor of two.
    """
    chains = sorted({(rec.n_atoms, rec.n_modes) for rec in records})
    if len(chains) > 1:
        raise ConfigError(f"records mix chains (N, N_m) {chains}; fit one at a time")
    usable = []
    for rec in records:
        if not rec.converged:
            continue
        if rec.delta_over_omega_atom <= 10.0 * manybody.NUMERICAL_FLOOR:
            warnings.warn(
                f"record at g={rec.g} sits at the numerical floor; excluded",
                stacklevel=2,
            )
            continue
        usable.append(rec)
    gs = sorted({rec.g for rec in usable})
    if len(usable) < 4 or len(gs) < 4:
        raise ConfigError("need at least four converged records at distinct g")
    g2 = np.array([rec.g**2 for rec in usable])
    if g2.max() < 2.0 * g2.min():
        raise ConfigError("g^2 range must span at least a factor of two")
    y = np.log(np.array([rec.delta_over_omega_atom for rec in usable]))
    slope, intercept = np.polyfit(g2, y, 1)
    resid = y - (slope * g2 + intercept)
    return BetaFit(
        n_atoms=usable[0].n_atoms, n_modes=usable[0].n_modes,
        beta=float(-slope), intercept=float(intercept),
        g2_min=float(g2.min()), g2_max=float(g2.max()),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        point_count=len(usable),
    )


# --------------------------------------------------------------------------
# configuration handling


def _parse_value(text: str):
    """Decode a flag or file value: a JSON scalar or list, else the word."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_config_file(path: str) -> dict:
    """Parse a `key = value` document; values are JSON scalars or lists."""
    out = {}
    lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            out[key] = _parse_value(val.strip())
            lines[key] = lineno
    out["__lines__"] = lines
    return out


#: the default of a required key in a schema of key -> (converter, default)
_REQUIRED = object()


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _bool(v) -> bool:
    if isinstance(v, int) and v in (0, 1):
        return bool(v)
    if isinstance(v, str) and v.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[v.lower()]
    raise ValueError("expected true/false, yes/no or 1/0")


def _int(v) -> int:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError("expected an integer")
    return int(v)


def _positive_int(v) -> int:
    n = _int(v)
    if n < 1:
        raise ValueError("expected an integer of at least 1")
    return n


def _float(v) -> float:
    if isinstance(v, bool):
        raise ValueError("expected a number")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("expected a finite number")
    return x


def _positive_float(v) -> float:
    x = _float(v)
    if x <= 0.0:
        raise ValueError("expected a number above 0")
    return x


def _choice(*allowed):
    def choice(v):
        if v not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return v
    return choice


def _list_of(conv):
    def listed(v):
        if isinstance(v, str):
            raise ValueError("expected a number or a JSON list")
        return [conv(x) for x in ([v] if isinstance(v, (int, float)) else v)]
    return listed


_COMMON = {
    "out_dir": (str, None),
}


def resolve_config(command: str, file_cfg: dict | None, overrides: dict) -> dict:
    """Merge file keys and overrides against the command schema."""
    schema = {**COMMANDS[command][1], **_COMMON}
    file_cfg = dict(file_cfg or {})
    lines = file_cfg.pop("__lines__", {})

    # the line table holds every file key, a file's own '__lines__' included
    for key in {**file_cfg, **lines}:
        if key not in schema:
            where = f" (line {lines[key]})" if key in lines else ""
            raise ConfigError(f"unknown key '{key}'{where} for command {command}")
    for key in overrides:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' for command {command}")

    resolved = {}
    for key, (conv, default) in schema.items():
        # a null value, from a flag or a file, leaves the key unset
        if overrides.get(key) is not None:
            raw = overrides[key]
        elif file_cfg.get(key) is not None:
            raw = file_cfg[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' for {command}")
        else:
            resolved[key] = default
            continue
        try:
            resolved[key] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for '{key}': {raw!r} ({exc})") from exc
    return resolved


def config_hash(command: str, resolved: dict) -> str:
    # output location and worker count never affect results, so they stay
    # out of the hash; reruns of the same science hash identically
    salient = {k: v for k, v in resolved.items() if k not in ("out_dir", "jobs")}
    blob = json.dumps({"command": command, "config": salient},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


#: the types ``csv.writer`` writes as ``_fmt`` does (float by repr, int and
#: str by str), matched by exact type: bool and np.float64 subclass int and
#: float, but the two write them differently
_PLAIN = (float, int, str)


def write_csv(path: str, header: list[str], rows, chash: str) -> None:
    """A CSV table under a ``# manifest: <config hash>`` line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest: {chash}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([x if type(x) in _PLAIN else _fmt(x) for x in row] for row in rows)


def read_csv_rows(path: str) -> list[dict]:
    """Dict rows of a sweep CSV, skipping the manifest comment line."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# command implementations: (resolved config, config hash) -> {file: payload}


def _cmd_derive(cfg, chash):
    raw = circuit.RawCircuit(
        L1=cfg["L1"], L2=cfg["L2"], l_r=cfg["l_r"], c_r=cfg["c_r"],
        a=cfg["a"], N=cfg["N"], E_J=cfg["E_J"], E_CJ=cfg["E_CJ"],
    )
    return {"derive.json": asdict(circuit.derive_constants(raw))}


def _cmd_fluxonium(cfg, chash):
    spec = fluxonium.FluxoniumSpec(
        E_J=cfg["E_J"], E_CJ=cfg["E_CJ"], E_LJ=cfg["E_LJ"],
        grid_half_width=cfg["grid_half_width"], grid_points=cfg["grid_points"],
    )
    levels = fluxonium.solve_levels(spec, n_levels=cfg["n_levels"])
    red = fluxonium.two_level_reduction(levels)
    out = {"fluxonium.json": {
        "config_hash": chash,
        "energies": [float(e) for e in levels.energies],
        "omega_F": levels.omega_F,
        "phi01": levels.phi01,
        "anharmonicity": red.anharmonicity,
        "two_level_ok": red.two_level_ok,
        "basis_shift": levels.basis_shift,
    }}
    if cfg["wavefunction_csv"]:
        out["wavefunctions.csv"] = (
            ["phi", "psi0", "psi1"],
            np.column_stack([levels.phi_grid, *levels.wavefunctions[:2]]).tolist(),
        )
    return out


def _cmd_polariton(cfg, chash):
    if cfg["rabi_count"] < 0:
        raise ConfigError("rabi_count must be non-negative")
    if cfg["rabi_count"] == 0:
        grid = []
        warnings.warn("empty rabi grid; writing empty table", stacklevel=2)
    else:
        grid = np.linspace(cfg["rabi_min"], cfg["rabi_max"], cfg["rabi_count"])
    header = ["Omega", "lower", "upper", "stable", "determinant"]
    rows = hopfield.branch_sweep(cfg["omega_k"], cfg["omega_F"], grid)
    return {"polariton.csv": (header, [[r[h] for h in header] for r in rows])}


def _spec_from_cfg(cfg, g):
    kwargs = dict(safety=cfg["safety"], even_floor=cfg["even_floor"])
    if cfg.get("cutoffs") is not None:
        kwargs["cutoffs"] = cfg["cutoffs"]
    return manybody.ManyBodySpec.from_coupling(
        cfg["N"], cfg["N_m"], g,
        omega_atoms=(cfg.get("omega_F", 1.0),) * cfg["N"],
        **kwargs,
    )


SPECTRUM_HEADER = ["N", "N_m", "g", "sector", "level", "energy", "residual"]


def _spectrum_rows(cfg, g, sector, res):
    """The ``spectrum.csv`` rows of one solve at ``g``: one per level."""
    return [[cfg["N"], cfg["N_m"], g, sector, i, float(e), float(r)]
            for i, (e, r) in enumerate(zip(res.eigenvalues, res.residual_norms))]


def _at_most(key, count, dimension, space):
    """Refuse a level count above the dimension of the space it is taken from."""
    if count > dimension:
        raise ConfigError(f"bad value for '{key}': {count} exceeds the {space} "
                          f"dimension {dimension}")


def _cmd_spectrum(cfg, chash):
    spec = _spec_from_cfg(cfg, cfg["g"])
    if cfg["sector"] == "full":
        _at_most("count", cfg["count"], spec.dimension, "full-space")
    else:
        _at_most("count", cfg["count"], spec.dimension // 2, "sector")
    res = manybody.lowest_spectrum(
        spec, sector=cfg["sector"], m=cfg["count"], tol=cfg["tol"]
    )
    return {"spectrum.csv": (SPECTRUM_HEADER,
                             _spectrum_rows(cfg, cfg["g"], res.sector, res))}


def _sweep_point(cfg, g):
    """One point of a sweep; module-level, so a pool worker can run it."""
    return manybody.ground_splittings(
        [_spec_from_cfg(cfg, g)], tol=cfg["tol"], refine=cfg["refine"]
    )[0]


def _cmd_splitting_sweep(cfg, chash):
    grid = cfg["g_grid"]
    if not grid:
        warnings.warn("empty g grid; writing empty sweep", stacklevel=2)
    records = manybody.parallel_map(partial(_sweep_point, cfg), sorted(grid), cfg["jobs"])
    return {"splitting_sweep.csv": (
        ["N", "N_m", "g", *(f"n_max_{k}" for k in range(1, cfg["N_m"] + 1)),
         "E_even", "E_odd", "delta", "delta_over_omegaF", "converged"],
        [[r.n_atoms, r.n_modes, r.g, *r.cutoffs, r.e_even, r.e_odd, r.delta,
          r.delta_over_omega_atom, r.converged] for r in records],
    )}


def _closed_form_beta(n_atoms, n_modes):
    """``asymptotics.beta_exponent``, which needs two atoms; None for one."""
    return asymptotics.beta_exponent(n_atoms, n_modes) if n_atoms >= 2 else None


def _cmd_overlap(cfg, chash):
    rows, spectrum = [], []
    for g in sorted(cfg["g_grid"]):
        spec = _spec_from_cfg(cfg, g)
        _at_most("levels", cfg["levels"], spec.dimension // 2, "sector")
        # the mirror-even halves hold both ground states, and their Lanczos
        # columns start from the asymptotic vacuum; higher levels may be
        # R-odd, so more than one level takes the whole sectors, cold
        ground = cfg["levels"] == 1
        columns = (manybody.ground_columns(spec) if ground
                   else [(spec, sec) for sec in manybody.SECTORS])
        se, so = manybody.sector_spectra(columns, cfg["levels"], tol=cfg["tol"],
                                         with_vectors=True,
                                         starts="vacuum" if ground else None)
        for sec, res in zip(manybody.SECTORS, (se, so)):
            spectrum += _spectrum_rows(cfg, g, sec, res)
        ov = asymptotics.doublet_overlap((se.vectors[0], so.vectors[0]))
        amps = asymptotics.displaced_amplitudes(spec, [+1] * cfg["N"])
        rows.append({
            "g": g,
            "fidelity": ov.fidelity,
            "cosines": list(ov.cosines),
            "amplitudes_abs": [float(abs(a)) for a in amps],
            "E_even": float(se.eigenvalues[0]),
            "E_odd": float(so.eigenvalues[0]),
        })
    beta = _closed_form_beta(cfg["N"], cfg["N_m"])
    n2 = float(cfg["N"] ** 2)
    return {
        "overlap.json": {
            "config_hash": chash,
            "points": rows,
            "beta_exponent": beta,
            "beta_bounds_ok": None if beta is None else 1.6 * n2 < beta < 2.1 * n2,
        },
        "spectrum.csv": (SPECTRUM_HEADER, spectrum),
    }


def _cmd_disorder(cfg, chash):
    base = _spec_from_cfg(cfg, cfg["g"])
    dspec = disorder.DisorderEnsembleSpec(
        base=base, amplitude=cfg["amplitude"], count=cfg["count"],
        seed=cfg["seed"],
    )
    freqs = disorder.sample_frequencies(dspec)
    deltas = disorder.ensemble_splitting(dspec, engine=cfg["engine"])
    return {
        "disorder.csv": (
            ["realization", "seed",
             *(f"omega_F_{j}" for j in range(1, cfg["N"] + 1)), "delta"],
            [[r, cfg["seed"], *freqs[r], deltas[r]] for r in range(cfg["count"])],
        ),
        "disorder_summary.json": {
            "config_hash": chash,
            "mean": float(np.mean(deltas)), "std": float(np.std(deltas)),
            "engine": cfg["engine"], "g": cfg["g"], "N": cfg["N"],
            "seed": cfg["seed"], "count": cfg["count"],
        },
    }


def _cmd_fit_beta(cfg, chash):
    path = cfg["records_csv"]
    records = []
    for i, row in enumerate(read_csv_rows(path), start=1):
        if None in row or None in row.values():
            raise ConfigError(f"{path}: record {i} does not have one field per column")
        try:
            n_modes = int(row["N_m"])
            records.append(manybody.SplittingRecord(
                n_atoms=int(row["N"]), n_modes=n_modes, g=float(row["g"]),
                cutoffs=tuple(int(row[f"n_max_{k}"]) for k in range(1, n_modes + 1)),
                e_even=float(row["E_even"]), e_odd=float(row["E_odd"]),
                delta=float(row["delta"]),
                delta_over_omega_atom=float(row["delta_over_omegaF"]),
                converged=_bool(row["converged"].strip()),
            ))
        except KeyError as exc:
            raise ConfigError(f"{path}: missing column {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: record {i}: {exc}") from exc
    fit = fit_beta(records)
    n2 = float(fit.n_atoms**2)
    return {"fit_beta.json": {
        "config_hash": chash,
        "N": fit.n_atoms, "beta": fit.beta, "intercept": fit.intercept,
        "g2_min": fit.g2_min, "g2_max": fit.g2_max,
        "residual_rms": fit.residual_rms, "point_count": fit.point_count,
        "bounds": [1.6 * n2, 2.1 * n2],
        "bounds_ok": 1.6 * n2 < fit.beta < 2.1 * n2,
        "beta_closed_form": _closed_form_beta(fit.n_atoms, fit.n_modes),
    }}


#: command name -> (implementation, schema of its keys besides _COMMON)
COMMANDS: dict[str, tuple] = {
    "derive": (_cmd_derive, {
        "L1": (_float, _REQUIRED), "L2": (_float, _REQUIRED),
        "l_r": (_float, _REQUIRED), "c_r": (_float, _REQUIRED),
        "a": (_float, _REQUIRED), "N": (_int, _REQUIRED),
        "E_J": (_float, _REQUIRED), "E_CJ": (_float, _REQUIRED),
    }),
    "fluxonium": (_cmd_fluxonium, {
        "E_J": (_float, _REQUIRED), "E_CJ": (_float, _REQUIRED),
        "E_LJ": (_float, _REQUIRED),
        "grid_points": (_int, 801),
        "grid_half_width": (_float, 6.0 * math.pi),
        "n_levels": (_int, 4),
        "wavefunction_csv": (_bool, False),
    }),
    "polariton": (_cmd_polariton, {
        "omega_k": (_float, _REQUIRED), "omega_F": (_float, _REQUIRED),
        "rabi_min": (_float, 0.0), "rabi_max": (_float, _REQUIRED),
        "rabi_count": (_int, 21),
    }),
    "spectrum": (_cmd_spectrum, {
        "N": (_int, _REQUIRED), "N_m": (_int, _REQUIRED),
        "g": (_float, _REQUIRED),
        "omega_F": (_float, 1.0), "count": (_positive_int, 10),
        "sector": (_choice("full", "even", "odd"), "full"), "tol": (_positive_float, 1e-10),
        "safety": (_float, 4.0), "even_floor": (_int, 4),
        "cutoffs": (_list_of(_int), None),
    }),
    "splitting-sweep": (_cmd_splitting_sweep, {
        "N": (_int, _REQUIRED), "N_m": (_int, _REQUIRED),
        "g_grid": (_list_of(_float), _REQUIRED),
        "omega_F": (_float, 1.0),
        "safety": (_float, 4.0), "even_floor": (_int, 4),
        "tol": (_positive_float, 1e-3), "refine": (_bool, True),
        "jobs": (_positive_int, 1),
    }),
    "overlap": (_cmd_overlap, {
        "N": (_int, _REQUIRED), "N_m": (_int, _REQUIRED),
        "g_grid": (_list_of(_float), _REQUIRED),
        "safety": (_float, 3.5), "even_floor": (_int, 4),
        "tol": (_positive_float, 1e-10), "levels": (_positive_int, 1),
    }),
    "disorder": (_cmd_disorder, {
        "N": (_int, _REQUIRED), "N_m": (_int, _REQUIRED),
        "g": (_float, _REQUIRED),
        "amplitude": (_float, 0.5), "count": (_int, 100),
        "engine": (_choice("exact", "analytic"), "exact"),
        "omega_F": (_float, 1.0),
        "safety": (_float, 4.0), "even_floor": (_int, 4),
        "seed": (_int, 20260810),
        "jobs": (_positive_int, 1),  # unread; kept while the benchmark passes --jobs
    }),
    "fit-beta": (_cmd_fit_beta, {
        "records_csv": (str, _REQUIRED),
    }),
}


def run(command: str, file_cfg: dict | None = None,
        overrides: dict | None = None) -> int:
    """Resolve, validate, execute and write artifacts plus the manifest."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    resolved = resolve_config(command, file_cfg, overrides or {})
    out_dir = resolved.get("out_dir") or os.environ.get(ENV_OUTDIR) or "runs"
    out_dir = os.path.join(out_dir, command)
    resolved["out_dir"] = out_dir
    chash = config_hash(command, resolved)
    payloads = COMMANDS[command][0](resolved, chash)
    os.makedirs(out_dir, exist_ok=True)  # only once the command has succeeded
    artifacts = []
    for name, payload in payloads.items():
        path = os.path.join(out_dir, name)
        if isinstance(payload, dict):
            write_json(path, payload)
        else:
            write_csv(path, *payload, chash)
        artifacts.append(path)
    write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "config": dict(sorted(resolved.items())),
        "config_hash": chash,
        "artifacts": sorted(artifacts),
        "fluxchain": __version__,
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    })
    return 0


def _build_parser(command: str | None, alone: bool = False) -> argparse.ArgumentParser:
    """The parser of every command name, with the flags of ``command`` only:
    argparse hands the rest of the line to that one subparser, so the others
    need none.  ``alone`` registers ``command``'s subparser and no other, as
    a line that opens with that name reaches no other; a line that may print
    the top-level usage (help, a missing or unknown command, a word no
    subparser takes) needs them all."""
    p = argparse.ArgumentParser(
        prog="fluxchain",
        description="chain-of-junction-atoms resonator simulator",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_impl, schema) in COMMANDS.items():
        if alone and name != command:
            continue
        sp = sub.add_parser(name)
        if name != command:
            continue
        sp.add_argument("--config", default=None, help="key = value file")
        for key, (conv, _default) in {**_COMMON, **schema}.items():
            sp.add_argument("--" + key.replace("_", "-").lower(), dest=key,
                            type=str if conv is str else _parse_value)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so its first
    # word that is not an option names the subparser that parses the rest
    command = next((a for a in argv if not a.startswith("-")), None)
    alone = argv[:1] == [command] and command in COMMANDS
    overrides, extra = _build_parser(command, alone).parse_known_args(argv)
    if extra:  # the error's top-level usage names every command
        _build_parser(command).parse_args(argv)
    overrides = vars(overrides)
    command, config = overrides.pop("command"), overrides.pop("config")
    try:
        file_cfg = parse_config_file(config) if config else None
        return run(command, file_cfg, overrides)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
