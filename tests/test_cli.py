import csv
import json
import math
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fluxchain.cli import (
    _COMMON,
    COMMANDS,
    THREAD_ENV,
    ConfigError,
    _build_parser,
    config_hash,
    fit_beta,
    main,
    parse_config_file,
    read_csv_rows,
    resolve_config,
    run,
    write_csv,
)
from fluxchain import __version__, cli, manybody
from fluxchain.asymptotics import beta_exponent
from fluxchain.krylov import EigenConvergenceError
from fluxchain.manybody import SplittingRecord


def unconverged_at_one(specs, **kwargs):
    """A stand-in for ground_splittings whose g = 1 point does not converge;
    module-level, so a pool worker runs it too."""
    gs = [spec.g for spec in specs]
    if 1.0 in gs:
        raise EigenConvergenceError("no convergence at g=1.0", np.zeros(1), np.ones(1))
    return synthetic_records(gs=gs)


def synthetic_records(beta=8.0, gs=(0.8, 1.0, 1.2, 1.5), n=2, floor_g=None):
    recs = []
    for g in gs:
        d = math.exp(-beta * g * g)
        recs.append(SplittingRecord(
            n_atoms=n, n_modes=1, g=g, cutoffs=(10,),
            e_even=0.0, e_odd=d, delta=d, delta_over_omega_atom=d,
            converged=True,
        ))
    if floor_g is not None:
        recs.append(SplittingRecord(
            n_atoms=n, n_modes=1, g=floor_g, cutoffs=(10,),
            e_even=0.0, e_odd=1e-15, delta=1e-15,
            delta_over_omega_atom=1e-15, converged=True,
        ))
    return recs


def sweep_table(records):
    """Header and string rows of a splitting-sweep CSV, as fit-beta reads it."""
    header = ["N", "N_m", "g", "n_max_1", "E_even", "E_odd", "delta",
              "delta_over_omegaF", "converged"]
    rows = [[str(x) for x in (r.n_atoms, r.n_modes, r.g, *r.cutoffs, r.e_even,
                              r.e_odd, r.delta, r.delta_over_omega_atom)]
            + [str(r.converged).lower()] for r in records]
    return header, rows


def fit_beta_main(tmp_path, header, rows):
    """Exit code of the fit-beta command on a CSV of the given rows."""
    path = tmp_path / "records.csv"
    path.write_text("# manifest: 0\n" + "\n".join(map(",".join, [header, *rows])) + "\n")
    return main(["fit-beta", "--records-csv", str(path),
                 "--out-dir", str(tmp_path / "out")])


class TestFitBeta:
    def test_exact_synthetic_slope(self):
        fit = fit_beta(synthetic_records(beta=8.0))
        assert fit.beta == pytest.approx(8.0, abs=1e-6)
        assert fit.residual_rms < 1e-10
        assert fit.point_count == 4

    def test_floor_points_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            fit = fit_beta(synthetic_records(beta=8.0, floor_g=3.0))
        assert fit.point_count == 4

    def test_unconverged_records_ignored(self):
        recs = synthetic_records()
        recs[0].converged = False
        with pytest.raises(ConfigError):
            fit_beta(recs)  # only three converged left

    def test_needs_g2_span(self):
        recs = synthetic_records(gs=(1.0, 1.05, 1.1, 1.15))
        with pytest.raises(ConfigError):
            fit_beta(recs)

    def test_refuses_records_of_different_chains(self):
        with pytest.raises(ConfigError, match=r"\(2, 1\), \(3, 1\)"):
            fit_beta(synthetic_records(n=2) + synthetic_records(n=3))

    def test_cli_refuses_records_of_different_chains(self, tmp_path, capsys):
        header, rows = sweep_table(synthetic_records(n=2) + synthetic_records(n=3))
        assert fit_beta_main(tmp_path, header, rows) == 1
        assert "error: records mix chains" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_names_a_missing_column(self, tmp_path, capsys):
        header, rows = sweep_table(synthetic_records())
        for row in (header, *rows):
            row.pop()  # drop the converged column
        assert fit_beta_main(tmp_path, header, rows) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'records.csv'}: ")
        assert "missing column 'converged'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.pop(), "record 2 does not have one field per column"),
        (lambda row: row.append("1.0"), "record 2 does not have one field per column"),
        (lambda row: row.__setitem__(2, "one"), "record 2: could not convert"),
        (lambda row: row.__setitem__(8, "ture"), "record 2: expected true/false"),
    ], ids=["too few fields", "too many fields", "not a number", "not a boolean"])
    def test_cli_names_a_bad_record(self, tmp_path, capsys, edit, message):
        header, rows = sweep_table(synthetic_records())
        edit(rows[1])
        assert fit_beta_main(tmp_path, header, rows) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'records.csv'}: ")
        assert message in err
        assert not (tmp_path / "out").exists()


class TestConfigHandling:
    def test_parse_key_value_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nomega_k = 1.0\nrabi_max = 0.75\nrabi_count = 4\n")
        cfg = parse_config_file(str(p))
        assert cfg["omega_k"] == 1.0
        assert cfg["rabi_count"] == 4

    def test_unknown_key_named_with_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("omega_k = 1.0\nbogus = 2\n")
        with pytest.raises(ConfigError) as err:
            resolve_config("polariton", parse_config_file(str(p)), {})
        assert "bogus" in str(err.value)
        assert "line 2" in str(err.value)

    def test_reserved_line_table_key_is_unknown(self, tmp_path):
        # parse_config_file keeps line numbers under '__lines__'; a file key
        # of that name fails like any other unknown key
        p = tmp_path / "run.cfg"
        p.write_text("omega_k = 1.0\nomega_F = 1.0\n__lines__ = 7\n")
        with pytest.raises(ConfigError) as err:
            resolve_config("polariton", parse_config_file(str(p)), {})
        assert "unknown key '__lines__' (line 3)" in str(err.value)
        assert main(["polariton", "--config", str(p),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("omega_k 1.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(str(p))
        assert ":1" in str(err.value)
        assert main(["polariton", "--config", str(p)]) == 1

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_config("polariton", {}, {})
        assert "omega_k" in str(err.value)

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("omega_k = 1.0\nomega_F = 1.0\nrabi_max = 0.75\n")
        cfg = resolve_config("polariton", parse_config_file(str(p)),
                             {"rabi_max": 0.5})
        assert cfg["rabi_max"] == 0.5

    def test_hash_stable_under_key_order(self):
        a = config_hash("derive", {"x": 1, "y": 2})
        b = config_hash("derive", {"y": 2, "x": 1})
        assert a == b


class TestRun:
    def test_derive_matches_library(self, tmp_path):
        from fluxchain.circuit import RawCircuit, derive_constants

        cfg = dict(L1=1e-9, L2=1e-9, l_r=1e-6, c_r=4e-10, a=1e-3, N=5,
                   E_J=1e-24, E_CJ=3e-25)
        assert run("derive", None, {**cfg, "out_dir": str(tmp_path)}) == 0
        payload = json.loads((tmp_path / "derive" / "derive.json").read_text())
        ref = asdict(derive_constants(RawCircuit(**cfg)))
        assert set(payload) == {"E_Lr", "E_LJ", "G", "E_Cr", "l_r_renorm", "chi"}
        for key, val in ref.items():
            assert payload[key] == pytest.approx(val, rel=1e-14)
        manifest = json.loads((tmp_path / "derive" / "manifest.json").read_text())
        assert manifest["command"] == "derive"
        assert manifest["config_hash"]

    def test_empty_sweep_grid_warns_and_succeeds(self, tmp_path):
        with pytest.warns(UserWarning):
            code = run("splitting-sweep", None,
                       {"N": 2, "N_m": 1, "g_grid": [], "out_dir": str(tmp_path)})
        assert code == 0
        body = (tmp_path / "splitting-sweep" / "splitting_sweep.csv").read_text()
        lines = body.strip().splitlines()
        assert len(lines) == 2  # manifest reference plus header
        assert lines[0].startswith("# manifest: ")
        assert lines[1].startswith("N,N_m,g,n_max_1,")

    def test_sweep_schema_and_determinism(self, tmp_path):
        # the same bytes from one process and from a pool of two
        args = {"N": 2, "N_m": 1, "g_grid": [0.9, 1.1], "jobs": 1,
                "out_dir": str(tmp_path / "a")}
        run("splitting-sweep", None, args)
        args2 = dict(args, jobs=2, out_dir=str(tmp_path / "b"))
        run("splitting-sweep", None, args2)
        a = (tmp_path / "a" / "splitting-sweep" / "splitting_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "splitting-sweep" / "splitting_sweep.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[1].split(",")
        assert header == ["N", "N_m", "g", "n_max_1", "E_even", "E_odd",
                          "delta", "delta_over_omegaF", "converged"]

    def test_sweep_worker_error_is_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(manybody, "ground_splittings", unconverged_at_one)
        lines = []
        for jobs in ("1", "2"):
            code = main(["splitting-sweep", "--n", "2", "--n-m", "1",
                         "--g-grid", "[0.5, 1.0, 1.5]", "--jobs", jobs,
                         "--out-dir", str(tmp_path)])
            assert code == 1
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1] == "error: no convergence at g=1.0\n"

    def test_disorder_outputs_and_determinism(self, tmp_path):
        args = {"N": 2, "N_m": 1, "g": 1.0, "amplitude": 0.3, "count": 5,
                "engine": "analytic", "seed": 17, "out_dir": str(tmp_path / "a")}
        run("disorder", None, args)
        run("disorder", None, dict(args, out_dir=str(tmp_path / "b")))
        for name in ("disorder.csv", "disorder_summary.json"):
            a = (tmp_path / "a" / "disorder" / name).read_bytes()
            b = (tmp_path / "b" / "disorder" / name).read_bytes()
            assert a == b
        lines = (tmp_path / "a" / "disorder" / "disorder.csv").read_text().splitlines()
        assert lines[1] == "realization,seed,omega_F_1,omega_F_2,delta"

    def test_disorder_exact_engine(self, tmp_path, monkeypatch):
        # the bench cli_small ensemble; its 462-state sectors go through Lanczos
        args = {"N": 2, "N_m": 2, "g": 1.2, "amplitude": 0.3, "count": 4,
                "even_floor": 6, "seed": 17}
        base = manybody.ManyBodySpec.from_coupling(2, 2, 1.2, even_floor=6)
        assert base.dimension // 2 > manybody.DENSE_LIMIT
        # every sector column handed to the stacked solve; disorder reaches
        # it only through manybody.ground_splittings
        calls = []
        solve = manybody.sector_spectra

        def counted(cols, *a, **kw):
            calls.append(len(cols))
            return solve(cols, *a, **kw)

        monkeypatch.setattr(manybody, "sector_spectra", counted)
        run("disorder", None, dict(args, out_dir=str(tmp_path)))
        # all realizations in one call, one column per sector, no refinement
        assert calls == [2 * args["count"]]
        monkeypatch.undo()
        rows = read_csv_rows(str(tmp_path / "disorder" / "disorder.csv"))
        assert len(rows) == args["count"]
        # each delta is the bytes of its two sectors solved alone, with the
        # vacuum start and energy certification of ground_splittings
        for row in rows:
            spec = base.with_omega_atoms((float(row["omega_F_1"]), float(row["omega_F_2"])))
            even, odd = (manybody.sector_spectra([(spec, s)], 1, starts="vacuum",
                                                 energy_tol=[manybody._energy_tol(spec)])[0]
                         .eigenvalues[0] for s in manybody.SECTORS)
            assert row["delta"] == repr(abs(float(even) - float(odd)))

    def test_fit_beta_end_to_end(self, tmp_path):
        run("splitting-sweep", None,
            {"N": 2, "N_m": 1, "g_grid": [1.0, 1.2, 1.4, 1.6], "tol": 1e-2,
             "out_dir": str(tmp_path)})
        csv_path = tmp_path / "splitting-sweep" / "splitting_sweep.csv"
        run("fit-beta", None,
            {"records_csv": str(csv_path), "out_dir": str(tmp_path)})
        payload = json.loads((tmp_path / "fit-beta" / "fit_beta.json").read_text())
        assert payload["N"] == 2
        assert payload["bounds_ok"]
        assert 6.4 < payload["beta"] < 8.4
        assert payload["beta_closed_form"] == beta_exponent(2, 1)

    def test_fit_beta_of_one_atom_has_no_closed_form(self, tmp_path):
        # the closed form needs two atoms; a one-atom sweep still fits
        run("splitting-sweep", None,
            {"N": 1, "N_m": 1, "g_grid": [1.0, 1.2, 1.4, 1.6], "tol": 1e-2,
             "out_dir": str(tmp_path)})
        csv_path = tmp_path / "splitting-sweep" / "splitting_sweep.csv"
        run("fit-beta", None,
            {"records_csv": str(csv_path), "out_dir": str(tmp_path)})
        payload = json.loads((tmp_path / "fit-beta" / "fit_beta.json").read_text())
        assert payload["N"] == 1
        assert payload["point_count"] == 4
        assert payload["beta_closed_form"] is None

    def test_polariton_csv_schema(self, tmp_path):
        run("polariton", None,
            {"omega_k": 1.0, "omega_F": 1.0, "rabi_max": 0.8, "rabi_count": 5,
             "out_dir": str(tmp_path)})
        lines = (tmp_path / "polariton" / "polariton.csv").read_text().splitlines()
        assert lines[1] == "Omega,lower,upper,stable,determinant"
        assert len(lines) == 7
        assert lines[2].split(",")[3] == "true"
        assert lines[-1].split(",")[3] == "false"
        # the embedded manifest reference matches the manifest itself
        manifest = json.loads((tmp_path / "polariton" / "manifest.json").read_text())
        assert lines[0] == f"# manifest: {manifest['config_hash']}"

    def test_spectrum_command(self, tmp_path):
        run("spectrum", None,
            {"N": 2, "N_m": 1, "g": 0.5, "count": 4, "out_dir": str(tmp_path)})
        lines = (tmp_path / "spectrum" / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "N,N_m,g,sector,level,energy,residual"
        energies = [float(l.split(",")[5]) for l in lines[2:]]
        assert energies == sorted(energies)

    def test_overlap_command(self, tmp_path):
        run("overlap", None,
            {"N": 2, "N_m": 1, "g_grid": [0.6, 1.0], "out_dir": str(tmp_path)})
        payload = json.loads((tmp_path / "overlap" / "overlap.json").read_text())
        assert payload["beta_exponent"] == beta_exponent(2, 1)
        assert payload["beta_bounds_ok"]
        fids = [p["fidelity"] for p in payload["points"]]
        assert fids[1] > fids[0]
        assert payload["config_hash"]
        # one level of each parity sector per g, the ground pair of the points
        lines = (tmp_path / "overlap" / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "N,N_m,g,sector,level,energy,residual"
        rows = read_csv_rows(str(tmp_path / "overlap" / "spectrum.csv"))
        assert [(r["g"], r["sector"], r["level"]) for r in rows] == [
            (g, sec, "0") for g in ("0.6", "1.0") for sec in ("even", "odd")]
        assert [float(r["energy"]) for r in rows] == [
            e for p in payload["points"] for e in (p["E_even"], p["E_odd"])]

    def test_overlap_of_one_atom_has_no_closed_form(self, tmp_path):
        # like fit-beta: the closed form needs two atoms, the points do not
        assert main(["overlap", "--n", "1", "--n-m", "1", "--g-grid", "[0.5]",
                     "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "overlap" / "overlap.json").read_text())
        assert set(payload) == {"config_hash", "points", "beta_exponent", "beta_bounds_ok"}
        assert payload["beta_exponent"] is None and payload["beta_bounds_ok"] is None
        assert [p["g"] for p in payload["points"]] == [0.5]

    def test_fluxonium_command_with_wavefunctions(self, tmp_path):
        run("fluxonium", None,
            {"E_J": 3.0, "E_CJ": 1.0, "E_LJ": 0.15, "wavefunction_csv": True,
             "out_dir": str(tmp_path)})
        payload = json.loads((tmp_path / "fluxonium" / "fluxonium.json").read_text())
        assert payload["two_level_ok"]
        lines = (tmp_path / "fluxonium" / "wavefunctions.csv").read_text().splitlines()
        assert lines[1] == "phi,psi0,psi1"
        assert len(lines) == 2 + 801

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            run("nonsense", None, {})

    def test_main_error_path_returns_nonzero(self, capsys):
        code = main(["polariton", "--rabi-max", "-1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_main_happy_path(self, tmp_path):
        code = main([
            "polariton", "--omega-k", "1.0", "--omega-f", "1.0",
            "--rabi-max", "0.6", "--rabi-count", "3",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "polariton" / "polariton.csv").exists()

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLUXCHAIN_OUTDIR", str(tmp_path / "env"))
        run("polariton", None,
            {"omega_k": 1.0, "omega_F": 1.0, "rabi_max": 0.5, "rabi_count": 2})
        assert (tmp_path / "env" / "polariton" / "polariton.csv").exists()


class TestStrictConfig:
    BASE = {"N": 2, "N_m": 1, "g_grid": [1.0]}

    def test_bool_words_resolve_both_ways(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("N = 2\nN_m = 1\ng_grid = [1.0]\nrefine = no\n")
        assert resolve_config("splitting-sweep", parse_config_file(str(p)), {})[
            "refine"] is False
        for raw, want in (("false", False), ("Yes", True), (True, True), (0, False)):
            cfg = resolve_config("splitting-sweep", None, dict(self.BASE, refine=raw))
            assert cfg["refine"] is want
        for raw in ("maybe", 2, 1.0):
            with pytest.raises(ConfigError):
                resolve_config("splitting-sweep", None, dict(self.BASE, refine=raw))

    def test_bad_bool_flag_rejected(self, tmp_path, capsys):
        code = main(["splitting-sweep", "--n", "2", "--n-m", "1", "--g-grid", "[1.0]",
                     "--refine", "nope", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "'refine'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_failed_command_writes_nothing(self, tmp_path):
        with pytest.raises(ConfigError):
            run("polariton", None, {"omega_k": 1.0, "omega_F": 1.0, "rabi_max": 0.8,
                                    "rabi_count": -1, "out_dir": str(tmp_path)})
        assert not any(tmp_path.iterdir())

    def test_flags_and_file_keys_resolve_alike(self, tmp_path, capsys):
        argv = ["spectrum", "--n", "2", "--n-m", "1", "--g", "0.5"]
        for value, levels in (("3.0", 3), ("null", 10)):  # null: the default
            out = tmp_path / value
            assert main(argv + ["--count", value, "--out-dir", str(out / "flag")]) == 0
            cfg = out / "run.cfg"
            cfg.write_text(f"count = {value}\n")
            assert main(argv + ["--config", str(cfg),
                                "--out-dir", str(out / "file")]) == 0
            flag = (out / "flag" / "spectrum" / "spectrum.csv").read_bytes()
            assert flag == (out / "file" / "spectrum" / "spectrum.csv").read_bytes()
            assert len(flag.splitlines()) == 2 + levels
        capsys.readouterr()
        bad = tmp_path / "bad"
        assert main(argv + ["--count", "2.7", "--out-dir", str(bad)]) == 1
        assert "error: bad value for 'count'" in capsys.readouterr().err
        assert not bad.exists()

    @pytest.mark.parametrize("argv, key, reason", [
        (["overlap", "--n", "2", "--n-m", "1", "--g-grid", "[0.6]", "--levels", "40"],
         "levels", "exceeds the sector dimension 38"),
        (["spectrum", "--n", "2", "--n-m", "1", "--g", "0.5", "--count", "5000"],
         "count", "exceeds the full-space dimension 88"),
        (["spectrum", "--n", "2", "--n-m", "1", "--g", "0.5", "--count", "45",
          "--sector", "odd"], "count", "exceeds the sector dimension 44"),
        (["spectrum", "--n", "2", "--n-m", "1", "--g", "0.5", "--count", "0"],
         "count", "(expected an integer of at least 1)"),
    ])
    def test_count_out_of_range_names_its_key(self, argv, key, reason, tmp_path, capsys):
        # the library once refused these with a line naming its own m
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad value for '{key}'")
        assert err[0].endswith(reason)
        assert not out.exists()

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        argv = ["splitting-sweep", "--n", "2", "--n-m", "1", "--g-grid", "[1.0]"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = -3\n")
        for extra in (["--jobs", "0"], ["--config", str(cfg)]):
            out = tmp_path / "out"
            assert main(argv + extra + ["--out-dir", str(out)]) == 1
            assert "error: bad value for 'jobs'" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's generator once refused it with an error that named no key
        argv = ["disorder", "--n", "2", "--n-m", "1", "--g", "1.0", "--amplitude", "0.3",
                "--count", "2", "--seed", "-1", "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert re.fullmatch(r"error: .*\bseed\b.*\n", capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_non_finite_g_or_omega_f_rejected(self, tmp_path, capsys):
        # refused before any cutoff choice or solve, with explicit cutoffs
        # and with the defaults sized from g; a tolerance must be above 0
        spectrum = ["spectrum", "--n", "2", "--n-m", "1"]
        sweep = ["splitting-sweep", "--n", "2", "--n-m", "1", "--g-grid", "[1.0]"]
        junction = ["fluxonium", "--e-j", "3", "--e-cj", "1"]
        for argv, key in ((spectrum + ["--g", "nan", "--cutoffs", "[10]"], "g"),
                          (spectrum + ["--g", "inf", "--cutoffs", "[10]"], "g"),
                          (spectrum + ["--g", "nan"], "g"),
                          (spectrum + ["--g", "inf"], "g"),
                          (spectrum + ["--g", "1.0", "--omega-f", "nan"], "omega_F"),
                          (spectrum + ["--g", "1.0", "--omega-f", "inf"], "omega_F"),
                          (spectrum + ["--g", "1.0", "--tol", "NaN"], "tol"),
                          (sweep + ["--tol", "-1"], "tol"),
                          (sweep + ["--tol", "NaN"], "tol"),
                          (["overlap", "--n", "2", "--n-m", "1", "--g-grid", "[1.0]",
                            "--tol", "0"], "tol"),
                          (junction + ["--e-lj", "inf"], "E_LJ"),
                          (junction + ["--e-lj", "0.15", "--grid-half-width", "nan"],
                           "grid_half_width")):
            assert main(argv + ["--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(rf"error: .*\b{key}\b.*\n", err), err
        assert not any(tmp_path.iterdir())

    def test_sweep_writes_g_as_given(self, tmp_path):
        # two couplings that W_1 / (sqrt(N) w_1) would give back a bit off
        assert main(["splitting-sweep", "--n", "3", "--n-m", "1",
                     "--g-grid", "[0.65, 0.75]", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "splitting-sweep" / "splitting_sweep.csv").read_text()
        assert [r.split(",")[2] for r in rows.splitlines()[2:]] == ["0.65", "0.75"]

    def test_os_errors_exit_one(self, tmp_path, capsys):
        argv = ["spectrum", "--n", "2", "--n-m", "1", "--g", "0.5"]
        missing = tmp_path / "missing.cfg"
        assert main(argv + ["--config", str(missing),
                            "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        assert main(argv + ["--out-dir", str(blocker / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
        assert blocker.read_text() == "a regular file\n"

    def test_non_integral_ints_rejected(self):
        args = {"N": 2, "N_m": 1, "g": 0.5}
        assert resolve_config("spectrum", None, dict(args, count=3.0))["count"] == 3
        for bad in ({"count": 2.7}, {"count": True}, {"cutoffs": [4, 2.5]}):
            with pytest.raises(ConfigError):
                resolve_config("spectrum", None, dict(args, **bad))

    def test_enums_checked_before_output(self, tmp_path):
        for command, args in (
            ("spectrum", {"N": 2, "N_m": 1, "g": 0.5, "sector": "bogus"}),
            ("disorder", {"N": 2, "N_m": 1, "g": 1.0, "engine": "bogus"}),
        ):
            with pytest.raises(ConfigError):
                run(command, None, dict(args, out_dir=str(tmp_path)))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("n_modes, even_floor", [("1", "-2"), ("2", "0")])
    def test_even_floor_below_one_refused(self, n_modes, even_floor, tmp_path, capsys):
        # -2 once ran and was recorded in the manifest; 0 failed with an
        # error that named no key
        assert main(["spectrum", "--n", "2", "--n-m", n_modes, "--g", "0.5", "--count", "3",
                     "--even-floor", even_floor, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .*\beven_floor\b.*\n", err), err
        assert not any(tmp_path.iterdir())

    def test_empty_cutoffs_refused(self, tmp_path, capsys):
        # an empty list once fell back to the default cutoffs (29,) while
        # the manifest recorded "cutoffs": []
        argv = ["spectrum", "--n", "2", "--n-m", "1", "--g", "1", "--cutoffs", "[]"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: cutoffs length mismatch\n"
        assert not any(tmp_path.iterdir())


class TestChainSize:
    """Only a solve is refused for its size, by ``sector_spectra``; a spec,
    the analytic engine and a one-atom chain are not."""

    #: from_coupling(6, 6, 1.5): 511,056,000 states at the default cutoffs
    BIG = ["--n", "6", "--n-m", "6"]

    def test_analytic_ensemble_of_a_large_chain_runs(self, tmp_path):
        assert main(["disorder", *self.BIG, "--g", "1.5", "--engine", "analytic",
                     "--count", "10", "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "disorder" / "disorder_summary.json").read_text())
        assert math.isfinite(summary["mean"])

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--g", "1.5"],
        ["splitting-sweep", "--g-grid", "[1.5]"],
        ["overlap", "--g-grid", "[1.5]"],
    ], ids=lambda argv: argv[0])
    def test_solves_of_a_large_chain_refused_before_any_basis(self, argv, tmp_path,
                                                              monkeypatch, capsys):
        built = []
        init = manybody.BasisIndexer.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(manybody.BasisIndexer, "__init__", counted)
        assert main([argv[0], *self.BIG, *argv[1:], "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: sector of \d+ states, m = \d+: .* \d+ bytes, .*\n", err), err
        assert built == []
        assert not any(tmp_path.iterdir())

    def test_one_atom_spectrum(self, tmp_path):
        assert main(["spectrum", "--n", "1", "--n-m", "1", "--g", "0.5",
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv_rows(str(tmp_path / "spectrum" / "spectrum.csv"))
        energies = [float(r["energy"]) for r in rows]
        assert len(energies) == 10 and energies == sorted(energies)


# one small configuration per command, from the TestRun cases above
SMALL_RUNS = {
    "derive": dict(L1=1e-9, L2=1e-9, l_r=1e-6, c_r=4e-10, a=1e-3, N=5,
                   E_J=1e-24, E_CJ=3e-25),
    "fluxonium": {"E_J": 3.0, "E_CJ": 1.0, "E_LJ": 0.15, "wavefunction_csv": True},
    "polariton": {"omega_k": 1.0, "omega_F": 1.0, "rabi_max": 0.8, "rabi_count": 5},
    "spectrum": {"N": 2, "N_m": 1, "g": 0.5, "count": 4},
    "splitting-sweep": {"N": 2, "N_m": 1, "g_grid": [1.0, 1.2, 1.4, 1.6],
                        "tol": 1e-2},
    "overlap": {"N": 2, "N_m": 1, "g_grid": [0.6, 1.0]},
    "disorder": {"N": 2, "N_m": 1, "g": 1.0, "amplitude": 0.3, "count": 5,
                 "engine": "analytic", "seed": 17},
    "fit-beta": {},
}


def test_manifest_records_numpy_and_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    run("polariton", None, dict(SMALL_RUNS["polariton"], out_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "polariton" / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    assert manifest["fluxchain"] == __version__
    assert set(manifest["thread_env"]) == set(THREAD_ENV)
    assert manifest["thread_env"]["OMP_NUM_THREADS"] == "3"
    assert manifest["thread_env"]["OPENBLAS_NUM_THREADS"] is None


def small_run_args(command, tmp_path):
    """The ``SMALL_RUNS`` keys of ``command`` with an out_dir under tmp_path;
    fit-beta's records come from a small sweep run first."""
    args = dict(SMALL_RUNS[command], out_dir=str(tmp_path))
    if command == "fit-beta":
        run("splitting-sweep", None,
            dict(SMALL_RUNS["splitting-sweep"], out_dir=str(tmp_path / "sweep")))
        args["records_csv"] = str(
            tmp_path / "sweep" / "splitting-sweep" / "splitting_sweep.csv")
    return args


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_lists_the_files_written(command, tmp_path):
    assert run(command, None, small_run_args(command, tmp_path)) == 0
    out = tmp_path / command
    manifest = json.loads((out / "manifest.json").read_text())
    written = sorted(str(p) for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["artifacts"] == written
    chash = manifest["config_hash"]
    for path in map(Path, written):
        if path.suffix == ".csv":
            assert path.read_text().splitlines()[0] == f"# manifest: {chash}"
        elif path.name != "derive.json":
            assert json.loads(path.read_text())["config_hash"] == chash


class ReadRecorder(dict):
    """A resolved config that notes every key looked up in it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


#: (command, key) of a schema key that no code reads, with the reason it stays
UNREAD = {
    ("disorder", "jobs"): "the benchmark's cli_small passes --jobs to disorder "
                          "(ROADMAP item 1 drops it)",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_schema_key_is_read(command, tmp_path, monkeypatch):
    # the config twin of test_imports::test_no_unpassed_parameters: a key
    # that the command never reads would still be accepted and hashed
    args = small_run_args(command, tmp_path)
    recorders = []

    def recording(*a, **kw):
        recorders.append(ReadRecorder(resolve_config(*a, **kw)))
        return recorders[-1]

    monkeypatch.setattr(cli, "resolve_config", recording)
    assert run(command, None, args) == 0
    unread = {(command, key) for key in {**_COMMON, **COMMANDS[command][1]}
              if key not in recorders[0].read}
    assert unread == {k for k in UNREAD if k[0] == command}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_seed_and_jobs_only_where_read(command, tmp_path, capsys):
    takes = {"seed": {"disorder"}, "jobs": {"splitting-sweep", "disorder"}}
    for key, commands in takes.items():
        flag = ["--" + key, "2"]
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = 2\n")
        if command in commands:
            assert vars(_build_parser(command).parse_args([command, *flag]))[key] == 2
            others = {k: v for k, v in SMALL_RUNS[command].items() if k != key}
            assert resolve_config(command, parse_config_file(str(cfg)), others)[key] == 2
            continue
        code, out, err = _parser_output(main, [command, *flag], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"fluxchain: error: unrecognized arguments: --{key} 2"
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown key '{key}' (line 1) for command {command}\n")
        assert not out_dir.exists()


def test_csv_rows_of_every_value_type_keep_their_bytes(tmp_path):
    # plain floats, ints and strs go to csv.writer as they are, and every
    # other value through _fmt; either way each cell is _fmt's text
    rows = [[True, np.bool_(False), np.float64(0.1), 0.1, 3, np.int64(-4), "odd"],
            [False, np.bool_(True), np.float64(-2.5e-300), 1e16, -7, np.int64(2**40), ""],
            [np.float64("nan"), float("inf"), 0, np.float32(0.1), np.int32(5), "a,b", 1.0]]
    header = ["a", "b", "c", "d", "e", "f", "g"]
    path = tmp_path / "rows.csv"
    write_csv(str(path), header, rows, "hash")
    with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("# manifest: hash\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([cli._fmt(x) for x in row])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert path.read_text().splitlines()[2] == "true,false,0.1,0.1,3,-4,odd"


def test_readme_examples_resolve():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    seen = set()
    for line in block.replace("\\\n", " ").splitlines():
        if not line.startswith("fluxchain "):
            continue
        words = shlex.split(line)[1:]
        args = vars(_build_parser(words[0]).parse_args(words))
        command = args.pop("command")
        assert args.pop("config") is None
        resolve_config(command, None, args)
        seen.add(command)
    assert seen == set(COMMANDS)


def _parser_output(parse, argv, capsys):
    """(exit code, stdout, stderr) of one argparse run."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_top_level_help_lists_every_command(capsys):
    code, out, err = _parser_output(main, ["--help"], capsys)
    assert (code, err) == (0, "")
    assert " ".join(out.split()).startswith(
        "usage: fluxchain [-h] {" + ",".join(COMMANDS) + "} ...")


@pytest.mark.parametrize("argv, code", [
    (["-h", "spectrum"], 0),
    (["nonsense"], 2),
    (["spectrum", "--bogus", "1"], 2),
])
def test_top_level_usage_lists_every_command(argv, code, capsys):
    # help before the command word, an unknown command and an argument no
    # subparser takes all print the usage of the whole program
    got, out, err = _parser_output(main, argv, capsys)
    assert got == code
    assert " ".join((out + err).split()).startswith(
        "usage: fluxchain [-h] {" + ",".join(COMMANDS) + "} ...")


_EVERY = sorted(COMMANDS)


@pytest.mark.parametrize("argv, builds", [
    (["spectrum", "--help"], [["spectrum"]]),
    (["derive", "--l1"], [["derive"]]),
    (["derive", "--bogus", "1"], [["derive"], _EVERY]),
    (["--help"], [_EVERY]),
    (["-h", "spectrum"], [_EVERY]),
    (["--bogus", "derive"], [_EVERY, _EVERY]),
    (["nonsense"], [_EVERY]),
    ([], [_EVERY]),
])
def test_a_line_opening_with_a_command_builds_its_subparser_alone(argv, builds,
                                                                   monkeypatch, capsys):
    # only a line that may print the top-level usage needs every name: help,
    # a missing or unknown command, or words left over for the top level,
    # whose error the parser of every name prints
    built = []
    build = cli._build_parser

    def recorded(command, alone=False):
        parser = build(command, alone)
        built.append(sorted(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(cli, "_build_parser", recorded)
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()
    assert built == builds


def test_top_level_options_take_no_value():
    # main takes the first word that is not an option as the command, which
    # holds only while no top-level option takes a value
    options = [a for a in _build_parser(None)._actions if a.option_strings]
    assert options and all(a.nargs == 0 for a in options)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_help_lists_its_flags(command, capsys):
    code, out, err = _parser_output(main, [command, "--help"], capsys)
    assert (code, err) == (0, "")
    assert " ".join(out.split()).startswith(f"usage: fluxchain {command} [-h] [--config CONFIG]")
    keys = {**_COMMON, **COMMANDS[command][1]}
    assert set(re.findall(r"--[a-z0-9-]+", out)) == (
        {"--help", "--config"} | {"--" + key.replace("_", "-").lower() for key in keys})


@pytest.mark.parametrize("argv, usage, error", [
    ([], "fluxchain", "the following arguments are required: command"),
    (["nonsense"], "fluxchain", "argument command: invalid choice: 'nonsense' (choose from "
     + ", ".join(f"'{name}'" for name in COMMANDS) + ")"),
    (["spectrum", "--bogus", "1"], "fluxchain", "unrecognized arguments: --bogus 1"),
    (["--bogus", "derive"], "fluxchain", "unrecognized arguments: --bogus"),
    (["derive", "--l1"], "fluxchain derive", "argument --l1: expected one argument"),
])
def test_parser_errors(argv, usage, error, capsys):
    code, out, err = _parser_output(main, argv, capsys)
    assert (code, out) == (2, "")
    assert " ".join(err.split()).startswith(f"usage: {usage} [-h] ")
    assert err.splitlines()[-1] == f"{usage}: error: {error}"
