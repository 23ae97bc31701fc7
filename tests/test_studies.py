"""Runs of the checked-in studies, at tiny sizes.

A study is a ``key = value`` file, ``studies/<command>/*.cfg``, that the CLI
command its directory names runs (README, "Studies").  Each file must parse
and resolve against its command's schema, so a renamed or removed key fails
here.  The studies run through ``cli.main``, the disorder one at a reduced
count and the overlap one on a shorter grid; the full-size grids of the
splitting studies are checked against the solve-size rule without a solve.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from fluxchain import manybody
from fluxchain.asymptotics import beta_exponent
from fluxchain.cli import (
    COMMANDS,
    _spec_from_cfg,
    main,
    parse_config_file,
    read_csv_rows,
    resolve_config,
)
from fluxchain.manybody import (
    ManyBodySpec,
    _refined_cutoffs,
    ground_columns,
    lowest_spectrum,
    sector_spectra,
)

ROOT = Path(__file__).resolve().parent.parent
STUDIES = ROOT / "studies"
#: the keys a study passes on the command line, one run per value (README)
PER_RUN = {"disorder": {"g": 1.0}}


def run_study(tmp_path, command, name, *flags):
    """Exit code of ``command`` on the study file ``name``, flags after it."""
    return main([command, "--config", str(STUDIES / command / name), *flags,
                 "--out-dir", str(tmp_path)])


def test_overlap_study_writes_a_spectrum(tmp_path):
    assert run_study(tmp_path, "overlap", "n5.cfg", "--g-grid", "[0.3, 0.6]",
                     "--levels", "4") == 0
    assert (tmp_path / "overlap" / "spectrum.csv").stat().st_size > 0


def test_overlap_spectrum_keeps_levels_of_either_sector(tmp_path):
    # at g = 1/9 the even sector holds six of the seven lowest levels; a
    # merge of five levels per sector lost level 6 (-1.3643)
    g = 0.1111111111111111
    assert run_study(tmp_path, "overlap", "n5.cfg", "--g-grid", f"[{g!r}]",
                     "--levels", "7") == 0
    rows = read_csv_rows(str(tmp_path / "overlap" / "spectrum.csv"))
    want = lowest_spectrum(ManyBodySpec.from_coupling(5, 3, g, safety=2.5), "full", 7)
    got = sorted(float(r["energy"]) for r in rows)[:7]
    np.testing.assert_allclose(got, want.eigenvalues, rtol=0, atol=1e-9)


def test_levels_above_the_sector_dimension_refused(tmp_path, capsys):
    args = {"N": 2, "N_m": 1, "g_grid": [0.6]}
    spec = _spec_from_cfg(resolve_config("overlap", None, args), 0.6)
    levels = spec.dimension // 2 + 1
    assert main(["overlap", "--n", "2", "--n-m", "1", "--g-grid", "[0.6]",
                 "--levels", str(levels), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_every_study_config_resolves():
    # studies/ holds config files only, each in its command's directory
    files = sorted(p for p in STUDIES.rglob("*") if p.is_file())
    assert files
    for path in files:
        command = path.parent.name
        assert path.suffix == ".cfg" and path.parent.parent == STUDIES, path
        assert command in COMMANDS, path
        resolve_config(command, parse_config_file(str(path)), PER_RUN.get(command, {}))


@pytest.mark.parametrize("engine", ["exact", "analytic"])
def test_disorder_study_runs(tmp_path, engine):
    assert run_study(tmp_path, "disorder", "n2.cfg",
                     "--count", "3", "--g", "1.2", "--engine", engine) == 0
    assert (tmp_path / "disorder" / "disorder.csv").stat().st_size > 0


def test_splitting_study_runs_and_fits(tmp_path):
    assert run_study(tmp_path, "splitting-sweep", "n2.cfg") == 0
    csv = tmp_path / "splitting-sweep" / "splitting_sweep.csv"
    assert main(["fit-beta", "--records-csv", str(csv), "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit-beta" / "fit_beta.json").read_text())
    assert 6.4 < payload["beta"] < 8.4
    assert payload["beta_closed_form"] == beta_exponent(2, 2)


def test_a_refused_fit_keeps_the_sweep(tmp_path, capsys):
    # sweep and fit are two commands, so a fit refused for too few points
    # leaves the sweep's records and manifest on disk
    assert run_study(tmp_path, "splitting-sweep", "n2.cfg",
                     "--g-grid", "[1.0, 1.2, 1.4]") == 0
    sweep = tmp_path / "splitting-sweep"
    capsys.readouterr()
    assert main(["fit-beta", "--records-csv", str(sweep / "splitting_sweep.csv"),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert len(read_csv_rows(str(sweep / "splitting_sweep.csv"))) == 3
    assert (sweep / "manifest.json").stat().st_size > 0
    assert not (tmp_path / "fit-beta").exists()


def test_every_scaling_point_passes_the_solve_bytes(monkeypatch):
    # each base and refined ground solve of the splitting-sweep studies is
    # admitted by sector_spectra, up to the N = 4, g = 1.0 refinement of
    # 6,176,768 states; the stand-in engine stops each call before a solve
    class Admitted(Exception):
        pass

    def admitted(self, columns):
        raise Admitted

    monkeypatch.setattr(manybody.HamiltonianEngine, "__init__", admitted)
    sizes = []
    for path in sorted((STUDIES / "splitting-sweep").glob("*.cfg")):
        cfg = resolve_config("splitting-sweep", parse_config_file(str(path)), {})
        for g in cfg["g_grid"]:
            base = _spec_from_cfg(cfg, g)
            for chain in (base, base.with_cutoffs(_refined_cutoffs(base.cutoffs))):
                with pytest.raises(Admitted):
                    sector_spectra(ground_columns(chain), 1)
                sizes.append(chain.dimension)
    assert max(sizes) == 6_176_768
