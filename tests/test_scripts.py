"""Smoke runs of the study scripts under ``scripts/`` at tiny sizes.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH`` and
must exit cleanly and write a non-empty output file.  The full-size grid of
``splitting_scaling.py`` is checked against the solve-size rule without a
solve.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluxchain import manybody
from fluxchain.cli import read_csv_rows
from fluxchain.manybody import (
    ManyBodySpec,
    _refined_cutoffs,
    ground_columns,
    lowest_spectrum,
    sector_spectra,
)

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("splitting_scaling.py", ["--sizes", "2"], "summary.json"),
    ("disorder_ensemble.py", ["--count", "3", "--g-grid", "1.2"], "ensemble.csv"),
    ("spectrum_vs_coupling.py", ["--points", "2", "--levels", "4", "--g-max", "0.6"],
     "spectrum.csv"),
]


def run_script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script, args, output", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(tmp_path, script, args, output):
    run_script(tmp_path, script, args)
    assert (tmp_path / output).stat().st_size > 0


def test_spectrum_vs_coupling_keeps_levels_of_either_sector(tmp_path):
    # at g = 1/9 the even sector holds six of the seven lowest levels; a
    # merge of five levels per sector lost level 6 (-1.3643)
    g = 0.1111111111111111
    run_script(tmp_path, "spectrum_vs_coupling.py",
               ["--points", "1", "--levels", "7", "--g-max", repr(g)])
    rows = read_csv_rows(str(tmp_path / "spectrum.csv"))
    want = lowest_spectrum(ManyBodySpec.from_coupling(5, 3, g, safety=2.5), "full", 7)
    got = [float(r["energy"]) for r in rows]
    np.testing.assert_allclose(got, want.eigenvalues, rtol=0, atol=1e-9)


def test_every_scaling_point_passes_the_solve_bytes(monkeypatch):
    # each base and refined ground solve of splitting_scaling.py is
    # admitted by sector_spectra, up to the N = 4, g = 1.0 refinement of
    # 6,176,768 states; the stand-in engine stops each call before a solve
    path = ROOT / "scripts" / "splitting_scaling.py"
    spec = importlib.util.spec_from_file_location("splitting_scaling", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    class Admitted(Exception):
        pass

    def admitted(self, columns):
        raise Admitted

    monkeypatch.setattr(manybody.HamiltonianEngine, "__init__", admitted)
    sizes = []
    for n, (grid, kw) in script.GRIDS.items():
        for g in grid:
            base = ManyBodySpec.from_coupling(n, n, g, **kw)
            for chain in (base, base.with_cutoffs(_refined_cutoffs(base.cutoffs))):
                with pytest.raises(Admitted):
                    sector_spectra(ground_columns(chain), 1)
                sizes.append(chain.dimension)
    assert max(sizes) == 6_176_768
