"""Smoke runs of the study scripts under ``scripts/`` at tiny sizes.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH`` and
must exit cleanly and write a non-empty output file.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluxchain.cli import read_csv_rows
from fluxchain.manybody import ManyBodySpec, lowest_spectrum

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
