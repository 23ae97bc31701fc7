"""Smoke runs of the study scripts under ``scripts/`` at tiny sizes.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH`` and
must exit cleanly and write a non-empty output file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("splitting_scaling.py", ["--sizes", "2"], "summary.json"),
    ("disorder_ensemble.py", ["--count", "3", "--g-grid", "1.2"], "ensemble.csv"),
    ("spectrum_vs_coupling.py", ["--points", "2", "--levels", "4", "--g-max", "0.6"],
     "spectrum.csv"),
]


@pytest.mark.parametrize("script, args, output", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(tmp_path, script, args, output):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / output).stat().st_size > 0
