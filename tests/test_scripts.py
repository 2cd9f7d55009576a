"""Smoke runs of the scripts under scripts/ at tiny sizes: each must exit
0 and print its CSV header, so an API change that breaks one shows here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("run_ancilla_rates.py", ["--kappas", "20,50", "--n-traj", "20"],
     "kappa,fitted_rate,predicted_rate,relative_error,n_clicks"),
])
def test_script_runs(script, args, header):
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
