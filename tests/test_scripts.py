"""Smoke runs of the scripts under scripts/ at tiny sizes: each must exit
0 and print its CSV header, so an API change that breaks one shows here,
and bad input must exit 2 through argparse, with no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args):
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args, header", [
    ("run_ancilla_rates.py", ["--kappas", "20,50"],
     "kappa,click_rate,predicted_rate,relative_error"),
])
def test_script_runs(script, args, header):
    out = _run(script, args)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


@pytest.mark.parametrize("script, args, named", [
    ("run_ancilla_rates.py", ["--g-eff", "0"], "--g-eff"),
    ("run_ancilla_rates.py", ["--kappas", ""], "--kappas"),
    ("run_ancilla_rates.py", ["--kappas", "20,-5"], "--kappas"),
], ids=["g_eff_zero", "kappas_empty", "kappa_negative"])
def test_script_rejects_bad_input(script, args, named):
    out = _run(script, args)
    assert out.returncode == 2
    assert named in out.stderr and "Traceback" not in out.stderr
    assert out.stdout == ""


def test_rate_script_reports_a_circuit_with_no_eigenbasis():
    # kappa = g sits near an exceptional point: the guard's message, exit 3
    out = _run("run_ancilla_rates.py", ["--kappas", "1"])
    assert out.returncode == 3
    assert "no eigendecomposition" in out.stderr and "Traceback" not in out.stderr
    assert out.stdout == ""
