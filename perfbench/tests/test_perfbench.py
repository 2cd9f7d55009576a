"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [k for k, v in tracer.LAYER_METRICS.items() if v[1] == "count"]


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def traced(name, seed=1):
    return bench.measure(name, seed, 0.01, trace=True, size="tiny")


def assert_metrics(result, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == [
        *tracer.LAYER_METRICS, bench.OVERHEAD]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_path(name):
    result = bench.measure(name, 1, 0.01, trace=False, size="tiny")
    assert_metrics(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_path_counts_repeat(name):
    first, second = traced(name), traced(name)
    assert_metrics(first, SPEC["per_layer"])
    assert all(v["value"] is not None for v in first["metrics"].values())
    assert {k: first["metrics"][k] for k in COUNTS} == {
        k: second["metrics"][k] for k in COUNTS}


def test_reference_scales_by_median_sample():
    ref = reference.Reference()
    ref.samples[:] = [0.2, 0.8, 0.5]
    assert ref.scale() == reference.NOMINAL_S / 0.5
    assert ref.time() > 0 and len(ref.samples) == 4


def test_traced_run_restores_the_package():
    import bosetraj.cli
    import bosetraj.trajectory
    before = (bosetraj.cli.build_basis, bosetraj.trajectory.step,
              bosetraj.trajectory.JumpChannels.__init__)
    traced("transition_scan")
    assert before == (bosetraj.cli.build_basis, bosetraj.trajectory.step,
                      bosetraj.trajectory.JumpChannels.__init__)


def test_missing_function_is_absent(monkeypatch):
    import bosetraj.gutzwiller
    monkeypatch.delattr(bosetraj.gutzwiller, "meanfield_rhs")
    metrics = traced("transition_scan")["metrics"]
    assert metrics["gutzwiller.rhs_calls"]["value"] is None
    assert metrics["gutzwiller.rhs_us"]["value"] is None
    assert metrics["gutzwiller.evolve_calls"]["value"] == 0
    assert metrics["trajectory.steps"]["value"] > 0


def test_launcher_prints_result_last(monkeypatch, capsys):
    wl = WORKLOADS["small_systems"]
    monkeypatch.setitem(wl.sizes, "full", wl.sizes["tiny"])
    assert run.main(["--workload", wl.name, "--seed", "3", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_launcher_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "small_systems",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
