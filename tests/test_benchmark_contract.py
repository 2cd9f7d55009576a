"""What the benchmark harness in `perfbench/` relies on.

Its result is the last line of standard output, one JSON object; it
breaks if the package writes to stdout, if a function the tracer wraps
goes missing (the metrics that need it read null) or if the CLI stops
accepting an option its workloads pass.  Its set-up time counts every
module that `import bosetraj` loads.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bosetraj
from bosetraj import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(bosetraj.__file__).resolve().parent.parent


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    tr = tracer.Tracer()
    try:
        round_ = tr.install()
        assert round_.absent == frozenset()
    finally:
        tr.uninstall()


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_benchmark_argv_parses(monkeypatch, size):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for workload in workloads.WORKLOADS.values():
        for call in workload.calls(1, workload.sizes[size]):
            command, spec, _ = cli.parse_spec(list(call.argv))
            assert command == call.argv[0] and command in cli.COMMANDS
            flags = {a[2:].replace("-", "_") for a in call.argv if a.startswith("--")}
            assert flags <= set(spec), (workload.name, flags - set(spec))


@pytest.mark.parametrize("name", ["transition_scan", "small_systems", "meanfield_sweep"])
def test_traced_round_reads_every_layer_metric(monkeypatch, tmp_path, name):
    # one tiny round through the CLI under the tracer: every call exits as
    # its workload allows, and no per-layer metric reads null or non-finite
    # (a null metric makes the harness print no result)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name]
    tr = tracer.Tracer()
    round_ = tr.install()
    try:
        for i, call in enumerate(workload.calls(1, workload.sizes["tiny"])):
            code = cli.main([*call.argv, "--outdir", str(tmp_path / f"call{i}")])
            assert code in call.ok_exits, (name, call.argv[0], code)
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics([round_])
    bad = {k: v for k, v in metrics.items() if v is None or not math.isfinite(v)}
    assert not bad, (name, bad)


def test_traced_meanfield_sweep_counts_every_rk4_stage(monkeypatch, tmp_path):
    # each lockstep RK4 step calls meanfield_rhs once per stage, and the
    # checks after the last step take one call more: a stage that went
    # round it would leave gutzwiller.rhs_calls short, yet finite
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    workload = workloads.WORKLOADS["meanfield_sweep"]
    call, = workload.calls(1, workload.sizes["tiny"])
    tr = tracer.Tracer()
    round_ = tr.install()
    try:
        assert cli.main([*call.argv, "--outdir", str(tmp_path)]) in call.ok_exits
    finally:
        tr.uninstall()
    steps = json.loads((tmp_path / "manifest.json").read_text())["lockstep_steps"]
    assert steps > 0
    assert tracer.layer_metrics([round_])["gutzwiller.rhs_calls"] == 4 * steps + 1


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_small_systems_oracle_takes_the_dense_path(monkeypatch, tmp_path, size):
    # the workload's lindblad-check is sized for the oracle's dense expm:
    # a change that sends it back to expm_multiply fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS["small_systems"]
    call, = [c for c in workload.calls(1, workload.sizes[size])
             if c.argv[0] == "lindblad-check"]
    assert cli.main([*call.argv, "--outdir", str(tmp_path)]) in call.ok_exits
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["oracle_propagator"] == "dense"


def _tiny_runs(tmp_path):
    """(name, argv, accepted exit codes): every subcommand, and both
    ancilla schemes, at a size that runs in well under a second."""
    scan = tmp_path / "entropy-scan"
    return [
        ("trajectories", ["trajectories", "--L", "3", "--gamma", "1.0", "--M", "2",
                          "--t-max", "1.0", "--n-snapshots", "3"], {0}),
        ("entropy-scan", ["entropy-scan", "--L", "4", "--gamma-grid", "0.5,4",
                          "--M", "3", "--t-max", "0.5", "--renyi-orders", "2",
                          "--outdir", str(scan)], {0}),
        ("fit", ["fit", "--profile-csv", str(scan / "profile.csv")], {0}),
        ("gutzwiller", ["gutzwiller", "--gamma-grid", "0,6", "--n-max", "4",
                        "--dt", "0.01", "--t-max", "1.0"], {0}),
        ("lindblad-check", ["lindblad-check", "--L", "3", "--gamma", "1.0", "--M", "4",
                            "--snapshot-times", "0.5"], {0, cli.EXIT_COMPARISON}),
        ("ancilla", ["ancilla", "--scheme", "dephasing", "--M", "2",
                     "--t-max", "50.0"], {0}),
        ("ancilla", ["ancilla", "--scheme", "phaselock", "--M", "2",
                     "--kappa", "50.0", "--n-max", "2"], {0}),
    ]


def test_no_subcommand_writes_to_stdout(tmp_path, capfd):
    runs = _tiny_runs(tmp_path)
    assert {name for name, _, _ in runs} == set(cli.COMMANDS)
    for name, argv, accepted in runs:
        if "--outdir" not in argv:
            argv = [*argv, "--outdir", str(tmp_path / f"{name}-{len(argv)}")]
        code = cli.main(argv)
        out, err = capfd.readouterr()
        assert code in accepted, (name, err)
        assert out == "", name


def _linalg_modules_loaded_by(code: str):
    """The scipy linear-algebra modules loaded once `code` has run in a
    fresh interpreter, with its last expression's value."""
    code += ("\nprint(json.dumps([[m for m in ('scipy.linalg', 'scipy.sparse.linalg')\n"
             "                   if m in sys.modules], result]))\n")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", "import sys, json\n" + code],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_import_and_model_setup_leave_scipy_linalg_unloaded():
    loaded, _ = _linalg_modules_loaded_by(
        "import bosetraj\n"
        "from bosetraj import JumpChannels, build_basis\n"
        "from bosetraj.gutzwiller import SiteOperators\n"
        "for L in (3, 8):\n"
        "    JumpChannels(build_basis(L, L, 3), 1.0, 0.5)\n"
        "SiteOperators(8)\n"
        "result = None")
    assert loaded == []


def test_gutzwiller_sweep_leaves_scipy_linalg_unloaded():
    # the grid's RK4 and the branch's Newton steps need numpy alone
    loaded, iterations = _linalg_modules_loaded_by(
        "from bosetraj.gutzwiller import GwConfig, order_parameter_sweep\n"
        "sweep = order_parameter_sweep([0.0, 6.0], GwConfig(n_max=4, dt=0.01, t_max=1.0))\n"
        "result = sweep.counters['newton_iterations']")
    assert loaded == []
    assert iterations > 0
