"""End-to-end tests of the command-line entry point.

Every command is exercised on desk-scale inputs; output files are
parsed back and cross-checked, and reruns with identical inputs must be
byte-identical regardless of worker count.
"""

import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bosetraj import ancilla, cli, entropy, fock, gutzwiller, lindblad, trajectory
from bosetraj.cli import (
    EXIT_COMPARISON,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    resolve_rates,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(tmp_path, *args):
    outdir = tmp_path / "out"
    code = main([*args, "--outdir", str(outdir)])
    return code, outdir


def run_cli_config(tmp_path, *args):
    """run_cli, with a trailing dict written to a `--config` file."""
    if args and isinstance(args[-1], dict):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(args[-1]))
        args = (*args[:-1], "--config", str(cfg_file))
    return run_cli(tmp_path, *args)


def raiser(exc):
    def raise_exc(*args, **kwargs):
        raise exc
    return raise_exc


def corrupt_generator(monkeypatch):
    """Make every no-jump generator asymmetric: its (symmetric)
    eigendecomposition can no longer reconstruct it, so the engine's
    reconstruction guard trips."""
    original = trajectory.propagator
    monkeypatch.setattr(trajectory, "propagator", lambda G, hermitian: original(
        G + sp.triu(G, k=1), hermitian))


def count_jump_builds(monkeypatch):
    """Record the (kind, site) of every jump operator built from now on."""
    calls = []
    original = fock.build_jump
    monkeypatch.setattr(fock, "build_jump",
                        lambda *a: calls.append(a[:2]) or original(*a))
    return calls


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestResolveRates:
    def test_gamma_implies_unit_phaselock(self):
        assert resolve_rates({"gamma": 2.0}) == (1.0, 2.0)

    def test_explicit_rates(self):
        assert resolve_rates({"rate_phaselock": 2.0, "rate_dephase": 1.0}) == (2.0, 1.0)

    def test_both_rejected(self):
        with pytest.raises(ValueError):
            resolve_rates({"gamma": 1.0, "rate_phaselock": 2.0})


class TestTrajectories:
    def test_outputs_and_schema(self, tmp_path):
        code, outdir = run_cli(tmp_path, "trajectories", "--L", "3",
                               "--gamma", "1.0", "--M", "5",
                               "--t-max", "0.5", "--n-snapshots", "3")
        assert code == EXIT_OK
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["spec"]["L"] == 3
        assert manifest["jumps_phaselock_mean"] + manifest["jumps_dephase_mean"] \
            == pytest.approx(manifest["jump_count_mean"], rel=1e-12)
        assert manifest["intervals_mean"] >= manifest["jump_count_mean"]
        # the dense propagator and its reconstruction error, which the guard
        # compares with RECON_TOL
        assert manifest["propagator"] == "dense"
        assert 0.0 <= manifest["recon_error"] <= trajectory.RECON_TOL
        assert "krylov_dim_mean" not in manifest
        prof = read_csv(outdir / "profile.csv")
        assert set(prof[0]) == {"gamma", "L", "t", "l", "kind", "alpha",
                                "mean", "stderr", "M"}
        assert {int(r["l"]) for r in prof} == {1, 2}
        obs = read_csv(outdir / "observables.csv")
        assert set(obs[0]) == {"t", "trajectory_id", "observable_name",
                               "value_re", "value_im"}
        # total particle number reconstructed from the site densities
        by_key = {}
        for r in obs:
            if r["observable_name"].startswith("n_"):
                key = (r["t"], r["trajectory_id"])
                by_key[key] = by_key.get(key, 0.0) + float(r["value_re"])
        for tot in by_key.values():
            assert tot == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("rates, gamma", [(("0", "1"), -1.0), (("2", "3"), 1.5)],
                             ids=["no_phaselock", "both"])
    def test_profile_records_the_reduced_dephasing(self, tmp_path, rates, gamma):
        # gamma = Gamma / Lambda, and -1.0 where Lambda = 0 leaves it undefined
        code, outdir = run_cli(tmp_path, "trajectories", "--L", "3", "--M", "2",
                               "--t-max", "0.5", "--rate-phaselock", rates[0],
                               "--rate-dephase", rates[1])
        assert code == EXIT_OK
        prof = read_csv(outdir / "profile.csv")
        assert prof and all(float(r["gamma"]) == gamma for r in prof)

    def test_validation_error_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, "trajectories", "--initial-state", "nope")
        assert code == EXIT_VALIDATION

    def test_guard_exit_code(self, tmp_path, monkeypatch):
        corrupt_generator(monkeypatch)
        code, _ = run_cli(tmp_path, "trajectories", "--L", "3",
                          "--gamma", "1.0", "--M", "1", "--t-max", "5.0")
        assert code == EXIT_GUARD

    @pytest.mark.parametrize("patched", [
        lambda psi, l, basis=None: np.array([1.2, -0.2]),  # corrupted spectrum
        raiser(np.linalg.LinAlgError("SVD did not converge")),
    ], ids=["corrupted_spectrum", "linalg_error"])
    def test_numeric_failures_exit_guard(self, tmp_path, monkeypatch, patched):
        monkeypatch.setattr(entropy, "schmidt_spectrum", patched)
        code, _ = run_cli(tmp_path, "trajectories", "--L", "2", "--gamma",
                          "1.0", "--M", "1", "--t-max", "0.1",
                          "--n-snapshots", "2")
        assert code == EXIT_GUARD

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        # a programming error is neither validation nor a numeric guard
        monkeypatch.setattr(cli, "average_profile", raiser(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            run_cli(tmp_path, "trajectories", "--L", "2", "--gamma", "1.0",
                    "--M", "1", "--t-max", "0.1", "--n-snapshots", "2")

    def test_manifest_written_before_compute(self, tmp_path, monkeypatch):
        corrupt_generator(monkeypatch)
        code, outdir = run_cli(tmp_path, "trajectories", "--L", "3",
                               "--gamma", "1.0", "--M", "1", "--t-max", "5.0")
        assert code == EXIT_GUARD
        assert (outdir / "manifest.json").exists()


class TestDeterminism:
    def test_byte_identical_rerun_and_worker_invariance(self, tmp_path):
        args = ["trajectories", "--L", "3", "--gamma", "0.5", "--M", "4",
                "--t-max", "0.4", "--n-snapshots", "2", "--seed", "7"]
        _, out1 = run_cli(tmp_path / "a", *args)
        _, out2 = run_cli(tmp_path / "b", *args)
        _, out3 = run_cli(tmp_path / "c", *args, "--workers", "2")
        for name in ("profile.csv", "observables.csv"):
            b1 = (out1 / name).read_bytes()
            assert b1 == (out2 / name).read_bytes()
            assert b1 == (out3 / name).read_bytes()

    def test_meanfield_sweep_reruns_byte_identical_in_one_process(self, tmp_path,
                                                                  monkeypatch):
        # the benchmark's gutzwiller argv twice: the first run builds the
        # cached generators, the second reuses them and must write the same
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        workload = workloads.WORKLOADS["meanfield_sweep"]
        call, = workload.calls(1, workload.sizes["full"])
        for cached in (gutzwiller._generator, gutzwiller._upper_generator,
                       gutzwiller._symmetric_maps):
            cached.cache_clear()
        _, out1 = run_cli(tmp_path / "a", *call.argv)
        _, out2 = run_cli(tmp_path / "b", *call.argv)
        for name in ("sweep.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lanczos_counters_repeat_across_workers(self, tmp_path):
        # L = 7 (dim 1520) runs on the Lanczos propagator: its basis
        # sizes reach the manifest, identical for any worker count
        args = ["entropy-scan", "--L", "7", "--gamma-grid", "0.5,8", "--M", "3",
                "--t-max", "0.3", "--seed", "5"]
        _, out1 = run_cli(tmp_path / "a", *args)
        _, out2 = run_cli(tmp_path / "b", *args, "--workers", "2")
        for name in ("manifest.json", "profile.csv", "fits.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for c in json.loads((out1 / "manifest.json").read_text())["counters_by_gamma"]:
            assert c["propagator"] == "lanczos" and "recon_error" not in c
            assert 1 <= c["krylov_dim_mean"] <= c["krylov_dim_max"] <= trajectory.KRYLOV_MAX
            assert 0 <= c["reorth_reruns"] <= 3 * c["intervals_mean"]

    def test_manifest_counts_the_reorthogonalised_reruns(self, tmp_path, monkeypatch):
        # with no orthogonality loss tolerated every Lanczos interval is
        # rebuilt, and the manifest counts each one
        monkeypatch.setattr(trajectory, "ORTHO_TOL", -1.0)
        _, out = run_cli(tmp_path, "entropy-scan", "--L", "7", "--gamma-grid", "8",
                         "--M", "2", "--t-max", "0.1", "--seed", "5")
        c, = json.loads((out / "manifest.json").read_text())["counters_by_gamma"]
        assert c["reorth_reruns"] == 2 * c["intervals_mean"] > 0


class TestEntropyScanAndFit:
    def test_scan_fits_and_refit_roundtrip(self, tmp_path):
        code, outdir = run_cli(tmp_path, "entropy-scan", "--L", "4",
                               "--gamma-grid", "0.5,4.0", "--M", "20",
                               "--t-max", "2.0", "--renyi-orders", "2")
        assert code == EXIT_OK
        fits = json.loads((outdir / "fits.json").read_text())
        assert {(f["gamma"], f["kind"]) for f in fits} == {
            (0.5, "vn"), (0.5, "renyi"), (4.0, "vn"), (4.0, "renyi")}
        manifest = json.loads((outdir / "manifest.json").read_text())
        counters = manifest["counters_by_gamma"]
        assert [c["gamma"] for c in counters] == [0.5, 4.0]
        for c in counters:
            assert c["jumps_phaselock_mean"] + c["jumps_dephase_mean"] \
                == pytest.approx(c["jump_count_mean"], rel=1e-12)
            assert "krylov_dim_mean" not in c     # dim 35: dense propagator
            assert "reorth_reruns" not in c
            assert c["propagator"] == "dense"
            assert 0.0 <= c["recon_error"] <= trajectory.RECON_TOL
        # a standalone re-fit of the emitted profile reproduces the fits
        code2, outdir2 = run_cli(tmp_path / "refit", "fit",
                                 "--profile-csv", str(outdir / "profile.csv"))
        assert code2 == EXIT_OK
        refits = json.loads((outdir2 / "fits.json").read_text())
        key = lambda f: (f["gamma"], f["kind"], f["alpha"] or 0.0)
        for a, b in zip(sorted(fits, key=key), sorted(refits, key=key)):
            assert a["c"] == pytest.approx(b["c"], rel=1e-12, abs=1e-12)
            assert a["s0"] == pytest.approx(b["s0"], rel=1e-12, abs=1e-12)

    def test_scan_builds_unit_jumps_once(self, tmp_path, monkeypatch):
        # the bonds once per scan; the diagonal dephasing channels are
        # read off the occupation table, with no operator built
        calls = count_jump_builds(monkeypatch)
        code, _ = run_cli(tmp_path, "entropy-scan", "--L", "4", "--M", "2",
                          "--gamma-grid", "0.5,4.0,8.0", "--t-max", "0.5")
        assert code == EXIT_OK
        assert len(calls) == len(set(calls)) == 4 - 1
        assert {kind for kind, _ in calls} == {fock.JumpKind.PHASE_LOCK}

    @pytest.mark.parametrize("ls,window", [
        ((1, 2, 3, 4, 5), ("--fit-l-min", "3", "--fit-l-max", "3")),
        ((2, 4), ()),
        ((1, 2, 4, 5), ("--fit-l-min", "2", "--fit-l-max", "4"))],
        ids=["one_cut", "mirror_rows", "mirror_window"])
    def test_fit_rejects_a_degenerate_window_before_its_manifest(self, tmp_path, ls,
                                                                 window):
        # one cut, or only the mirror cuts l and L - l among the profile's
        # rows, cannot fix a slope: exit 2 and no output directory
        path = tmp_path / "profile.csv"
        cli.write_csv(path, cli.PROFILE_HEADER,
                      [(0.5, 6, 1.0, l, "vn", "", 0.3, 0.01, 10) for l in ls])
        code, outdir = run_cli(tmp_path, "fit", "--profile-csv", str(path), *window)
        assert code == EXIT_VALIDATION
        assert not outdir.exists()

    def test_fit_rejects_a_profile_that_repeats_a_cut(self, tmp_path):
        # two copies of one profile would count every cut twice and shrink
        # the standard errors by sqrt(2)
        path = tmp_path / "profile.csv"
        rows = [(0.5, 6, 1.0, l, "renyi", 2.0, 0.3 + 0.1 * l, 0.01, 10) for l in range(1, 6)]
        cli.write_csv(path, cli.PROFILE_HEADER, rows + rows)
        code, outdir = run_cli(tmp_path, "fit", "--profile-csv", str(path))
        assert code == EXIT_VALIDATION
        assert not outdir.exists()

    def test_five_sites_fit_with_the_default_window(self, tmp_path):
        code, outdir = run_cli(tmp_path, "entropy-scan", "--L", "5", "--gamma-grid", "1",
                               "--M", "2", "--t-max", "0.2")
        assert code == EXIT_OK
        fit, = json.loads((outdir / "fits.json").read_text())
        assert (fit["l_min"], fit["l_max"]) == (1, 4)

    def test_empty_renyi_orders_fit_only_von_neumann(self, tmp_path):
        # unlike an empty snapshot list, an empty order list asks for no
        # Renyi profile, not for a default
        code, outdir = run_cli(tmp_path, "entropy-scan", "--L", "4", "--M", "2",
                               "--gamma-grid", "1", "--t-max", "0.1", "--renyi-orders=")
        assert code == EXIT_OK
        fits = json.loads((outdir / "fits.json").read_text())
        assert [f["kind"] for f in fits] == ["vn"]

    def test_scan_requires_grid(self, tmp_path):
        code, _ = run_cli(tmp_path, "entropy-scan", "--L", "4", "--M", "5")
        assert code == EXIT_VALIDATION

    def test_fit_requires_existing_csv(self, tmp_path):
        code, _ = run_cli(tmp_path, "fit", "--profile-csv",
                          str(tmp_path / "missing.csv"))
        assert code == EXIT_VALIDATION


class TestGutzwiller:
    def test_sweep_outputs(self, tmp_path):
        code, outdir = run_cli(tmp_path, "gutzwiller",
                               "--gamma-grid", "0.5,6.0",
                               "--n-max", "6", "--dt", "0.01",
                               "--t-max", "80.0")
        assert code == EXIT_OK
        rows = read_csv(outdir / "sweep.csv")
        assert [r["gamma"] for r in rows] == ["0.5", "6.0"]
        assert float(rows[0]["alpha_abs"]) > 0.5
        assert float(rows[1]["alpha_abs"]) < 1e-3
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert 0.5 <= manifest["gamma_c"] <= 6.0

    def test_manifest_counts_the_work(self, tmp_path):
        code, outdir = run_cli(tmp_path, "gutzwiller", "--gamma-grid", "0,3,6",
                               "--n-max", "8", "--dt", "0.01", "--t-max", "10")
        assert code == EXIT_OK
        manifest = json.loads((outdir / "manifest.json").read_text())
        # one batch of three grid points, of which only gamma = 0 settles; the
        # branch is then continued by Newton from gamma = 3 to where it vanishes
        assert (manifest["evolves"], manifest["rk4_steps"], manifest["unconverged"],
                manifest["lockstep_steps"], manifest["newton_iterations"]) == (
                    3, 2535, 2, 1000, 98)
        assert manifest["branch_end"] == "vanishing"
        assert abs(manifest["gamma_c"] - 4.51) < 0.01

    def test_window_past_the_run_does_not_overflow(self, tmp_path):
        # 1/Lambda spans 1e19 steps of dt: the steady-state window is
        # capped at the run's 10 steps
        code, outdir = run_cli(tmp_path, "gutzwiller", "--gamma-grid", "1",
                               "--rate-phaselock", "1e-9", "--dt", "1e-10",
                               "--t-max", "1e-9", "--n-max", "2")
        assert code == EXIT_OK
        assert json.loads((outdir / "manifest.json").read_text())["rk4_steps"] == 10

    @pytest.mark.parametrize("flag, value, field", [
        ("--t-max", "-1", "t_max"), ("--dt", "inf", "dt"), ("--dt", "nan", "dt"),
        ("--t-max", "nan", "t_max"), ("--rate-phaselock", "-1", "rate_phaselock"),
        ("--rate-phaselock", "0", "rate_phaselock"), ("--n-max", "0", "n_max"),
        ("--gamma-grid", "-1,2", "gamma")])
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys,
                                                flag, value, field):
        code, _ = run_cli(tmp_path, "gutzwiller", "--gamma-grid", "0,6",
                          "--n-max", "4", "--t-max", "0.1", f"{flag}={value}")
        assert code == EXIT_VALIDATION
        assert field in capsys.readouterr().err


class TestLindbladCheck:
    def test_passing_comparison(self, tmp_path):
        code, outdir = run_cli(tmp_path, "lindblad-check", "--L", "2",
                               "--gamma", "1.0", "--M", "200",
                               "--snapshot-times", "0.3,0.6")
        assert code == EXIT_OK
        report = json.loads((outdir / "comparison.json").read_text())
        assert report["passed"]
        assert report["max_abs_z"] < 3.0
        assert set(report["z_scores"]) == {"n_1", "n_2", "hop_1_2"}
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["jumps_phaselock_mean"] + manifest["jumps_dephase_mean"] \
            == pytest.approx(manifest["jump_count_mean"], rel=1e-12)
        assert manifest["propagator"] == "dense"
        assert 0.0 <= manifest["recon_error"] <= trajectory.RECON_TOL
        assert manifest["oracle_propagator"] == "dense"
        assert 0.0 <= manifest["oracle_trace_error"] < 1e-12

    def test_builds_each_jump_once(self, tmp_path, monkeypatch):
        # the trajectories and the Lindblad generator share the sector's
        # unit-rate jump operators
        calls = count_jump_builds(monkeypatch)
        code, _ = run_cli(tmp_path, "lindblad-check", "--L", "3", "--gamma", "1.0",
                          "--M", "20", "--snapshot-times", "0.3")
        assert code in (EXIT_OK, EXIT_COMPARISON)
        # the L - 1 bonds; the oracle's per-channel list, which only its
        # matrix-form rhs reads, is never built
        assert len(calls) == len(set(calls)) == 3 - 1


class TestAncilla:
    def test_dephasing_scheme_outputs(self, tmp_path):
        code, outdir = run_cli(tmp_path, "ancilla", "--scheme", "dephasing",
                               "--M", "3", "--t-max", "10.0", "--seed", "1")
        assert code == EXIT_OK
        outcomes = json.loads((outdir / "outcomes.json").read_text())
        assert len(outcomes) == 3
        assert all({"trajectory", "collapsed_to", "dominant_weight",
                    "click_count"} <= set(o) for o in outcomes)
        clicks = read_csv(outdir / "clicks.csv")
        assert all(c["channel"] == "ancilla_decay" for c in clicks)

    def test_phaselock_scheme_outputs(self, tmp_path):
        code, outdir = run_cli(tmp_path, "ancilla", "--scheme", "phaselock",
                               "--M", "3", "--kappa", "100.0",
                               "--t-max", "50.0", "--n-max", "2")
        assert code == EXIT_OK
        outcomes = json.loads((outdir / "outcomes.json").read_text())
        assert len(outcomes) == 3
        assert all("final_entropy" in o for o in outcomes)

    def test_unknown_scheme(self, tmp_path):
        code, _ = run_cli(tmp_path, "ancilla", "--scheme", "bogus")
        assert code == EXIT_VALIDATION

    def test_dephasing_reads_n_max(self, tmp_path, monkeypatch):
        # both trajectories run as one batch, at the given cutoff
        cutoffs = []
        run = ancilla.run_dephasing_circuits
        monkeypatch.setattr(ancilla, "run_dephasing_circuits",
                            lambda cfg, *a, **k: cutoffs.append(cfg.n_max) or run(cfg, *a, **k))
        code, outdir = run_cli(tmp_path, "ancilla", "--scheme", "dephasing", "--M", "2",
                               "--n-max", "6", "--t-max", "10.0")
        assert code == EXIT_OK and cutoffs == [6]
        outcomes = json.loads((outdir / "outcomes.json").read_text())
        assert {o["collapsed_to"] for o in outcomes} <= {1, 3}

    @pytest.mark.parametrize("scheme,args,hamiltonian,expected", [
        ("dephasing", ("--t-max", "10.0"),
         ancilla.dephasing_hamiltonian, "dense"),
        ("phaselock", ("--kappa", "100.0", "--t-max", "50.0", "--n-max", "2"),
         ancilla.phaselock_hamiltonian, "dense"),
        # the n = 4 block of i H_nh is at an exceptional point for kappa = 4 g
        ("dephasing", ("--kappa", "4.0", "--t-max", "3.0"),
         ancilla.dephasing_hamiltonian, "expm"),
    ], ids=["dephasing", "phaselock", "dephasing_expm"])
    def test_manifest_counters_match_the_event_loop(self, tmp_path, scheme, args,
                                                    hamiltonian, expected):
        M = 3
        code, outdir = run_cli(tmp_path, "ancilla", "--scheme", scheme, "--M", str(M),
                               "--seed", "4", *args)
        assert code == EXIT_OK
        manifest = json.loads((outdir / "manifest.json").read_text())
        # recount from the event loop itself, with the config the run recorded
        spec = manifest["spec"]
        if scheme == "dephasing":         # kappa = 500 g^2 by default
            cfg = ancilla.CircuitConfig(g_eff=1.0, kappa=spec.get("kappa", 500.0),
                                        t_max=spec["t_max"], seed=4, n_max=4)
            psi = np.kron(ancilla.superposition_cavity_state(1, 3, 4), [1.0, 0.0])
        else:
            cfg = ancilla.CircuitConfig(g_eff=1.0, kappa=spec["kappa"],
                                        t_max=spec["t_max"], seed=4, n_max=2)
            psi = np.zeros(18, dtype=complex)
            psi[(1 * 3 + 1) * 2] = 1.0                   # |1,1>|g>
        events = [ev for i in range(M)
                  for round_ in ancilla._unravel_circuits(hamiltonian, cfg, psi, (i,))
                  for ev in round_]
        clicks = sum(ev.channel is not None for ev in events)
        assert clicks == len(read_csv(outdir / "clicks.csv"))
        assert {k: manifest[k] for k in ("propagator", "intervals", "clicks")} == {
            "propagator": expected, "intervals": len(events), "clicks": clicks}
        H, sm = hamiltonian(cfg)
        H_nh = H - 0.5j * ancilla.DECAY_SCALE * cfg.kappa * (sm.conj().T @ sm)
        assert isinstance(trajectory.propagator(1j * H_nh, hermitian=False),
                          trajectory.ExpmExp if expected == "expm" else trajectory.DenseExp)

    @pytest.mark.parametrize("scheme", ["dephasing", "phaselock"])
    def test_reruns_write_identical_manifests(self, tmp_path, scheme):
        args = ("ancilla", "--scheme", scheme, "--M", "4", "--t-max", "20.0",
                "--seed", "9")
        code_a, out_a = run_cli(tmp_path / "a", *args)
        code_b, out_b = run_cli(tmp_path / "b", *args)
        assert code_a == code_b == EXIT_OK
        for name in ("manifest.json", "clicks.csv", "outcomes.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert json.loads((out_a / "manifest.json").read_text())["intervals"] >= 4


class TestValidateBeforeManifest:
    @pytest.mark.parametrize("args", [
        ("gutzwiller", "--t-max", "-1"),
        ("gutzwiller", "--rate-phaselock", "0"),
        ("gutzwiller", "--gamma-grid=-1"),
        ("entropy-scan", "--L", "4", "--M", "2", "--gamma-grid=-1"),
        ("ancilla", "--kappa=-1"),
        ("ancilla", "--scheme", "nope"),
        ("trajectories", "--L", "3", "--initial-state", "nope"),
        ("lindblad-check", "--L", "3", "--initial-state", "nope"),
        ("trajectories", "--L", "3", "--snapshot-times=-1,0.5"),
        ("trajectories", "--L", "3", "--snapshot-times", "nan,0.5"),
        ("lindblad-check", "--L", "3", "--M", "4", "--snapshot-times=-1,1"),
        ("trajectories", "--L", "3", "--M", "0"),
        ("lindblad-check", "--L", "3", "--M", "1", "--snapshot-times", "0.5"),
        ("entropy-scan", "--L", "4", "--M", "2", "--t-max", "0.1",
         "--gamma-grid", "1", "--renyi-orders", "1"),
        ("entropy-scan", "--L", "4", "--M", "2", "--t-max", "0.1",
         "--gamma-grid", "1", "--fit-l-min", "5"),
        ("ancilla", "--kappa", "nan"),
        ("ancilla", "--t-max=-1"),
        ("ancilla", "--t-max", "nan"),
        ("ancilla", "--scheme", "phaselock", "--n-max", "0"),
        ("ancilla", "--n1", "-1"),
        ("ancilla", "--n1", "3", "--n2", "3"),
        ("lindblad-check", "--L", "7", "--M", "2", "--snapshot-times", "0.1"),
        ("ancilla", "--rate-dephase", "0", "--M", "2"),
        ("ancilla", "--scheme", "phaselock", "--g-eff", "0", "--M", "2"),
        ("entropy-scan", "--L", "3", "--M", "2", "--gamma-grid", "1", "--t-max", "0.5"),
        ("entropy-scan", "--L", "2", "--M", "2", "--gamma-grid", "1", "--t-max", "0.5"),
        ("entropy-scan", "--L", "4", "--M", "2", "--t-max", "0.1", "--gamma-grid", "1",
         "--renyi-orders", "2,2"),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "0.1", "--workers", "0"),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "0.1", "--workers=-3"),
        ("entropy-scan", "--L", "4", "--M", "2", "--gamma-grid", "1", "--t-max", "0.1",
         "--workers", "0"),
        ("lindblad-check", "--L", "2", "--M", "4", "--snapshot-times", "0.1",
         "--workers=-1"),
        ("gutzwiller", "--alpha-threshold", "nan"),
        ("gutzwiller", "--alpha-threshold=-1"),
        ("gutzwiller", "--alpha-threshold", "0"),
        ("gutzwiller", "--gamma-grid", ""),
        ("gutzwiller", {"gamma_grid": []}),
        ("gutzwiller", "--gamma-grid", "1,inf"),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "1", "--snapshot-times", "5"),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "1", "--n-snapshots", "0"),
        ("ancilla", "--n-max", "2", "--n2", "3", "--M", "2"),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "0.1", "--seed=-1"),
        ("ancilla", "--M", "2", "--t-max", "1", "--seed=-3"),
        ("entropy-scan", "--L", "4", "--M", "2", "--t-max", "0.1", "--gamma-grid", "1",
         "--renyi-orders", "inf"),
        ("entropy-scan", "--L", "4", "--M", "2", "--t-max", "0.1", "--gamma-grid", "1",
         "--renyi-orders", "2,nan"),
        # options the command would not read
        ("entropy-scan", "--L", "4", "--M", "2", "--gamma-grid", "1", "--t-max", "0.1",
         "--snapshot-times", "5"),
        ("ancilla", "--scheme", "dephasing", "--M", "5", "--t-max", "50", "--gamma", "3",
         "--L", "9"),
        ("ancilla", "--scheme", "dephasing", "--M", "2", "--t-max", "50", "--h-eff", "5"),
        ("ancilla", "--scheme", "phaselock", "--M", "2", "--n1", "2"),
        ("lindblad-check", "--L", "3", "--M", "4", "--snapshot-times", "0.5",
         "--t-max", "5"),
        ("gutzwiller", "--gamma-grid", "0,6", {"seed": 3}),
        ("fit", "--profile-csv", "profile.csv", "--M", "3"),
        # options the command would read only without the other
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "1", "--snapshot-times", "0.5",
         "--n-snapshots", "7"),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "1",
         {"snapshot_times": [0.5], "n_snapshots": 7}),
        # an empty list is not the default grid
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "1", "--snapshot-times="),
        ("trajectories", "--L", "3", "--M", "2", "--t-max", "1", {"snapshot_times": []}),
        ("lindblad-check", "--L", "3", "--M", "4", "--snapshot-times="),
        ("lindblad-check", "--L", "3", "--M", "4", {"snapshot_times": []}),
    ], ids=["gutzwiller-t_max", "gutzwiller-rate_phaselock", "gutzwiller-gamma",
            "entropy_scan-gamma", "ancilla-kappa", "ancilla-scheme",
            "trajectories-initial_state", "lindblad_check-initial_state",
            "trajectories-negative_snapshot", "trajectories-nan_snapshot",
            "lindblad_check-negative_snapshot", "trajectories-M", "lindblad_check-M",
            "entropy_scan-renyi_order", "entropy_scan-fit_window",
            "ancilla-kappa_nan", "ancilla-negative_t_max", "ancilla-nan_t_max",
            "ancilla-n_max", "ancilla-negative_level", "ancilla-equal_levels",
            "lindblad_check-oracle_dim", "ancilla-zero_rate_dephase",
            "ancilla-zero_g_eff", "entropy_scan-mirror_window",
            "entropy_scan-two_sites", "entropy_scan-repeated_renyi_order",
            "trajectories-zero_workers", "trajectories-negative_workers",
            "entropy_scan-zero_workers", "lindblad_check-negative_workers",
            "gutzwiller-nan_threshold", "gutzwiller-negative_threshold",
            "gutzwiller-zero_threshold", "gutzwiller-empty_grid",
            "gutzwiller-empty_config_grid", "gutzwiller-inf_gamma",
            "trajectories-snapshot_after_t_max", "trajectories-zero_snapshots",
            "ancilla-dephasing_n_max", "trajectories-negative_seed",
            "ancilla-negative_seed", "entropy_scan-infinite_renyi_order",
            "entropy_scan-nan_renyi_order", "entropy_scan-grid",
            "ancilla-dephasing_chain_options", "ancilla-dephasing_h_eff",
            "ancilla-phaselock_n1", "lindblad_check-t_max", "gutzwiller-config_seed",
            "fit-M", "trajectories-snapshot_times_and_count",
            "trajectories-config_snapshot_times_and_count",
            "trajectories-empty_snapshot_times", "trajectories-config_empty_snapshot_times",
            "lindblad_check-empty_snapshot_times",
            "lindblad_check-config_empty_snapshot_times"])
    def test_rejected_run_leaves_no_manifest(self, tmp_path, args):
        code, outdir = run_cli_config(tmp_path, *args)
        assert code == EXIT_VALIDATION
        assert not outdir.exists()

    @pytest.mark.parametrize("args,named", [
        (("ancilla", "--rate-dephase", "0", "--M", "2"), "rate_dephase"),
        (("ancilla", "--rate-dephase", "0", "--kappa", "500", "--M", "2"), "rate_dephase"),
        (("ancilla", "--scheme", "phaselock", "--g-eff", "0", "--M", "2"), "g_eff"),
        # with kappa and t_max given, rate_dephase fills no default, so
        # the dephasing scheme does not read it, zero or not
        (("ancilla", "--rate-dephase", "0", "--kappa", "500", "--t-max", "0.5", "--M", "2"),
         "rate_dephase"),
        (("ancilla", "--rate-dephase", "3", "--kappa", "500", "--t-max", "0.5", "--M", "2"),
         "rate_dephase"),
        (("ancilla", "--M", "2", {"rate_dephase": 3, "kappa": 500, "t_max": 0.5}),
         "rate_dephase"),
        # the dephasing scheme reads rate_dephase for no default either
        (("ancilla", "--rate-dephase", "1", "--M", "2"), "rate_dephase"),
    ], ids=["rate_dephase", "rate_dephase-t_max", "g_eff", "unread_zero",
            "unread_positive", "unread_config", "unread_default"])
    def test_ancilla_default_names_its_divisor(self, tmp_path, capsys, args, named):
        code, outdir = run_cli_config(tmp_path, *args)
        assert code == EXIT_VALIDATION and not outdir.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("dt, t_max", [("15", "10"), ("20", "10"), ("0.03", "1")],
                             ids=["15", "20", "0.03"])
    def test_gutzwiller_step_longer_than_t_max_names_dt(self, tmp_path, capsys, dt, t_max):
        # t_max must be a whole number of steps: dt 20 would record the
        # seed at t = 0 for every gamma, dt 15 one step past t_max, and
        # dt 0.03 would end at t = 0.99
        code, outdir = run_cli_config(tmp_path, "gutzwiller", "--gamma-grid", "0,6",
                                      "--n-max", "4", "--dt", dt, "--t-max", t_max)
        assert code == EXIT_VALIDATION and not outdir.exists()
        assert f"dt={float(dt)}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["gamma,L,t\n1.0,3,0.5\n",
                                         ",".join(cli.PROFILE_HEADER) + "\n", "",
                                         ",".join(cli.PROFILE_HEADER) + "\n0.5,4,1.0,1\n"],
                             ids=["missing_columns", "header_only", "empty", "short_row"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_malformed_profile_csv(self, tmp_path, content, via):
        # a profile.csv without every column, without a row, or with a
        # row short of fields holds no profile to fit
        path = tmp_path / "profile.csv"
        path.write_text(content)
        args = (("--profile-csv", str(path)) if via == "flag"
                else ({"profile_csv": str(path)},))
        code, outdir = run_cli_config(tmp_path, "fit", *args)
        assert code == EXIT_VALIDATION and not outdir.exists()

    @pytest.mark.parametrize("args,times", [
        (("lindblad-check", "--L", "2", "--M", "4", "--snapshot-times", "20"), {"20.0"}),
    ], ids=["lindblad_check"])
    def test_overridden_grid_is_not_checked(self, tmp_path, args, times):
        # lindblad-check runs to its last snapshot time, so it does not
        # check the given snapshot times against t_max
        code, outdir = run_cli(tmp_path, *args)
        assert code in (EXIT_OK, EXIT_COMPARISON)
        assert {r["t"] for r in read_csv(outdir / "observables.csv")} == times


def test_observable_writer_holds_no_dense_operator(tmp_path):
    # at L = 7 (dim 1520) one dense float64 operator takes 18 MB and the
    # 13 site observables 240 MB; the sparse writer stays below a single one
    basis = fock.build_basis(7, 7, 4)
    cfg = trajectory.MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                                      t_max=0.2, seed=1, snapshot_times=(0.0, 0.2))
    ens = trajectory.run_ensemble(basis, trajectory.default_initial_state(basis),
                                  cfg, M=3)
    tracemalloc.start()
    try:
        cli._write_observables(tmp_path, lindblad.ensemble_expectations(
            ens, lindblad.default_observables(basis)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * basis.dim ** 2
    assert len(read_csv(tmp_path / "observables.csv")) == 2 * 3 * 13


class TestRejectsUnreadOptions:
    """Each command reads only its own options (`cli.ACCEPTED`): one it
    would ignore exits 2 before the output directory is made, whether it
    comes as a flag or as a config-file key."""

    CASES = [
        (("ancilla", "--scheme", "dephasing"), {"h_eff": 5.0}),
        (("gutzwiller",), {"M": 7}),
        (("entropy-scan",), {"gamma": 2.0}),
        (("lindblad-check",), {"t_max": 5.0}),
        (("fit",), {"M": 3}),
        (("trajectories",), {"dt": 0.1}),
    ]
    IDS = ["ancilla-h_eff", "gutzwiller-M", "entropy_scan-gamma", "lindblad_check-t_max",
           "fit-M", "trajectories-dt"]

    @pytest.mark.parametrize("command,option", CASES, ids=IDS)
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_unread_option_exits_2(self, tmp_path, capsys, command, option, given):
        (key, value), = option.items()
        if given == "flag":
            args = (*command, f"--{key.replace('_', '-')}", str(value))
        else:
            cfg_file = tmp_path / "config.json"
            cfg_file.write_text(json.dumps(option))
            args = (*command, "--config", str(cfg_file))
        code, outdir = run_cli(tmp_path, *args)
        assert code == EXIT_VALIDATION
        assert not outdir.exists()
        assert f"does not read {key!r}" in capsys.readouterr().err


def test_every_option_is_accepted_by_some_command():
    # an option no command accepts, or an accepted one with no type, is
    # dead weight that a reader would take for a working knob
    assert set(cli.OPTIONS) == set().union(*cli.ACCEPTED.values())


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"L": 3, "gamma": 1.0, "M": 2,
                                        "t_max": 0.2, "n_snapshots": 2}))
        outdir = tmp_path / "out"
        code = main(["trajectories", "--config", str(cfg_file),
                     "--M", "3", "--outdir", str(outdir)])
        assert code == EXIT_OK
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["spec"]["M"] == 3
        assert manifest["spec"]["L"] == 3

    @pytest.mark.parametrize("bad,key", [
        ({"t-max": 0.1, "n_snapshot": 2}, "t-max"),   # typos of t_max etc.
        ({"gamma_grid": "0.5,2"}, "gamma_grid"),
        ({"L": 2.0}, "L"),
        ({"gamma": True}, "gamma"),
        (None, None),                                 # no such config file
    ])
    def test_bad_config_rejected(self, tmp_path, capsys, bad, key):
        cfg_file = tmp_path / "cfg.json"
        if bad is None:
            key = str(cfg_file)
        else:
            cfg_file.write_text(json.dumps({"L": 2, "gamma": 1, "M": 1,
                                            "t_max": 0.1, "n_snapshots": 2} | bad))
        code = main(["trajectories", "--config", str(cfg_file),
                     "--outdir", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOSETRAJ_OUTPUT", str(tmp_path / "envroot"))
        code = main(["trajectories", "--L", "2", "--gamma", "1.0",
                     "--M", "1", "--t-max", "0.1", "--n-snapshots", "2"])
        assert code == EXIT_OK
        assert (tmp_path / "envroot" / "trajectories" / "manifest.json").exists()
