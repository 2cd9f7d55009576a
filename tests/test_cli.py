"""End-to-end tests of the command-line entry point.

Every command is exercised on desk-scale inputs; output files are
parsed back and cross-checked, and reruns with identical inputs must be
byte-identical regardless of worker count.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError

from bosetraj import cli, entropy, trajectory
from bosetraj.cli import (
    EXIT_COMPARISON,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    resolve_rates,
)


def run_cli(tmp_path, *args):
    outdir = tmp_path / "out"
    code = main([*args, "--outdir", str(outdir)])
    return code, outdir


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
        raiser(ArpackError(-9999)),
    ], ids=["corrupted_spectrum", "linalg_error", "arpack_error"])
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
            assert 1 <= c["krylov_dim_mean"] <= c["krylov_dim_max"] <= trajectory.KRYLOV_MAX


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
        # a standalone re-fit of the emitted profile reproduces the fits
        code2, outdir2 = run_cli(tmp_path / "refit", "fit",
                                 "--profile-csv", str(outdir / "profile.csv"))
        assert code2 == EXIT_OK
        refits = json.loads((outdir2 / "fits.json").read_text())
        key = lambda f: (f["gamma"], f["kind"], f["alpha"] or 0.0)
        for a, b in zip(sorted(fits, key=key), sorted(refits, key=key)):
            assert a["c"] == pytest.approx(b["c"], rel=1e-12, abs=1e-12)
            assert a["s0"] == pytest.approx(b["s0"], rel=1e-12, abs=1e-12)

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


class TestAncilla:
    def test_dephasing_scheme_outputs(self, tmp_path):
        code, outdir = run_cli(tmp_path, "ancilla", "--scheme", "dephasing",
                               "--M", "3", "--rate-dephase", "1.0",
                               "--t-max", "10.0", "--seed", "1")
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
