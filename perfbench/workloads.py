"""The three benchmark workloads: CLI argv, output checks and model set-up.

Each workload is a list of CLI invocations (a "round") that the
benchmark repeats in one process. Every round of a run uses the same
CLI seed, derived from the benchmark seed, so the work of a round is
fixed by the seed.

This module imports nothing from numpy, scipy or bosetraj at import
time: the set-up probe times those imports itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXIT_OK = 0
EXIT_COMPARISON = 4


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a round."""
    argv: tuple                  # CLI argv without --outdir
    ok_exits: frozenset          # exit codes that count as success
    check: Callable              # (outdir) -> list of problems, [] if correct
    items: int                   # trajectories (or grid points) it computes


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable              # (seed, size) -> list[Call]
    setup: Callable              # (size) -> None, builds the model
    sizes: dict                  # "full" / "tiny" -> size parameters


def cli_seed(workload: str, seed: int) -> int:
    """CLI --seed of a workload, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _csv(x) -> str:
    return ",".join(str(v) for v in x)


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _left_dims(L: int, N: int, n_max: int) -> dict:
    """d_A(l): occupations of sites 1..l with entries <= n_max, sum <= N."""
    counts = {0: 1}             # total particles -> number of prefixes
    dims = {}
    for l in range(1, L):
        nxt = {}
        for s, c in counts.items():
            for n in range(n_max + 1):
                if s + n <= N:
                    nxt[s + n] = nxt.get(s + n, 0) + c
        counts = nxt
        dims[l] = sum(counts.values())
    return dims


# --- transition_scan -------------------------------------------------------

def _scan_calls(seed, p):
    argv = ("entropy-scan", "--L", str(p["L"]), "--N", str(p["L"]),
            "--n-max", str(p["n_max"]), "--gamma-grid", _csv(p["gammas"]),
            "--renyi-orders", "2", "--target-dp", "0.05",
            "--M", str(p["M"]), "--t-max", str(p["t_max"]),
            "--seed", str(cli_seed("transition_scan", seed)), "--workers", "1")

    def check(outdir):
        problems = []
        dims = _left_dims(p["L"], p["L"], p["n_max"])
        means = {}
        for r in _read_csv(outdir / "profile.csv"):
            means[(float(r["gamma"]), r["kind"], int(r["l"]))] = float(r["mean"])
        for g in p["gammas"]:
            for l in range(1, p["L"]):
                vn = means.get((float(g), "vn", l))
                r2 = means.get((float(g), "renyi", l))
                if vn is None or r2 is None:
                    problems.append(f"gamma={g} l={l}: profile row missing")
                    continue
                top = math.log(dims[l]) + 1e-9
                for kind, s in (("vn", vn), ("renyi2", r2)):
                    if not -1e-12 <= s <= top:
                        problems.append(f"gamma={g} l={l}: {kind} mean {s} "
                                        f"outside [0, log d_A = {top:.6g}]")
                if r2 > vn + 1e-9:
                    problems.append(f"gamma={g} l={l}: Renyi-2 {r2} > VN {vn}")
        fits = json.loads((outdir / "fits.json").read_text())
        if len(fits) != 2 * len(p["gammas"]):
            problems.append(f"{len(fits)} fits, expected {2 * len(p['gammas'])}")
        for f in fits:
            for key in ("c", "s0", "c_stderr", "s0_stderr"):
                if not math.isfinite(f[key]):
                    problems.append(f"fit gamma={f['gamma']} {f['kind']}: "
                                    f"{key} = {f[key]}")
        return problems

    return [Call(argv, frozenset({EXIT_OK}), check, p["M"] * len(p["gammas"]))]


def _scan_setup(p):
    from bosetraj import JumpChannels, build_basis, trajectory
    for g in p["gammas"]:
        basis = build_basis(p["L"], p["L"], p["n_max"])
        channels = JumpChannels(basis, 1.0, g)
        # the step-size bound is part of model set-up while the engine
        # has one
        if hasattr(trajectory, "default_dt"):
            trajectory.default_dt(channels, target_dp=0.05)


# --- oracle_check ----------------------------------------------------------

def _oracle_calls(seed, p):
    times = [0.5 * (k + 1) for k in range(p["n_snapshots"])]
    argv = ("lindblad-check", "--L", str(p["L"]), "--gamma", "1",
            "--target-dp", "0.05", "--M", str(p["M"]),
            "--snapshot-times", _csv(times),
            "--seed", str(cli_seed("oracle_check", seed)), "--workers", "1")
    n_obs = 2 * p["L"] - 1

    def check(outdir):
        problems = []
        report = json.loads((outdir / "comparison.json").read_text())
        z = report["max_abs_z"]
        if not (math.isfinite(z) and z < 5.0):
            problems.append(f"max_abs_z = {z}, expected < 5")
        rows = _read_csv(outdir / "observables.csv")
        expected = len(times) * p["M"] * n_obs
        if len(rows) != expected:
            problems.append(f"observables.csv has {len(rows)} rows, "
                            f"expected {expected}")
        return problems

    # the CLI's own gate is |z| < 3 and trips on unlucky seeds (exit 4)
    return [Call(argv, frozenset({EXIT_OK, EXIT_COMPARISON}), check, p["M"])]


def _oracle_setup(p):
    from bosetraj import JumpChannels, build_basis, trajectory
    from bosetraj.lindblad import LindbladGenerator
    basis = build_basis(p["L"], p["L"], min(p["L"], 4))
    channels = JumpChannels(basis, 1.0, 1.0)
    if hasattr(trajectory, "default_dt"):
        trajectory.default_dt(channels, target_dp=0.05)
    LindbladGenerator(basis, 1.0, 1.0)


# --- meanfield_sweep -------------------------------------------------------

def _meanfield_calls(seed, p):
    # deterministic: the Gutzwiller sweep takes no seed
    argv = ("gutzwiller", "--n-max", str(p["n_max"]), "--dt", str(p["dt"]),
            "--gamma-grid", _csv(p["gammas"]), "--t-max", str(p["t_max"]))
    lo, hi = min(p["gammas"]), max(p["gammas"])

    def check(outdir):
        problems = []
        alpha = {float(r["gamma"]): float(r["alpha_abs"])
                 for r in _read_csv(outdir / "sweep.csv")}
        if not alpha.get(float(lo), 0.0) > 0.95:
            problems.append(f"|alpha|({lo}) = {alpha.get(float(lo))}, expected > 0.95")
        if not alpha.get(float(hi), math.inf) < 1e-3:
            problems.append(f"|alpha|({hi}) = {alpha.get(float(hi))}, expected < 1e-3")
        gamma_c = json.loads((outdir / "manifest.json").read_text()).get("gamma_c")
        if not (isinstance(gamma_c, (int, float)) and math.isfinite(gamma_c)
                and lo < gamma_c < hi):
            problems.append(f"gamma_c = {gamma_c}, expected finite in ({lo}, {hi})")
        return problems

    return [Call(argv, frozenset({EXIT_OK}), check, len(p["gammas"]))]


def _meanfield_setup(p):
    from bosetraj.gutzwiller import SiteOperators
    SiteOperators(p["n_max"])


# --- ancilla_circuits ------------------------------------------------------

def _ancilla_calls(seed, p):
    s = str(cli_seed("ancilla_circuits", seed))
    dephasing = ("ancilla", "--scheme", "dephasing", "--kappa", "500",
                 "--t-max", str(p["t_max"]), "--M", str(p["M_dephasing"]),
                 "--seed", s)
    phaselock = ("ancilla", "--scheme", "phaselock", "--kappa", "50",
                 "--M", str(p["M_phaselock"]), "--seed", s)
    n_max = 4  # the CLI default for both schemes

    def check_dephasing(outdir):
        outcomes = json.loads((outdir / "outcomes.json").read_text())
        M = len(outcomes)
        if M != p["M_dephasing"]:
            return [f"{M} outcomes, expected {p['M_dephasing']}"]
        frac = sum(o["collapsed_to"] == 3 for o in outcomes) / M
        se = math.sqrt(0.25 / M)
        if abs(frac - 0.5) > 4.0 * se:
            return [f"collapse fraction to n=3 is {frac}, more than 4 "
                    f"standard errors ({se:.3g}) from 0.5"]
        return []

    def check_phaselock(outdir):
        outcomes = json.loads((outdir / "outcomes.json").read_text())
        if len(outcomes) != p["M_phaselock"]:
            return [f"{len(outcomes)} outcomes, expected {p['M_phaselock']}"]
        top = math.log(n_max + 1) + 1e-9
        return [f"trajectory {o['trajectory']}: final entropy "
                f"{o['final_entropy']} outside [0, log {n_max + 1}]"
                for o in outcomes if not -1e-12 <= o["final_entropy"] <= top]

    return [Call(dephasing, frozenset({EXIT_OK}), check_dephasing, p["M_dephasing"]),
            Call(phaselock, frozenset({EXIT_OK}), check_phaselock, p["M_phaselock"])]


def _ancilla_setup(p):
    from bosetraj.ancilla import (CircuitConfig, phaselock_hamiltonian,
                                  superposition_cavity_state)
    phaselock_hamiltonian(CircuitConfig(kappa=50.0))
    superposition_cavity_state(1, 3, 4)


# --- small_systems ---------------------------------------------------------

def _small_calls(seed, p):
    return _oracle_calls(seed, p) + _ancilla_calls(seed, p)


def _small_setup(p):
    _oracle_setup(p)
    _ancilla_setup(p)


# Why each workload exists: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    # L = 8 sector of criterion 5: matvec-bound steps, Schmidt spectra,
    # CFT fits and the eigsh step-size bound
    Workload("transition_scan", _scan_calls, _scan_setup, sizes={
        "full": dict(L=8, n_max=3, gammas=(0.5, 8.0), M=2, t_max=1.0),
        "tiny": dict(L=4, n_max=2, gammas=(0.5, 8.0), M=2, t_max=0.2)}),
    # dims 10 and 50: steps bound by Python overhead, dense snapshots, the
    # Lindblad RK4 and the only caller of the expm-stepped ancilla engine
    Workload("small_systems", _small_calls, _small_setup, sizes={
        "full": dict(L=3, M=24, n_snapshots=10,
                     t_max=400.0, M_dephasing=40, M_phaselock=100),
        "tiny": dict(L=3, M=8, n_snapshots=2,
                     t_max=100.0, M_dephasing=8, M_phaselock=8)}),
    # Gutzwiller RHS only; t_max = 10 is the shortest horizon with
    # |alpha|(6) < 1e-3 at n_max = 8
    Workload("meanfield_sweep", _meanfield_calls, _meanfield_setup, sizes={
        "full": dict(n_max=8, dt=0.01, gammas=(0.0, 3.0, 6.0), t_max=10.0),
        "tiny": dict(n_max=8, dt=0.01, gammas=(0.0, 6.0), t_max=10.0)}),
]}
