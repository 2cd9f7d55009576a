"""Command-line orchestration and file output.

Subcommands: trajectories, entropy-scan, gutzwiller, lindblad-check,
ancilla, fit.  Options come from an optional JSON config file with CLI
flags taking precedence.  Every run checks its configs, then writes
manifest.json before any compute starts: crashed runs still carry full
provenance, and rejected ones leave no directory.

Exit codes: 0 success, 2 validation error (bad flag, config key or
value), 3 numeric guard tripped (NumericGuardError, LinAlgError),
4 acceptance-comparison failure.  Any other exception propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .cftfit import fit_profile, fit_window
from .entropy import EntropyProfile, _order, average_profile, average_profiles
from .fock import JumpKind, NumericGuardError, build_basis, build_bec_dark_state
from .gutzwiller import GwConfig, check_sweep, order_parameter_sweep
from .lindblad import (check_oracle_dim, compare_with_ensemble, default_observables,
                       ensemble_expectations, evolve_lindblad)
from .trajectory import MonitoringConfig, default_initial_state, run_ensemble
from . import ancilla as anc

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_COMPARISON = 4


def _fmt(x) -> str:
    # repr of a builtin float is the shortest exact round-trip form, which
    # keeps reruns byte-identical; numpy scalars are coerced first so their
    # wrapper repr never leaks into the files.
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_manifest(outdir: Path, spec: dict):
    outdir.mkdir(parents=True, exist_ok=True)
    # the worker count is an execution detail, not part of the run spec:
    # results are worker-invariant, so the manifest must be too
    recorded = {k: v for k, v in spec.items() if k != "workers"}
    manifest = {"version": __version__, "spec": recorded}
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)


def _append_manifest(outdir: Path, extra: dict):
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest.update(extra)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))


def resolve_rates(spec: dict):
    """gamma and (Lambda, Gamma) are mutually exclusive; gamma implies
    Lambda = 1."""
    has_gamma = spec.get("gamma") is not None
    has_rates = spec.get("rate_phaselock") is not None or spec.get("rate_dephase") is not None
    if has_gamma and has_rates:
        raise ValueError("give either gamma or (rate_phaselock, rate_dephase), not both")
    if has_gamma:
        return 1.0, float(spec["gamma"])
    lam = float(spec.get("rate_phaselock", 1.0))
    gam = float(spec.get("rate_dephase", 0.0))
    return lam, gam


def build_model(spec: dict, basis=None):
    L = int(spec.get("L", 4))
    N = int(spec.get("N", L))
    basis = basis or build_basis(L, N, int(spec.get("n_max", min(N, 4))))
    lam, gam = resolve_rates(spec)
    cfg = MonitoringConfig(rate_phaselock=lam, rate_dephase=gam,
                           t_max=float(spec.get("t_max", 10.0)),
                           seed=int(spec.get("seed", 0)))
    return basis, cfg


def count_option(spec: dict, name: str, default: int, least: int = 1) -> int:
    """The integer option `name`, which must be at least `least`."""
    value = int(spec.get(name, default))
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def initial_state(spec: dict, basis):
    name = spec.get("initial_state", "fock")
    if name == "fock":
        return default_initial_state(basis)
    if name == "dark":
        return build_bec_dark_state(basis)
    raise ValueError(f"unknown initial_state {name!r}")


def _profile_rows(profile: EntropyProfile):
    alpha = profile.alpha if profile.alpha is not None else ""
    for l, m, s in zip(profile.ls, profile.mean, profile.stderr):
        yield (profile.gamma, profile.L, profile.t, int(l), profile.kind,
               alpha, m, s, profile.M)


def _fit_record(profile: EntropyProfile, fit) -> dict:
    return {"gamma": profile.gamma, "L": profile.L, "t": profile.t,
            "kind": profile.kind, "alpha": profile.alpha, "c": fit.c,
            "s0": fit.s0, "c_stderr": fit.c_stderr, "s0_stderr": fit.s0_stderr,
            "residual_rms": fit.residual_rms, "l_min": fit.l_min,
            "l_max": fit.l_max}


def _counters(ensemble) -> dict:
    """Deterministic event counters of one ensemble (see the README)."""
    by_kind = ensemble.jumps_by_kind
    out = {"propagator": ensemble.propagator,
           "jump_count_mean": float(ensemble.jump_counts.mean()),
           "jumps_phaselock_mean": float(by_kind[JumpKind.PHASE_LOCK].mean()),
           "jumps_dephase_mean": float(by_kind[JumpKind.DEPHASE].mean()),
           "intervals_mean": float(ensemble.intervals.mean())}
    if ensemble.krylov_dims.size:
        out |= {"krylov_dim_mean": float(ensemble.krylov_dims.mean()),
                "krylov_dim_max": int(ensemble.krylov_dims.max()),
                "reorth_reruns": int(ensemble.reorth_reruns.sum())}
    else:
        out["recon_error"] = ensemble.recon_error
    return out


PROFILE_HEADER = ["gamma", "L", "t", "l", "kind", "alpha", "mean", "stderr", "M"]
OBS_HEADER = ["t", "trajectory_id", "observable_name", "value_re", "value_im"]


def _write_observables(outdir: Path, values: dict):
    """observables.csv from ensemble_expectations' {t: {name: values}}."""
    write_csv(outdir / "observables.csv", OBS_HEADER,
              [(t, m, name, v.real, v.imag) for t, by_name in values.items()
               for name, vals in by_name.items() for m, v in enumerate(vals)])


def cmd_trajectories(spec: dict, outdir: Path) -> int:
    if "snapshot_times" in spec and "n_snapshots" in spec:
        raise ValueError("give either snapshot_times or n_snapshots, not both")
    basis, cfg = build_model(spec)
    times = spec.get("snapshot_times", np.linspace(
        0.0, cfg.t_max, count_option(spec, "n_snapshots", 21)))
    cfg = replace(cfg, snapshot_times=tuple(times))
    psi0 = initial_state(spec, basis)
    M, workers = count_option(spec, "M", 100), count_option(spec, "workers", 1)
    write_manifest(outdir, spec)
    ensemble = run_ensemble(basis, psi0, cfg, M, workers)
    _write_observables(outdir, ensemble_expectations(ensemble, default_observables(basis)))
    # gamma = Gamma / Lambda, written -1.0 when Lambda = 0
    gamma = cfg.rate_dephase / cfg.rate_phaselock if cfg.rate_phaselock else -1.0
    prof_rows = []
    for t in ensemble.snapshot_times:
        prof = average_profile(ensemble.states_at(t), basis, gamma, t)
        prof_rows.extend(_profile_rows(prof))
    write_csv(outdir / "profile.csv", PROFILE_HEADER, prof_rows)
    _append_manifest(outdir, _counters(ensemble))
    return EXIT_OK


def cmd_entropy_scan(spec: dict, outdir: Path) -> int:
    gammas = spec.get("gamma_grid")
    if not gammas:
        raise ValueError("entropy-scan needs a gamma_grid")
    # one sector (cut tables, unit-rate jumps) per scan; every gamma's
    # config is checked before the manifest is written
    basis, cfgs = None, []
    for gamma in gammas:
        basis, cfg = build_model(spec | {"gamma": gamma}, basis)
        cfgs.append(replace(cfg, snapshot_times=(cfg.t_max,)))
    psi0 = initial_state(spec, basis)
    M, workers = count_option(spec, "M", 100), count_option(spec, "workers", 1)
    kinds = [("vn", None)] + [("renyi", _order("renyi", a))
                              for a in spec.get("renyi_orders", [])]
    fit_window(basis.L, spec.get("fit_l_min"), spec.get("fit_l_max"))
    write_manifest(outdir, spec)
    prof_rows, fits, counters = [], [], []
    for gamma, cfg in zip(gammas, cfgs):
        ensemble = run_ensemble(basis, psi0, cfg, M, workers)
        counters.append({"gamma": gamma} | _counters(ensemble))
        for prof in average_profiles(ensemble.states_at(cfg.t_max), basis, gamma,
                                     cfg.t_max, kinds):
            prof_rows.extend(_profile_rows(prof))
            fit = fit_profile(prof, l_min=spec.get("fit_l_min"),
                              l_max=spec.get("fit_l_max"))
            fits.append(_fit_record(prof, fit))
    write_csv(outdir / "profile.csv", PROFILE_HEADER, prof_rows)
    with open(outdir / "fits.json", "w") as fh:
        json.dump(fits, fh, indent=2)
    _append_manifest(outdir, {"counters_by_gamma": counters})
    return EXIT_OK


def cmd_gutzwiller(spec: dict, outdir: Path) -> int:
    grid = spec.get("gamma_grid", list(np.linspace(0.0, 6.0, 25)))
    template = GwConfig(rate_phaselock=float(spec.get("rate_phaselock", 1.0)),
                        n_max=int(spec.get("n_max", 8)),
                        dt=float(spec.get("dt", 0.005)),
                        t_max=float(spec.get("t_max", 400.0)))
    threshold = float(spec.get("alpha_threshold", 1e-3))
    check_sweep(grid, template, threshold)
    write_manifest(outdir, spec)
    sweep = order_parameter_sweep(grid, template, alpha_threshold=threshold)
    write_csv(outdir / "sweep.csv", ["gamma", "alpha_abs", "converged", "t_reached"],
              [(p.gamma, p.alpha_abs, p.converged, p.t_reached) for p in sweep.points])
    _append_manifest(outdir, {"gamma_c": sweep.gamma_c, "branch_end": sweep.branch_end}
                     | sweep.counters)
    return EXIT_OK


def cmd_lindblad_check(spec: dict, outdir: Path) -> int:
    # the oracle runs to the last snapshot, whatever t_max is given
    times = tuple(spec.get("snapshot_times", (0.5, 1.0, 2.0, 5.0)))
    basis, cfg = build_model(spec | {"t_max": max(times)})
    check_oracle_dim(basis)
    cfg = replace(cfg, snapshot_times=times)
    psi0 = initial_state(spec, basis)
    M = count_option(spec, "M", 2000, least=2)    # a standard error needs two
    workers = count_option(spec, "workers", 1)
    write_manifest(outdir, spec)
    ensemble = run_ensemble(basis, psi0, cfg, M, workers)
    rho0 = np.outer(psi0, psi0.conj())
    series = evolve_lindblad(basis, rho0, cfg.rate_phaselock, cfg.rate_dephase,
                             ensemble.snapshot_times)
    values = ensemble_expectations(ensemble, series.operators)
    report = compare_with_ensemble(series, ensemble, values)
    _write_observables(outdir, values)
    with open(outdir / "comparison.json", "w") as fh:
        json.dump({"passed": report.passed, "max_abs_z": report.max_abs_z,
                   "z_scores": {k: list(v) for k, v in report.z_scores.items()}},
                  fh, indent=2)
    _append_manifest(outdir, _counters(ensemble)
                     | {"oracle_propagator": series.propagator,
                        "oracle_trace_error": series.trace_error})
    return EXIT_OK if report.passed else EXIT_COMPARISON


def cmd_ancilla(spec: dict, outdir: Path) -> int:
    scheme = spec.get("scheme", "dephasing")
    seed = int(spec.get("seed", 0))
    g = float(spec.get("g_eff", 1.0))
    # each scheme gives its circuit config, its Hamiltonian and a run of a
    # block of trajectories that returns (run result, outcome fields) per
    # trajectory
    if scheme == "dephasing":
        n1, n2 = int(spec.get("n1", 1)), int(spec.get("n2", 3))
        cfg = anc.CircuitConfig(g_eff=g, kappa=float(spec.get("kappa", 500.0 * g ** 2)),
                                seed=seed, n_max=int(spec.get("n_max", max(n2 + 1, 4))),
                                t_max=float(spec.get("t_max", 10.0)))
        psi0 = anc.superposition_cavity_state(n1, n2, cfg.n_max)
        hamiltonian = anc.dephasing_hamiltonian

        def run(indices):
            return [(out, {"collapsed_to": out.collapsed_to,
                           "dominant_weight": out.dominant_weight,
                           "click_count": out.click_count})
                    for out in anc.run_dephasing_circuits(cfg, psi0, indices)]
    elif scheme == "phaselock":
        if "t_max" not in spec and not g > 0:     # the default t_max is 2 kappa / g^2
            raise ValueError(f"g_eff = {g} cannot set the default t_max; "
                             "give a positive g_eff or set t_max")
        kappa = float(spec.get("kappa", 50.0 * g))
        cfg = anc.CircuitConfig(g_eff=g, kappa=kappa, seed=seed,
                                h_eff=float(spec.get("h_eff", 0.0)),
                                n_max=int(spec.get("n_max", 4)),
                                t_max=float(spec["t_max"]) if "t_max" in spec
                                else 2.0 * kappa / g ** 2)
        hamiltonian = anc.phaselock_hamiltonian

        def run(indices):
            return [(traj, {"click_count": len(traj.clicks),
                            "final_entropy": anc._pair_entropy(traj.final_state, cfg.n_max)})
                    for traj in anc.run_phaselock_circuits(cfg, indices)]
    else:
        raise ValueError(f"unknown ancilla scheme {scheme!r}")
    M = count_option(spec, "M", 100)
    write_manifest(outdir, spec)
    rows, outcomes, intervals = [], [], 0
    # each block of trajectories runs as one batch; a block's results are
    # dropped once read, so the events they keep never pile up
    for indices in anc.circuit_blocks(hamiltonian, cfg, M):
        for i, (result, outcome) in zip(indices, run(indices)):
            rows.extend((t, "ancilla_decay") for t in result.clicks)
            outcomes.append({"trajectory": i} | outcome)
            intervals += result.intervals
    write_csv(outdir / "clicks.csv", ["t", "channel"], rows)
    with open(outdir / "outcomes.json", "w") as fh:
        json.dump(outcomes, fh, indent=2)
    _append_manifest(outdir, {"propagator": anc.circuit_propagator(hamiltonian, cfg),
                              "intervals": intervals, "clicks": len(rows)})
    return EXIT_OK


def cmd_fit(spec: dict, outdir: Path) -> int:
    src = spec.get("profile_csv")
    if not src or not Path(src).exists():
        raise ValueError("fit needs an existing profile_csv")
    with open(src) as fh:
        reader = csv.DictReader(fh, restval="")   # a missing field fails its parse
        rows = list(reader)
        missing = [c for c in PROFILE_HEADER if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{src} lacks the profile.csv column(s) {', '.join(missing)}")
    if not rows:
        raise ValueError(f"{src} holds no profile rows")
    groups = {}
    for r in rows:
        key = (float(r["gamma"]), int(r["L"]), float(r["t"]), r["kind"],
               r["alpha"] or None)
        groups.setdefault(key, []).append(r)
    profiles = []
    for (gamma, L, t, kind, alpha), rs in groups.items():
        rs = sorted(rs, key=lambda r: int(r["l"]))
        profiles.append(EntropyProfile(
            gamma=gamma, L=L, t=t, kind=kind,
            alpha=float(alpha) if alpha else None,
            ls=np.array([int(r["l"]) for r in rs]),
            mean=np.array([float(r["mean"]) for r in rs]),
            stderr=np.array([float(r["stderr"]) for r in rs]),
            M=int(rs[0]["M"])))
        fit_window(L, spec.get("fit_l_min"), spec.get("fit_l_max"), profiles[-1].ls)
    write_manifest(outdir, spec)
    fits = [_fit_record(prof, fit_profile(prof, l_min=spec.get("fit_l_min"),
                                          l_max=spec.get("fit_l_max")))
            for prof in profiles]
    with open(outdir / "fits.json", "w") as fh:
        json.dump(fits, fh, indent=2)
    return EXIT_OK


COMMANDS = {
    "trajectories": cmd_trajectories,
    "entropy-scan": cmd_entropy_scan,
    "gutzwiller": cmd_gutzwiller,
    "lindblad-check": cmd_lindblad_check,
    "ancilla": cmd_ancilla,
    "fit": cmd_fit,
}

# every option, as a CLI flag (--t-max) and as a config-file key (t_max);
# list options are comma-separated on the command line.  dt is the RK4
# step of gutzwiller; the trajectory commands propagate exactly and accept
# target_dp without using it.
OPTIONS = {
    "L": int, "N": int, "n_max": int, "M": int, "seed": int, "workers": int,
    "n_snapshots": int, "fit_l_min": int, "fit_l_max": int,
    "n1": int, "n2": int,
    "gamma": float, "rate_phaselock": float, "rate_dephase": float,
    "dt": float, "t_max": float, "target_dp": float, "g_eff": float,
    "h_eff": float, "kappa": float, "alpha_threshold": float,
    "initial_state": str, "scheme": str, "profile_csv": str,
    "gamma_grid": list, "renyi_orders": list, "snapshot_times": list,
}


_ENSEMBLE = {"L", "N", "n_max", "seed", "initial_state", "M", "workers", "target_dp"}
_RATES = {"gamma", "rate_phaselock", "rate_dephase"}
_CIRCUIT = {"scheme", "seed", "M", "g_eff", "kappa", "n_max", "t_max"}
# the options each command reads, each ancilla scheme apart; any other
# option is rejected, so one a command would ignore cannot pass unnoticed.
# lindblad-check runs to its last snapshot time and entropy-scan takes
# gamma from its grid and records at t_max, so neither reads the others.
ACCEPTED = {
    "trajectories": _ENSEMBLE | _RATES | {"t_max", "snapshot_times", "n_snapshots"},
    "entropy-scan": _ENSEMBLE | {"t_max", "gamma_grid", "renyi_orders",
                                 "fit_l_min", "fit_l_max"},
    "lindblad-check": _ENSEMBLE | _RATES | {"snapshot_times"},
    "gutzwiller": {"gamma_grid", "rate_phaselock", "n_max", "dt", "t_max",
                   "alpha_threshold"},
    "fit": {"profile_csv", "fit_l_min", "fit_l_max"},
    "ancilla --scheme dephasing": _CIRCUIT | {"n1", "n2"},
    "ancilla --scheme phaselock": _CIRCUIT | {"h_eff"},
}


def _check_accepted(command: str, spec: dict):
    """Reject every option, flag or config key, that `command` does not
    read."""
    if command == "ancilla":
        scheme = spec.get("scheme", "dephasing")
        command = f"ancilla --scheme {scheme}"
        if command not in ACCEPTED:
            raise ValueError(f"unknown ancilla scheme {scheme!r}")
    unread = sorted(set(spec) - ACCEPTED[command])
    if unread:
        raise ValueError(f"{command} does not read {', '.join(map(repr, unread))}")


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x]


def _has_type(v, typ) -> bool:
    # a JSON int is a valid float; a JSON bool is not a number
    if typ is list:
        return type(v) is list and all(_has_type(x, float) for x in v)
    return type(v) in ((int, float) if typ is float else (typ,))


def _check_config(config) -> dict:
    """Reject unknown config-file keys and values of the wrong type, so a
    typo cannot fall back to a default unnoticed."""
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    for key, v in config.items():
        if key not in OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        if not _has_type(v, OPTIONS[key]):
            raise ValueError(f"config key {key!r} needs "
                             f"{OPTIONS[key].__name__}, got {v!r}")
    return config


def build_parser():
    p = argparse.ArgumentParser(prog="bosetraj",
                                description="Monitored bosonic chain simulator")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--outdir", help="output directory (default under "
                                    "$BOSETRAJ_OUTPUT or ./runs)")
    for name, typ in OPTIONS.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                       type=_float_list if typ is list else typ,
                       help="comma-separated numbers" if typ is list else None)
    return p


def parse_spec(argv):
    args = build_parser().parse_args(argv)
    spec = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            raise ValueError(f"cannot read config file: {e}") from e
        spec.update(_check_config(json.loads(text)))
    for name in OPTIONS:
        v = getattr(args, name)
        if v is not None:
            spec[name] = v
    _check_accepted(args.command, spec)
    if spec.get("snapshot_times") == []:    # given empty, which is not the default
        raise ValueError("snapshot_times is empty: give at least one time")
    spec["command"] = args.command
    root = Path(os.environ.get("BOSETRAJ_OUTPUT", "runs"))
    outdir = Path(args.outdir) if args.outdir else root / args.command
    return args.command, spec, outdir


def main(argv=None) -> int:
    try:
        command, spec, outdir = parse_spec(
            argv if argv is not None else sys.argv[1:])
        return COMMANDS[command](spec, outdir)
    # LinAlgError is a ValueError, so the numeric guards come first
    except (NumericGuardError, np.linalg.LinAlgError) as e:
        print(f"numeric guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
