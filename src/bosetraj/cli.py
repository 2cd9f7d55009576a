"""Command-line orchestration and file output.

Subcommands: trajectories, entropy-scan, gutzwiller, lindblad-check,
ancilla, fit.  Options come from an optional JSON config file with CLI
flags taking precedence.  Every run writes manifest.json before any
compute starts, so crashed runs still carry full provenance.

Exit codes: 0 success, 2 validation error (bad flag, config key or
value), 3 numeric guard tripped (NumericGuardError, LinAlgError,
ArpackError), 4 acceptance-comparison failure.  Any other exception
propagates with its traceback.
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
from scipy.sparse.linalg import ArpackError

from . import __version__
from .cftfit import fit_profile
from .entropy import EntropyProfile, average_profile, average_profiles
from .fock import JumpKind, NumericGuardError, build_basis, build_bec_dark_state
from .gutzwiller import GwConfig, order_parameter_sweep
from .lindblad import compare_with_ensemble, default_observables, evolve_lindblad
from .trajectory import MonitoringConfig, default_initial_state, run_ensemble
from . import ancilla as anc

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_COMPARISON = 4


def _output_root() -> Path:
    return Path(os.environ.get("BOSETRAJ_OUTPUT", "runs"))


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
                           seed=int(spec.get("seed", 0)),
                           snapshot_times=tuple(spec.get("snapshot_times", [])))
    return basis, cfg


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
    out = {"jump_count_mean": float(ensemble.jump_counts.mean()),
           "jumps_phaselock_mean": float(by_kind[JumpKind.PHASE_LOCK].mean()),
           "jumps_dephase_mean": float(by_kind[JumpKind.DEPHASE].mean()),
           "intervals_mean": float(ensemble.intervals.mean())}
    if ensemble.krylov_dims.size:
        out |= {"krylov_dim_mean": float(ensemble.krylov_dims.mean()),
                "krylov_dim_max": int(ensemble.krylov_dims.max())}
    return out


PROFILE_HEADER = ["gamma", "L", "t", "l", "kind", "alpha", "mean", "stderr", "M"]
OBS_HEADER = ["t", "trajectory_id", "observable_name", "value_re", "value_im"]


def _write_observables(outdir: Path, ensemble):
    rows = []
    observables = default_observables(ensemble.basis)
    for t in ensemble.snapshot_times:
        states = ensemble.states_at(t)
        for name, op in observables.items():
            vals = np.einsum("mi,ij,mj->m", states.conj(), op, states)
            for m, v in enumerate(vals):
                rows.append((t, m, name, v.real, v.imag))
    write_csv(outdir / "observables.csv", OBS_HEADER, rows)


def cmd_trajectories(spec: dict, outdir: Path) -> int:
    basis, cfg = build_model(spec)
    if not cfg.snapshot_times:
        times = np.linspace(0.0, cfg.t_max, int(spec.get("n_snapshots", 21)))
        cfg = replace(cfg, snapshot_times=tuple(times))
    write_manifest(outdir, spec)
    psi0 = initial_state(spec, basis)
    M = int(spec.get("M", 100))
    ensemble = run_ensemble(basis, psi0, cfg, M, int(spec.get("workers", 1)))
    _write_observables(outdir, ensemble)
    gamma = cfg.reduced_dephasing if cfg.rate_phaselock else -1.0  # -1: Lambda = 0
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
    write_manifest(outdir, spec)
    kinds = [("vn", None)] + [("renyi", a) for a in spec.get("renyi_orders", [])]
    prof_rows = []
    fits = []
    counters = []
    basis = None      # one sector, and so one set of cut tables, per scan
    for gamma in gammas:
        sub = {k: v for k, v in spec.items() if k != "gamma_grid"} | {"gamma": gamma}
        basis, cfg = build_model(sub, basis)
        t_obs = cfg.t_max
        cfg = replace(cfg, snapshot_times=(t_obs,))
        ensemble = run_ensemble(basis, initial_state(sub, basis), cfg,
                                int(spec.get("M", 100)), int(spec.get("workers", 1)))
        counters.append({"gamma": gamma} | _counters(ensemble))
        for prof in average_profiles(ensemble.states_at(t_obs), basis, gamma,
                                     t_obs, kinds):
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
    write_manifest(outdir, spec)
    grid = spec.get("gamma_grid") or list(np.linspace(0.0, 6.0, 25))
    template = GwConfig(rate_phaselock=float(spec.get("rate_phaselock", 1.0)),
                        n_max=int(spec.get("n_max", 8)),
                        dt=float(spec.get("dt", 0.005)),
                        t_max=float(spec.get("t_max", 400.0)))
    sweep = order_parameter_sweep(grid, template,
                                  alpha_threshold=float(spec.get("alpha_threshold", 1e-3)))
    write_csv(outdir / "sweep.csv", ["gamma", "alpha_abs", "converged", "t_reached"],
              [(p.gamma, p.alpha_abs, p.converged, p.t_reached) for p in sweep.points])
    _append_manifest(outdir, {"gamma_c": sweep.gamma_c})
    return EXIT_OK


def cmd_lindblad_check(spec: dict, outdir: Path) -> int:
    basis, cfg = build_model(spec)
    times = tuple(spec.get("snapshot_times") or (0.5, 1.0, 2.0, 5.0))
    cfg = replace(cfg, t_max=max(times), snapshot_times=times)
    write_manifest(outdir, spec)
    psi0 = initial_state(spec, basis)
    ensemble = run_ensemble(basis, psi0, cfg, int(spec.get("M", 2000)),
                            int(spec.get("workers", 1)))
    rho0 = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    series = evolve_lindblad(basis, rho0, cfg.rate_phaselock, cfg.rate_dephase,
                             ensemble.snapshot_times)
    report = compare_with_ensemble(series, ensemble)
    _write_observables(outdir, ensemble)
    with open(outdir / "comparison.json", "w") as fh:
        json.dump({"passed": report.passed, "max_abs_z": report.max_abs_z,
                   "z_scores": {k: list(v) for k, v in report.z_scores.items()}},
                  fh, indent=2)
    _append_manifest(outdir, _counters(ensemble))
    return EXIT_OK if report.passed else EXIT_COMPARISON


def cmd_ancilla(spec: dict, outdir: Path) -> int:
    write_manifest(outdir, spec)
    scheme = spec.get("scheme", "dephasing")
    seed = int(spec.get("seed", 0))
    g = float(spec.get("g_eff", 1.0))
    # each scheme gives its circuit config and a per-trajectory run that
    # returns (clicks, outcome fields)
    if scheme == "dephasing":
        target = float(spec.get("rate_dephase", 1.0))
        kappa = float(spec.get("kappa", 500.0 * g ** 2 / target))
        n1, n2 = int(spec.get("n1", 1)), int(spec.get("n2", 3))
        cfg = anc.CircuitConfig(g_eff=g, kappa=kappa, seed=seed,
                                n_max=max(n2 + 1, 4),
                                t_max=float(spec.get("t_max", 10.0 / target)))
        psi0 = anc.superposition_cavity_state(n1, n2, cfg.n_max)

        def run(i):
            out = anc.run_dephasing_circuit(cfg, psi0, traj_index=i)
            return out.clicks, {
                "collapsed_to": out.collapsed_to,
                "dominant_weight": out.dominant_weight,
                "click_count": out.click_count}
    elif scheme == "phaselock":
        kappa = float(spec.get("kappa", 50.0 * g))
        cfg = anc.CircuitConfig(g_eff=g, kappa=kappa, seed=seed,
                                h_eff=float(spec.get("h_eff", 0.0)),
                                n_max=int(spec.get("n_max", 4)),
                                t_max=float(spec.get("t_max", 2.0 * kappa / g ** 2)))

        def run(i):
            traj = anc.run_phaselock_circuit(cfg, traj_index=i)
            return traj.clicks, {
                "click_count": len(traj.clicks),
                "final_entropy": anc._pair_entropy(traj.final_state, cfg.n_max)}
    else:
        raise ValueError(f"unknown ancilla scheme {scheme!r}")
    rows, outcomes = [], []
    for i in range(int(spec.get("M", 100))):
        clicks, outcome = run(i)
        rows.extend((c.time, c.channel) for c in clicks)
        outcomes.append({"trajectory": i} | outcome)
    write_csv(outdir / "clicks.csv", ["t", "channel"], rows)
    with open(outdir / "outcomes.json", "w") as fh:
        json.dump(outcomes, fh, indent=2)
    return EXIT_OK


def cmd_fit(spec: dict, outdir: Path) -> int:
    src = spec.get("profile_csv")
    if not src or not Path(src).exists():
        raise ValueError("fit needs an existing profile_csv")
    write_manifest(outdir, spec)
    with open(src) as fh:
        rows = list(csv.DictReader(fh))
    groups = {}
    for r in rows:
        key = (float(r["gamma"]), int(r["L"]), float(r["t"]), r["kind"],
               r["alpha"] or None)
        groups.setdefault(key, []).append(r)
    fits = []
    for (gamma, L, t, kind, alpha), rs in groups.items():
        rs = sorted(rs, key=lambda r: int(r["l"]))
        prof = EntropyProfile(
            gamma=gamma, L=L, t=t, kind=kind,
            alpha=float(alpha) if alpha else None,
            ls=np.array([int(r["l"]) for r in rs]),
            mean=np.array([float(r["mean"]) for r in rs]),
            stderr=np.array([float(r["stderr"]) for r in rs]),
            M=int(rs[0]["M"]))
        fit = fit_profile(prof, l_min=spec.get("fit_l_min"),
                          l_max=spec.get("fit_l_max"))
        fits.append(_fit_record(prof, fit))
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
# dt and target_dp without using them.
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
    spec["command"] = args.command
    outdir = Path(args.outdir) if args.outdir else _output_root() / args.command
    return args.command, spec, outdir


def main(argv=None) -> int:
    try:
        command, spec, outdir = parse_spec(
            argv if argv is not None else sys.argv[1:])
        return COMMANDS[command](spec, outdir)
    # LinAlgError is a ValueError, so the numeric guards come first
    except (NumericGuardError, np.linalg.LinAlgError, ArpackError) as e:
        print(f"numeric guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
