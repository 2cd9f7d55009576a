"""Acceptance suite: one test per criterion, each emitting a single
PASS/FAIL line with the measured numbers.

Criteria 1-4 and 9 are exact or statistical checks that run in seconds
to minutes; criterion 5 is the desk-scale entanglement-transition run
and carries the "slow" marker (run it with `pytest -m slow`).  A FAIL
line means the check was run faithfully and the measured value landed
outside the stated tolerance.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from bosetraj import (
    JumpKind,
    MonitoringConfig,
    build_basis,
    build_bec_dark_state,
    build_jump,
    fock_state,
    run_ensemble,
)
from bosetraj.cftfit import (
    central_charge_from_renyi,
    chord_regressor,
    fit_profile,
)
from bosetraj.cli import main as cli_main
from bosetraj.entropy import (
    EntropyProfile,
    average_profile,
    reduce_state,
    renyi,
    state_entropy,
    von_neumann,
)
from bosetraj.gutzwiller import (
    GwConfig,
    default_initial_dm,
    evolve,
    order_parameter_consistency,
    order_parameter_sweep,
)
from bosetraj.ancilla import (
    CircuitConfig,
    born_markov_rate_check,
    run_dephasing_circuit,
    superposition_cavity_state,
)
from bosetraj.lindblad import compare_with_ensemble, evolve_lindblad
from oracles import reduce_right


def _report(num, title, checks, elapsed):
    """Print one pass/fail line; checks is a list of (description, ok)."""
    failed = [d for d, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "; ".join(d for d, _ in checks)
    line = (f"criterion {num} ({title}): {status} [{elapsed:.1f}s] "
            f"-- {detail}")
    print(line, flush=True)
    assert not failed, line


def test_criterion_01_dark_state_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for L in range(2, 7):
        basis = build_basis(L, L, L)
        dark = build_bec_dark_state(basis)
        for j in range(1, L):
            d = build_jump(JumpKind.PHASE_LOCK, j, basis)
            worst = max(worst, np.linalg.norm(d @ dark))
    el = time.perf_counter() - t0
    _report(1, "dark-state exactness",
            [(f"max ||d_j|D>|| = {worst:.2e} < 1e-10", worst < 1e-10),
             (f"runtime {el:.2f}s < 1s", el < 1.0)], el)


def test_criterion_02_oracle_agreement():
    t0 = time.perf_counter()
    basis = build_basis(L=3, N=3, n_max=3)
    cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                           t_max=5.0, seed=42,
                           snapshot_times=(0.5, 1.0, 2.0, 5.0))
    psi0 = fock_state(basis, (1, 1, 1))
    ens = run_ensemble(basis, psi0, cfg, M=2000, workers=1)
    rho0 = np.outer(psi0, psi0.conj())
    series = evolve_lindblad(basis, rho0, 1.0, 1.0, times=sorted(ens.states))
    report = compare_with_ensemble(series, ens)
    el = time.perf_counter() - t0
    _report(2, "trajectory-vs-master-equation agreement",
            [(f"max |z| = {report.max_abs_z:.2f} < 3 over "
              f"{sorted(report.z_scores)}", report.passed),
             (f"runtime {el:.0f}s < 300s", el < 300.0)], el)


def test_criterion_03_entropy_properties():
    t0 = time.perf_counter()
    basis = build_basis(L=4, N=4, n_max=4)
    cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                           t_max=1.0, seed=7, snapshot_times=(0.5, 1.0))
    ens = run_ensemble(basis, fock_state(basis, (1, 1, 1, 1)), cfg, M=5)
    cut_asym = 0.0
    order_ok = True
    for t in ens.states:
        for psi in ens.states[t]:
            for l in range(1, basis.L):
                s_vn = state_entropy(psi, l, basis, kind="vn")
                s_2 = state_entropy(psi, l, basis, kind="renyi", alpha=2.0)
                # same cut, computed from the complementary (L-l)-site
                # factor: exact for every pure trajectory state
                mirror = von_neumann(reduce_right(psi, l, basis))
                cut_asym = max(cut_asym, abs(s_vn - mirror))
                dim = min(reduce_state(psi, l, basis).matrix.shape[0],
                          reduce_right(psi, l, basis).matrix.shape[0])
                order_ok &= s_2 <= s_vn + 1e-12 <= np.log(dim) + 1e-12
    rng = np.random.default_rng(0)
    limit_dev = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 13))))
        limit_dev = max(limit_dev, abs(renyi(p, 1.0 + 1e-6) - von_neumann(p)))
    el = time.perf_counter() - t0
    _report(3, "entropy properties",
            [(f"max |S(l)-S(L-l)| = {cut_asym:.2e} < 1e-9", cut_asym < 1e-9),
             ("S_2 <= S_vn <= log(min dim) on all cuts", order_ok),
             (f"Renyi alpha->1 deviation {limit_dev:.2e} < 1e-4 "
              "on 100 spectra", limit_dev < 1e-4),
             (f"runtime {el:.1f}s < 60s", el < 60.0)], el)


def test_criterion_04_cft_fit_roundtrip():
    t0 = time.perf_counter()
    L = 16
    ls = np.arange(1, L)
    worst = 0.0
    for c, s0 in ((0.0, 0.7), (1.0, 0.3), (1.5, 0.3)):
        mean = (c / 6.0) * chord_regressor(L, ls) + s0
        prof = EntropyProfile(gamma=0.0, L=L, t=0.0, kind="vn", alpha=None,
                              ls=ls, mean=mean,
                              stderr=np.full(len(ls), 0.01), M=100)
        fit = fit_profile(prof)
        worst = max(worst, abs(fit.c - c), abs(fit.s0 - s0))
    c_true = 1.3
    pairs = [(a, 0.5 * c_true * (1.0 + 1.0 / a)) for a in (1.0, 2.0, 3.0)]
    estimates, spread = central_charge_from_renyi(pairs)
    inv_dev = max(abs(est - c_true) for _, est in estimates)
    el = time.perf_counter() - t0
    _report(4, "conformal fit round-trip",
            [(f"profile (c, s0) recovery error {worst:.2e} < 1e-10",
              worst < 1e-10),
             (f"Renyi-order inversion error {inv_dev:.2e} < 1e-10 "
              f"(spread {spread:.1e})", inv_dev < 1e-10),
             (f"runtime {el:.2f}s < 1s", el < 1.0)], el)


@pytest.mark.slow
def test_criterion_05_scaling_transition():
    t0 = time.perf_counter()
    basis = build_basis(L=8, N=8, n_max=3)
    psi0 = fock_state(basis, (1,) * 8)
    t_ss = 12.0
    fits, profiles = {}, {}
    for gamma in (0.5, 8.0):
        # pool several steady-state snapshots per trajectory; they are
        # separated by well over the mixing time at both rates
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=gamma,
                               t_max=t_ss, seed=123,
                               snapshot_times=(8.0, 10.0, t_ss))
        ens = run_ensemble(basis, psi0, cfg, M=500, workers=1)
        pooled = np.concatenate([ens.states[k] for k in sorted(ens.states)])
        prof = average_profile(pooled, basis, gamma, t_ss)
        profiles[gamma] = prof
        fits[gamma] = fit_profile(prof)
    sig_c = np.hypot(fits[0.5].c_stderr, fits[8.0].c_stderr)
    gap = fits[0.5].c - fits[8.0].c

    def cut_diff(prof):
        i_half, i_quart = list(prof.ls).index(4), list(prof.ls).index(2)
        d = abs(prof.mean[i_half] - prof.mean[i_quart])
        s = np.hypot(prof.stderr[i_half], prof.stderr[i_quart])
        return d, s

    d8, s8 = cut_diff(profiles[8.0])
    d05, s05 = cut_diff(profiles[0.5])
    el = time.perf_counter() - t0
    _report(5, "entanglement scaling transition (L=8, M=500)",
            [(f"c(0.5)={fits[0.5].c:.3f} > c(8)={fits[8.0].c:.3f} "
              f"+ 3*{sig_c:.3f}", gap > 3.0 * sig_c),
             (f"c(8) = {fits[8.0].c:.3f} < 0.1", fits[8.0].c < 0.1),
             (f"gamma=8: |S(L/2)-S(L/4)| = {d8:.3f} < 3*{s8:.3f}",
              d8 < 3.0 * s8),
             (f"gamma=0.5: |S(L/2)-S(L/4)| = {d05:.3f} > 3*{s05:.3f}",
              d05 > 3.0 * s05)], el)


def test_criterion_06_growth_and_saturation():
    t0 = time.perf_counter()
    basis = build_basis(L=6, N=6, n_max=3)
    times = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
    cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.5,
                           t_max=10.0, seed=9, snapshot_times=times)
    M = 1000
    ens = run_ensemble(basis, fock_state(basis, (1,) * 6), cfg, M=M)
    # S[k, i]: trajectory i at snapshot k, from the Fock product start
    # (S = 0 exactly); only the central cut is read, so only it is computed
    S = np.array([np.zeros(M)]
                 + [[state_entropy(a, 3, basis) for a in ens.states_at(t)]
                    for t in times])

    # Monotone rise.  Consecutive snapshots come from the same
    # trajectories, so each step is judged by its paired difference
    # S_i(t_k+1) - S_i(t_k) and that difference's own standard error.
    # From t ~ 2 on the mean is flat to ~1e-3 (M = 20000), so a gate
    # at -k sigma fails a flat step with probability Phi(-k) whatever M
    # is: 16 % at k = 1, which over the five plateau steps fails most
    # seeds.  At k = 3 it is 0.13 % a step, and M = 1000 keeps the
    # tolerated drop on the plateau (3 sigma, 0.027-0.029) below the
    # former gate's 1 sigma at M = 100 (0.029-0.032).
    steps = np.diff(S, axis=0)
    step_z = steps.mean(axis=1) / (steps.std(axis=1, ddof=1) / np.sqrt(M))
    monotone = bool(np.all(step_z > -3.0))
    # Plateau: the paired difference S_i(10) - S_i(6) over the same
    # trajectories, gated at 3 sigma of its own standard error like the
    # steps above; the unpaired means at 2 sigma failed about one seed in
    # twenty on a curve flat to 2e-3.
    drift = S[-1] - S[-3]
    plateau_gap = abs(drift.mean())
    plateau_err = drift.std(ddof=1) / np.sqrt(M)
    plateau = plateau_gap < 3.0 * plateau_err

    # Initial slope.  From the Fock product start (S = 0) a jump on
    # channel k, at rate rate_k ||b_k psi0||^2, leaves entropy
    # S(b_k psi0) across the cut, so the mean gains
    # sum_k rate_k ||b_k psi0||^2 S(b_k psi0) t + O(t^2): only the
    # central phase-lock bond contributes, 4 Lambda ln 2.  Every
    # trajectory also carries the entropy S_nj(t) = O(t^2 ln t) that the
    # no-jump evolution exp(-A t) builds across the cut (0.38 t at
    # t = 0.01, twice the sampling error at M = 5000); it is subtracted
    # exactly.
    psi0 = fock_state(basis, (1,) * 6)
    chans = ([(1.0, build_jump(JumpKind.PHASE_LOCK, j, basis))
              for j in range(1, 6)]
             + [(0.5, build_jump(JumpKind.DEPHASE, j, basis))
                for j in range(1, 7)])
    oracle = 0.0
    for rate, b in chans:
        b_psi = b @ psi0
        norm = np.linalg.norm(b_psi)
        oracle += rate * norm ** 2 * state_entropy(b_psi / norm, 3, basis)
    decay = sum(0.5 * rate * (b.T @ b).toarray() for rate, b in chans)
    cfg1 = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.5,
                            t_max=0.01, seed=9, snapshot_times=(0.01,))
    ens1 = run_ensemble(basis, psi0, cfg1, M=5000)
    (t1, states1), = ens1.states.items()
    s1 = np.array([state_entropy(a, 3, basis) for a in states1])
    no_jump = expm(-decay * t1) @ psi0
    s_nj = state_entropy(no_jump / np.linalg.norm(no_jump), 3, basis)
    slope = (s1.mean() - s_nj) / t1
    slope_err = s1.std(ddof=1) / np.sqrt(len(s1)) / t1
    el = time.perf_counter() - t0
    _report(6, "half-chain entropy growth and saturation",
            [(f"mean S(L/2, t) non-decreasing: every step above -3 sigma "
              f"of its paired difference (lowest {step_z.min():.2f}, "
              f"M={M})", monotone),
             (f"plateau: paired |S(10)-S(6)| = {plateau_gap:.3f} < "
              f"3*{plateau_err:.3f}", plateau),
             (f"initial slope (S(t1) - S_nj(t1))/t1 = {slope:.3f} "
              f"+/- {slope_err:.3f} at t1 = {t1:.4f} (M=5000, "
              f"S_nj/t1 = {s_nj / t1:.3f}) within 3 sigma of exact "
              f"{oracle:.3f} Lambda", abs(slope - oracle) < 3.0 * slope_err)],
            el)


def test_criterion_07_meanfield_critical_point():
    t0 = time.perf_counter()
    template = GwConfig(rate_phaselock=1.0, n_max=8, dt=0.01, t_max=100.0)
    ev_low = evolve(GwConfig(rate_dephase=0.1, n_max=8, dt=0.01, t_max=100.0))
    ev_high = evolve(GwConfig(rate_dephase=5.0, n_max=8, dt=0.01, t_max=100.0))
    a_low = abs(ev_low.alpha)
    a_high = abs(ev_high.alpha)
    sweep = order_parameter_sweep(np.linspace(0.0, 6.0, 9), template)
    # the states of one evolve to t = 20 every 20 steps, each segment
    # going on from the last one's final state
    cfg_res = GwConfig(rate_dephase=1.0, n_max=8, dt=0.01, t_max=20 * 0.01)
    rhos = [default_initial_dm(cfg_res)]
    for _ in range(round(20.0 / cfg_res.t_max)):
        rhos.append(evolve(cfg_res, rhos[-1], stop_when_steady=False).final)
    # The closed alpha equation is exact only where a† is not cut off.
    # The visited states keep a power-law number tail up to n_max, so at
    # their own cutoff the residual is a boundary term (3.7e-3 here; it
    # does not shrink with n_max) and is only reported; the gated
    # identity is evaluated with one spare, empty level above their
    # support.
    residual_edge = max(order_parameter_consistency(r, cfg_res)
                        for r in rhos)
    residual = max(order_parameter_consistency(np.pad(r, (0, 1)), cfg_res)
                   for r in rhos)
    el = time.perf_counter() - t0
    _report(7, "mean-field critical point",
            [(f"|alpha|(0.1) = {a_low:.4f} within 5% of 1",
              abs(a_low - 1.0) < 0.05),
             (f"|alpha|(5) = {a_high:.1e} < 1e-3", a_high < 1e-3),
             (f"gamma_c = {sweep.gamma_c:.2f} in [2.5, 3.5]",
              2.5 <= sweep.gamma_c <= 3.5),
             (f"order-parameter ODE residual {residual:.1e} < 1e-6 "
              f"with a spare level ({residual_edge:.1e} at the states' "
              "own cutoff, not gated)", residual < 1e-6),
             (f"runtime {el:.0f}s < 60s", el < 60.0)], el)


def test_criterion_08_ancilla_reduction():
    t0 = time.perf_counter()
    cfg = CircuitConfig(g_eff=1.0, kappa=500.0, n_max=4, t_max=400.0, seed=6)
    psi0 = superposition_cavity_state(1, 3, cfg.n_max)
    winners = [run_dephasing_circuit(cfg, psi0, traj_index=i).collapsed_to
               for i in range(1000)]
    frac = np.mean(np.array(winners) == 3)
    points = born_markov_rate_check(1.0, [5.0, 20.0, 200.0],
                                    n_traj=200, seed=11)
    by_kappa = {p.kappa: p for p in points}
    deep_err = max(by_kappa[20.0].relative_error,
                   by_kappa[200.0].relative_error)
    ctrl_err = by_kappa[5.0].relative_error
    el = time.perf_counter() - t0
    _report(8, "ancilla-circuit reduction",
            [(f"collapse fraction {frac:.3f} in 0.5 +/- 0.05 "
              "(1000 trajectories)", abs(frac - 0.5) < 0.05),
             (f"first-click rate error {deep_err:.3f} < 0.15 at "
              "kappa/g in {20, 200}", deep_err < 0.15),
             (f"negative control kappa/g=5 error {ctrl_err:.3f} larger",
              ctrl_err > deep_err),
             (f"runtime {el:.0f}s < 600s", el < 600.0)], el)


def test_criterion_09_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["trajectories", "--L", "3", "--gamma", "1.0", "--M", "4",
            "--t-max", "0.4", "--n-snapshots", "3", "--seed", "77"]
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        outdir = tmp_path / tag
        code = cli_main([*args, "--workers", str(workers),
                         "--outdir", str(outdir)])
        assert code == 0
        outs.append(outdir)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = all(
        (outs[0] / n).read_bytes() == (other / n).read_bytes()
        for other in outs[1:] for n in names)
    el = time.perf_counter() - t0
    _report(9, "byte-identical reruns",
            [(f"files {names} identical across reruns and worker counts",
              identical)], el)
