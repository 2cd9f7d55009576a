"""Quantum-jump unraveling of the two competing monitoring channels.

Per time step, a single uniform draw decides jump-vs-no-jump and, on a
jump, selects the channel by inverse CDF over the fixed channel order
(all phase-lock bonds ascending, then all dephasing sites ascending).
No-jump evolution is the first-order propagator (1 - i H_eff dt) with
renormalization; a dt that ever produces a per-step jump probability
above 0.1 aborts the run.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing as mp

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fock import (FockBasis, JumpKind, NumericGuardError, StateVector,
                   build_jump, fock_state)

DP_GUARD = 0.1
CHANNEL_EPS = 1e-14


class StepSizeError(NumericGuardError):
    """Per-step jump probability exceeded the first-order-scheme guard."""


@dataclass(frozen=True)
class MonitoringConfig:
    rate_phaselock: float          # Lambda
    rate_dephase: float            # Gamma
    dt: float
    t_max: float
    seed: int = 0
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.rate_phaselock < 0 or self.rate_dephase < 0:
            raise ValueError("monitoring rates must be nonnegative")
        if self.rate_phaselock == 0 and self.rate_dephase == 0:
            raise ValueError("at least one monitoring rate must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_max < 0:
            raise ValueError("t_max must be nonnegative")
        object.__setattr__(self, "snapshot_times",
                           tuple(sorted(self.snapshot_times)))

    @property
    def reduced_dephasing(self) -> float:
        """gamma = Gamma / Lambda."""
        if self.rate_phaselock == 0:
            return math.inf
        return self.rate_dephase / self.rate_phaselock


@dataclass(frozen=True)
class JumpRecord:
    time: float
    kind: JumpKind
    site: int  # 1-based bond (phase-lock) or site (dephase)


@dataclass
class Trajectory:
    jumps: list
    snapshots: list            # (time, amplitude array) pairs
    final_state: np.ndarray
    n_steps: int


class JumpChannels:
    """Operators shared by all trajectories of one (basis, Lambda, Gamma).

    decay is the real symmetric A = (1/2) sum_k rate_k b_k† b_k, so the
    no-jump propagator is 1 - dt*A and the total per-step jump
    probability is 2*dt*<A>.
    """

    def __init__(self, basis: FockBasis, rate_phaselock: float, rate_dephase: float):
        self.basis = basis
        self.ops = []       # (kind, site, csr matrix), fixed channel order
        self.rates = []
        for j in range(1, basis.L):
            self.ops.append((JumpKind.PHASE_LOCK, j,
                             build_jump(JumpKind.PHASE_LOCK, j, basis).matrix))
            self.rates.append(rate_phaselock)
        for j in range(1, basis.L + 1):
            self.ops.append((JumpKind.DEPHASE, j,
                             build_jump(JumpKind.DEPHASE, j, basis).matrix))
            self.rates.append(rate_dephase)
        self.rates = np.array(self.rates)
        acc = sp.csr_matrix((basis.dim, basis.dim), dtype=np.float64)
        for (kind, j, b), rate in zip(self.ops, self.rates):
            if rate == 0.0:
                continue
            acc = acc + 0.5 * rate * (b.conj().T @ b).real
        self.decay = sp.csr_matrix(acc)

    def max_total_rate(self) -> float:
        """Largest eigenvalue of the total jump-rate operator 2A.

        The Lanczos start vector is a fixed-seed Gaussian draw, so the
        value (and every step size derived from it) is the same on every
        call; unlike an all-ones start it also overlaps the
        reflection-odd sector.
        """
        if self.basis.dim <= 64:
            return float(np.linalg.eigvalsh(2.0 * self.decay.toarray())[-1])
        v0 = np.random.default_rng(0).standard_normal(self.basis.dim)
        return float(spla.eigsh(2.0 * self.decay, k=1, which="LA", v0=v0,
                                return_eigenvectors=False)[0])


def default_dt(channels: JumpChannels, target_dp: float = 1e-3) -> float:
    """Step size bounding the worst-case per-step jump probability.

    target_dp = 1e-3 reproduces the conservative default heuristic; the
    guard itself allows up to 0.1.
    """
    return target_dp / channels.max_total_rate()


def _decay_apply(A: sp.csr_matrix, psi: np.ndarray) -> np.ndarray:
    # A is real; two real matvecs beat one complex one
    return A.dot(psi.real) + 1j * A.dot(psi.imag)


def step(psi: np.ndarray, channels: JumpChannels, dt: float, rng, t: float = 0.0):
    """One step of the unraveling on a normalized amplitude array.

    Returns (new amplitudes, JumpRecord or None).
    """
    a_psi = _decay_apply(channels.decay, psi)
    dp_total = 2.0 * dt * float(np.real(np.vdot(psi, a_psi)))
    if dp_total > DP_GUARD:
        raise StepSizeError(
            f"per-step jump probability {dp_total:.3g} exceeds {DP_GUARD}; "
            f"reduce dt")
    r = rng.random()
    if r >= dp_total:
        out = psi - dt * a_psi
        out /= np.linalg.norm(out)
        return out, None

    # jump: per-channel probabilities, inverse CDF on the same draw
    weights = np.empty(len(channels.ops))
    jumped = [None] * len(channels.ops)
    for k, ((kind, j, b), rate) in enumerate(zip(channels.ops, channels.rates)):
        if rate == 0.0:
            weights[k] = 0.0
            continue
        bp = b.dot(psi)
        w = rate * float(np.real(np.vdot(bp, bp))) * dt
        weights[k] = w if w > CHANNEL_EPS else 0.0
        jumped[k] = bp
    total = weights.sum()
    if total <= 0.0:
        raise NumericGuardError("jump selected but every channel amplitude is zero")
    u = (r / dp_total) * total
    k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    k = min(k, len(weights) - 1)
    while weights[k] == 0.0:  # guard against landing on a dead channel
        k -= 1
    kind, j, _ = channels.ops[k]
    out = jumped[k]
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        raise NumericGuardError("post-jump state has zero norm")
    return out / nrm, JumpRecord(time=t, kind=kind, site=j)


def trajectory_rng(master_seed: int, traj_index: int):
    """Counter-based per-trajectory stream; independent of worker count."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


def run_trajectory(basis: FockBasis, psi0: StateVector, cfg: MonitoringConfig,
                   channels: JumpChannels = None, traj_index: int = 0) -> Trajectory:
    """Evolve one trajectory; deterministic given (cfg.seed, traj_index)."""
    if channels is None:
        channels = JumpChannels(basis, cfg.rate_phaselock, cfg.rate_dephase)
    rng = trajectory_rng(cfg.seed, traj_index)
    psi = psi0.amplitudes / np.linalg.norm(psi0.amplitudes)
    t = 0.0
    jumps = []
    snapshots = []
    snap_iter = list(cfg.snapshot_times)
    si = 0
    eps = 0.5 * cfg.dt
    n_steps = 0
    while True:
        while si < len(snap_iter) and t >= snap_iter[si] - eps:
            snapshots.append((t, psi.copy()))
            si += 1
        if t >= cfg.t_max - eps:
            break
        psi, jump = step(psi, channels, cfg.dt, rng, t=t)
        if jump is not None:
            jumps.append(jump)
        t += cfg.dt
        n_steps += 1
    return Trajectory(jumps=jumps, snapshots=snapshots, final_state=psi,
                      n_steps=n_steps)


@dataclass
class EnsembleResult:
    config: MonitoringConfig
    M: int
    snapshot_times: tuple
    states: dict           # time -> (M, dim) complex array, trajectory order
    jump_counts: np.ndarray
    basis: FockBasis = field(repr=False, default=None)

    def states_at(self, t: float) -> np.ndarray:
        key = min(self.states, key=lambda s: abs(s - t))
        if abs(key - t) > 1e-9 + 0.51 * self.config.dt:
            raise KeyError(f"no snapshot near t={t}; have {sorted(self.states)}")
        return self.states[key]


_WORKER_CTX = {}


def _worker_init(basis, cfg, channels):
    _WORKER_CTX["basis"] = basis
    _WORKER_CTX["channels"] = channels
    _WORKER_CTX["cfg"] = cfg


def _worker_run(args):
    i, psi0_amps = args
    basis = _WORKER_CTX["basis"]
    cfg = _WORKER_CTX["cfg"]
    traj = run_trajectory(basis, StateVector(basis, psi0_amps), cfg,
                          channels=_WORKER_CTX["channels"], traj_index=i)
    return i, [(t, s) for t, s in traj.snapshots], len(traj.jumps)


def run_ensemble(basis: FockBasis, psi0: StateVector, cfg: MonitoringConfig,
                 M: int, workers: int = 1,
                 channels: JumpChannels = None) -> EnsembleResult:
    """M independent trajectories; aggregation order is by trajectory
    index, so results are identical for any worker count."""
    if M < 1:
        raise ValueError("need at least one trajectory")
    if channels is None:
        channels = JumpChannels(basis, cfg.rate_phaselock, cfg.rate_dephase)
    results = [None] * M
    if workers <= 1:
        for i in range(M):
            traj = run_trajectory(basis, psi0, cfg, channels=channels, traj_index=i)
            results[i] = (traj.snapshots, len(traj.jumps))
    else:
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                 initializer=_worker_init,
                                 initargs=(basis, cfg, channels)) as pool:
            for i, snaps, nj in pool.map(
                    _worker_run, ((i, psi0.amplitudes) for i in range(M)),
                    chunksize=max(1, M // (workers * 8))):
                results[i] = (snaps, nj)

    jump_counts = np.array([nj for _, nj in results])
    states = {}
    if results[0][0]:
        times = [t for t, _ in results[0][0]]
        for k, t in enumerate(times):
            states[t] = np.array([snaps[k][1] for snaps, _ in results])
    return EnsembleResult(config=cfg, M=M, snapshot_times=tuple(sorted(states)),
                          states=states, jump_counts=jump_counts, basis=basis)


def default_initial_state(basis: FockBasis) -> StateVector:
    """Uniform Fock state |1,1,...,1> (requires filling 1)."""
    if basis.N != basis.L:
        raise ValueError("uniform Fock initial state needs N == L")
    return fock_state(basis, (1,) * basis.L)
