"""Quantum-jump unraveling of the two competing monitoring channels.

Exact waiting-time (event-driven) method: each jump draws r and solves
the no-jump survival ||exp(-G tau) psi||^2 = r for its time tau, then a
second draw picks the channel by inverse CDF over the fixed
channel order (all phase-lock bonds ascending, then all dephasing sites
ascending).  An interval that reaches a stop (a snapshot time or t_max)
first ends there exactly, and the pending jump keeps waiting for the
conditional survival r/p, so one draw per jump stays exact.

exp(-G tau) comes from one of two propagators, chosen by dimension: one
dense eigendecomposition per generator (guarded by a reconstruction
check), or an adaptive Lanczos basis per interval for large sparse real
symmetric generators, grown until its a-posteriori error bound at the
sampled tau is below KRYLOV_TOL.  The chain's generator is the real
symmetric decay operator A; the ancilla circuits (`ancilla.py`) run the
same event loop on their non-Hermitian i H_nh.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing as mp

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from .fock import (FockBasis, JumpKind, NumericGuardError, StateVector,
                   build_jump, fock_state)

CHANNEL_EPS = 1e-14    # channel weights below this share of the total are dead
DENSE_MAX_DIM = 500    # generators up to this dimension are diagonalised once
RECON_TOL = 1e-10      # relative reconstruction error a decomposition may have
KRYLOV_TOL = 1e-12     # bound on the Lanczos state error over an interval
KRYLOV_MAX = 60        # largest Lanczos basis; past it the interval is cut short
ROOT_RTOL = 1e-14      # relative accuracy of the survival at the jump time


@dataclass(frozen=True)
class MonitoringConfig:
    rate_phaselock: float          # Lambda
    rate_dephase: float            # Gamma
    t_max: float
    seed: int = 0
    snapshot_times: tuple = ()

    def __post_init__(self):
        rates = (self.rate_phaselock, self.rate_dephase)
        if not all(math.isfinite(r) and r >= 0 for r in rates):
            raise ValueError("monitoring rates must be finite and nonnegative")
        if self.rate_phaselock == 0 and self.rate_dephase == 0:
            raise ValueError("at least one monitoring rate must be positive")
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError("t_max must be finite and nonnegative")
        object.__setattr__(self, "snapshot_times",
                           tuple(sorted(float(t) for t in self.snapshot_times)))

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
    n_steps: int               # intervals: one per jump or stop
    krylov_dims: tuple = ()    # Lanczos basis size per interval, if Lanczos ran


class Interval:
    """exp(-G tau) psi = basis @ rotation @ (exp(-rates tau) * coef), tau >= 0.

    The columns of basis @ rotation are orthonormal unless a Gram matrix
    is given.
    """

    def __init__(self, basis, rates, coef, gram=None, rotation=None):
        self.basis, self.rates, self.coef = basis, rates, coef
        self.gram, self.rotation = gram, rotation

    def survival(self, tau: float) -> float:
        return self.survival_slope(tau)[0]

    def survival_slope(self, tau: float):
        """The survival ||exp(-G tau) psi||^2 and its tau-derivative."""
        x = np.exp(-self.rates * tau) * self.coef
        y = x if self.gram is None else self.gram @ x
        return (float(np.vdot(x, y).real),
                -2.0 * float(np.vdot(self.rates * x, y).real))

    def states(self, taus) -> np.ndarray:
        """Unnormalised states, one column per tau (a vector for a scalar)."""
        taus = np.asarray(taus, dtype=float)
        x = np.exp(-np.multiply.outer(self.rates, taus))
        x *= self.coef if taus.ndim == 0 else self.coef[:, None]
        if self.rotation is not None:
            x = self.rotation @ x
        return self.basis @ x


def _jump_time(interval: Interval, r: float, tau_max: float, start=None):
    """(tau, hit): the time the survival falls to r, or tau_max if it
    stays above r until then.  Newton on log(survival), which is linear
    for a single decay rate, from `start` (default 0), safeguarded by
    bisection of the bracket."""
    if interval.survival(tau_max) >= r:
        return tau_max, False
    lo, hi, log_r = 0.0, tau_max, math.log(r)
    tau = start if start is not None and 0.0 < start < tau_max else 0.0
    while True:
        p, slope = interval.survival_slope(tau)
        f = math.log(p) - log_r if p > 0.0 else -math.inf
        if abs(f) <= ROOT_RTOL:
            return tau, True
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        new = tau - f * p / slope if slope < 0.0 and p > 0.0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if new == tau:          # the bracket is down to adjacent floats
            return tau, True
        tau = new


class DenseExp:
    """exp(-G tau) from one eigendecomposition G = V diag(lam) V^-1."""

    def __init__(self, G, hermitian: bool):
        G = G.toarray() if sp.issparse(G) else np.asarray(G)
        if hermitian:
            lam, V = np.linalg.eigh(G)
            V_inv, self.gram = V.conj().T, None
        else:
            lam, V = np.linalg.eig(G)
            try:
                V_inv = np.linalg.inv(V)
            except np.linalg.LinAlgError:     # no eigenbasis at all
                V_inv = np.full_like(V, np.nan)
            self.gram = V.conj().T @ V
        scale = np.linalg.norm(G)
        err = np.linalg.norm((V * lam) @ V_inv - G)
        if not err <= RECON_TOL * scale:
            raise NumericGuardError(
                f"eigendecomposition of the no-jump generator reconstructs it "
                f"to {err:.3g} against a norm of {scale:.3g}: defective or "
                f"ill-conditioned")
        self.lam, self.V, self.V_inv = lam, V, V_inv

    def interval(self, psi, r, tau_max):
        iv = Interval(self.V, self.lam, self.V_inv @ psi, self.gram)
        return (iv, *_jump_time(iv, r, tau_max))


class ExpmExp:
    """exp(-G tau) from scipy's expm at every evaluation: the fallback for
    a non-Hermitian G with no usable eigenbasis (at or near an
    exceptional point)."""

    def __init__(self, G):
        self.G = G.toarray() if sp.issparse(G) else np.asarray(G)

    def interval(self, psi, r, tau_max):
        iv = ExpmInterval(self.G, psi)
        return (iv, *_jump_time(iv, r, tau_max))


class ExpmInterval:
    """The `Interval` interface for exp(-G tau) psi, one expm per tau."""

    def __init__(self, G, psi):
        self.G, self.psi = G, psi

    def survival(self, tau: float) -> float:
        return self.survival_slope(tau)[0]

    def survival_slope(self, tau: float):
        x = expm(-tau * self.G) @ self.psi
        return (float(np.vdot(x, x).real),
                -2.0 * float(np.vdot(x, self.G @ x).real))

    def states(self, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        if taus.ndim == 0:
            return expm(-float(taus) * self.G) @ self.psi
        if taus.size < 3 or np.ptp(np.diff(taus)) > 1e-12 * max(taus[-1], 1.0):
            return np.column_stack([self.states(tau) for tau in taus])
        # an evenly spaced grid: one expm for the spacing, then one
        # matvec per point
        x, step = self.states(taus[0]), expm(-(taus[1] - taus[0]) * self.G)
        out = np.empty((x.size, taus.size), dtype=x.dtype)
        for i in range(taus.size):
            out[:, i] = x
            x = step @ x
        return out


class KrylovExp:
    """exp(-A tau) for a sparse real symmetric positive semi-definite A,
    from a Lanczos basis built per interval.

    The error of the Lanczos approximation y_k(tau) obeys
    ||y(tau) - y_k(tau)|| <= beta_k int_0^tau |e_k^T exp(-s T_k) e_1| ds.
    The integrand keeps the sign (-1)^(k-1) (exp(-s T_k) is entrywise
    nonnegative up to that checkerboard sign), so the bound is the
    modulus of one sum over the eigenpairs of T_k; it grows with tau, and
    the basis grows until it is below KRYLOV_TOL at the sampled tau.
    """

    def __init__(self, A):
        self.A = sp.csr_matrix(A)

    def interval(self, psi, r, tau_max):
        norm = np.linalg.norm(psi)
        Q = np.empty((KRYLOV_MAX + 1, psi.size), dtype=psi.dtype)
        Q[0] = psi / norm
        T = np.zeros((KRYLOV_MAX, KRYLOV_MAX))
        tau = None
        for j in range(KRYLOV_MAX):
            w = self.A @ Q[j]
            T[j, j] = np.vdot(Q[j], w).real
            basis = Q[:j + 1]
            for _ in range(2):              # full reorthogonalisation, twice
                w -= basis.T @ (basis.conj() @ w)
            beta = np.linalg.norm(w)
            theta, S = np.linalg.eigh(T[:j + 1, :j + 1])
            theta = np.maximum(theta, 0.0)
            iv = Interval(basis.T, theta, norm * S[0], rotation=S)
            weight = beta * S[-1] * iv.coef
            # solve for tau only once the bound holds at the previous tau
            if tau is None or _lanczos_error(weight, theta, tau) <= KRYLOV_TOL:
                tau, hit = _jump_time(iv, r, tau_max, start=tau)
                if _lanczos_error(weight, theta, tau) <= KRYLOV_TOL:
                    return iv, tau, hit
            if j + 1 < KRYLOV_MAX:
                Q[j + 1] = w / beta
                T[j, j + 1] = T[j + 1, j] = beta
        # the largest basis cannot reach tau: solve again within the
        # horizon where its bound holds, and end the interval there
        while _lanczos_error(weight, theta, tau) > KRYLOV_TOL:
            tau *= 0.5
        return (iv, *_jump_time(iv, r, tau))


def _lanczos_error(weight, theta, tau):
    """|sum_i weight_i int_0^tau exp(-theta_i s) ds|."""
    x = theta * tau
    small = x < 1e-8
    return abs(float(weight @ np.where(small, tau, -np.expm1(-x)
                                        / np.where(small, 1.0, theta))))


def propagator(G, hermitian: bool):
    """The propagator of exp(-G tau): Lanczos for a Hermitian (real
    symmetric, sparse) G above DENSE_MAX_DIM, a dense eigendecomposition
    otherwise.  A non-Hermitian G whose eigendecomposition fails its
    reconstruction check falls back to expm; a Hermitian one cannot
    legitimately fail it, so the guard's error stands."""
    if hermitian and G.shape[0] > DENSE_MAX_DIM:
        return KrylovExp(G)
    try:
        return DenseExp(G, hermitian)
    except NumericGuardError:
        if hermitian:
            raise
        return ExpmExp(G)


class JumpChannels:
    """Operators shared by all trajectories of one (basis, Lambda, Gamma).

    `stacked` holds sqrt(rate_k) b_k for every live channel k, one block
    of rows each in the fixed channel order, and `labels` their
    (kind, site).  decay is the real symmetric
    A = (1/2) sum_k rate_k b_k† b_k = stacked† stacked / 2, the no-jump
    generator: the survival over tau is ||exp(-A tau) psi||^2.
    """

    def __init__(self, basis: FockBasis, rate_phaselock: float, rate_dephase: float):
        self.basis = basis
        blocks, self.labels = [], []
        for kind, rate, count in ((JumpKind.PHASE_LOCK, rate_phaselock, basis.L - 1),
                                  (JumpKind.DEPHASE, rate_dephase, basis.L)):
            if rate == 0.0:
                continue
            for j in range(1, count + 1):
                # every chain jump operator is real
                blocks.append(math.sqrt(rate) * build_jump(kind, j, basis).matrix.real)
                self.labels.append((kind, j))
        self.stacked = sp.vstack(blocks, format="csr")
        self.decay = sp.csr_matrix(0.5 * (self.stacked.T @ self.stacked))
        self.propagator = propagator(self.decay, hermitian=True)

    def max_total_rate(self) -> float:
        """Largest eigenvalue of the total jump-rate operator 2A.

        The Lanczos start vector is a fixed-seed Gaussian draw, so the
        value is the same on every call; unlike an all-ones start it also
        overlaps the reflection-odd sector.
        """
        if self.basis.dim <= 64:
            return float(np.linalg.eigvalsh(2.0 * self.decay.toarray())[-1])
        v0 = np.random.default_rng(0).standard_normal(self.basis.dim)
        return float(spla.eigsh(2.0 * self.decay, k=1, which="LA", v0=v0,
                                return_eigenvectors=False)[0])


def select_jump(phi: np.ndarray, stacked, u: float):
    """Inverse-CDF channel choice with the uniform draw u, from one matvec
    against the stacked jump operators.  Returns (channel, normalised
    post-jump state)."""
    out = (stacked @ phi).reshape(-1, phi.size)
    weights = np.einsum("ij,ij->i", out.conj(), out).real
    weights[weights <= CHANNEL_EPS * weights.sum()] = 0.0
    cum = np.cumsum(weights)
    if not cum[-1] > 0.0:
        raise NumericGuardError("jump selected but every channel amplitude is zero")
    k = min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(cum) - 1)
    while weights[k] == 0.0:  # u * total rounded onto the end of the CDF
        k -= 1
    return k, out[k] / math.sqrt(weights[k])


def step(psi: np.ndarray, channels, t: float, t_stop: float, r: float, rng):
    """One interval of the unraveling, from t to the next jump or to t_stop.

    r is the survival probability the pending jump waits for.  At a jump,
    rng draws the channel and then the next jump's r; at a stop the
    pending jump carries over with r/p, p the survival over the interval.
    Returns (state, time reached, r, channel or None, Interval of the
    no-jump evolution from psi).
    """
    iv, tau, hit = channels.propagator.interval(psi, r, t_stop - t)
    phi = iv.states(tau)
    if not hit:
        p = float(np.vdot(phi, phi).real)
        t_new = t_stop if tau == t_stop - t else t + tau
        return phi / math.sqrt(p), t_new, r / p, None, iv
    k, out = select_jump(phi, channels.stacked, rng.random())
    return out, t + tau, 1.0 - rng.random(), k, iv


@dataclass
class Event:
    """One interval of `unravel`: [t0, t], ending in a jump on `channel`
    or at a stop (channel None)."""
    t0: float
    t: float
    channel: int
    psi: np.ndarray            # normalised state at t, after any jump
    interval: Interval         # no-jump evolution from the state at t0


def unravel(psi: np.ndarray, channels, t_max: float, rng, stops=()):
    """Exact event loop: yield one Event per interval up to t_max.

    Intervals end exactly at every stop time in (0, t_max) and at t_max.
    channels supplies `propagator` (exp(-G tau) for the no-jump
    generator G) and `stacked` (the jump operators, one block of rows per
    channel).
    """
    t, r = 0.0, 1.0 - rng.random()
    for t_stop in [s for s in stops if 0.0 < s < t_max] + [t_max]:
        while t < t_stop:
            t0 = t
            psi, t, r, k, iv = step(psi, channels, t0, t_stop, r, rng)
            yield Event(t0, t, k, psi, iv)


def trajectory_rng(master_seed: int, traj_index: int):
    """Counter-based per-trajectory stream; independent of worker count."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


def run_trajectory(basis: FockBasis, psi0: StateVector, cfg: MonitoringConfig,
                   channels: JumpChannels = None, traj_index: int = 0) -> Trajectory:
    """Evolve one trajectory; deterministic given (cfg.seed, traj_index).

    Snapshots are taken at exactly the requested times up to t_max.  Real
    initial amplitudes stay real: every chain operator is.
    """
    if channels is None:
        channels = JumpChannels(basis, cfg.rate_phaselock, cfg.rate_dephase)
    psi = psi0.amplitudes
    if not psi.imag.any():
        psi = psi.real
    psi = psi / np.linalg.norm(psi)
    snap_times = [s for s in cfg.snapshot_times if s <= cfg.t_max]
    snapshots = [(s, psi.copy()) for s in snap_times if s <= 0.0]
    pending = snap_times[len(snapshots):]
    jumps, sizes = [], []   # sizes: propagator basis per interval
    for ev in unravel(psi, channels, cfg.t_max, trajectory_rng(cfg.seed, traj_index),
                      stops=pending):
        sizes.append(ev.interval.basis.shape[1])
        psi = ev.psi
        if ev.channel is not None:
            kind, site = channels.labels[ev.channel]
            jumps.append(JumpRecord(time=ev.t, kind=kind, site=site))
        while pending and pending[0] <= ev.t:
            snapshots.append((pending.pop(0), psi.copy()))
    lanczos = isinstance(channels.propagator, KrylovExp)
    return Trajectory(jumps=jumps, snapshots=snapshots, final_state=psi,
                      n_steps=len(sizes), krylov_dims=tuple(sizes) if lanczos else ())


@dataclass
class EnsembleResult:
    config: MonitoringConfig
    M: int
    snapshot_times: tuple
    states: dict           # time -> (M, dim) array, trajectory order
    jump_counts: np.ndarray
    jumps_by_kind: dict = field(default_factory=dict)   # JumpKind -> (M,) counts
    intervals: np.ndarray = None                        # (M,) intervals
    krylov_dims: np.ndarray = None      # Lanczos size of every interval, in order
    basis: FockBasis = field(repr=False, default=None)

    def states_at(self, t: float) -> np.ndarray:
        """The (M, dim) states at the exact requested snapshot time t."""
        try:
            return self.states[float(t)]
        except KeyError:
            raise KeyError(f"no snapshot at t={t}; have {sorted(self.states)}") from None


_WORKER_CTX = {}


def _worker_init(basis, cfg, channels):
    _WORKER_CTX["basis"] = basis
    _WORKER_CTX["channels"] = channels
    _WORKER_CTX["cfg"] = cfg


def _summary(traj: Trajectory):
    kinds = [j.kind for j in traj.jumps]
    return (traj.snapshots, {k: kinds.count(k) for k in JumpKind}, traj.n_steps,
            traj.krylov_dims)


def _worker_run(args):
    i, psi0_amps = args
    basis = _WORKER_CTX["basis"]
    cfg = _WORKER_CTX["cfg"]
    traj = run_trajectory(basis, StateVector(basis, psi0_amps), cfg,
                          channels=_WORKER_CTX["channels"], traj_index=i)
    return i, _summary(traj)


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
            results[i] = _summary(run_trajectory(basis, psi0, cfg, channels=channels,
                                                 traj_index=i))
    else:
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                 initializer=_worker_init,
                                 initargs=(basis, cfg, channels)) as pool:
            for i, summary in pool.map(
                    _worker_run, ((i, psi0.amplitudes) for i in range(M)),
                    chunksize=max(1, M // (workers * 8))):
                results[i] = summary

    by_kind = {k: np.array([r[1][k] for r in results]) for k in JumpKind}
    states = {t: np.array([r[0][k][1] for r in results])
              for k, (t, _) in enumerate(results[0][0])}
    return EnsembleResult(config=cfg, M=M, snapshot_times=tuple(sorted(states)),
                          states=states, jump_counts=sum(by_kind.values()),
                          jumps_by_kind=by_kind,
                          intervals=np.array([r[2] for r in results]),
                          krylov_dims=np.array([d for r in results for d in r[3]], dtype=int),
                          basis=basis)


def default_initial_state(basis: FockBasis) -> StateVector:
    """Uniform Fock state |1,1,...,1> (requires filling 1)."""
    if basis.N != basis.L:
        raise ValueError("uniform Fock initial state needs N == L")
    return fock_state(basis, (1,) * basis.L)
