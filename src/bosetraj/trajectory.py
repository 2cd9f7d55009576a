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

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing as mp

import numpy as np
import scipy.sparse as sp

from .fock import (FockBasis, JumpKind, NumericGuardError, fock_state, phaselock_gram,
                   unit_jumps)

CHANNEL_EPS = 1e-14    # channel weights below this share of the total are dead
DENSE_MAX_DIM = 500    # generators up to this dimension are diagonalised once
RECON_TOL = 1e-10      # relative reconstruction error a decomposition may have
KRYLOV_TOL = 1e-12     # bound on the Lanczos state error over an interval
KRYLOV_MAX = 60        # largest Lanczos basis; past it the interval is cut short
LOG_SKIP = math.log(2.0 * KRYLOV_TOL)  # log error floor above which a step skips eigh
ORTHO_TOL = 1e-12      # largest |V^H V - I| a bare Lanczos basis may keep
DGKS_RATIO = math.sqrt(0.5)   # a second Gram-Schmidt pass when ||w|| falls below this
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
        times = tuple(sorted(float(t) for t in self.snapshot_times))
        if not all(0 <= t <= self.t_max for t in times):
            raise ValueError(f"snapshot times must lie in [0, t_max = {self.t_max}]")
        object.__setattr__(self, "snapshot_times", times)

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
    reorth_reruns: int = 0     # Lanczos intervals rebuilt with reorthogonalisation


class Interval:
    """exp(-G tau) psi = basis @ rotation @ (exp(-rates tau) * coef), tau >= 0.

    The columns of basis @ rotation are orthonormal unless a Gram matrix
    is given.
    """

    reorthogonalised = False   # a Lanczos basis rebuilt with reorthogonalisation

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
        if np.ndim(taus) == 0:
            x = np.exp(-self.rates * taus) * self.coef
        else:
            x = (np.exp(-np.multiply.outer(self.rates, np.asarray(taus, dtype=float)))
                 * self.coef[:, None])
        if self.rotation is not None:
            x = self.rotation @ x
        return self.basis @ x


def _jump_time(interval: Interval, r: float, tau_max: float, start=None):
    """(tau, rate): the time the survival falls to r and its decay rate
    -dP/dtau there, or (tau_max, None) if it stays above r until then.
    Newton on log(survival), which is linear for a single decay rate, from
    `start` (default 0), safeguarded by bisection of the bracket."""
    if interval.survival(tau_max) >= r:
        return tau_max, None
    lo, hi, log_r = 0.0, tau_max, math.log(r)
    tau = start if start is not None and 0.0 < start < tau_max else 0.0
    while True:
        p, slope = interval.survival_slope(tau)
        f = math.log(p) - log_r if p > 0.0 else -math.inf
        if abs(f) <= ROOT_RTOL:
            return tau, -slope
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        new = tau - f * p / slope if slope < 0.0 and p > 0.0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if new == tau:          # the bracket is down to adjacent floats
            return tau, -slope
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
        from scipy.linalg import expm

        x = expm(-tau * self.G) @ self.psi
        return (float(np.vdot(x, x).real),
                -2.0 * float(np.vdot(x, self.G @ x).real))

    def states(self, taus) -> np.ndarray:
        from scipy.linalg import expm

        if np.ndim(taus):
            return np.column_stack([self.states(tau) for tau in taus])
        return expm(-float(taus) * self.G) @ self.psi


class KrylovExp:
    """exp(-A tau) for a sparse real symmetric positive semi-definite A,
    from a Lanczos basis built per interval.

    The error of the Lanczos approximation y_k(tau) obeys
    ||y(tau) - y_k(tau)|| <= ||psi|| beta_k int_0^tau |e_k^T exp(-s T_k) e_1| ds
    (Saad, SIAM J. Numer. Anal. 29, 209 (1992)).  The integrand keeps the
    sign (-1)^(k-1) (exp(-s T_k) is entrywise nonnegative up to that
    checkerboard sign), so the bound is the modulus of one sum over the
    eigenpairs of T_k; it grows with tau, and the basis grows until it is
    below KRYLOV_TOL at the sampled tau.

    The same sign structure bounds it from below with no eigensolve.  With
    the checkerboard sign flipped out, -T_k is a Metzler matrix no smaller
    than -d I + B, where d is the largest diagonal entry of T_k (>= 0) and
    B holds the off-diagonals beta_1 .. beta_(k-1) > 0.  exp of a Metzler
    matrix is monotone in its entries, and the only path of length k - 1
    from site 1 to site k in B gives (B^(k-1))_(k,1) = beta_1 .. beta_(k-1),
    so the bound is at least

        ||psi|| beta_1 beta_2 .. beta_k exp(-tau d) tau^k / k!.

    While that floor is above the tolerance (with a margin for rounding)
    at the tau of the previous solve, that tau cannot be accepted, so the
    step skips T_k's eigensolve and goes on to the next Lanczos vector.

    Each new vector runs the bare three-term recurrence.  The bound needs
    only the Lanczos relation A V_k = V_k T_k + beta_k q_(k+1) e_k^T, which
    holds to rounding without reorthogonalisation (Druskin, Greenbaum &
    Knizhnerman, SIAM J. Sci. Comput. 19, 38 (1998)), and orthogonality is
    lost only slowly at the basis sizes a jump needs.  Once the bound
    accepts tau, one Gram matrix V^H V checks the basis; if it is off the
    identity by more than ORTHO_TOL, the interval is rebuilt with one
    classical Gram-Schmidt pass per vector against the whole basis, and a
    second pass when the first cancels ||w|| below 1/sqrt(2) of its value
    (the DGKS test of Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772
    (1976)).  The rebuilt interval is flagged `reorthogonalised`.
    """

    def __init__(self, A):
        self.A = sp.csr_matrix(A)

    def interval(self, psi, r, tau_max):
        iv, tau, rate = self._lanczos(psi, r, tau_max, reorth=False)
        V = iv.basis        # Fortran-ordered, so one gemm forms V^H V
        gram = _blas(V.dtype)[1](1.0, V, V, trans_a=2)
        if np.abs(gram - np.eye(len(gram))).max() > ORTHO_TOL:
            iv, tau, rate = self._lanczos(psi, r, tau_max, reorth=True)
            iv.reorthogonalised = True
        return iv, tau, rate

    def _lanczos(self, psi, r, tau_max, reorth):
        norm = math.sqrt(np.vdot(psi, psi).real)
        Q = np.empty((KRYLOV_MAX, psi.size), dtype=psi.dtype)
        np.divide(psi, norm, out=Q[0])
        axpy = _blas(Q.dtype)[0]
        T = np.zeros((KRYLOV_MAX, KRYLOV_MAX))
        tau, log_scale, d = None, math.log(norm), 0.0
        for j in range(KRYLOV_MAX):
            if j:
                np.divide(w, beta, out=Q[j])
                T[j - 1, j] = T[j, j - 1] = beta
            w = self.A @ Q[j]
            T[j, j] = alpha = np.vdot(Q[j], w).real
            w = axpy(Q[j], w, a=-alpha)         # in place
            if j:
                w = axpy(Q[j - 1], w, a=-beta)
            basis = Q[:j + 1]
            beta = math.sqrt(np.vdot(w, w).real)
            if reorth:
                for _ in range(2):      # a second pass only on cancellation
                    before = beta
                    w -= (basis @ w.conj()).conj() @ basis
                    beta = math.sqrt(np.vdot(w, w).real)
                    if beta >= before * DGKS_RATIO:
                        break
            log_scale += math.log(beta) if beta > 0.0 else -math.inf
            d = max(d, alpha)
            k = j + 1
            if (tau is not None and k < KRYLOV_MAX
                    and _log_error_floor(log_scale, k, tau, d) > LOG_SKIP):
                continue
            if k == 1:
                theta, S = np.array([max(alpha, 0.0)]), np.ones((1, 1))
            else:
                theta, S = np.linalg.eigh(T[:k, :k])
                theta = np.maximum(theta, 0.0)
            iv = Interval(basis.T, theta, norm * S[0], rotation=S)
            weight = beta * S[-1] * iv.coef
            # solve for tau only once the bound holds at the previous tau
            if tau is None or _lanczos_error(weight, theta, tau) <= KRYLOV_TOL:
                tau, rate = _jump_time(iv, r, tau_max, start=tau)
                if _lanczos_error(weight, theta, tau) <= KRYLOV_TOL:
                    return iv, tau, rate
        # the largest basis cannot reach tau: solve again within the
        # horizon where its bound holds, and end the interval there
        while _lanczos_error(weight, theta, tau) > KRYLOV_TOL:
            tau *= 0.5
        return (iv, *_jump_time(iv, r, tau))


@functools.cache
def _blas(dtype):
    """BLAS (axpy, gemm) for arrays of `dtype`, looked up at the first
    Lanczos interval: importing scipy.linalg at module load would slow
    every run that never needs it."""
    from scipy.linalg import get_blas_funcs

    return get_blas_funcs(("axpy", "gemm"), dtype=dtype)


def _log_error_floor(log_scale, k, tau, d):
    """log of ||psi|| beta_1 .. beta_k exp(-tau d) tau^k / k!, the lower
    bound on the Lanczos error bound of `KrylovExp`, from log_scale =
    log(||psi|| beta_1 .. beta_k) and d = max(diag T_k, 0)."""
    if not tau > 0.0:
        return -math.inf
    return log_scale + k * math.log(tau) - tau * d - math.lgamma(k + 1)


def _lanczos_error(weight, theta, tau):
    """|sum_i weight_i int_0^tau exp(-theta_i s) ds|."""
    x = theta * tau
    if x.min() >= 1e-8:
        return abs(float(weight @ (-np.expm1(-x) / theta)))
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

    `stacked` holds sqrt(Lambda) d_j for every phase-lock bond, one block
    of rows each in bond order; `diagonal` holds the dephasing channels
    c_j = sqrt(Gamma) n_j, which are diagonal, as the (dim, L) table of
    their rates Gamma n_j^2 per basis state (no columns when Gamma = 0).
    `labels` gives the (kind, site) of every live channel, bonds first.
    decay is the real symmetric A = (1/2) sum_k rate_k b_k† b_k, the
    no-jump generator: the survival over tau is ||exp(-A tau) psi||^2.
    It is (1/2)(Lambda K + diag(Gamma sum_j n_j^2)), with the phase-lock
    Gram K and the unit-rate d_j from the basis's cache, shared across
    rates.
    """

    def __init__(self, basis: FockBasis, rate_phaselock: float, rate_dephase: float):
        self.basis = basis
        live_bonds = basis.L - 1 if rate_phaselock != 0.0 else 0
        live_sites = basis.L if rate_dephase != 0.0 else 0
        self.labels = ([(JumpKind.PHASE_LOCK, j) for j in range(1, live_bonds + 1)]
                       + [(JumpKind.DEPHASE, j) for j in range(1, live_sites + 1)])
        self.diagonal = rate_dephase * basis.table[:, :live_sites] ** 2.0
        decay = sp.diags(self.diagonal.sum(axis=1), format="csr")
        if live_bonds:
            self.stacked = math.sqrt(rate_phaselock) * unit_jumps(basis, JumpKind.PHASE_LOCK)
            decay = rate_phaselock * phaselock_gram(basis) + decay
        else:
            self.stacked = sp.csr_matrix((0, basis.dim))
        self.decay = sp.csr_matrix(0.5 * decay)
        self.propagator = propagator(self.decay, hermitian=True)

    def max_total_rate(self) -> float:
        """Largest eigenvalue of the total jump-rate operator 2A.

        The Lanczos start vector is a fixed-seed Gaussian draw, so the
        value is the same on every call; unlike an all-ones start it also
        overlaps the reflection-odd sector.
        """
        if self.basis.dim <= 64:
            return float(np.linalg.eigvalsh(2.0 * self.decay.toarray())[-1])
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).standard_normal(self.basis.dim)
        return float(eigsh(2.0 * self.decay, k=1, which="LA", v0=v0,
                           return_eigenvectors=False)[0])


def _bond_weights(phi: np.ndarray, stacked):
    """(outputs, weights) of the row blocks of `stacked` on phi: the
    outputs one row per channel, the weights ||b_k phi||^2."""
    out = (stacked @ phi).reshape(-1, phi.size)
    return out, np.einsum("ij,ij->i", out.conj(), out).real


def _inverse_cdf(weights: np.ndarray, target: float):
    """The channel whose CDF interval over `weights` (dead ones already
    zero) holds target, clamped onto the first and last live channel;
    None when no channel is live."""
    cum = np.cumsum(weights)
    if not (cum.size and cum[-1] > 0.0):
        return None
    k = min(int(np.searchsorted(cum, max(target, 0.0), side="right")), len(cum) - 1)
    while weights[k] == 0.0:  # target rounded onto the end of the CDF
        k -= 1
    return k


def select_jump(phi: np.ndarray, stacked, diagonal: np.ndarray, u: float,
                total: float = None):
    """Inverse-CDF channel choice with the uniform draw u.  Returns
    (channel, normalised post-jump state).

    The channels are the row blocks of `stacked`, weighed by the product
    `stacked @ phi`, then the columns of `diagonal`: each holds the rates
    |c_j|^2 of a diagonal jump operator c_j with nonnegative entries,
    weighed as |phi|^2 @ diagonal with no operator product.  Weights at
    or below CHANNEL_EPS of the total are dead.  total, if given, is the
    summed weight of every channel (2 phi^H A phi for the no-jump
    generator A); the bonds are then weighed only if u * total falls
    below the share the sites leave them, and if every bond turns out
    dead, the sites take the draw.
    """
    sites = (phi.conj() * phi).real @ diagonal
    out = None
    if total is None or not total > 0.0:
        out, bonds = _bond_weights(phi, stacked)
        total = bonds.sum() + sites.sum()
    sites[sites <= CHANNEL_EPS * total] = 0.0
    target, bond_share = u * total, total - sites.sum()
    if target < bond_share:
        if out is None:
            out, bonds = _bond_weights(phi, stacked)
        bonds[bonds <= CHANNEL_EPS * total] = 0.0
        k = _inverse_cdf(bonds, target)
        if k is not None:
            return k, out[k] / math.sqrt(bonds[k])
    j = _inverse_cdf(sites, target - bond_share)
    if j is None:
        raise NumericGuardError("jump selected but every channel amplitude is zero")
    post = np.sqrt(diagonal[:, j]) * phi
    return stacked.shape[0] // phi.size + j, post / math.sqrt(sites[j])


def step(psi: np.ndarray, channels, t: float, t_stop: float, r: float, rng):
    """One interval of the unraveling, from t to the next jump or to t_stop.

    r is the survival probability the pending jump waits for.  At a jump,
    rng draws the channel and then the next jump's r; at a stop the
    pending jump carries over with r/p, p the survival over the interval.
    Returns (state, time reached, r, channel or None, Interval of the
    no-jump evolution from psi).
    """
    iv, tau, rate = channels.propagator.interval(psi, r, t_stop - t)
    phi = iv.states(tau)
    if rate is None:
        p = float(np.vdot(phi, phi).real)
        t_new = t_stop if tau == t_stop - t else t + tau
        return phi / math.sqrt(p), t_new, r / p, None, iv
    # the survival's decay rate -dP/dtau is the total channel weight: with
    # both kinds of channel, a site can be chosen without the bond products
    total = rate if channels.stacked.shape[0] and channels.diagonal.shape[1] else None
    k, out = select_jump(phi, channels.stacked, channels.diagonal, rng.random(), total)
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

    Intervals end exactly at every stop time (ascending, in [0, t_max])
    and at t_max.
    channels supplies `propagator` (exp(-G tau) for the no-jump
    generator G) and the jump operators in channel order: `stacked`, one
    block of rows per channel, then the diagonal ones as the columns of
    `diagonal` (see `select_jump`).
    """
    t, r = 0.0, 1.0 - rng.random()
    for t_stop in [*stops, t_max]:
        while t < t_stop:
            t0 = t
            psi, t, r, k, iv = step(psi, channels, t0, t_stop, r, rng)
            yield Event(t0, t, k, psi, iv)


def trajectory_rng(master_seed: int, traj_index: int):
    """Counter-based per-trajectory stream; independent of worker count."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


def _check_state(basis: FockBasis, psi0: np.ndarray):
    if np.shape(psi0) != (basis.dim,):
        raise ValueError(f"psi0 of shape {np.shape(psi0)} is not a state of dim {basis.dim}")


def run_trajectory(basis: FockBasis, psi0: np.ndarray, cfg: MonitoringConfig,
                   channels: JumpChannels = None, traj_index: int = 0) -> Trajectory:
    """Evolve one trajectory from the amplitudes psi0 over `basis`;
    deterministic given (cfg.seed, traj_index).

    Snapshots are taken at exactly the requested times.  The states keep
    psi0's dtype: every chain operator is real.
    """
    _check_state(basis, psi0)
    if channels is None:
        channels = JumpChannels(basis, cfg.rate_phaselock, cfg.rate_dephase)
    psi = psi0 / np.linalg.norm(psi0)
    snapshots = [(s, psi.copy()) for s in cfg.snapshot_times if s <= 0.0]
    pending = list(cfg.snapshot_times[len(snapshots):])
    jumps, sizes, reruns = [], [], 0   # sizes: propagator basis per interval
    for ev in unravel(psi, channels, cfg.t_max, trajectory_rng(cfg.seed, traj_index),
                      stops=pending):
        sizes.append(ev.interval.basis.shape[1])
        reruns += ev.interval.reorthogonalised
        psi = ev.psi
        if ev.channel is not None:
            kind, site = channels.labels[ev.channel]
            jumps.append(JumpRecord(time=ev.t, kind=kind, site=site))
        while pending and pending[0] <= ev.t:
            snapshots.append((pending.pop(0), psi.copy()))
    lanczos = isinstance(channels.propagator, KrylovExp)
    return Trajectory(jumps=jumps, snapshots=snapshots, final_state=psi,
                      n_steps=len(sizes), krylov_dims=tuple(sizes) if lanczos else (),
                      reorth_reruns=reruns)


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
    reorth_reruns: np.ndarray = None    # (M,) Lanczos intervals rebuilt, per trajectory
    basis: FockBasis = field(repr=False, default=None)

    def states_at(self, t: float) -> np.ndarray:
        """The (M, dim) states at the exact requested snapshot time t."""
        try:
            return self.states[float(t)]
        except KeyError:
            raise KeyError(f"no snapshot at t={t}; have {sorted(self.states)}") from None


_WORKER_CTX = {}     # run_trajectory's arguments but traj_index, per worker


def _summary(traj: Trajectory):
    kinds = [j.kind for j in traj.jumps]
    return (traj.snapshots, {k: kinds.count(k) for k in JumpKind}, traj.n_steps,
            traj.krylov_dims, traj.reorth_reruns)


def _worker_run(i):
    return i, _summary(run_trajectory(traj_index=i, **_WORKER_CTX))


def run_ensemble(basis: FockBasis, psi0: np.ndarray, cfg: MonitoringConfig,
                 M: int, workers: int = 1,
                 channels: JumpChannels = None) -> EnsembleResult:
    """M independent trajectories; aggregation order is by trajectory
    index, so results are identical for any worker count."""
    if M < 1:
        raise ValueError("need at least one trajectory")
    _check_state(basis, psi0)
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
                                 initializer=_WORKER_CTX.update,
                                 initargs=(dict(basis=basis, psi0=psi0, cfg=cfg,
                                                channels=channels),)) as pool:
            for i, summary in pool.map(_worker_run, range(M),
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
                          reorth_reruns=np.array([r[4] for r in results]),
                          basis=basis)


def default_initial_state(basis: FockBasis) -> np.ndarray:
    """Uniform Fock state |1,1,...,1> (requires filling 1)."""
    if basis.N != basis.L:
        raise ValueError("uniform Fock initial state needs N == L")
    return fock_state(basis, (1,) * basis.L)
