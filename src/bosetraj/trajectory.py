"""Quantum-jump unraveling of the two competing monitoring channels.

Exact waiting-time (event-driven) method: each jump draws r and solves
the no-jump survival ||exp(-G tau) psi||^2 = r for its time tau, then a
second draw picks the channel by inverse CDF over the fixed
channel order (all phase-lock bonds ascending, then all dephasing sites
ascending).  An interval that reaches a stop (a snapshot time or t_max)
first ends there exactly, and the pending jump keeps waiting for the
conditional survival r/p, so one draw per jump stays exact.

The loop advances a batch of trajectories in lockstep, one interval per
live member per round, each member with its own time, r, next stop and
Philox stream; a member's results are bitwise those of its batch of one,
so they depend on neither the batch nor the worker count.

exp(-G tau) comes from one of two propagators, chosen by dimension: one
dense eigendecomposition per generator (guarded by a reconstruction
check), or an adaptive Lanczos basis per interval for large sparse real
symmetric generators, grown until its a-posteriori error bound at the
sampled tau is below KRYLOV_TOL.  The dense propagator solves a round
for the whole batch at once (one coefficient product, a vectorised
Newton, one state product).  Lanczos (and the expm fallback) members
share no basis, so their propagators solve a round member by member,
and their batches hold one member.  Either way a round hands the loop
every member's interval, jump time, decay rate and state, and the
round's jumping members have their channels chosen together.  The
chain's generator is the real symmetric decay operator A; the ancilla
circuits (`ancilla.py`) run the same event loop on their non-Hermitian
i H_nh.
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
LOG_SKIP = math.log(2.0 * KRYLOV_TOL)  # log error floor above which a step skips its eigensolve
ORTHO_TOL = 1e-12      # largest |V^H V - I| a bare Lanczos basis may keep
DGKS_RATIO = math.sqrt(0.5)   # a second Gram-Schmidt pass when ||w|| falls below this
ROOT_RTOL = 1e-14      # relative accuracy of the survival at the jump time
BLOCK_AMPLITUDES = 1 << 16   # most amplitudes (members x dim) a batch holds per state array


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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        times = tuple(sorted(float(t) for t in self.snapshot_times))
        if not all(0 <= t <= self.t_max for t in times):
            raise ValueError(f"snapshot times must lie in [0, t_max = {self.t_max}]")
        object.__setattr__(self, "snapshot_times", times)


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
    """exp(-G tau) psi = basis @ rotation @ (exp(-rates tau) * coef), tau >= 0:
    the no-jump states of one interval.  Its propagator solves the survival."""

    reorthogonalised = False   # a Lanczos basis rebuilt with reorthogonalisation

    def __init__(self, basis, rates, coef, rotation=None):
        self.basis, self.rates, self.coef, self.rotation = basis, rates, coef, rotation

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


def _rows(X, M):
    """X[b] @ M for every row b, each bitwise what that row gives alone: a
    stacked product, as the rows of a plain X @ M can depend on how many
    rows X has."""
    return np.matmul(X[:, None, :], M)[:, 0]


def _abs2(x):
    """|x|^2 elementwise, as a real array."""
    return (x.conj() * x).real if np.iscomplexobj(x) else x * x


def _survival_slopes(rates, coef, gram_t, tau):
    """Per row: the survival ||exp(-G tau) psi||^2 of the eigen-coefficients
    `coef` at that row's tau, and its tau-derivative."""
    x = np.exp(-rates * tau[:, None]) * coef
    xy = _abs2(x) if gram_t is None else x.conj() * _rows(x, gram_t)
    rates = rates.conj() if np.iscomplexobj(rates) else rates
    return xy.real.sum(axis=-1), -2.0 * (rates * xy).real.sum(axis=-1)


def _survival_slope(rates, coef, tau: float):
    """The survival ||x||^2 of x = exp(-rates tau) * coef and its
    tau-derivative: the survival of an interval whose basis @ rotation has
    orthonormal columns, as a Lanczos interval's has."""
    x = np.exp(-rates * tau) * coef
    return (float(np.vdot(x, x).real),
            -2.0 * float(np.vdot(rates * x, x).real))


def _jump_time(survival_slope, r: float, tau_max: float, start=None):
    """(tau, rate): the time the survival falls to r and its decay rate
    -dP/dtau there, or (tau_max, NaN) if it stays above r until then.
    survival_slope(tau) gives the survival and its tau-derivative.
    Newton on log(survival), which is linear for a single decay rate, from
    `start` (default 0), safeguarded by bisection of the bracket."""
    if survival_slope(tau_max)[0] >= r:
        return tau_max, math.nan
    lo, hi, log_r = 0.0, tau_max, math.log(r)
    tau = start if start is not None and 0.0 < start < tau_max else 0.0
    while True:
        p, slope = survival_slope(tau)
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


def _jump_times(rates, coef, gram_t, r, tau_max):
    """`_jump_time` from tau = 0 for every row of `coef` at once: the same
    bracket, stopping rule and p > 0 guard, member by member, with each
    member leaving the iteration once its own root is found.  Returns
    (tau, rate) arrays, rate NaN where the survival stays above r until
    tau_max."""
    tau, rate = tau_max.copy(), np.full(len(r), math.nan)
    idx = np.flatnonzero(~(_survival_slopes(rates, coef, gram_t, tau_max)[0] >= r))
    c, lo, hi, t = coef[idx], np.zeros(idx.size), tau_max[idx], np.zeros(idx.size)
    log_r = np.log(r[idx])
    # log(p) for p <= 0 (or NaN) is -inf or NaN: either fails every test
    # below as the scalar solve's -inf does, and no Newton step uses it
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            p, slope = _survival_slopes(rates, c, gram_t, t)
            f = np.log(p) - log_r
            up = f > 0.0
            lo, hi = np.where(up, t, lo), np.where(up, hi, t)
            new = np.where((slope < 0.0) & (p > 0.0), t - f * p / slope, math.nan)
            new = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
            # found, or the bracket is down to adjacent floats
            done = (np.abs(f) <= ROOT_RTOL) | (new == t)
            if done.any():
                tau[idx[done]], rate[idx[done]] = t[done], -slope[done]
                keep = ~done
                idx, c, lo, hi, new, log_r = (idx[keep], c[keep], lo[keep], hi[keep],
                                              new[keep], log_r[keep])
            t = new
    return tau, rate


class DenseExp:
    """exp(-G tau) from one eigendecomposition G = V diag(lam) V^-1."""

    kind = "dense"

    def __init__(self, G, hermitian: bool):
        G = G.toarray() if sp.issparse(G) else np.asarray(G)
        if hermitian:
            lam, V = np.linalg.eigh(G)
            V_inv, gram = V.conj().T, None
        else:
            lam, V = np.linalg.eig(G)
            try:
                V_inv = np.linalg.inv(V)
            except np.linalg.LinAlgError:     # no eigenbasis at all
                V_inv = np.full_like(V, np.nan)
            gram = V.conj().T @ V
        scale = np.linalg.norm(G)
        err = np.linalg.norm((V * lam) @ V_inv - G)
        if not err <= RECON_TOL * scale:
            raise NumericGuardError(
                f"eigendecomposition of the no-jump generator reconstructs it "
                f"to {err:.3g} against a norm of {scale:.3g}: defective or "
                f"ill-conditioned")
        self.recon_error = float(err / scale) if scale else 0.0
        self.lam, self.V = lam, V
        # the batch's products take the members as rows: coefficients are
        # psi @ V^-T and states x @ V^T
        self._coef_of, self._state_of = V_inv.T.copy(), V.T.copy()
        self._gram_t = None if gram is None else gram.T.copy()

    def intervals(self, psi, r, tau_max):
        """One interval for every row of psi, each with its own r and
        tau_max, solved together.  Returns (intervals, tau, rate,
        unnormalised states at tau), rate NaN where no jump falls before
        tau_max; every member is bitwise its own batch of one."""
        coef = _rows(psi, self._coef_of)
        tau, rate = _jump_times(self.lam, coef, self._gram_t, r, tau_max)
        phi = _rows(np.exp(-self.lam * tau[:, None]) * coef, self._state_of)
        return [Interval(self.V, self.lam, c) for c in coef], tau, rate, phi


def _batched(solved):
    """`DenseExp.intervals`'s (intervals, tau, rate, states at tau) from
    every member's own (interval, tau, rate)."""
    ivs, tau, rate = zip(*solved)
    return (list(ivs), np.array(tau), np.array(rate),
            np.array([iv.states(x) for iv, x in zip(ivs, tau)]))


class ExpmExp:
    """exp(-G tau) from scipy's expm at every evaluation: the fallback for
    a non-Hermitian G with no usable eigenbasis (at or near an
    exceptional point)."""

    kind = "expm"

    def __init__(self, G):
        self.G = G.toarray() if sp.issparse(G) else np.asarray(G)

    def intervals(self, psi, r, tau_max):
        """`DenseExp.intervals`, solved member by member with one expm
        per tau."""
        solved = []
        for x, r_m, tau_max_m in zip(psi, r.tolist(), tau_max.tolist()):
            iv = ExpmInterval(self.G, x)
            solved.append((iv, *_jump_time(functools.partial(self._survival_slope, iv),
                                           r_m, tau_max_m)))
        return _batched(solved)

    def _survival_slope(self, iv, tau: float):
        """The survival ||x||^2 of x = iv.states(tau) and its tau-derivative
        -2 Re x^H G x."""
        x = iv.states(tau)
        return (float(np.vdot(x, x).real),
                -2.0 * float(np.vdot(x, self.G @ x).real))


class ExpmInterval(Interval):
    """An `Interval` of exp(-G tau) psi with one expm per tau."""

    def __init__(self, G, psi):
        self.G, self.psi = G, psi

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

    kind = "lanczos"

    def __init__(self, A):
        self.A = sp.csr_matrix(A)

    def intervals(self, psi, r, tau_max):
        """`DenseExp.intervals`, solved member by member, each with its
        own Lanczos basis; a basis that fails its orthogonality check is
        rebuilt with reorthogonalisation."""
        solved = []
        for member in zip(psi, r.tolist(), tau_max.tolist()):
            iv, tau, rate = self._lanczos(*member, reorth=False)
            V = iv.basis        # Fortran-ordered, so one gemm forms V^H V
            gram = _lapack(V.dtype)[1](1.0, V, V, trans_a=2)
            gram.flat[::len(gram) + 1] -= 1.0
            if np.abs(gram).max() > ORTHO_TOL:
                iv, tau, rate = self._lanczos(*member, reorth=True)
                iv.reorthogonalised = True
            solved.append((iv, tau, rate))
        return _batched(solved)

    def _lanczos(self, psi, r, tau_max, reorth):
        norm = math.sqrt(np.vdot(psi, psi).real)
        Q = np.empty((KRYLOV_MAX, psi.size), dtype=psi.dtype)
        np.divide(psi, norm, out=Q[0])
        axpy, _, stev = _lapack(Q.dtype)
        alpha, beta = np.empty(KRYLOV_MAX), np.empty(KRYLOV_MAX)    # T's diagonals
        tau, log_scale, d = None, math.log(norm), 0.0
        for j in range(KRYLOV_MAX):
            if j:
                np.divide(w, beta[j - 1], out=Q[j])
            w = self.A @ Q[j]
            alpha[j] = a = np.vdot(Q[j], w).real
            w = axpy(Q[j], w, a=-a)         # in place
            if j:
                w = axpy(Q[j - 1], w, a=-beta[j - 1])
            basis = Q[:j + 1]
            b = math.sqrt(np.vdot(w, w).real)
            if reorth:
                for _ in range(2):      # a second pass only on cancellation
                    before = b
                    w -= (basis @ w.conj()).conj() @ basis
                    b = math.sqrt(np.vdot(w, w).real)
                    if b >= before * DGKS_RATIO:
                        break
            beta[j] = b
            log_scale += math.log(b) if b > 0.0 else -math.inf
            d = max(d, a)
            k = j + 1
            if (tau is not None and k < KRYLOV_MAX
                    and _log_error_floor(log_scale, k, tau, d) > LOG_SKIP):
                continue
            # T_k is real symmetric tridiagonal, for complex states too
            # (stev wants its off-diagonal padded to one entry at k = 1)
            theta, S, info = stev(alpha[:k], beta[:max(k - 1, 1)])
            if info:
                raise np.linalg.LinAlgError(f"eigensolve of T_{k} did not converge")
            theta = np.maximum(theta, 0.0)
            iv = Interval(basis.T, theta, norm * S[0], rotation=S)
            survival = functools.partial(_survival_slope, theta, iv.coef)
            weight = b * S[-1] * iv.coef
            # solve for tau only once the bound holds at the previous tau
            if tau is None or _lanczos_error(weight, theta, tau) <= KRYLOV_TOL:
                tau, rate = _jump_time(survival, r, tau_max, start=tau)
                if _lanczos_error(weight, theta, tau) <= KRYLOV_TOL:
                    return iv, tau, rate
        # the largest basis cannot reach tau: solve again within the
        # horizon where its bound holds, and end the interval there
        while _lanczos_error(weight, theta, tau) > KRYLOV_TOL:
            tau *= 0.5
        return (iv, *_jump_time(survival, r, tau))


@functools.cache
def _lapack(dtype):
    """BLAS (axpy, gemm) for arrays of `dtype` and LAPACK's real
    tridiagonal eigensolver dstev, looked up at the first Lanczos
    interval: importing scipy.linalg at module load would slow every run
    that never needs it."""
    from scipy.linalg import get_blas_funcs
    from scipy.linalg.lapack import dstev

    return (*get_blas_funcs(("axpy", "gemm"), dtype=dtype), dstev)


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


def _bad_total(total):
    """The error for a total channel weight (a scalar or one per member)
    that is not a positive finite number: no jump can be drawn from it."""
    return NumericGuardError(f"jump selected at a total channel rate of {total}, "
                             f"not a positive finite number")


def _bond_weights_rows(phi: np.ndarray, stacked):
    """(outputs, weights) of the row blocks of `stacked` on every row of
    phi: the outputs (members, channels, dim), the weights ||b_k phi||^2.
    One sparse product for the whole batch, each column of which is
    bitwise that member's own product."""
    # C order, so the sums run along contiguous rows for any batch size
    out = np.ascontiguousarray((stacked @ phi.T).T).reshape(len(phi), -1, phi.shape[1])
    return out, _abs2(out).sum(axis=-1)


def _inverse_cdfs(weights: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row, the channel whose CDF interval over `weights` (dead ones
    already zero) holds target, clamped onto the first and last live
    channel; -1 where no channel is live.  The CDF is summed in channel
    order, as np.cumsum sums it."""
    k = []
    for w, t in zip(weights.tolist(), np.maximum(target, 0.0).tolist()):
        cdf, choice = 0.0, -1
        for i, x in enumerate(w):
            cdf += x
            if x > 0.0:
                choice = i
            if cdf > t:         # never, for a target at or past the end (or NaN)
                break
        k.append(choice)
    return np.array(k, dtype=np.intp)


def _select_rows(phi: np.ndarray, stacked, diagonal: np.ndarray, u: np.ndarray,
                 total: np.ndarray):
    """Inverse-CDF channel choice for every row of phi, each with its own
    uniform draw in u and total weight.  Returns (channels, normalised
    post-jump states); each row's choice is bitwise what it gets alone.

    The channels are the row blocks of `stacked`, weighed by the product
    `stacked @ phi`, then the columns of `diagonal`: each holds the rates
    |c_j|^2 of a diagonal jump operator c_j with nonnegative entries,
    weighed as |phi|^2 @ diagonal with no operator product.  A row's total
    is its summed weight over every channel: the survival's decay rate
    -dP/dtau at the jump, which the propagator returns (2 phi^H A phi for
    the no-jump generator A).  Weights at or below CHANNEL_EPS of it are
    dead.  A row's bonds are weighed only if u * total falls below the
    share its sites leave them, by one sparse product for all such rows,
    and if every bond turns out dead, the sites take the draw.
    """
    if not all(0.0 < x < math.inf for x in total.tolist()):     # NaN fails too
        raise _bad_total(total)
    floor = CHANNEL_EPS * total[:, None]
    sites = _rows(_abs2(phi), diagonal)
    sites[sites <= floor] = 0.0
    target = u * total
    bond_share = total - sites.sum(axis=-1)
    k, post = np.full(len(phi), -1), np.empty_like(phi)
    rows = (target < bond_share).nonzero()[0]
    if rows.size:
        out, bonds = _bond_weights_rows(phi[rows], stacked)
        bonds[bonds <= floor[rows]] = 0.0
        k[rows] = kb = _inverse_cdfs(bonds, target[rows])
        i = (kb >= 0).nonzero()[0]
        post[rows[i]] = out[i, kb[i]] / np.sqrt(bonds[i, kb[i]])[:, None]
    rows = (k < 0).nonzero()[0]
    if rows.size:
        j = _inverse_cdfs(sites[rows], target[rows] - bond_share[rows])
        if min(j.tolist()) < 0:
            raise NumericGuardError("jump selected but every channel amplitude is zero")
        k[rows] = stacked.shape[0] // phi.shape[1] + j
        post[rows] = np.sqrt(diagonal.T[j]) * phi[rows] / np.sqrt(sites[rows, j])[:, None]
    return k, post


def _advance(psi: np.ndarray, channels, t, t_stop, r, rngs):
    """One interval of the unraveling for every row of psi, from t to that
    member's next jump or its t_stop.

    r is the survival probability each pending jump waits for.  At a
    jump, the member's rng draws the channel and then the next jump's r;
    at a stop the pending jump carries over with r/p, p the survival over
    the interval.  The propagator solves the round's intervals and the
    jumping members' channels are chosen together.  Returns (states,
    times reached, r, channel per member (-1 for none), Interval per
    member of the no-jump evolution from psi).
    """
    tau_max = t_stop - t
    ivs, tau, rate, phi = channels.propagator.intervals(psi, r, tau_max)
    stopped = np.isnan(rate)
    stay, hit = stopped.nonzero()[0], (~stopped).nonzero()[0]
    out, t_new, r_new, k = np.empty_like(phi), t + tau, r.copy(), np.full(len(psi), -1)
    if stay.size:
        p = _abs2(phi[stay]).sum(axis=-1)
        out[stay] = phi[stay] / np.sqrt(p)[:, None]
        t_new[stay] = np.where(tau[stay] == tau_max[stay], t_stop[stay], t_new[stay])
        r_new[stay] = r[stay] / p
    if hit.size:
        hit_rngs = [rngs[m] for m in hit.tolist()]
        u = np.array([rng.random() for rng in hit_rngs])
        k[hit], out[hit] = _select_rows(phi[hit], channels.stacked, channels.diagonal, u,
                                        rate[hit])
        r_new[hit] = [1.0 - rng.random() for rng in hit_rngs]
    return out, t_new, r_new, k, ivs


def step(psi: np.ndarray, channels, t: float, t_stop: float, r: float, rng):
    """`_advance` for one state: (state, time reached, r, channel or None,
    Interval of the no-jump evolution from psi)."""
    out, t_new, r_new, k, ivs = _advance(psi[None], channels, np.array([t], dtype=float),
                                         np.array([t_stop], dtype=float),
                                         np.array([r], dtype=float), [rng])
    return out[0], float(t_new[0]), float(r_new[0]), None if k[0] < 0 else int(k[0]), ivs[0]


@dataclass
class Event:
    """One interval of a member of the event loop: [t0, t], ending in a
    jump on `channel` or at a stop (channel None)."""
    t0: float
    t: float
    channel: int
    psi: np.ndarray            # normalised state at t, after any jump
    interval: Interval         # no-jump evolution from the state at t0
    member: int = 0            # row of the batch


def unravel_batch(psi: np.ndarray, channels, t_max: float, rngs, stops=(),
                  max_jumps: int = None):
    """Exact event loop for a batch of trajectories in lockstep: each round
    advances every live member by one interval and yields the round's
    Events, in member order.

    psi holds one start state per row and rngs one stream per member.
    Intervals end exactly at every stop time (ascending, in [0, t_max])
    and at t_max; a member leaves the batch at t_max, or after its
    max_jumps-th jump if given.
    channels supplies `propagator` (exp(-G tau) for the no-jump
    generator G) and the jump operators in channel order: `stacked`, one
    block of rows per channel, then the diagonal ones as the columns of
    `diagonal` (see `_select_rows`).
    """
    ends = np.array([*stops, t_max], dtype=float)
    # the live members' rows, compacted as members leave; no array is
    # written after a round yields it, so an Event's state stays as it was
    live, t = np.arange(len(psi)), np.zeros(len(psi))
    r = np.array([1.0 - rng.random() for rng in rngs])
    jumps = np.zeros(len(psi), dtype=int)
    limit = math.inf if max_jumps is None else max_jumps
    while True:
        # each member's next stop: the first one after its time
        stop = np.searchsorted(ends, t, side="right")
        going = (stop < len(ends)) & (jumps < limit)
        if not going.all():
            live, psi, t, r, jumps, stop = (x[going] for x in (live, psi, t, r, jumps, stop))
            if not live.size:
                return
        members = live.tolist()
        out, t_new, r, k, ivs = _advance(psi, channels, t, ends[stop], r,
                                         [rngs[m] for m in members])
        yield [Event(a, b, None if c < 0 else c, p, iv, m)
               for a, b, c, p, iv, m in zip(t.tolist(), t_new.tolist(), k.tolist(),
                                            out, ivs, members)]
        psi, t, jumps = out, t_new, jumps + (k >= 0)
        del ivs     # a Lanczos interval holds its whole basis: free it before the next round


def trajectory_rng(master_seed: int, traj_index: int):
    """Counter-based per-trajectory stream; independent of worker count."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(traj_index,))
    return np.random.Generator(np.random.Philox(ss))


def batch_size(propagator, dim: int) -> int:
    """The members a batch holds.  A dense propagator solves a round for
    the whole batch, so its batches hold up to BLOCK_AMPLITUDES amplitudes
    (members x dim), which bounds their working arrays at any M and dim.
    The others solve member by member: a batch would share nothing but its
    bookkeeping, which costs more than it saves, so they hold one."""
    return max(1, BLOCK_AMPLITUDES // dim) if propagator.kind == "dense" else 1


def blocks(M: int, size: int, workers: int = 1) -> list:
    """Trajectory indices 0..M-1 in consecutive blocks of at most `size`,
    each run as one batch, and of at most M / workers, so every worker
    gets a share.  No member depends on its block."""
    size = max(1, min(size, -(-M // workers)))
    return [range(i, min(i + size, M)) for i in range(0, M, size)]


def _check_state(basis: FockBasis, psi0: np.ndarray):
    if np.shape(psi0) != (basis.dim,):
        raise ValueError(f"psi0 of shape {np.shape(psi0)} is not a state of dim {basis.dim}")


def run_batch(basis: FockBasis, psi0: np.ndarray, cfg: MonitoringConfig,
              indices, channels: JumpChannels = None) -> list:
    """Evolve the trajectories `indices` from the amplitudes psi0 over
    `basis` in lockstep; each is deterministic given (cfg.seed, its
    index) and bitwise what `run_trajectory` gives it alone.

    Snapshots are taken at exactly the requested times.  The states keep
    psi0's dtype: every chain operator is real.
    """
    _check_state(basis, psi0)
    if channels is None:
        channels = JumpChannels(basis, cfg.rate_phaselock, cfg.rate_dephase)
    psi = psi0 / np.linalg.norm(psi0)
    at_start = [(s, psi.copy()) for s in cfg.snapshot_times if s <= 0.0]
    pending = cfg.snapshot_times[len(at_start):]
    lanczos = channels.propagator.kind == "lanczos"
    trajs = [Trajectory(jumps=[], snapshots=list(at_start), final_state=psi, n_steps=0)
             for _ in indices]
    sizes = [[] for _ in indices]      # propagator basis per interval
    rngs = [trajectory_rng(cfg.seed, i) for i in indices]
    for events in unravel_batch(np.tile(psi, (len(rngs), 1)), channels, cfg.t_max, rngs,
                                stops=pending):
        for ev in events:
            traj = trajs[ev.member]
            traj.n_steps += 1
            if lanczos:
                sizes[ev.member].append(ev.interval.basis.shape[1])
                traj.reorth_reruns += ev.interval.reorthogonalised
            if ev.channel is not None:
                kind, site = channels.labels[ev.channel]
                traj.jumps.append(JumpRecord(time=ev.t, kind=kind, site=site))
            n = len(traj.snapshots) - len(at_start)
            while n < len(pending) and pending[n] <= ev.t:
                traj.snapshots.append((pending[n], ev.psi.copy()))
                n += 1
            traj.final_state = ev.psi
        events = ev = None      # free the round's intervals before the next is built
    for traj, size in zip(trajs, sizes):
        traj.final_state = traj.final_state.copy()
        traj.krylov_dims = tuple(size)
    return trajs


def run_trajectory(basis: FockBasis, psi0: np.ndarray, cfg: MonitoringConfig,
                   channels: JumpChannels = None, traj_index: int = 0) -> Trajectory:
    """One trajectory: `run_batch` for a batch of one."""
    return run_batch(basis, psi0, cfg, (traj_index,), channels=channels)[0]


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
    propagator: str = "dense"           # "dense" or "lanczos"
    recon_error: float = None           # the dense decomposition's relative error

    def states_at(self, t: float) -> np.ndarray:
        """The (M, dim) states at the exact requested snapshot time t."""
        try:
            return self.states[float(t)]
        except KeyError:
            raise KeyError(f"no snapshot at t={t}; have {sorted(self.states)}") from None


_WORKER_CTX = {}     # run_batch's arguments but the indices, per worker


def _summary(traj: Trajectory):
    kinds = [j.kind for j in traj.jumps]
    return (traj.snapshots, {k: kinds.count(k) for k in JumpKind}, traj.n_steps,
            traj.krylov_dims, traj.reorth_reruns)


def _run_block(indices, ctx):
    return [_summary(traj) for traj in run_batch(indices=indices, **ctx)]


def _worker_run(indices):
    return _run_block(indices, _WORKER_CTX)


def run_ensemble(basis: FockBasis, psi0: np.ndarray, cfg: MonitoringConfig,
                 M: int, workers: int = 1,
                 channels: JumpChannels = None) -> EnsembleResult:
    """M independent trajectories, run in blocks of indices (see
    `batch_size` and `blocks`); aggregation order is by trajectory index, and no member
    depends on its block, so results are identical for any worker count."""
    if M < 1:
        raise ValueError("need at least one trajectory")
    _check_state(basis, psi0)
    if channels is None:
        channels = JumpChannels(basis, cfg.rate_phaselock, cfg.rate_dephase)
    ctx = dict(basis=basis, psi0=psi0, cfg=cfg, channels=channels)
    chunks = blocks(M, batch_size(channels.propagator, basis.dim), workers)
    if workers <= 1:
        results = [s for indices in chunks for s in _run_block(indices, ctx)]
    else:
        with ProcessPoolExecutor(max_workers=workers, mp_context=mp.get_context("fork"),
                                 initializer=_WORKER_CTX.update,
                                 initargs=(ctx,)) as pool:
            results = [s for block in pool.map(_worker_run, chunks) for s in block]

    by_kind = {k: np.array([r[1][k] for r in results]) for k in JumpKind}
    states = {t: np.array([r[0][k][1] for r in results])
              for k, (t, _) in enumerate(results[0][0])}
    prop = channels.propagator
    return EnsembleResult(config=cfg, M=M, snapshot_times=tuple(sorted(states)),
                          states=states, jump_counts=sum(by_kind.values()),
                          jumps_by_kind=by_kind,
                          intervals=np.array([r[2] for r in results]),
                          krylov_dims=np.array([d for r in results for d in r[3]], dtype=int),
                          reorth_reruns=np.array([r[4] for r in results]),
                          basis=basis,
                          propagator=prop.kind,
                          recon_error=getattr(prop, "recon_error", None))


def default_initial_state(basis: FockBasis) -> np.ndarray:
    """Uniform Fock state |1,1,...,1> (requires filling 1)."""
    if basis.N != basis.L:
        raise ValueError("uniform Fock initial state needs N == L")
    return fock_state(basis, (1,) * basis.L)
