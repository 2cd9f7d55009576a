"""Exact full-chain Lindblad propagator for small sectors.

Serves as the brute-force oracle for linear observables: trajectory
ensemble means must agree with it, while trajectory-averaged entropies
deliberately cannot be recovered from it.  Dense density matrices,
propagated exactly with the sparse vectorised Liouvillian L (d^2 x d^2
for a sector of dim d), assembled from the pieces the trajectories use:
the no-jump generator A, the unit-rate bond operators and the dephasing
weights W = Gamma T T^T of the occupation table T.

Between consecutive snapshot times L is applied in one of two ways,
chosen by d^2.  Up to DENSE_LIOUVILLIAN_MAX, a dense scaling-and-squaring
expm(gap L) (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)),
computed once per distinct gap and reused by every snapshot that shares
it; above it, scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM
J. Sci. Comput. 33, 488 (2011)) per gap.  Neither serves both ends: at
L = 3 (d^2 = 100) one expm_multiply gap takes about 3.6 ms and one dense
expm 1-2 ms, which then serves every gap of its length; at L = 4
(d^2 = 1,225) a dense expm takes about 1 s against 17 ms per sparse gap.
The cap is the measured crossover (one core, Lambda = Gamma = 1,
evolve_lindblad sparse -> dense on the grids 0.5, 1, ..., 5 and
0.5, 1, 2, 5):

    L = 3,  N = 3   d^2 = 100   42 -> 9 ms    36 -> 10 ms
    L = 10, N = 1   d^2 = 100   36 -> 17 ms   32 -> 21 ms
    L = 12, N = 1   d^2 = 144   32 -> 23 ms   24 -> 30 ms
    L = 5,  N = 2   d^2 = 225   25 -> 17 ms   28 -> 35 ms
    L = 3,  N = 4   d^2 = 225   59 -> 22 ms   67 -> 48 ms

Above d = 10, sectors of one or two particles, whose small rates make
expm_multiply cheap, tie or lose on the dense path.  Building the
Liouvillian takes 2.7 ms at L = 3 and 5.3 ms at L = 4 (dim 35).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import (FockBasis, JumpKind, build_hopping, build_number,
                   phaselock_gram, unit_jumps)

MAX_DENSE_DIM = 600
DENSE_LIOUVILLIAN_MAX = 100   # largest d^2 propagated with a dense expm
Z_MAX = 3.0           # |z| at which a trajectory mean disagrees with the oracle


def check_oracle_dim(basis: FockBasis):
    """Reject a sector too large for the dense density-matrix oracle."""
    if basis.dim > MAX_DENSE_DIM:
        raise ValueError(f"sector dim {basis.dim} too large for the dense "
                         f"oracle (cap {MAX_DENSE_DIM})")


class LindbladGenerator:
    def __init__(self, basis: FockBasis, rate_phaselock: float, rate_dephase: float):
        check_oracle_dim(basis)
        self.basis, self.rates = basis, (rate_phaselock, rate_dephase)
        self.dim = basis.dim

    @functools.cached_property
    def channels(self) -> list:
        """(rate, b, b†, b†b) per channel, sparse, nonzero rates only;
        built when `rhs` first reads it."""
        stacks = [(rate, unit_jumps(self.basis, kind))    # one block of dim rows per b
                  for kind, rate in zip((JumpKind.PHASE_LOCK, JumpKind.DEPHASE), self.rates)
                  if rate != 0.0]
        dim = self.dim
        return [(rate, b, b.T, b.T @ b) for rate, stack in stacks
                for b in (stack[k:k + dim] for k in range(0, stack.shape[0], dim))]

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """The generator applied to a density matrix in matrix form."""
        out = np.zeros_like(rho)
        for rate, b, bd, bdb in self.channels:
            out += rate * (b @ rho @ bd - 0.5 * (bdb @ rho + rho @ bdb))
        return out

    def liouvillian(self):
        """Sparse real L with vec(rhs(rho)) = L @ vec(rho), vec = ravel:

            L = Lambda sum_b d_b (x) d_b + diag(vec W) - A (x) 1 - 1 (x) A,

        with A = (Lambda K + diag(Gamma sum_j n_j^2)) / 2 the trajectories'
        no-jump generator, K the phase-lock Gram, d_b the unit-rate bond
        operators and W = Gamma T T^T from the occupation table T, the
        dephasing jumps n_j rho n_j of all sites at once.  Every piece is
        real and A symmetric, so no transpose enters the Kronecker
        products.  The triplets of all terms are concatenated and
        converted once (duplicates summed)."""
        basis, dim = self.basis, self.dim
        rate_phaselock, rate_dephase = self.rates
        table = basis.table.astype(float)
        decay = sp.diags(0.5 * rate_dephase * (table ** 2).sum(axis=1))
        parts = []
        if rate_phaselock != 0.0:
            decay = decay + 0.5 * rate_phaselock * phaselock_gram(basis)
            stack = unit_jumps(basis, JumpKind.PHASE_LOCK)
            parts += [rate_phaselock * sp.kron(stack[k:k + dim], stack[k:k + dim],
                                               format="coo")
                      for k in range(0, stack.shape[0], dim)]
        eye = sp.identity(dim, format="csr")
        parts += [-sp.kron(decay, eye, format="coo"), -sp.kron(eye, decay, format="coo")]
        jumps = (rate_dephase * (table @ table.T)).ravel()
        diag = np.flatnonzero(jumps)
        parts.append(sp.coo_matrix((jumps[diag], (diag, diag)), shape=(dim ** 2,) * 2))
        data, rows, cols = (np.concatenate([getattr(p, a) for p in parts])
                            for a in ("data", "row", "col"))
        del parts                     # peak: two copies of the triplets, not three
        out = sp.csr_matrix((data, (rows, cols)), shape=(dim ** 2,) * 2)
        out.eliminate_zeros()         # d_b's stored zeros and cancelled sums
        return out


@dataclass
class OracleSeries:
    basis: FockBasis
    rate_phaselock: float
    rate_dephase: float
    times: np.ndarray
    observables: dict      # name -> complex array over times
    operators: dict        # name -> the real CSR operator evaluated
    purity: np.ndarray
    propagator: str        # "dense" or "expm_multiply"
    trace_error: float     # max over times of |tr rho(t) - 1|


def default_observables(basis: FockBasis) -> dict:
    """Site densities plus nearest-neighbor coherences, as real CSR operators."""
    obs = {f"n_{j}": build_number(basis, j) for j in range(1, basis.L + 1)}
    return obs | {f"hop_{j}_{j + 1}": build_hopping(basis, j, j + 1)
                  for j in range(1, basis.L)}


def expectations(states: np.ndarray, op) -> np.ndarray:
    """<psi_m|X|psi_m> for every row of an (M, dim) stack, in O(M nnz)."""
    return np.einsum("mi,im->m", states.conj(), op @ states.T)


def ensemble_expectations(ensemble, operators: dict) -> dict:
    """{t: {name: expectations(states at t, X)}} for every snapshot time of
    a trajectory ensemble and every named operator X."""
    return {t: {name: expectations(ensemble.states_at(t), op)
                for name, op in operators.items()} for t in ensemble.snapshot_times}


def evolve_lindblad(basis: FockBasis, rho0: np.ndarray, rate_phaselock: float,
                    rate_dephase: float, times) -> OracleSeries:
    """Exact propagation; observables recorded at the requested times.

    Each gap between consecutive sorted times is one propagation: up to
    DENSE_LIOUVILLIAN_MAX a dense expm(gap L), cached by the gap's exact
    value, above it expm_multiply."""
    times = np.sort(np.asarray(times, dtype=float))
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"non-finite oracle time {bad[0]}")
    if times.size and times[0] < 0:
        raise ValueError(f"negative oracle time {times[0]}")
    operators = default_observables(basis)
    liouvillian = LindbladGenerator(basis, rate_phaselock,
                                    rate_dephase).liouvillian()
    if basis.dim ** 2 <= DENSE_LIOUVILLIAN_MAX:
        from scipy.linalg import expm

        dense, propagators, kind = liouvillian.toarray(), {}, "dense"

        def advance(vec, gap):
            if gap not in propagators:
                propagators[gap] = expm(gap * dense)
            return propagators[gap] @ vec
    else:
        from scipy.sparse.linalg import expm_multiply

        kind = "expm_multiply"

        def advance(vec, gap):
            return expm_multiply(liouvillian, vec, start=0.0, stop=gap,
                                 num=2, endpoint=True)[-1]
    vec, vecs, t = np.array(rho0, dtype=complex).ravel(), [], 0.0
    for t_next in times:
        if t_next > t:
            vec, t = advance(vec, t_next - t), t_next
        vecs.append(vec)
    vecs = np.reshape(vecs, (len(times), basis.dim ** 2))
    traces = vecs[:, ::basis.dim + 1].sum(axis=1)
    # tr(rho X) = vec(X^T) . vec(rho); tr(rho^2) = |vec(rho)|^2 for rho = rho†
    return OracleSeries(basis=basis, rate_phaselock=rate_phaselock,
                        rate_dephase=rate_dephase, times=times,
                        observables={name: (op.T.reshape(1, -1) @ vecs.T)[0]
                                     for name, op in operators.items()},
                        operators=operators,
                        purity=np.sum(np.abs(vecs) ** 2, axis=1), propagator=kind,
                        trace_error=float(np.max(np.abs(traces - 1.0), initial=0.0)))


@dataclass
class ComparisonReport:
    z_scores: dict        # observable name -> array over times
    max_abs_z: float
    passed: bool


def compare_with_ensemble(series: OracleSeries, ensemble, values: dict = None) -> ComparisonReport:
    """z = (ensemble mean - oracle) / stderr per observable and checkpoint.

    `ensemble` is a trajectory EnsembleResult with snapshot states at the
    oracle's recorded times; `values` its ensemble_expectations of the
    oracle's operators, computed here when not given.
    """
    cfg = ensemble.config
    if (cfg.rate_phaselock != series.rate_phaselock
            or cfg.rate_dephase != series.rate_dephase
            or ensemble.basis.states != series.basis.states):
        raise ValueError("oracle and ensemble were produced from different "
                         "configurations")
    if values is None:
        values = ensemble_expectations(ensemble, series.operators)
    for t in series.times:
        ensemble.states_at(t)       # a time without a snapshot raises, naming the ones there are
    z_scores = {}
    for name in series.operators:
        zs = []
        for ti, t in enumerate(series.times):
            # U(1) symmetry: compare the real parts (imaginary parts average to 0)
            vals = values[float(t)][name].real
            stderr = vals.std(ddof=1) / math.sqrt(len(vals))
            diff = vals.mean() - series.observables[name][ti].real
            zs.append(diff / stderr if stderr != 0.0
                      else 0.0 if abs(diff) < 1e-12 else math.inf)
        z_scores[name] = np.array(zs)
    worst = max(float(np.max(np.abs(zs))) for zs in z_scores.values())
    return ComparisonReport(z_scores=z_scores, max_abs_z=worst,
                            passed=worst < Z_MAX)
