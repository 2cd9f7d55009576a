"""Exact full-chain Lindblad propagator for small sectors.

Serves as the brute-force oracle for linear observables: trajectory
ensemble means must agree with it, while trajectory-averaged entropies
deliberately cannot be recovered from it.  Dense density matrices,
propagated exactly: the sparse vectorised Liouvillian is applied with
scipy.sparse.linalg.expm_multiply to each requested time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, JumpKind, build_hopping, build_number, unit_jumps
from .superop import dissipator

MAX_DENSE_DIM = 600
Z_MAX = 3.0           # |z| at which a trajectory mean disagrees with the oracle


def check_oracle_dim(basis: FockBasis):
    """Reject a sector too large for the dense density-matrix oracle."""
    if basis.dim > MAX_DENSE_DIM:
        raise ValueError(f"sector dim {basis.dim} too large for the dense "
                         f"oracle (cap {MAX_DENSE_DIM})")


class LindbladGenerator:
    def __init__(self, basis: FockBasis, rate_phaselock: float, rate_dephase: float):
        check_oracle_dim(basis)
        dim = self.dim = basis.dim
        self.channels = []     # (rate, b, b†, b†b), sparse, nonzero rates only
        for kind, rate in ((JumpKind.PHASE_LOCK, rate_phaselock),
                           (JumpKind.DEPHASE, rate_dephase)):
            if rate == 0.0:
                continue
            stack = unit_jumps(basis, kind)      # one block of dim rows per b
            for b in (stack[k:k + dim] for k in range(0, stack.shape[0], dim)):
                self.channels.append((rate, b, b.T, b.T @ b))

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """The generator applied to a density matrix in matrix form."""
        out = np.zeros_like(rho)
        for rate, b, bd, bdb in self.channels:
            out += rate * (b @ rho @ bd - 0.5 * (bdb @ rho + rho @ bdb))
        return out

    def liouvillian(self):
        """Sparse real L with vec(rhs(rho)) = L @ vec(rho), vec = ravel.

        The triplets of all channels' dissipators are concatenated and
        converted once (duplicates summed), so no growing matrix is
        reallocated per channel."""
        d2 = self.dim ** 2
        parts = [(rate * dissipator(b)).tocoo() for rate, b, _, _ in self.channels]
        data, rows, cols = (np.concatenate([getattr(p, a) for p in parts])
                            for a in ("data", "row", "col"))
        del parts                     # peak: two copies of the triplets, not three
        return sp.csr_matrix((data, (rows, cols)), shape=(d2, d2))


@dataclass
class OracleSeries:
    basis: FockBasis
    rate_phaselock: float
    rate_dephase: float
    times: np.ndarray
    observables: dict      # name -> complex array over times
    purity: np.ndarray


def default_observables(basis: FockBasis) -> dict:
    """Site densities plus nearest-neighbor coherences, as real CSR operators."""
    obs = {f"n_{j}": build_number(basis, j) for j in range(1, basis.L + 1)}
    return obs | {f"hop_{j}_{j + 1}": build_hopping(basis, j, j + 1)
                  for j in range(1, basis.L)}


def expectations(states: np.ndarray, op) -> np.ndarray:
    """<psi_m|X|psi_m> for every row of an (M, dim) stack, in O(M nnz)."""
    return np.einsum("mi,im->m", states.conj(), op @ states.T)


def evolve_lindblad(basis: FockBasis, rho0: np.ndarray, rate_phaselock: float,
                    rate_dephase: float, times) -> OracleSeries:
    """Exact propagation; observables recorded at the requested times."""
    from scipy.sparse.linalg import expm_multiply

    times = np.sort(np.asarray(times, dtype=float))
    if times.size and times[0] < 0:
        raise ValueError(f"negative oracle time {times[0]}")
    liouvillian = LindbladGenerator(basis, rate_phaselock,
                                    rate_dephase).liouvillian()
    vec, vecs, t = np.array(rho0, dtype=complex).ravel(), [], 0.0
    for t_next in times:
        if t_next > t:
            vec = expm_multiply(liouvillian, vec, start=0.0, stop=t_next - t,
                                num=2, endpoint=True)[-1]
            t = t_next
        vecs.append(vec)
    vecs = np.reshape(vecs, (len(times), basis.dim ** 2))
    # tr(rho X) = vec(X^T) . vec(rho); tr(rho^2) = |vec(rho)|^2 for rho = rho†
    return OracleSeries(basis=basis, rate_phaselock=rate_phaselock,
                        rate_dephase=rate_dephase, times=times,
                        observables={name: (op.T.reshape(1, -1) @ vecs.T)[0]
                                     for name, op in default_observables(basis).items()},
                        purity=np.sum(np.abs(vecs) ** 2, axis=1))


@dataclass
class ComparisonReport:
    z_scores: dict        # observable name -> array over times
    max_abs_z: float
    passed: bool


def compare_with_ensemble(series: OracleSeries, ensemble) -> ComparisonReport:
    """z = (ensemble mean - oracle) / stderr per observable and checkpoint.

    `ensemble` is a trajectory EnsembleResult with snapshot states at the
    oracle's recorded times.
    """
    cfg = ensemble.config
    if (cfg.rate_phaselock != series.rate_phaselock
            or cfg.rate_dephase != series.rate_dephase
            or ensemble.basis.states != series.basis.states):
        raise ValueError("oracle and ensemble were produced from different "
                         "configurations")
    z_scores = {}
    for name, op in default_observables(series.basis).items():
        zs = []
        for ti, t in enumerate(series.times):
            # U(1) symmetry: compare the real parts (imaginary parts average to 0)
            vals = expectations(ensemble.states_at(t), op).real
            stderr = vals.std(ddof=1) / math.sqrt(len(vals))
            diff = vals.mean() - series.observables[name][ti].real
            zs.append(diff / stderr if stderr != 0.0
                      else 0.0 if abs(diff) < 1e-12 else math.inf)
        z_scores[name] = np.array(zs)
    worst = max(float(np.max(np.abs(zs))) for zs in z_scores.values())
    return ComparisonReport(z_scores=z_scores, max_abs_z=worst,
                            passed=worst < Z_MAX)
