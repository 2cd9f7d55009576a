"""Exact full-chain Lindblad integrator for small sectors.

Serves as the brute-force oracle for linear observables: trajectory
ensemble means must agree with it, while trajectory-averaged entropies
deliberately cannot be recovered from it.  Dense density matrices,
fixed-step RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (FockBasis, JumpKind, NumericGuardError, build_hopping,
                   build_jump)

TRACE_TOL = 1e-6
MAX_DENSE_DIM = 600
Z_MAX = 3.0           # |z| at which a trajectory mean disagrees with the oracle


def sector_jump_operators(basis: FockBasis):
    """Dense (phase-lock list, dephase list) jump operators."""
    d_ops = [build_jump(JumpKind.PHASE_LOCK, j, basis).dense()
             for j in range(1, basis.L)]
    c_ops = [build_jump(JumpKind.DEPHASE, j, basis).dense()
             for j in range(1, basis.L + 1)]
    return d_ops, c_ops


def _dissipator(b, bd, bdb, rho):
    return b @ rho @ bd - 0.5 * (bdb @ rho + rho @ bdb)


class LindbladGenerator:
    def __init__(self, basis: FockBasis, rate_phaselock: float, rate_dephase: float):
        if basis.dim > MAX_DENSE_DIM:
            raise ValueError(f"sector dim {basis.dim} too large for the dense "
                             f"oracle (cap {MAX_DENSE_DIM})")
        d_ops, c_ops = sector_jump_operators(basis)
        self.channels = []
        for b in d_ops:
            self.channels.append((rate_phaselock, b, b.conj().T, b.conj().T @ b))
        for b in c_ops:
            self.channels.append((rate_dephase, b, b.conj().T, b.conj().T @ b))

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for rate, b, bd, bdb in self.channels:
            if rate == 0.0:
                continue
            out += rate * _dissipator(b, bd, bdb, rho)
        return out


@dataclass
class OracleSeries:
    basis: FockBasis
    rate_phaselock: float
    rate_dephase: float
    times: np.ndarray
    observables: dict      # name -> complex array over times
    purity: np.ndarray


def default_observables(basis: FockBasis) -> dict:
    """Site densities plus nearest-neighbor coherences."""
    obs = {}
    for j in range(1, basis.L + 1):
        obs[f"n_{j}"] = build_hopping(basis, j, j).dense()
    for j in range(1, basis.L):
        obs[f"hop_{j}_{j + 1}"] = build_hopping(basis, j, j + 1).dense()
    return obs


def evolve_lindblad(basis: FockBasis, rho0: np.ndarray, rate_phaselock: float,
                    rate_dephase: float, times, dt: float = None) -> OracleSeries:
    """RK4 integration, observables recorded at the requested times
    (which are snapped onto the step grid)."""
    gen = LindbladGenerator(basis, rate_phaselock, rate_dephase)
    observables = default_observables(basis)
    times = np.sort(np.asarray(times, dtype=float))
    if dt is None:
        # keep the fastest channel well resolved
        rate_scale = (rate_phaselock * 4.0 * (basis.L - 1)
                      + rate_dephase * basis.L * basis.n_max ** 2)
        dt = min(2e-3, 0.05 / max(rate_scale, 1e-12))
    rho = np.array(rho0, dtype=complex)
    t = 0.0
    out = {name: [] for name in observables}
    purity = []
    rec_times = []

    def record():
        rec_times.append(t)
        for name, op in observables.items():
            out[name].append(np.trace(rho @ op))
        purity.append(np.trace(rho @ rho).real)

    ti = 0
    while ti < len(times):
        if t >= times[ti] - 0.5 * dt:
            record()
            ti += 1
            continue
        k1 = gen.rhs(rho)
        k2 = gen.rhs(rho + 0.5 * dt * k1)
        k3 = gen.rhs(rho + 0.5 * dt * k2)
        k4 = gen.rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        drift = abs(np.trace(rho).real - 1.0)
        if drift > TRACE_TOL:
            raise NumericGuardError(f"trace drift {drift:.3g} at t={t:.3g}: "
                                    f"integration step too large")
    return OracleSeries(basis=basis, rate_phaselock=rate_phaselock,
                        rate_dephase=rate_dephase, times=np.array(rec_times),
                        observables={k: np.array(v) for k, v in out.items()},
                        purity=np.array(purity))


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
    observables = default_observables(series.basis)
    z_scores = {}
    worst = 0.0
    for name, op in observables.items():
        zs = []
        for ti, t in enumerate(series.times):
            states = ensemble.states_at(t)
            vals = np.einsum("mi,ij,mj->m", states.conj(), op, states)
            # U(1) symmetry: compare the real parts (imaginary parts average to 0)
            vals = vals.real
            mean = vals.mean()
            stderr = vals.std(ddof=1) / math.sqrt(len(vals))
            target = series.observables[name][ti].real
            if stderr == 0.0:
                zs.append(0.0 if abs(mean - target) < 1e-12 else math.inf)
            else:
                zs.append((mean - target) / stderr)
        zs = np.array(zs)
        z_scores[name] = zs
        worst = max(worst, float(np.max(np.abs(zs))))
    return ComparisonReport(z_scores=z_scores, max_abs_z=worst,
                            passed=worst < Z_MAX)
