"""Single-site mean-field master equation and order-parameter sweep.

The phase-locking channel reduces, under the product ansatz for
neighboring sites, to a nonlinear single-site generator whose moment
coefficients are refreshed from the current density matrix at every
integrator stage, all from one cached sparse matrix per cutoff.  The
state is a plain (n_max + 1)-square density matrix and RK4 runs in its
dtype.  Dephasing stays a plain number-operator dissipator.
The order parameter alpha = <a> vanishes across a critical reduced
dephasing rate that depends on the local cutoff n_max.  At n_max = 8 the
ordered branch vanishes continuously at gamma ~ 4.5, where the truncated
disordered (thermal) state loses linear stability; that threshold falls
with n_max (3.5 at 10, 0.5 at 20), and from n_max = 12 on the branch
instead ends at a fold that still drifts down (about 3.25 at n_max = 16,
2.8 at 40).  The n_max -> infinity value is not settled.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .fock import NumericGuardError
from .superop import anticommutator, dissipator, sandwich

TRACE_TOL = 1e-6
ALPHA_TOL = 1e-8      # steady-state criterion on |alpha| drift over 1/Lambda
RECORD_EVERY = 20     # steps between recorded (t, alpha) points


@dataclass(frozen=True)
class GwConfig:
    rate_phaselock: float = 1.0
    rate_dephase: float = 0.0
    filling: float = 1.0
    n_max: int = 8
    dt: float = 0.005
    t_max: float = 400.0

    def __post_init__(self):
        for name, v in vars(self).items():
            positive = name in ("dt", "n_max")      # n_max is an integer: >= 1
            if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
                raise ValueError(f"{name} must be finite and "
                                 f"{'positive' if positive else 'nonnegative'}, got {v}")
        if self.filling > self.n_max:
            raise ValueError("filling exceeds the local cutoff")


class SiteOperators:
    """Dense single-mode ladder operators at cutoff n_max."""

    def __init__(self, n_max: int):
        self.a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)
        self.ad = self.a.conj().T
        self.n = self.ad @ self.a
        self.a2 = self.a @ self.a
        self.ad_a2 = self.ad @ self.a2

    @cached_property
    def generator(self):
        """Sparse (6 + 9 d^2) x d^2 matrix on vec(rho), built on first use,
        one per cutoff: rows for the moments (<a†aa† + a†a†a>/2, <aa>, <a>)
        and their conjugates, then the rate-free blocks: the three maps Le
        those moments weight, their partners Le†, and D[a†], D[a], D[n]."""
        return _site_generator(len(self.a) - 1)


@cache
def _site_generator(n_max: int):
    ops = SiteOperators(n_max)      # every map here is real, and built sparse
    a, ad, n, a2 = (sp.csr_matrix(x.real) for x in (ops.a, ops.ad, ops.n, ops.a2))
    adad, ad_a_ad, ad_ad_a = ad @ ad, n @ ad, ad @ n
    eye = sp.identity(n_max + 1, format="csr")
    moments = sp.vstack([x.T.reshape(1, -1) for x in   # <X> = vec(X^T) . vec(rho)
                         (0.5 * (ad_a_ad + ad_ad_a), a2, a)], format="csr")
    le = [sandwich(eye, a) - sandwich(a, eye),
          0.5 * anticommutator(adad) - sandwich(ad, ad),
          sandwich(n, ad) - sandwich(ad, n)
          + 0.5 * (anticommutator(ad_a_ad) - anticommutator(ad_ad_a))]
    # Hermitian rho, real X, Y: <X>* = vec(X) . vec(rho), (X rho Y)† = Y^T rho X^T,
    # so the conjugate rows are M P and a block L's partner P L P (P: vec transpose)
    perm = np.arange((n_max + 1) ** 2).reshape(n_max + 1, -1).T.ravel()
    P = sp.csr_matrix((np.ones(perm.size), perm, np.arange(perm.size + 1)))
    return sp.vstack([moments, moments @ P, *le, *(P @ x @ P for x in le),
                      dissipator(ad), dissipator(a), dissipator(n)], format="csr")


def meanfield_rhs(rho, ops, cfg: GwConfig):
    """2 Lambda (f D[a†] + (f + 1) D[a] + D[n] + Le + Le†) + Gamma D[n] at
    filling f, for a Hermitian rho: one matvec of ops.generator, then its
    nine blocks weighted by 2 Lambda times the six moment rows and by the
    three rates."""
    lam2 = 2.0 * cfg.rate_phaselock
    y = ops.generator @ rho.reshape(-1)
    c = lam2 * y[:9]            # its last three entries become the rates
    c[6:] = lam2 * cfg.filling, lam2 * (cfg.filling + 1.0), lam2 + cfg.rate_dephase
    return (c @ y[6:].reshape(9, -1)).reshape(rho.shape)


def coherent_dm(alpha: complex, n_max: int) -> np.ndarray:
    """|alpha><alpha| truncated to the local cutoff and renormalized; real
    for a real alpha."""
    v = np.array([alpha ** n / math.sqrt(math.factorial(n))
                  for n in range(n_max + 1)])
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def default_initial_dm(cfg: GwConfig) -> np.ndarray:
    """Symmetry-broken seed: a pure Fock state is an alpha = 0 fixed
    point at every gamma, so the sweep starts from the coherent state at
    |alpha| = sqrt(filling)."""
    return coherent_dm(math.sqrt(cfg.filling), cfg.n_max)


@dataclass
class GwEvolution:
    times: np.ndarray
    alphas: np.ndarray
    final: np.ndarray          # (d, d) density matrix at the last step
    converged: bool
    rhos: list = field(default_factory=list)
    steps: int = 0             # RK4 steps taken


def evolve(cfg: GwConfig, rho0: np.ndarray = None, store_rhos: bool = False,
           stop_when_steady: bool = True) -> GwEvolution:
    """Fixed-step RK4 of meanfield_rhs (moments refreshed every stage) from
    the (d, d) density matrix rho0, d = cfg.n_max + 1, in its dtype (a
    real seed stays real: every map is), recording (t, alpha) every
    RECORD_EVERY steps and on the last step.
    With stop_when_steady it stops once |alpha| varied by < ALPHA_TOL over
    the last 1/Lambda; a trace drift > TRACE_TOL raises NumericGuardError."""
    rho = np.array(default_initial_dm(cfg) if rho0 is None else rho0)
    if rho.shape != (cfg.n_max + 1,) * 2:
        raise ValueError(f"rho0 of shape {rho.shape} does not fit n_max={cfg.n_max}")
    ops = SiteOperators(cfg.n_max)
    dt, t = cfg.dt, 0.0
    stages = np.empty((4, *rho.shape), dtype=rho.dtype)
    weights = np.array([dt, 2.0 * dt, 2.0 * dt, dt]) / 6.0
    times, alphas = [0.0], [np.trace(rho @ ops.a)]
    rhos = [rho.copy()] if store_rhos else []
    window = max(1, int(round(1.0 / max(cfg.rate_phaselock, 1e-12) / dt)))
    hist = deque([abs(alphas[0])], maxlen=window)   # |alpha| over the window
    a_row = ops.a.real.T.ravel()    # alpha = vec(a^T) . vec(rho), for the window
    converged, k = False, 0         # k: RK4 steps taken
    n_steps = int(round(cfg.t_max / dt))
    for k in range(1, n_steps + 1):
        stages[0] = meanfield_rhs(rho, ops, cfg)
        stages[1] = meanfield_rhs(rho + 0.5 * dt * stages[0], ops, cfg)
        stages[2] = meanfield_rhs(rho + 0.5 * dt * stages[1], ops, cfg)
        stages[3] = meanfield_rhs(rho + dt * stages[2], ops, cfg)
        rho = rho + (weights @ stages.reshape(4, -1)).reshape(rho.shape)
        t += dt
        drift = abs(rho.trace().real - 1.0)
        if drift > TRACE_TOL:
            raise NumericGuardError(f"trace drift {drift:.3g} at t={t:.3g}: "
                                    f"integration step too large")
        hist.append(abs(a_row @ rho.reshape(-1)))
        # the window's range is at least its end points' gap: scan it only then
        if (stop_when_steady and k >= window
                and abs(hist[-1] - hist[0]) < ALPHA_TOL):
            converged = bool(max(hist) - min(hist) < ALPHA_TOL)
        # the step the run stops on is always recorded
        if converged or k % RECORD_EVERY == 0 or k == n_steps:
            times.append(t)
            alphas.append(np.trace(rho @ ops.a))
            if store_rhos:
                rhos.append(rho.copy())
        if converged:
            break
    return GwEvolution(times=np.array(times), alphas=np.array(alphas),
                       final=rho,
                       converged=converged, rhos=rhos, steps=k)


def order_parameter_ode(rho, ops, cfg: GwConfig) -> complex:
    """Closed equation of motion for alpha evaluated on the current
    density matrix: 2 Lambda (<a† a a> - <a a> alpha*) - (Gamma/2) alpha."""
    al = np.trace(rho @ ops.a)
    return (2.0 * cfg.rate_phaselock
            * (np.trace(rho @ ops.ad_a2) - np.trace(rho @ ops.a2) * np.conj(al))
            - 0.5 * cfg.rate_dephase * al)


def order_parameter_consistency(rho, cfg: GwConfig) -> float:
    """|Tr[a * rhs(rho)] - closed ODE| on one density matrix.

    The closed equation is exact only where a† does not hit the cutoff,
    so it holds to rounding only for a rho with headroom: at least one
    empty level above its support (np.pad(rho, (0, 1)) gives that).  At
    the state's own cutoff the residual is the truncation boundary term,
    not a test of the equation.
    """
    ops = SiteOperators(rho.shape[0] - 1)
    return abs(np.trace(ops.a @ meanfield_rhs(rho, ops, cfg))
               - order_parameter_ode(rho, ops, cfg))


@dataclass
class SweepPoint:
    gamma: float
    alpha_abs: float
    converged: bool
    t_reached: float


@dataclass
class SweepResult:
    points: list
    gamma_c: float
    counters: dict = field(default_factory=dict)   # evolves, rk4_steps, unconverged


def check_sweep(gammas, template: GwConfig):
    """Raise ValueError unless the sweep can run: Lambda > 0, gammas >= 0."""
    if template.rate_phaselock == 0 or not all(g >= 0 for g in gammas):
        raise ValueError("the sweep needs rate_phaselock > 0 and every gamma >= 0")


def order_parameter_sweep(gammas, template: GwConfig,
                          alpha_threshold: float = 1e-3,
                          bisection_steps: int = 6) -> SweepResult:
    """Steady-state |alpha| per reduced dephasing rate, with the critical
    point refined by bisection between the last ordered and first
    disordered grid points."""
    gammas = sorted(gammas)
    check_sweep(gammas, template)
    counters = Counter()

    def steady(gamma):
        ev = evolve(replace(template, rate_dephase=gamma * template.rate_phaselock))
        counters.update(evolves=1, rk4_steps=ev.steps, unconverged=int(not ev.converged))
        return abs(ev.alphas[-1]), ev.converged, ev.times[-1]

    points = [SweepPoint(g, *steady(g)) for g in gammas]

    gamma_c = math.nan
    below = [p.gamma for p in points if p.alpha_abs >= alpha_threshold]
    above = [p.gamma for p in points if p.alpha_abs < alpha_threshold]
    if below and above:
        lo, hi = max(below), min(above)
        for _ in range(bisection_steps):
            mid = 0.5 * (lo + hi)
            a, _, _ = steady(mid)
            if a >= alpha_threshold:
                lo = mid
            else:
                hi = mid
        gamma_c = 0.5 * (lo + hi)
    return SweepResult(points, gamma_c, dict(counters))
