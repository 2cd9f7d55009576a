"""Single-site mean-field master equation and order-parameter sweep.

The phase-locking channel reduces, under the product ansatz for
neighboring sites, to a nonlinear single-site generator whose moment
coefficients are refreshed from the current density matrix at every
integrator stage.  Dephasing stays a plain number-operator dissipator.
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
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import NumericGuardError

TRACE_TOL = 1e-6
ALPHA_TOL = 1e-8      # steady-state criterion on |alpha| drift over 1/Lambda
RECORD_EVERY = 20     # steps between recorded (t, alpha) points


@dataclass
class SingleSiteDM:
    n_max: int
    matrix: np.ndarray


@dataclass(frozen=True)
class GwConfig:
    rate_phaselock: float = 1.0
    rate_dephase: float = 0.0
    filling: float = 1.0
    n_max: int = 8
    dt: float = 0.005
    t_max: float = 400.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.filling > self.n_max:
            raise ValueError("filling exceeds the local cutoff")


class SiteOperators:
    """Dense single-mode ladder operators at cutoff n_max."""

    def __init__(self, n_max: int):
        d = n_max + 1
        a = np.zeros((d, d))
        for n in range(1, d):
            a[n - 1, n] = math.sqrt(n)
        self.a = a.astype(complex)
        self.ad = self.a.conj().T
        self.n = self.ad @ self.a
        self.a2 = self.a @ self.a
        self.adad = self.ad @ self.ad
        self.ad_a_ad = self.ad @ self.a @ self.ad
        self.ad_ad_a = self.ad @ self.ad @ self.a
        self.ad_a2 = self.ad @ self.a2


def _dissipator(X, rho):
    XdX = X.conj().T @ X
    return X @ rho @ X.conj().T - 0.5 * (XdX @ rho + rho @ XdX)


def liouvillian_pl(rho: np.ndarray, ops: SiteOperators, filling: float = 1.0):
    """Mean-field phase-locking generator (diagonal part plus the
    moment-coupled part and its adjoint)."""
    a, ad, n = ops.a, ops.ad, ops.n
    out = (filling * _dissipator(ad, rho)
           + (filling + 1.0) * _dissipator(a, rho)
           + _dissipator(n, rho))
    m_a = np.trace(rho @ a)
    m_a2 = np.trace(rho @ ops.a2)
    m_mixed = 0.5 * (np.trace(rho @ ops.ad_a_ad) + np.trace(rho @ ops.ad_ad_a))
    Le = (m_mixed * (rho @ a - a @ rho)
          - m_a2 * (ad @ rho @ ad - 0.5 * (ops.adad @ rho + rho @ ops.adad))
          + m_a * (n @ rho @ ad
                   - 0.5 * (ops.ad_ad_a @ rho + rho @ ops.ad_ad_a)
                   - ad @ rho @ ad @ a
                   + 0.5 * (ops.ad_a_ad @ rho + rho @ ops.ad_a_ad)))
    return out + Le + Le.conj().T


def liouvillian_dp(rho: np.ndarray, ops: SiteOperators):
    """Number-operator dissipator; populations untouched, coherences
    rho_nm decay at rate (n-m)^2/2."""
    return _dissipator(ops.n, rho)


def meanfield_rhs(rho, ops, cfg: GwConfig):
    return (2.0 * cfg.rate_phaselock * liouvillian_pl(rho, ops, cfg.filling)
            + cfg.rate_dephase * liouvillian_dp(rho, ops))


def coherent_dm(alpha: complex, n_max: int) -> np.ndarray:
    """|alpha><alpha| truncated to the local cutoff and renormalized."""
    v = np.array([alpha ** n / math.sqrt(math.factorial(n))
                  for n in range(n_max + 1)], dtype=complex)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def default_initial_dm(cfg: GwConfig) -> SingleSiteDM:
    """Symmetry-broken seed: a pure Fock state is an alpha = 0 fixed
    point at every gamma, so the sweep starts from the coherent state at
    |alpha| = sqrt(filling)."""
    return SingleSiteDM(cfg.n_max, coherent_dm(math.sqrt(cfg.filling), cfg.n_max))


@dataclass
class GwEvolution:
    times: np.ndarray
    alphas: np.ndarray
    final: SingleSiteDM
    converged: bool
    rhos: list = field(default_factory=list)


def evolve(cfg: GwConfig, rho0: SingleSiteDM = None, store_rhos: bool = False,
           stop_when_steady: bool = True) -> GwEvolution:
    """Fixed-step RK4 integration with stage-refreshed moments."""
    if rho0 is None:
        rho0 = default_initial_dm(cfg)
    ops = SiteOperators(rho0.n_max)
    rho = rho0.matrix.copy()
    dt = cfg.dt
    t = 0.0
    times, alphas, rhos = [0.0], [np.trace(rho @ ops.a)], []
    if store_rhos:
        rhos.append(rho.copy())
    window = max(1, int(round(1.0 / max(cfg.rate_phaselock, 1e-12) / dt)))
    alpha_hist = [abs(alphas[0])]
    converged = False
    k = 0
    n_steps = int(round(cfg.t_max / dt))
    while k < n_steps:
        k1 = meanfield_rhs(rho, ops, cfg)
        k2 = meanfield_rhs(rho + 0.5 * dt * k1, ops, cfg)
        k3 = meanfield_rhs(rho + 0.5 * dt * k2, ops, cfg)
        k4 = meanfield_rhs(rho + dt * k3, ops, cfg)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        k += 1
        drift = abs(np.trace(rho).real - 1.0)
        if drift > TRACE_TOL:
            raise NumericGuardError(f"trace drift {drift:.3g} at t={t:.3g}: "
                                    f"integration step too large")
        al = np.trace(rho @ ops.a)
        alpha_hist.append(abs(al))
        if stop_when_steady and len(alpha_hist) > window:
            alpha_hist.pop(0)
            converged = bool(max(alpha_hist) - min(alpha_hist) < ALPHA_TOL)
        # the step the run stops on is always recorded
        if converged or k % RECORD_EVERY == 0 or k == n_steps:
            times.append(t)
            alphas.append(al)
            if store_rhos:
                rhos.append(rho.copy())
        if converged:
            break
    return GwEvolution(times=np.array(times), alphas=np.array(alphas),
                       final=SingleSiteDM(rho0.n_max, rho),
                       converged=converged, rhos=rhos)


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


def order_parameter_sweep(gammas, template: GwConfig,
                          alpha_threshold: float = 1e-3,
                          bisection_steps: int = 6) -> SweepResult:
    """Steady-state |alpha| per reduced dephasing rate, with the critical
    point refined by bisection between the last ordered and first
    disordered grid points."""
    gammas = sorted(gammas)

    def steady(gamma):
        ev = evolve(replace(template, rate_dephase=gamma * template.rate_phaselock))
        return abs(ev.alphas[-1]), ev.converged, ev.times[-1]

    points = []
    for g in gammas:
        a, conv, t = steady(g)
        points.append(SweepPoint(gamma=g, alpha_abs=a, converged=conv, t_reached=t))

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
    return SweepResult(points=points, gamma_c=gamma_c)
