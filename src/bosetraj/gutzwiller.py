"""Single-site mean-field master equation and order-parameter sweep.

The phase-locking channel reduces, under the product ansatz for
neighboring sites, to a nonlinear single-site generator whose moment
coefficients are refreshed from the current density matrix at every
integrator stage.  For a Hermitian state the generator is K rho + (K rho)†
with a half-generator K, one cached sparse matrix per cutoff and rates;
dephasing is the number-operator dissipator inside it.  The state is a
plain (n_max + 1)-square density matrix and RK4 runs in its dtype.
evolve_batch advances several dephasing rates in lockstep, one sparse
product per RK4 stage for all of them; evolve is a batch of one.  The
sweep evolves its grid as one batch, then bisects for the critical point
LOOKAHEAD steps at a time: every midpoint those steps could visit is
evolved as one batch and the sequential walk is replayed through them.
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
from functools import cache, lru_cache

import numpy as np
import scipy.sparse as sp

from .fock import NumericGuardError

TRACE_TOL = 1e-6
ALPHA_TOL = 1e-8      # steady-state criterion on |alpha| drift over 1/Lambda
RECORD_EVERY = 20     # steps between recorded (t, alpha) points
LOOKAHEAD = 3         # bisection steps whose midpoints are evolved as one batch


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


def sandwich(A, B):
    """rho -> A rho B as a sparse matrix on vec(rho) = rho.ravel(), for
    which vec(A rho B) = kron(A, B^T) vec(rho)."""
    return sp.kron(A, B.T, format="csr")


def anticommutator(X):
    """rho -> X rho + rho X."""
    eye = sp.identity(X.shape[0])
    return sandwich(X, eye) + sandwich(eye, X)


class SiteOperators:
    """Dense single-mode ladder operators at cutoff n_max."""

    def __init__(self, n_max: int):
        self.a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)
        self.ad = self.a.conj().T
        self.n = self.ad @ self.a
        self.a2 = self.a @ self.a
        self.ad_a2 = self.ad @ self.a2


@cache
def _site_maps(n_max: int):
    """Rate-free sparse maps on vec(rho) at one cutoff, all real: the rows
    of the moments (<a†aa† + a†a†a>/2, <aa>, <a>) and of the trace, the
    three maps Le those moments weight, and the halves
    H[b] rho = (b rho b† - b†b rho) / 2 of D[b] for b = a†, a, n."""
    ops = SiteOperators(n_max)
    a, ad, n, a2 = (sp.csr_matrix(x.real) for x in (ops.a, ops.ad, ops.n, ops.a2))
    adad, ad_a_ad, ad_ad_a = ad @ ad, n @ ad, ad @ n
    eye = sp.identity(n_max + 1, format="csr")
    moments = sp.vstack([x.T.reshape(1, -1) for x in   # <X> = vec(X^T) . vec(rho)
                         (0.5 * (ad_a_ad + ad_ad_a), a2, a, eye)], format="csr")
    le = [sandwich(eye, a) - sandwich(a, eye),
          0.5 * anticommutator(adad) - sandwich(ad, ad),
          sandwich(n, ad) - sandwich(ad, n)
          + 0.5 * (anticommutator(ad_a_ad) - anticommutator(ad_ad_a))]
    halves = [0.5 * (sandwich(b, b.T) - sandwich(b.T @ b, eye)) for b in (ad, a, n)]
    return moments, le, halves


@lru_cache(maxsize=4)
def _generator(n_max: int, rate_phaselock: float, filling: float, rates_dephase: tuple):
    """Sparse matrix of the half-generator K of the B = len(rates_dephase)
    members, on their stacked vec(rho), built on first use: the RHS of a
    Hermitian rho is K rho + (K rho)†, since D[b] rho = H[b] rho + (H[b] rho)†
    and the partner of <X> Le rho is its adjoint <X>* Le† rho.  Rows: the
    four moment rows member by member, then 2 Lambda Le_j rho (j = 0, 1, 2)
    and the member's fixed part 2 Lambda (f H[a†] + (f + 1) H[a] + H[n]) +
    Gamma H[n], each for all members in turn.  A member's rows, and the
    order their entries are added in, do not depend on the batch."""
    moments, le, (h_ad, h_a, h_n) = _site_maps(n_max)
    lam2 = 2.0 * rate_phaselock
    eye = sp.identity(len(rates_dephase), format="csr")
    fixed = lam2 * (filling * h_ad + (filling + 1.0) * h_a + h_n)
    return sp.vstack([sp.kron(eye, moments, format="csr"),
                      *(sp.kron(eye, lam2 * x, format="csr") for x in le),
                      sp.block_diag([fixed + g * h_n for g in rates_dephase], format="csr")],
                     format="csr")


def meanfield_rhs(rho, ops, cfg: GwConfig, rates_dephase=None, moments=None):
    """2 Lambda (f D[a†] + (f + 1) D[a] + D[n] + Le + Le†) + Gamma D[n] at
    filling f, for a Hermitian rho, as W + W†: one sparse product gives the
    moments and the blocks of the half-generator, and W is the Le blocks
    weighted by their moments plus the fixed block.

    rho is one (d, d) density matrix, or a (B, d^2) batch whose rows are
    the vec(rho) of B members with the dephasing rates rates_dephase
    (default cfg.rate_dephase).  Every member is computed on its own: the
    sparse kernel, the sum over the block axis and the elementwise
    operations add in a fixed order, so a member's result does not depend
    on the batch it is in.  A (B, 4) array `moments` receives each member's
    moments and trace: <a> in column 2, the trace in column 3."""
    d = len(ops.a)
    x = rho.reshape(-1, d * d)
    rates = (cfg.rate_dephase,) if rates_dephase is None else tuple(rates_dephase)
    y = _generator(d - 1, cfg.rate_phaselock, cfg.filling, rates) @ x.reshape(-1)
    m = y[:4 * len(x)].reshape(-1, 4)
    if moments is not None:
        moments[...] = m
    blocks = y[4 * len(x):].reshape(4, len(x), -1)
    w = ((m.T[:3, :, None] * blocks[:3]).sum(0) + blocks[3]).reshape(-1, d, d)
    return (w + w.transpose(0, 2, 1).conj()).reshape(rho.shape)


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
    steps: int = 0             # RK4 steps taken


def evolve(cfg: GwConfig, rho0: np.ndarray = None,
           stop_when_steady: bool = True) -> GwEvolution:
    """Fixed-step RK4 of meanfield_rhs (moments refreshed every stage) from
    the (d, d) density matrix rho0, d = cfg.n_max + 1, in its dtype (a
    real seed stays real: every map is), recording (t, alpha) every
    RECORD_EVERY steps and on the last step.
    With stop_when_steady it stops once |alpha| varied by < ALPHA_TOL over
    the last 1/Lambda; a trace drift > TRACE_TOL raises NumericGuardError.
    A batch of one of evolve_batch."""
    return evolve_batch(cfg, [cfg.rate_dephase], rho0, stop_when_steady)[0]


def evolve_batch(template: GwConfig, rates_dephase, rho0: np.ndarray = None,
                 stop_when_steady: bool = True) -> list:
    """evolve of replace(template, rate_dephase=Gamma) for every Gamma in
    rates_dephase, advanced in lockstep from the same seed: the members'
    vec(rho) are the rows of one (B, d^2) array, so each RK4 stage is one
    meanfield_rhs call for all of them.  Each member keeps its own stop,
    records and trace guard, and leaves the batch when it converges.  Every
    member is computed on its own (see meanfield_rhs), so its GwEvolution
    is bitwise the one a batch of one gives."""
    gam = tuple(replace(template, rate_dephase=g).rate_dephase
                for g in rates_dephase)     # each one checked
    rho = np.array(default_initial_dm(template) if rho0 is None else rho0)
    d = template.n_max + 1
    if rho.shape != (d, d):
        raise ValueError(f"rho0 of shape {rho.shape} does not fit n_max={template.n_max}")
    ops, n = SiteOperators(template.n_max), len(gam)
    if not n:
        return []
    alpha0 = np.trace(rho @ ops.a)
    runs = [GwEvolution(times=[0.0], alphas=[alpha0], final=None, converged=False)
            for _ in range(n)]
    live = np.arange(n)             # the member in each row of X
    X = np.repeat(rho.reshape(1, -1), n, axis=0)
    dt, t, k = template.dt, 0.0, 0  # k: RK4 steps taken
    weights = (np.array([dt, 2.0 * dt, 2.0 * dt, dt]) / 6.0)[:, None, None]
    window = max(1, int(round(1.0 / max(template.rate_phaselock, 1e-12) / dt)))
    hists = [deque(maxlen=window) for _ in range(n)]    # |alpha| over the window
    n_steps = int(round(template.t_max / dt))

    def leave(rows, converged):     # the members in rows stop at step k
        for j in rows:
            run = runs[live[j]]
            run.final, run.steps, run.converged = X[j].reshape(d, d).copy(), k, converged

    # a step's first stage also gives the moments of the state it starts
    # from, so the checks of step k run at the top of step k + 1
    m = np.empty((n, 4), dtype=X.dtype)
    stages = np.empty((4, *X.shape), dtype=X.dtype)
    while True:
        stages[0] = meanfield_rhs(X, ops, template, gam, moments=m)
        if k:
            for j, trace in enumerate(m[:, 3].real.tolist()):
                if not abs(trace - 1.0) <= TRACE_TOL:
                    raise NumericGuardError(f"trace drift {abs(trace - 1.0):.3g} at t={t:.3g}, "
                                            f"rate_dephase={gam[j]:g}: integration step too large")
            stop = []
            if stop_when_steady:
                for j, (alpha, hist) in enumerate(zip(np.abs(m[:, 2]).tolist(), hists)):
                    hist.append(alpha)
                    # the window's range is at least its end points' gap: scan it only then
                    if (k >= window and abs(hist[-1] - hist[0]) < ALPHA_TOL
                            and max(hist) - min(hist) < ALPHA_TOL):
                        stop.append(j)
            # the step a member stops on is always recorded
            for j in (range(live.size) if k % RECORD_EVERY == 0 or k == n_steps else stop):
                run = runs[live[j]]
                run.times.append(t)
                run.alphas.append(np.trace(X[j].reshape(d, d) @ ops.a))
            if stop:
                leave(stop, converged=True)
                keep = np.ones(live.size, dtype=bool)
                keep[stop] = False
                live, X, m, stages = live[keep], X[keep], m[keep], stages[:, keep]
                gam = tuple(g for g, kept in zip(gam, keep) if kept)
                hists = [h for h, kept in zip(hists, keep) if kept]
                if not live.size:
                    break
        if k == n_steps:
            break
        stages[1] = meanfield_rhs(X + 0.5 * dt * stages[0], ops, template, gam)
        stages[2] = meanfield_rhs(X + 0.5 * dt * stages[1], ops, template, gam)
        stages[3] = meanfield_rhs(X + dt * stages[2], ops, template, gam)
        X = X + (weights * stages).sum(0)
        t += dt
        k += 1
    leave(range(live.size), converged=False)
    for run in runs:
        run.times, run.alphas = np.array(run.times), np.array(run.alphas)
    return runs


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
    # evolves, rk4_steps, unconverged, lockstep_steps
    counters: dict = field(default_factory=dict)


def check_sweep(gammas, template: GwConfig, alpha_threshold: float = 1e-3):
    """Raise ValueError unless the sweep can run: at least one gamma, every
    gamma finite and >= 0, Lambda > 0 and a finite alpha_threshold > 0."""
    if not len(gammas):
        raise ValueError("the sweep needs at least one gamma")
    if template.rate_phaselock == 0 or not all(math.isfinite(g) and g >= 0 for g in gammas):
        raise ValueError("the sweep needs rate_phaselock > 0 and every gamma finite and >= 0")
    if not (math.isfinite(alpha_threshold) and alpha_threshold > 0):
        raise ValueError(f"alpha_threshold must be finite and positive, got {alpha_threshold}")


def _midpoints(lo, hi, levels):
    """Every midpoint the next `levels` bisection steps from [lo, hi] can
    visit, by the arithmetic of the bisection itself."""
    if not levels:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_midpoints(lo, mid, levels - 1), *_midpoints(mid, hi, levels - 1)]


def order_parameter_sweep(gammas, template: GwConfig,
                          alpha_threshold: float = 1e-3,
                          bisection_steps: int = 6) -> SweepResult:
    """Steady-state |alpha| per reduced dephasing rate, with the critical
    point refined by bisection between the last ordered and first
    disordered grid points.

    The grid is evolved as one batch.  The bisection then evolves, as one
    batch, every midpoint its next LOOKAHEAD steps could visit, and
    replays its walk through them, so gamma_c is the sequential
    bisection's own."""
    gammas = sorted(gammas)
    check_sweep(gammas, template, alpha_threshold)
    counters = Counter()

    def steady(batch):
        evs = evolve_batch(template, [g * template.rate_phaselock for g in batch])
        counters.update(evolves=len(evs), rk4_steps=sum(ev.steps for ev in evs),
                        unconverged=sum(not ev.converged for ev in evs),
                        lockstep_steps=max(ev.steps for ev in evs))
        return [(abs(ev.alphas[-1]), ev.converged, ev.times[-1]) for ev in evs]

    points = [SweepPoint(g, *s) for g, s in zip(gammas, steady(gammas))]

    gamma_c = math.nan
    below = [p.gamma for p in points if p.alpha_abs >= alpha_threshold]
    above = [p.gamma for p in points if p.alpha_abs < alpha_threshold]
    if below and above:
        lo, hi = max(below), min(above)
        for done in range(0, bisection_steps, LOOKAHEAD):
            levels = min(LOOKAHEAD, bisection_steps - done)
            # a bracket down to adjacent floats repeats a midpoint: evolve it once
            mids = list(dict.fromkeys(_midpoints(lo, hi, levels)))
            alpha = {g: s[0] for g, s in zip(mids, steady(mids))}
            for _ in range(levels):
                mid = 0.5 * (lo + hi)
                if alpha[mid] >= alpha_threshold:
                    lo = mid
                else:
                    hi = mid
        gamma_c = 0.5 * (lo + hi)
    return SweepResult(points, gamma_c, dict(counters))
