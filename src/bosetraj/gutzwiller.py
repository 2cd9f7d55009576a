"""Single-site mean-field master equation, its steady states and the
order-parameter sweep.

The phase-locking channel reduces, under the product ansatz for
neighboring sites, to a nonlinear single-site generator whose moment
coefficients are refreshed from the current density matrix at every
integrator stage.  For a Hermitian state the generator is K rho + (K rho)†
with a half-generator K, one cached sparse matrix per cutoff and rates;
dephasing is the number-operator dissipator inside it.  The state is a
plain (n_max + 1)-square density matrix and RK4 runs in its dtype.
evolve_batch advances several dephasing rates in lockstep; evolve is a
batch of one.  The batch's generator holds each member's rows together,
so an RK4 stage is one sparse product for all members and one stacked
product that weights each member's blocks by its moments.
steady_state solves for a fixed point directly, by Newton's method over
real symmetric density matrices.  The sweep evolves its grid as one
batch, then continues the ordered steady-state branch in gamma from an
ordered grid point to where it ends.
The order parameter alpha = <a> vanishes across a critical reduced
dephasing rate that depends on the local cutoff n_max.  At n_max = 8 the
ordered branch vanishes continuously at gamma = 4.507, where the
truncated disordered (thermal) state loses linear stability.  That
threshold falls with n_max (3.51 at 10, 0.46 at 20), and from n_max = 10
on the branch outlives it and instead ends at a fold that still drifts
down (3.83 at n_max = 10, 3.27 at 16, 2.79 at 40).  The n_max -> infinity
value is not settled.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache

import numpy as np
import scipy.sparse as sp

from .fock import NumericGuardError

TRACE_TOL = 1e-6
ALPHA_TOL = 1e-8      # steady-state criterion on |alpha| drift over 1/Lambda
NEWTON_TOL = 1e-10    # steady state: the largest entry of the last Newton step
NEWTON_MAX = 50       # Newton iterations per steady-state solve
GAMMA_STEP = 0.25     # first continuation step in gamma
GAMMA_TOL = 1e-3      # the continuation step is halved until it falls below this


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
        if abs(round(self.t_max / self.dt) * self.dt - self.t_max) > 1e-9 * self.t_max:
            raise ValueError(f"t_max must be a whole number of dt steps, "
                             f"got dt={self.dt}, t_max={self.t_max}")


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
    and the partner of <X> Le rho is its adjoint <X>* Le† rho.  Its rows are
    member-major, one diagonal block per member: the four moment rows, then
    2 Lambda Le_j rho (j = 0, 1, 2) and the member's fixed part
    2 Lambda (f H[a†] + (f + 1) H[a] + H[n]) + Gamma H[n].  A member's
    rows, and the order their entries are added in, do not depend on the
    batch."""
    moments, le, (h_ad, h_a, h_n) = _site_maps(n_max)
    lam2 = 2.0 * rate_phaselock
    shared = [moments, *(lam2 * x for x in le)]
    fixed = lam2 * (filling * h_ad + (filling + 1.0) * h_a + h_n)
    return sp.block_diag([sp.vstack([*shared, fixed + g * h_n], format="csr")
                          for g in rates_dephase], format="csr")


def meanfield_rhs(rho, ops, cfg: GwConfig, rates_dephase=None, moments=None):
    """2 Lambda (f D[a†] + (f + 1) D[a] + D[n] + Le + Le†) + Gamma D[n] at
    filling f, for a Hermitian rho, as W + W†: one sparse product gives
    each member's moments and the four blocks of its half-generator, and
    one stacked product weights a member's blocks by (<X_0>, <X_1>, <X_2>, 1)
    into W: the Le blocks by their moments, the fixed block by one.

    rho is one (d, d) density matrix, or a (B, d^2) batch whose rows are
    the vec(rho) of B members with the dephasing rates rates_dephase
    (default cfg.rate_dephase).  Every member is computed on its own: the
    sparse kernel, the weighting and the elementwise operations add in a
    fixed order, so a member's result does not depend on the batch it is
    in.  A (B, 4) array `moments` receives each member's moments and trace:
    <a> in column 2, the trace in column 3."""
    d = len(ops.a)
    rates = (cfg.rate_dephase,) if rates_dephase is None else tuple(rates_dephase)
    y = _generator(d - 1, cfg.rate_phaselock, cfg.filling, rates) @ rho.reshape(-1)
    y = y.reshape(len(rates), -1)   # one row per member: 4 moments, then 4 blocks
    if moments is not None:
        moments[...] = y[:, :4]
    weights = y[:, None, :4].copy()
    weights[:, :, 3] = 1.0
    w = np.matmul(weights, y[:, 4:].reshape(len(rates), 4, -1)).reshape(-1, d, d)
    wt = w.transpose(0, 2, 1)
    return (w + (wt.conj() if w.dtype.kind == "c" else wt)).reshape(rho.shape)


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
    t: float                   # the time of the last step
    alpha: complex             # <a> of final
    final: np.ndarray          # (d, d) density matrix at the last step
    converged: bool
    steps: int                 # RK4 steps taken


def evolve(cfg: GwConfig, rho0: np.ndarray = None,
           stop_when_steady: bool = True) -> GwEvolution:
    """Fixed-step RK4 of meanfield_rhs (moments refreshed every stage) from
    the (d, d) density matrix rho0, d = cfg.n_max + 1, in its dtype (a
    real seed stays real: every map is), to the state of its last step.
    With stop_when_steady it stops once |alpha| varied by < ALPHA_TOL over
    the last 1/Lambda; a trace drift > TRACE_TOL raises NumericGuardError.
    A batch of one of evolve_batch."""
    return evolve_batch(cfg, [cfg.rate_dephase], rho0, stop_when_steady)[0]


def evolve_batch(template: GwConfig, rates_dephase, rho0: np.ndarray = None,
                 stop_when_steady: bool = True) -> list:
    """evolve of replace(template, rate_dephase=Gamma) for every Gamma in
    rates_dephase, advanced in lockstep from the same seed: the members'
    vec(rho) are the rows of one (B, d^2) array, so each RK4 stage is one
    meanfield_rhs call for all of them.  Each member keeps its own stop
    and trace guard, and leaves the batch when it converges.  Every
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
    runs = [None] * n
    live = np.arange(n)             # the member in each row of X
    X = np.repeat(rho.reshape(1, -1), n, axis=0)
    dt, t, k = template.dt, 0.0, 0  # k: RK4 steps taken
    weights = (np.array([dt, 2.0 * dt, 2.0 * dt, dt]) / 6.0)[:, None, None]
    window = max(1, int(round(1.0 / max(template.rate_phaselock, 1e-12) / dt)))
    hists = [deque(maxlen=window) for _ in range(n)]    # |alpha| over the window
    n_steps = int(round(template.t_max / dt))

    def leave(rows, converged):     # the members in rows stop at step k
        for j in rows:
            final = X[j].reshape(d, d).copy()
            runs[live[j]] = GwEvolution(t, np.trace(final @ ops.a), final, converged, k)

    # a step's first stage also gives the moments of the state it starts
    # from, so the checks of step k run at the top of step k + 1
    m = np.empty((n, 4), dtype=X.dtype)
    stages = np.empty((4, *X.shape), dtype=X.dtype)
    inputs = np.empty_like(X)       # the state each of stages 1 to 3 is taken at
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
            if stop:
                leave(stop, converged=True)
                keep = np.ones(live.size, dtype=bool)
                keep[stop] = False
                live, X, m, stages, inputs = (live[keep], X[keep], m[keep],
                                              stages[:, keep], inputs[keep])
                gam = tuple(g for g, kept in zip(gam, keep) if kept)
                hists = [h for h, kept in zip(hists, keep) if kept]
                if not live.size:
                    break
        if k == n_steps:
            break
        for s, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
            np.multiply(stages[s - 1], h, out=inputs)
            inputs += X
            stages[s] = meanfield_rhs(inputs, ops, template, gam)
        X = X + (weights * stages).sum(0)
        t += dt
        k += 1
    leave(range(live.size), converged=False)
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


@lru_cache(maxsize=4)
def _symmetric_maps(n_max: int, rate_phaselock: float, filling: float):
    """The blocks of _generator at Gamma = 0 restricted to real symmetric
    rho, as dense maps on its upper triangle u (np.triu_indices order):
    the (4, p) moment and trace rows, the (4, p, p) stack of the three
    moment-weighted maps and the fixed part, and the (p, p) map Gamma
    weights.  A block X becomes S^T X S: S spreads u over vec(rho), and
    S^T takes the upper triangle of W + W^T from vec(W), halved on the
    diagonal, a scaling of equations that leaves Newton's steps as
    they are."""
    d = n_max + 1
    i, j = np.triu_indices(d)
    k, off = np.arange(i.size), i != j
    spread = sp.csr_matrix((np.ones(i.size + off.sum()),
                            (np.concatenate([i * d + j, (j * d + i)[off]]),
                             np.concatenate([k, k[off]]))), shape=(d * d, i.size))

    def restrict(x):
        return (spread.T @ x @ spread).toarray()

    G = _generator(n_max, rate_phaselock, filling, (0.0,))
    maps = [restrict(G[4 + b * d * d:4 + (b + 1) * d * d]) for b in range(4)]
    return (G[:4] @ spread).toarray(), np.array(maps), restrict(_site_maps(n_max)[2][2])


@dataclass
class SteadyState:
    rho: np.ndarray            # (d, d) real symmetric: the last iterate
    alpha: float               # <a> of rho
    converged: bool
    iterations: int            # Newton steps taken


def steady_state(cfg: GwConfig, rho0: np.ndarray) -> SteadyState:
    """Newton's method for meanfield_rhs(rho) = 0 over real symmetric rho,
    from the upper triangle of the real (d, d) seed rho0.

    Real rho fixes the U(1) gauge up to alpha -> -alpha, so the steady
    states are isolated.  The trace-free RHS makes one equation redundant:
    tr rho = 1 replaces the (0, 0) one.  The RHS is quadratic in rho, so the
    Jacobian is exact, and each step is one dense solve.  Converged once a
    step's largest entry is below NEWTON_TOL; stopped unconverged once a
    step fails to shrink, or after NEWTON_MAX steps."""
    d = cfg.n_max + 1
    if np.shape(rho0) != (d, d) or np.iscomplexobj(rho0):
        raise ValueError(f"rho0 must be a real ({d}, {d}) matrix for n_max={cfg.n_max}")
    moments, maps, dephase = _symmetric_maps(cfg.n_max, cfg.rate_phaselock, cfg.filling)
    fixed = maps[3] + cfg.rate_dephase * dephase
    upper = np.triu_indices(d)
    u, last = np.asarray(rho0, dtype=float)[upper], math.inf
    stacked = maps[:3].reshape(3, -1)     # the moment-weighted maps, one row each
    for k in range(1, NEWTON_MAX + 1):
        m = moments @ u
        weighted = maps[:3] @ u
        f = m[:3] @ weighted + fixed @ u
        jac = (m[:3] @ stacked).reshape(u.size, -1) + fixed + weighted.T @ moments[:3]
        f[0], jac[0] = m[3] - 1.0, moments[3]
        step = np.linalg.solve(jac, f)
        u = u - step
        size = np.abs(step).max()
        if size < NEWTON_TOL or not size < last:
            break
        last = size
    rho = np.zeros((d, d))
    rho[upper] = u
    rho += np.triu(rho, 1).T
    return SteadyState(rho, float(moments[2] @ u), bool(size < NEWTON_TOL), k)


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
    branch_end: str = None     # how the ordered branch ends: "fold", "vanishing" or None
    # evolves, rk4_steps, unconverged, lockstep_steps, newton_iterations
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


def order_parameter_sweep(gammas, template: GwConfig,
                          alpha_threshold: float = 1e-3) -> SweepResult:
    """Evolved |alpha| per reduced dephasing rate gamma = Gamma / Lambda, and
    gamma_c, the gamma at which the ordered steady-state branch ends.

    The grid is evolved as one batch, and its points are the states the
    evolutions reach.  The branch starts at the highest grid point whose
    evolved state is ordered (|alpha| >= alpha_threshold) and from which
    steady_state finds an ordered steady state, else at the next lower
    one.  It is continued upward in gamma, each steady state seeding the
    next, from steps of GAMMA_STEP halved until below GAMMA_TOL wherever
    Newton fails to converge (branch_end "fold") or finds |alpha| below the
    threshold ("vanishing").  gamma_c is the middle of the last such step.
    It is NaN when no start is found or the branch outlives the grid."""
    gammas = sorted(gammas)
    check_sweep(gammas, template, alpha_threshold)
    evs = evolve_batch(template, [g * template.rate_phaselock for g in gammas])
    points = [SweepPoint(g, abs(ev.alpha), ev.converged, ev.t)
              for g, ev in zip(gammas, evs)]
    counters = {"evolves": len(evs), "rk4_steps": sum(ev.steps for ev in evs),
                "unconverged": sum(not ev.converged for ev in evs),
                "lockstep_steps": max(ev.steps for ev in evs), "newton_iterations": 0}

    def solve(gamma, rho):      # the steady state at gamma, and whether it is ordered
        ss = steady_state(replace(template, rate_dephase=gamma * template.rate_phaselock), rho)
        counters["newton_iterations"] += ss.iterations
        return ss, ss.converged and abs(ss.alpha) >= alpha_threshold

    for point, ev in zip(reversed(points), reversed(evs)):
        if point.alpha_abs >= alpha_threshold:
            ss, ordered = solve(point.gamma, ev.final)
            if ordered:
                break
    else:
        return SweepResult(points, math.nan, None, counters)
    gamma, rho, step = point.gamma, ss.rho, GAMMA_STEP
    while step >= GAMMA_TOL:
        trial = min(gamma + step, gammas[-1])
        ss, ordered = solve(trial, rho)
        if ordered and trial == gammas[-1]:     # the branch outlives the grid
            return SweepResult(points, math.nan, None, counters)
        if ordered:
            gamma, rho = trial, ss.rho
        else:
            end, bad, step = "vanishing" if ss.converged else "fold", trial, step / 2
    return SweepResult(points, 0.5 * (gamma + bad), end, counters)
