"""Circuit-level monitoring schemes with explicit lossy ancillas.

Two setups: a pair of cavities coupled to an effective two-level
ancilla whose decay clicks herald phase-locking jumps, and a single
cavity coupled to a qubit via n*sigma_x whose decay clicks herald
dephasing jumps.  Strong ancilla decay (kappa >> g) reduces both, via
Born-Markov elimination, to the chain jump operators with rate
g_eff^2 / kappa.

The no-jump propagator here is the exact exponential of the
non-Hermitian generator (precomputed once per config), so the stiff
ancilla decay does not force tiny steps; the per-step jump probability
is the exact norm loss and the usual 0.1 guard applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from .fock import NumericGuardError
from .gutzwiller import SiteOperators
from .trajectory import DP_GUARD, StepSizeError, trajectory_rng

# kappa parameterizes the ancilla loss so that the eliminated jump rate
# is exactly g_eff^2/kappa; with a Lindblad decay operator sqrt(K) sigma-
# the eliminated rate is 4 g^2/K, so the operator here is 2 sqrt(kappa)
# sigma- (excited-state lifetime 1/(4 kappa)).
DECAY_SCALE = 4.0

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
SIGMA_PLUS = SIGMA_MINUS.conj().T
P_EXCITED = SIGMA_PLUS @ SIGMA_MINUS
P_GROUND = np.eye(2, dtype=complex) - P_EXCITED


@dataclass(frozen=True)
class CircuitConfig:
    g_eff: float = 1.0
    h_eff: float = 0.0
    kappa: float = 100.0
    t_max: float = 50.0
    dt: float = None
    seed: int = 0
    n_max: int = 4

    def __post_init__(self):
        if self.kappa <= 0 or self.g_eff < 0:
            raise ValueError("need kappa > 0 and g_eff >= 0")

    @property
    def born_markov_ok(self) -> bool:
        """Flag for the kappa >> g regime where the reduction is valid."""
        return self.g_eff == 0 or self.kappa / self.g_eff > 20

    @property
    def reduced_rate(self) -> float:
        """Effective chain jump rate after ancilla elimination."""
        return self.g_eff ** 2 / self.kappa


@dataclass
class Click:
    time: float
    channel: str


@dataclass
class CircuitTrajectory:
    clicks: list
    final_state: np.ndarray
    click_entropy_steps: list = field(default_factory=list)  # (t, S_before, S_after)


class _JumpEngine:
    """Shared expm-stepped unraveling with a single decay channel."""

    def __init__(self, h_nonherm: np.ndarray, jump_op: np.ndarray, dt: float):
        self.propagator = expm(-1j * h_nonherm * dt)
        self.jump_op = jump_op

    def step(self, psi, rng):
        phi = self.propagator @ psi
        dp = 1.0 - float(np.real(np.vdot(phi, phi)))
        if dp > DP_GUARD:
            raise StepSizeError(f"per-step click probability {dp:.3g} exceeds "
                                f"{DP_GUARD}; reduce dt")
        if rng.random() < dp:
            # the decay happened during the interval, so the click
            # operator acts on the evolved state (whose excited-ancilla
            # amplitude carries the heralded system jump)
            out = self.jump_op @ phi
            nrm = np.linalg.norm(out)
            if nrm == 0.0:
                raise NumericGuardError("click with zero-amplitude decay channel")
            return out / nrm, True
        return phi / np.linalg.norm(phi), False


def _pair_entropy(psi: np.ndarray, n_max: int) -> float:
    """Von Neumann entropy of cavity 1 in the cavity1 x (cavity2,ancilla)
    bipartition."""
    d = n_max + 1
    B = psi.reshape(d, d * 2)
    s2 = np.linalg.svd(B, compute_uv=False) ** 2
    s2 = s2[s2 > 1e-15]
    return float(-(s2 * np.log(s2)).sum())


def phaselock_hamiltonian(cfg: CircuitConfig):
    """Composite (cavity1 x cavity2 x ancilla) Hamiltonian and decay op."""
    a = SiteOperators(cfg.n_max).a
    eye = np.eye(cfg.n_max + 1, dtype=complex)
    a1 = np.kron(np.kron(a, eye), np.eye(2))
    a2 = np.kron(np.kron(eye, a), np.eye(2))
    sm = np.kron(np.kron(eye, eye), SIGMA_MINUS)
    sp = sm.conj().T
    d_pair = (a1.conj().T + a2.conj().T) @ (a1 - a2)
    H = cfg.g_eff * (d_pair @ sp)
    H = H + H.conj().T
    if cfg.h_eff != 0.0:
        p0 = np.kron(np.kron(eye, eye), P_GROUND)
        stark = (a1 - a2) @ (a1.conj().T - a2.conj().T) @ p0
        H = H + cfg.h_eff * (stark + stark.conj().T)
    return H, sm, a1, a2


def _resolve_dt(cfg: CircuitConfig, rate_scale: float) -> float:
    if cfg.dt is not None:
        return cfg.dt
    return 0.02 / max(rate_scale, 1e-12)


def run_phaselock_circuit(cfg: CircuitConfig, psi_cav0: np.ndarray = None,
                          traj_index: int = 0,
                          stop_after_clicks: int = None) -> CircuitTrajectory:
    """Unravel the two-cavity/ancilla system; clicks are ancilla decays.

    Default initial state: cavities |1,1>, ancilla ground.
    """
    H, sm, a1, a2 = phaselock_hamiltonian(cfg)
    dim_c = (cfg.n_max + 1) ** 2
    if psi_cav0 is None:
        psi_cav0 = np.zeros(dim_c, dtype=complex)
        psi_cav0[(cfg.n_max + 1) * 1 + 1] = 1.0  # |1,1>
    psi = np.kron(psi_cav0, np.array([1.0, 0.0], dtype=complex))
    psi /= np.linalg.norm(psi)
    H_nh = H - 0.5j * DECAY_SCALE * cfg.kappa * (sm.conj().T @ sm)
    # click rate after elimination is ~ 4 * g^2/kappa from |1,1>
    dt = _resolve_dt(cfg, 8.0 * cfg.reduced_rate)
    engine = _JumpEngine(H_nh, math.sqrt(DECAY_SCALE * cfg.kappa) * sm, dt)
    rng = trajectory_rng(cfg.seed, traj_index)
    t = 0.0
    clicks = []
    entropy_steps = []
    while t < cfg.t_max - 0.5 * dt:
        new, clicked = engine.step(psi, rng)
        if clicked:
            s_before = _pair_entropy(psi, cfg.n_max)
            s_after = _pair_entropy(new, cfg.n_max)
            clicks.append(Click(time=t + dt, channel="ancilla_decay"))
            entropy_steps.append((t + dt, s_before, s_after))
        psi = new
        t += dt
        if stop_after_clicks is not None and len(clicks) >= stop_after_clicks:
            break
    return CircuitTrajectory(clicks=clicks, final_state=psi,
                             click_entropy_steps=entropy_steps)


@dataclass
class DephasingOutcome:
    clicks: list
    collapsed_to: int         # dominant cavity number state at t_max
    dominant_weight: float
    click_count: int
    max_ancilla_occupation: float


def run_dephasing_circuit(cfg: CircuitConfig, psi_cav0: np.ndarray,
                          traj_index: int = 0) -> DephasingOutcome:
    """Unravel a single cavity coupled to a lossy qubit via g n sigma_x."""
    nop = SiteOperators(cfg.n_max).n
    sx = SIGMA_PLUS + SIGMA_MINUS
    H = cfg.g_eff * np.kron(nop, sx)
    sm = np.kron(np.eye(cfg.n_max + 1, dtype=complex), SIGMA_MINUS)
    H_nh = H - 0.5j * DECAY_SCALE * cfg.kappa * (sm.conj().T @ sm)
    # effective dephasing rate Gamma = g^2/kappa; click rate ~ Gamma n^2
    dt = _resolve_dt(cfg, cfg.reduced_rate * cfg.n_max ** 2 * 4.0)
    engine = _JumpEngine(H_nh, math.sqrt(DECAY_SCALE * cfg.kappa) * sm, dt)
    rng = trajectory_rng(cfg.seed, traj_index)
    psi = np.kron(np.asarray(psi_cav0, dtype=complex),
                  np.array([1.0, 0.0], dtype=complex))
    psi /= np.linalg.norm(psi)
    t = 0.0
    clicks = []
    max_na = 0.0
    n_anc = np.kron(np.eye(cfg.n_max + 1), P_EXCITED)
    while t < cfg.t_max - 0.5 * dt:
        psi, clicked = engine.step(psi, rng)
        if clicked:
            clicks.append(Click(time=t + dt, channel="ancilla_decay"))
        na = float(np.real(np.vdot(psi, n_anc @ psi)))
        max_na = max(max_na, na)
        t += dt
    pops = np.abs(psi.reshape(cfg.n_max + 1, 2)) ** 2
    cav_pops = pops.sum(axis=1)
    winner = int(np.argmax(cav_pops))
    return DephasingOutcome(clicks=clicks, collapsed_to=winner,
                            dominant_weight=float(cav_pops[winner]),
                            click_count=len(clicks),
                            max_ancilla_occupation=max_na)


def superposition_cavity_state(n1: int, n2: int, n_max: int) -> np.ndarray:
    psi = np.zeros(n_max + 1, dtype=complex)
    psi[n1] = psi[n2] = 1.0 / math.sqrt(2.0)
    return psi


@dataclass
class RatePoint:
    kappa: float
    fitted_rate: float
    predicted_rate: float
    n_clicks: int

    @property
    def relative_error(self) -> float:
        return abs(self.fitted_rate / self.predicted_rate - 1.0)


def _censored_exponential_mle(click_times, n_censored, horizon,
                              rate_guess):
    """Fit f(t) = A exp(-b t) (with censoring beyond the horizon) and
    return the initial rate A.

    The no-click evolution purifies onto the decay-free subspace, so the
    survival probability saturates instead of vanishing; the total mass
    of f is below one and the initial rate A, not the shape parameter b,
    is the physical click rate out of the initial state.
    """
    from scipy.optimize import minimize

    t = np.asarray(click_times, dtype=float)
    T = float(horizon)

    def negloglik(params):
        log_a, log_b = params
        A, b = math.exp(log_a), math.exp(log_b)
        mass = (A / b) * (1.0 - math.exp(-b * T))
        if mass >= 1.0:
            return 1e12 + 1e12 * (mass - 1.0)
        ll = len(t) * log_a - b * t.sum()
        if n_censored:
            ll += n_censored * math.log1p(-mass)
        return -ll

    x0 = np.array([math.log(rate_guess), math.log(2.0 * rate_guess)])
    res = minimize(negloglik, x0, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000})
    return float(math.exp(res.x[0]))


def first_click_rate(cfg: CircuitConfig, n_traj: int):
    """Initial first-ancilla-click rate from |1,1>, from a censored
    exponential fit of the first-click times.

    The Born-Markov prediction is 4 * g^2/kappa (the squared norm of the
    phase-lock jump applied to |1,1>).
    """
    predicted = 4.0 * cfg.reduced_rate
    horizon = 8.0 / predicted   # censor after eight predicted mean waits
    run_cfg = replace(cfg, t_max=horizon)
    click_times = []
    n_censored = 0
    for i in range(n_traj):
        traj = run_phaselock_circuit(run_cfg, traj_index=i, stop_after_clicks=1)
        if traj.clicks:
            click_times.append(traj.clicks[0].time)
        else:
            n_censored += 1
    if not click_times:
        return RatePoint(kappa=cfg.kappa, fitted_rate=math.nan,
                         predicted_rate=predicted, n_clicks=0)
    fitted = _censored_exponential_mle(click_times, n_censored, horizon,
                                       rate_guess=predicted)
    return RatePoint(kappa=cfg.kappa, fitted_rate=fitted,
                     predicted_rate=predicted, n_clicks=len(click_times))


def born_markov_rate_check(g_eff: float, kappas, n_traj: int = 200,
                           seed: int = 0, n_max: int = 2) -> list:
    """Fitted vs predicted click rates across an ancilla-decay sweep.

    n_max = 2 suffices for first clicks out of |1,1>: the pre-click
    dynamics never leaves the two-particle sector.
    """
    points = []
    for kappa in sorted(kappas):
        cfg = CircuitConfig(g_eff=g_eff, kappa=kappa, seed=seed, n_max=n_max)
        points.append(first_click_rate(cfg, n_traj))
    return points
