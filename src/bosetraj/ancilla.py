"""Circuit-level monitoring schemes with explicit lossy ancillas.

Two setups: a pair of cavities coupled to an effective two-level
ancilla whose decay clicks herald phase-locking jumps, and a single
cavity coupled to a qubit via n*sigma_x whose decay clicks herald
dephasing jumps.  Strong ancilla decay (kappa >> g) reduces both, via
Born-Markov elimination, to the chain jump operators with rate
g_eff^2 / kappa.

Both run the exact event loop of `trajectory.unravel_batch`, all
trajectories of a run in lockstep, with a single click channel and one
propagator of the no-jump generator i H_nh per circuit config
(`trajectory.propagator`): a dense eigendecomposition,
or expm at every evaluation where i H_nh sits at or near an exceptional
point and the decomposition fails its reconstruction check.  Click
times are exact and the stiff ancilla decay costs no steps.

A run keeps the `trajectory.Event`s its diagnostics need (every
interval for the dephasing circuit, the clicks for the phase-lock one)
and computes the diagnostics from them when they are first read, so a
run that reads only its clicks and final state pays for neither.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .gutzwiller import SiteOperators
from .trajectory import batch_size, blocks, propagator, trajectory_rng, unravel_batch

# kappa parameterizes the ancilla loss so that the eliminated jump rate
# is exactly g_eff^2/kappa; with a Lindblad decay operator sqrt(K) sigma-
# the eliminated rate is 4 g^2/K, so the operator here is 2 sqrt(kappa)
# sigma- (excited-state lifetime 1/(4 kappa)).
DECAY_SCALE = 4.0

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
SIGMA_PLUS = SIGMA_MINUS.conj().T
P_GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |0><0|


@dataclass(frozen=True)
class CircuitConfig:
    g_eff: float = 1.0
    h_eff: float = 0.0
    kappa: float = 100.0
    t_max: float = 50.0
    seed: int = 0
    n_max: int = 4

    def __post_init__(self):
        finite = all(map(math.isfinite, (self.g_eff, self.h_eff, self.kappa, self.t_max)))
        if not (finite and self.kappa > 0 and self.g_eff >= 0 and self.t_max >= 0):
            raise ValueError("need finite kappa > 0, g_eff >= 0, h_eff and t_max >= 0")
        if self.n_max < 1:
            raise ValueError("need n_max >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def reduced_rate(self) -> float:
        """Effective chain jump rate after ancilla elimination."""
        return self.g_eff ** 2 / self.kappa


@dataclass
class CircuitTrajectory:
    clicks: list                   # click times
    final_state: np.ndarray
    n_max: int
    intervals: int                 # event-loop intervals the run took
    click_events: list = field(repr=False)   # the trajectory.Event of each click

    @functools.cached_property
    def click_entropy_steps(self) -> list:
        """(t, S_before, S_after) per click: the cavity-1 entropy of the
        state just before the click and of the heralded state."""
        steps = []
        for ev in self.click_events:
            before = ev.interval.states(ev.t - ev.t0)
            steps.append((ev.t, _pair_entropy(before / np.linalg.norm(before), self.n_max),
                          _pair_entropy(ev.psi, self.n_max)))
        return steps


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
    return H, sm


def dephasing_hamiltonian(cfg: CircuitConfig):
    """Cavity x qubit Hamiltonian g n sigma_x and the qubit decay op."""
    nop = SiteOperators(cfg.n_max).n
    H = cfg.g_eff * np.kron(nop, SIGMA_PLUS + SIGMA_MINUS)
    sm = np.kron(np.eye(cfg.n_max + 1, dtype=complex), SIGMA_MINUS)
    return H, sm


@functools.lru_cache(maxsize=16)
def _circuit(hamiltonian, cfg: CircuitConfig):
    """The event loop's view of one circuit: exp(-i H_nh tau) and the
    click operator, its one channel (none diagonal).  Cached per config
    (seed and t_max zeroed), so each generator is diagonalised once."""
    H, sm = hamiltonian(cfg)
    H_nh = H - 0.5j * DECAY_SCALE * cfg.kappa * (sm.conj().T @ sm)
    return SimpleNamespace(propagator=propagator(1j * H_nh, hermitian=False),
                           stacked=sp.csr_matrix(math.sqrt(DECAY_SCALE * cfg.kappa) * sm),
                           diagonal=np.empty((sm.shape[0], 0)))


def circuit_propagator(hamiltonian, cfg: CircuitConfig) -> str:
    """"dense" or "expm": the propagator the circuit's runs use."""
    return _circuit(hamiltonian, replace(cfg, seed=0, t_max=0.0)).propagator.kind


def circuit_blocks(hamiltonian, cfg: CircuitConfig, M: int) -> list:
    """Trajectory indices 0..M-1 in the blocks a run takes as batches
    (`trajectory.batch_size` of the circuit's propagator)."""
    circuit = _circuit(hamiltonian, replace(cfg, seed=0, t_max=0.0))
    return blocks(M, batch_size(circuit.propagator, circuit.stacked.shape[1]))


def _unravel_circuits(hamiltonian, cfg: CircuitConfig, psi, indices, max_clicks=None):
    """The rounds of the circuit's event loop for the trajectories
    `indices`, all from psi."""
    circuit = _circuit(hamiltonian, replace(cfg, seed=0, t_max=0.0))
    psi = psi / np.linalg.norm(psi)
    return unravel_batch(np.tile(psi, (len(indices), 1)), circuit, cfg.t_max,
                         [trajectory_rng(cfg.seed, i) for i in indices],
                         max_jumps=max_clicks)


def run_phaselock_circuits(cfg: CircuitConfig, indices, psi_cav0: np.ndarray = None,
                           stop_after_clicks: int = None) -> list:
    """Unravel the two-cavity/ancilla system for the trajectories `indices`
    in lockstep; clicks are ancilla decays.  A trajectory ends at t_max or
    at its stop_after_clicks-th click, if given.

    Default initial state: cavities |1,1>, ancilla ground.
    """
    dim_c = (cfg.n_max + 1) ** 2
    if psi_cav0 is None:
        psi_cav0 = np.zeros(dim_c, dtype=complex)
        psi_cav0[(cfg.n_max + 1) * 1 + 1] = 1.0  # |1,1>
    psi = np.kron(psi_cav0, np.array([1.0, 0.0], dtype=complex))
    clicks, intervals, final = [[] for _ in indices], [0] * len(indices), [psi] * len(indices)
    for events in _unravel_circuits(phaselock_hamiltonian, cfg, psi, indices,
                                    stop_after_clicks):
        for ev in events:
            intervals[ev.member] += 1
            final[ev.member] = ev.psi
            if ev.channel is not None:
                clicks[ev.member].append(ev)
    return [CircuitTrajectory(clicks=[ev.t for ev in c], final_state=f, n_max=cfg.n_max,
                              intervals=n, click_events=c)
            for c, n, f in zip(clicks, intervals, final)]


def run_phaselock_circuit(cfg: CircuitConfig, psi_cav0: np.ndarray = None,
                          traj_index: int = 0,
                          stop_after_clicks: int = None) -> CircuitTrajectory:
    """`run_phaselock_circuits` for one trajectory."""
    return run_phaselock_circuits(cfg, (traj_index,), psi_cav0, stop_after_clicks)[0]


@dataclass
class DephasingOutcome:
    clicks: list              # click times
    collapsed_to: int         # dominant cavity number state at t_max
    dominant_weight: float
    click_count: int
    spacing: float            # of the ancilla-occupation grid
    events: list = field(repr=False)         # every trajectory.Event of the run

    @property
    def intervals(self) -> int:
        return len(self.events)

    @functools.cached_property
    def max_ancilla_occupation(self) -> float:
        """Largest ancilla occupation on the grid of the given spacing,
        one matmul per interval."""
        spacing, max_na = self.spacing, 0.0
        for ev in self.events:
            grid = np.arange(math.floor(ev.t0 / spacing) + 1,
                             math.floor(ev.t / spacing) + 1) * spacing
            if grid.size:
                pops = np.abs(ev.interval.states(grid - ev.t0)) ** 2
                # rows alternate ancilla ground / excited
                max_na = max(max_na, float(np.max(pops[1::2].sum(axis=0)
                                                  / pops.sum(axis=0))))
        return max_na


def run_dephasing_circuits(cfg: CircuitConfig, psi_cav0: np.ndarray, indices) -> list:
    """Unravel a single cavity coupled to a lossy qubit via g n sigma_x,
    for the trajectories `indices` in lockstep.

    The ancilla occupation is sampled, when read, on the grid of spacing
    1/(200 Gamma n_max^2).
    """
    psi = np.kron(np.asarray(psi_cav0, dtype=complex),
                  np.array([1.0, 0.0], dtype=complex))
    spacing = 0.005 / max(cfg.reduced_rate * cfg.n_max ** 2, 1e-12)
    per_member = [[] for _ in indices]
    for events in _unravel_circuits(dephasing_hamiltonian, cfg, psi, indices):
        for ev in events:
            per_member[ev.member].append(ev)
    outcomes = []
    for events in per_member:
        final = events[-1].psi if events else psi
        clicks = [ev.t for ev in events if ev.channel is not None]
        cav_pops = (np.abs(final.reshape(cfg.n_max + 1, 2)) ** 2).sum(axis=1)
        winner = int(np.argmax(cav_pops))
        outcomes.append(DephasingOutcome(clicks=clicks, collapsed_to=winner,
                                         dominant_weight=float(cav_pops[winner]),
                                         click_count=len(clicks), spacing=spacing,
                                         events=events))
    return outcomes


def run_dephasing_circuit(cfg: CircuitConfig, psi_cav0: np.ndarray,
                          traj_index: int = 0) -> DephasingOutcome:
    """`run_dephasing_circuits` for one trajectory."""
    return run_dephasing_circuits(cfg, psi_cav0, (traj_index,))[0]


def superposition_cavity_state(n1: int, n2: int, n_max: int) -> np.ndarray:
    if n1 == n2 or not (0 <= n1 <= n_max and 0 <= n2 <= n_max):
        raise ValueError(f"need two distinct levels in [0, {n_max}], got {n1}, {n2}")
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
    runs = run_phaselock_circuits(run_cfg, range(n_traj), stop_after_clicks=1)
    click_times = [traj.clicks[0] for traj in runs if traj.clicks]
    n_censored = n_traj - len(click_times)
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
