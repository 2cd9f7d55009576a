"""Tests for the quantum-jump unraveling.

Interval-level behavior is pinned against a dense matrix exponential
(survival, jump time and propagated state on both propagators) and with
a rigged RNG, so jump-vs-no-jump and channel selection are exercised
deterministically against hand-computed probabilities; ensemble-level
behavior is checked against Poisson statistics.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from bosetraj import (
    JumpChannels,
    JumpKind,
    MonitoringConfig,
    build_basis,
    build_bec_dark_state,
    build_jump,
    build_number,
    default_initial_state,
    fock_state,
    run_ensemble,
    run_trajectory,
    step,
)
from bosetraj import trajectory
from bosetraj.fock import NumericGuardError
from bosetraj.trajectory import DenseExp, ExpmExp, KrylovExp, trajectory_rng
from oracles import unravel_oracle


class RiggedRng:
    """Returns a preset sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def total_number(basis, psi):
    return sum(
        np.vdot(psi, build_number(basis, j) @ psi).real
        for j in range(1, basis.L + 1)
    )


def no_jump(channels, psi, tau):
    """Dense oracle: exp(-A tau) psi, unnormalised."""
    return expm(-channels.decay.toarray() * tau) @ psi


class TestStep:
    @pytest.mark.parametrize("L,make", [(3, DenseExp), (6, KrylovExp)],
                             ids=["dense", "lanczos"])
    def test_survival_and_state_match_expm(self, L, make):
        # dense at L = 3 (dim 10), Lanczos at L = 6 (dim 336)
        basis = build_basis(L=L, N=L, n_max=3)
        channels = JumpChannels(basis, 1.0, 0.7)
        prop = (make(channels.decay, hermitian=True) if make is DenseExp
                else make(channels.decay))
        psi = default_initial_state(basis)

        def interval(r, tau_max):   # a one-row batch
            ivs, tau, rate, phi = prop.intervals(psi[None], np.array([r]),
                                                 np.array([tau_max]))
            np.testing.assert_allclose(phi[0], ivs[0].states(tau[0]), rtol=0, atol=1e-14)
            return ivs[0], float(tau[0]), None if math.isnan(rate[0]) else float(rate[0])

        for r in (0.9, 0.5, 0.1, 1e-3):
            iv, tau, rate = interval(r, 50.0)
            exact = no_jump(channels, psi, tau)
            assert abs(exact @ exact - r) < 1e-10
            assert np.abs(iv.states(tau) - exact).max() < 1e-10
            # the decay rate handed back is the survival's: 2 phi^T A phi
            assert rate == pytest.approx(2.0 * exact @ (channels.decay @ exact), rel=1e-10)
        # a stop before the jump: the interval ends exactly there
        iv, tau, rate = interval(1e-6, 0.3)
        assert rate is None and tau == 0.3
        exact, phi = no_jump(channels, psi, 0.3), iv.states(0.3)
        assert abs(phi @ phi - exact @ exact) < 1e-10
        assert np.abs(phi - exact).max() < 1e-10

    @pytest.mark.parametrize("make", [DenseExp, KrylovExp], ids=["dense", "lanczos"])
    def test_trajectory_matches_brute_force_oracle(self, make):
        # same draws, dense expm for every survival evaluation: the same
        # jumps at the same times and the same snapshot states
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.7, t_max=1.5,
                               seed=3, snapshot_times=(0.4, 1.0))
        channels = JumpChannels(basis, 1.0, 0.7)
        channels.propagator = (make(channels.decay, hermitian=True)
                               if make is DenseExp else make(channels.decay))
        rates = {JumpKind.PHASE_LOCK: 1.0, JumpKind.DEPHASE: 0.7}
        jumps = [math.sqrt(rates[kind]) * build_jump(kind, site, basis).toarray()
                 for kind, site in channels.labels]
        for idx in range(3):
            traj = run_trajectory(basis, psi0, cfg, channels=channels, traj_index=idx)
            events, snaps, final = unravel_oracle(
                jumps, psi0, cfg.t_max, trajectory_rng(cfg.seed, idx),
                stops=cfg.snapshot_times)
            assert len(events) > 0
            assert [channels.labels[k] for _, k in events] == \
                [(j.kind, j.site) for j in traj.jumps]
            np.testing.assert_allclose([t for t, _ in events],
                                       [j.time for j in traj.jumps], atol=1e-10)
            for t, state in traj.snapshots:
                np.testing.assert_allclose(state, snaps[t], atol=1e-10)
            np.testing.assert_allclose(traj.final_state, final, atol=1e-10)

    def test_short_lanczos_basis_ends_intervals_early(self, monkeypatch):
        # a basis too small to reach the jump ends the interval where its
        # error bound holds and carries the draw over: the trajectory is
        # the dense one
        basis = build_basis(L=4, N=4, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=2.0,
                               t_max=1.0, seed=4, snapshot_times=(0.5,))
        channels = JumpChannels(basis, 1.0, 2.0)
        channels.propagator = DenseExp(channels.decay, hermitian=True)
        dense = run_trajectory(basis, psi0, cfg, channels=channels)
        monkeypatch.setattr(trajectory, "KRYLOV_MAX", 6)
        channels.propagator = KrylovExp(channels.decay)
        short = run_trajectory(basis, psi0, cfg, channels=channels)
        assert short.n_steps > 2 * dense.n_steps
        assert [(j.kind, j.site) for j in short.jumps] == \
            [(j.kind, j.site) for j in dense.jumps]
        np.testing.assert_allclose([j.time for j in short.jumps],
                                   [j.time for j in dense.jumps], atol=1e-9)
        np.testing.assert_allclose(short.final_state, dense.final_state, atol=1e-9)

    def test_no_jump_probability_uniform_fock(self):
        # the jump fires before t_stop exactly when r is below the
        # survival ||exp(-A t_stop) psi||^2
        basis = build_basis(L=2, N=2, n_max=2)
        psi0 = fock_state(basis, (1, 1))
        channels = JumpChannels(basis, 1.0, 0.5)
        exact = no_jump(channels, psi0, 0.1)
        p = exact @ exact
        out, t, r, k, _ = step(psi0, channels, 0.0, 0.1, p * 0.9999,
                               RiggedRng([]))
        assert k is None and t == 0.1
        assert r == pytest.approx(0.9999, rel=1e-10)
        out, t, r, k, _ = step(psi0, channels, 0.0, 0.1, p * 1.0001,
                               RiggedRng([0.5, 0.25]))
        assert k is not None and t < 0.1
        assert r == 0.75    # the next jump's draw

    def test_channel_selection_inverse_cdf(self):
        # |1,1> at L=2: channel rates (4Λ, Γ, Γ) in fixed order d1, c1, c2,
        # so the channel draw's boundaries sit at 4/5 and 9/10 of the
        # total.  r = 1 - 1e-12 makes the jump fire at tau ~ 1e-13, where
        # the state is still |1,1> to that order.
        basis = build_basis(L=2, N=2, n_max=2)
        psi0 = fock_state(basis, (1, 1))
        lam, gam = 1.0, 0.5
        channels = JumpChannels(basis, lam, gam)
        cases = [
            (0.5 * 4 / 5, JumpKind.PHASE_LOCK, 1),
            (4 / 5 - 1e-9, JumpKind.PHASE_LOCK, 1),
            (4 / 5 + 1e-9, JumpKind.DEPHASE, 1),
            (9 / 10 - 1e-9, JumpKind.DEPHASE, 1),
            (9 / 10 + 1e-9, JumpKind.DEPHASE, 2),
            (1.0 - 1e-12, JumpKind.DEPHASE, 2),
        ]
        for u, kind, site in cases:
            _, t, _, k, _ = step(psi0, channels, 0.0, 1.0, 1.0 - 1e-12,
                                 RiggedRng([u, 0.5]))
            assert 0.0 < t < 1e-12
            assert channels.labels[k] == (kind, site)

    def test_phaselock_jump_output_state(self):
        # d1 maps every N = 2 state onto |0,2> - |2,0>; the jump acts on
        # the no-jump state at the jump time
        basis = build_basis(L=2, N=2, n_max=2)
        psi0 = fock_state(basis, (1, 1))
        channels = JumpChannels(basis, 1.0, 0.0)
        out, t, _, k, _ = step(psi0, channels, 0.0, 10.0, 0.7, RiggedRng([0.0, 0.5]))
        assert channels.labels[k] == (JumpKind.PHASE_LOCK, 1)
        pre = no_jump(channels, psi0, t)
        assert pre @ pre == pytest.approx(0.7, abs=1e-10)
        d1 = build_jump(JumpKind.PHASE_LOCK, 1, basis).toarray()
        oracle = d1 @ pre
        np.testing.assert_allclose(out, oracle / np.linalg.norm(oracle), atol=1e-10)
        expect = (fock_state(basis, (0, 2)) - fock_state(basis, (2, 0))) / math.sqrt(2)
        overlap = abs(np.vdot(expect, out))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_no_jump_renormalized(self):
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = fock_state(basis, (1, 1, 1))
        channels = JumpChannels(basis, 1.0, 1.0)
        out, t, _, k, _ = step(psi0, channels, 0.0, 1e-4, 0.5, RiggedRng([]))
        assert k is None and t == 1e-4
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        exact = no_jump(channels, psi0, 1e-4)
        np.testing.assert_allclose(out, exact / np.linalg.norm(exact), atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_jump_weights_match_per_channel_products(self, dtype, monkeypatch):
        # channel choice and post-jump states against each channel's own
        # sparse product sqrt(rate_k) b_k phi, for real and complex states,
        # with the total weight 2 phi^H A phi given
        basis = build_basis(L=5, N=5, n_max=3)
        lam, gam = 1.3, 0.7
        channels = JumpChannels(basis, lam, gam)
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(basis.dim).astype(dtype)
        if dtype is complex:
            phi += 1j * rng.standard_normal(basis.dim)
        phi /= np.linalg.norm(phi)
        rates = {JumpKind.PHASE_LOCK: lam, JumpKind.DEPHASE: gam}
        outs = [math.sqrt(rates[kind]) * (build_jump(kind, site, basis) @ phi)
                for kind, site in channels.labels]
        weights = np.array([np.vdot(o, o).real for o in outs])
        total = 2.0 * np.vdot(phi, channels.decay @ phi).real
        assert total == pytest.approx(weights.sum(), rel=1e-13)

        def select(u):      # a one-row batch
            k, post = trajectory._select_rows(phi[None], channels.stacked, channels.diagonal,
                                              np.array([u]), np.array([total]))
            return k[0], post[0]

        cum = np.cumsum(weights) / weights.sum()
        for k, (lo, hi) in enumerate(zip(np.r_[0.0, cum[:-1]], cum)):
            got_k, post = select(0.5 * (lo + hi))
            assert got_k == k
            assert post.dtype == phi.dtype
            np.testing.assert_allclose(post, outs[k] / math.sqrt(weights[k]),
                                       rtol=0, atol=1e-14)
        # draws 1e-12 either side of the bond/site boundary
        bonds = basis.L - 1
        assert select(cum[bonds - 1] - 1e-12)[0] == bonds - 1
        assert select(cum[bonds - 1] + 1e-12)[0] == bonds
        # a site is chosen without any bond product
        monkeypatch.setattr(trajectory, "_bond_weights_rows",
                            lambda *a: pytest.fail("bond product formed"))
        assert select(0.5 * (cum[bonds - 1] + 1.0))[0] >= bonds

    @pytest.mark.parametrize("total", ["rate", "above"])
    def test_dead_bonds_give_the_draw_to_the_sites(self, total):
        # the condensate is annihilated by every d_j: with Lambda > 0 the
        # bonds are all dead and only the dephasing sites can fire, even
        # for u = 0 and when the given total leaves the bonds a share
        basis = build_basis(L=4, N=4, n_max=4)
        channels = JumpChannels(basis, 1.0, 0.5)
        phi = build_bec_dark_state(basis)
        assert np.abs(channels.stacked @ phi).max() < 1e-12
        rate = 2.0 * np.vdot(phi, channels.decay @ phi).real
        given = {"rate": rate, "above": rate * (1.0 + 1e-9)}[total]
        for u in [0.0, 1e-300, 1e-16, 1e-10, 0.5, 1.0 - 1e-16]:
            k, post = trajectory._select_rows(phi[None], channels.stacked,
                                              channels.diagonal, np.array([u]),
                                              np.array([given]))
            assert channels.labels[k[0]][0] is JumpKind.DEPHASE
            assert np.linalg.norm(post[0]) == pytest.approx(1.0, abs=1e-12)
        # through the event loop: r = 1 - 1e-12 fires the jump at tau ~
        # 1e-13, where the bond weights are still ~1e-26 of the total
        for u in [0.0, 0.5]:
            _, t, _, k, _ = step(phi, channels, 0.0, 1.0, 1.0 - 1e-12,
                                 RiggedRng([u, 0.5]))
            assert 0.0 < t < 1e-12
            assert channels.labels[k][0] is JumpKind.DEPHASE

    @pytest.mark.parametrize("total", [0.0, -1.0, math.nan])
    def test_jump_at_a_non_positive_total_trips_the_guard(self, total):
        # the total is the survival's decay rate at the jump: a draw can
        # pick a channel only from a positive finite one, alone or as one
        # member's total among healthy ones
        basis = build_basis(L=3, N=3, n_max=3)
        channels = JumpChannels(basis, 1.0, 0.5)
        phi = default_initial_state(basis)
        for totals in ([total], [1.0, total, 1.0]):
            with pytest.raises(NumericGuardError, match="total channel rate"):
                trajectory._select_rows(np.tile(phi, (len(totals), 1)), channels.stacked,
                                        channels.diagonal, np.full(len(totals), 0.5),
                                        np.array(totals))

    def test_dead_channel_never_selected(self):
        # Gamma = 0: the dephasing channels are absent altogether.  From
        # the Fock state (2,0,1) under dephasing alone, site 2 is empty:
        # its channel has zero weight, and no channel draw, not even one
        # on its (degenerate) CDF boundary, may select it.
        basis = build_basis(L=3, N=3, n_max=3)
        channels = JumpChannels(basis, 1.0, 0.0)
        assert {kind for kind, _ in channels.labels} == {JumpKind.PHASE_LOCK}
        psi0 = fock_state(basis, (2, 0, 1))
        channels = JumpChannels(basis, 0.0, 1.0)
        # weights n_j^2 = (4, 0, 1): the empty site's interval is [0.8, 0.8)
        for u in [0.0, 0.8 - 1e-16, 0.8, 0.8 + 1e-16, 1.0 - 1e-16]:
            out, _, _, k, _ = step(psi0, channels, 0.0, 10.0, 0.5,
                                   RiggedRng([u, 0.5]))
            assert channels.labels[k] != (JumpKind.DEPHASE, 2)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    @given(data=st.data(),
           weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
                            min_size=1, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_inverse_cdf_of_one_row(self, data, weights):
        # a one-row `_select_rows` takes its channel from a one-row `_inverse_cdfs`:
        # against searchsorted over the CDF, clamped onto [0, last channel]
        # and walked back off dead channels, -1 when none is live
        weights = np.array(weights)
        cum = np.cumsum(weights)
        target = data.draw(st.one_of(
            st.floats(0.0, 1.5).map(lambda u: u * cum[-1]),
            st.sampled_from(cum.tolist()),          # exactly on a CDF step
            st.floats(-1e6, -1e-300), st.just(math.nan), st.just(math.inf)))
        expected = -1
        if cum[-1] > 0.0:
            expected = min(int(np.searchsorted(cum, max(target, 0.0), side="right")),
                           len(cum) - 1)
            while weights[expected] == 0.0:
                expected -= 1
        assert trajectory._inverse_cdfs(weights[None], np.array([target]))[0] == expected


class TestLanczos:
    @given(diag=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=10),
           betas=st.lists(st.floats(0.05, 5.0), min_size=10, max_size=10),
           tau=st.floats(1e-3, 1.0), norm=st.floats(0.1, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_error_floor_never_exceeds_the_bound(self, diag, betas, tau, norm):
        # the floor that lets a Lanczos step skip its eigensolve, against
        # ||psi|| beta_k int_0^tau |e_k^T exp(-s T_k) e_1| ds, the integral
        # read off the exponential of the augmented matrix [[-T, e_1], [0, 0]]
        k = len(diag)
        T = np.diag(diag) + np.diag(betas[:k - 1], 1) + np.diag(betas[:k - 1], -1)
        aug = np.zeros((k + 1, k + 1))
        aug[:k, :k], aug[0, k] = -T, 1.0
        integral = abs(expm(aug * tau)[k - 1, k])
        exact = norm * betas[k - 1] * integral
        log_scale = math.log(norm) + sum(math.log(b) for b in betas[:k])
        floor = math.exp(trajectory._log_error_floor(log_scale, k, tau, max(diag)))
        assert floor <= exact * (1.0 + 1e-9)

    @pytest.mark.parametrize("rates,state", [((1.0, 0.0), "condensate"),
                                             ((0.0, 1.0), "fock")])
    def test_breakdown_on_the_first_step(self, rates, state):
        # an eigenvector of A leaves nothing after the first Lanczos step
        # (beta = 0 for the Fock state under dephasing, ~1e-14 for the
        # dark condensate): the interval returns a one-vector basis
        # without dividing by zero, and the state does not move
        basis = build_basis(L=7, N=7, n_max=7)
        assert basis.dim > trajectory.DENSE_MAX_DIM
        psi0 = (build_bec_dark_state(basis) if state == "condensate"
                else fock_state(basis, (1, 1, 1, 1, 1, 1, 1)))
        cfg = MonitoringConfig(rate_phaselock=rates[0], rate_dephase=rates[1],
                               t_max=2.0, seed=5, snapshot_times=(0.5, 1.0))
        channels = JumpChannels(basis, *rates)
        assert isinstance(channels.propagator, KrylovExp)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            traj = run_trajectory(basis, psi0, cfg, channels=channels)
        assert set(traj.krylov_dims) == {1}
        if state == "condensate":
            assert traj.jumps == []
        assert abs(np.vdot(psi0, traj.final_state)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("L,gamma,dtype", [
        (7, 0.5, float), (7, 8.0, float), (7, 0.5, complex), (7, 8.0, complex),
        (8, 8.0, float), (8, 8.0, complex)],
        ids=["0.5", "8.0", "0.5-complex", "8.0-complex", "L8-8.0", "L8-8.0-complex"])
    def test_interval_bases_are_orthonormal(self, L, gamma, dtype):
        # every interval of a trajectory, and one long interval (survival
        # down to 1e-8: 17-35 vectors) where the bare recurrence loses
        # orthogonality past the tolerance, so the interval is rebuilt
        # with reorthogonalisation
        basis = build_basis(L=L, N=L, n_max=3)
        channels = JumpChannels(basis, 1.0, gamma)
        assert isinstance(channels.propagator, KrylovExp)
        psi0 = default_initial_state(basis).astype(dtype)
        if dtype is complex:    # a relative phase, not just a global one
            kick = channels.decay @ psi0
            psi0 = np.exp(0.9j) * psi0 + 0.3j * kick / np.linalg.norm(kick)
            psi0 /= np.linalg.norm(psi0)
        intervals = [ev.interval for events in trajectory.unravel_batch(
            psi0[None], channels, 0.5, [trajectory_rng(3, 0)], stops=(0.25,))
                     for ev in events]
        long = channels.propagator.intervals(psi0[None], np.array([1e-8]),
                                             np.array([100.0]))[0][0]
        for iv in intervals + [long]:
            V = iv.basis
            assert V.dtype == psi0.dtype
            assert np.abs(V.conj().T @ V - np.eye(V.shape[1])).max() <= 1e-12
        assert long.basis.shape[1] > 15
        # the rerun happens exactly when the bare basis is off by more than
        # the tolerance: by 3e-11 or more at gamma = 0.5, and by about
        # 1e-12 (either side) at gamma = 8
        bare = channels.propagator._lanczos(psi0, 1e-8, 100.0, reorth=False)[0].basis
        loss = np.abs(bare.conj().T @ bare - np.eye(bare.shape[1])).max()
        assert long.reorthogonalised == (loss > trajectory.ORTHO_TOL)
        if gamma == 0.5:
            assert long.reorthogonalised

    def test_reruns_are_counted_and_agree(self, monkeypatch):
        # with no orthogonality loss tolerated, every interval is rebuilt
        # with reorthogonalisation and counted once; the trajectory agrees
        # with the bare-recurrence one to the Lanczos tolerance
        basis = build_basis(L=7, N=7, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=2.0, t_max=0.5,
                               seed=8, snapshot_times=(0.25,))
        channels = JumpChannels(basis, 1.0, 2.0)
        bare = run_trajectory(basis, psi0, cfg, channels=channels)
        assert bare.reorth_reruns == 0
        monkeypatch.setattr(trajectory, "ORTHO_TOL", -1.0)
        every = run_trajectory(basis, psi0, cfg, channels=channels)
        assert every.reorth_reruns == every.n_steps == bare.n_steps
        assert [(j.kind, j.site) for j in every.jumps] == \
            [(j.kind, j.site) for j in bare.jumps]
        np.testing.assert_allclose(every.final_state, bare.final_state, atol=1e-10)
        ens = run_ensemble(basis, psi0, cfg, M=2, channels=channels)
        np.testing.assert_array_equal(ens.reorth_reruns, ens.intervals)


class TestDarkState:
    def test_dark_state_is_absorbing(self):
        # Phase-lock only: the symmetric condensate is jump-free and the
        # no-jump flow leaves it invariant.
        basis = build_basis(L=4, N=4, n_max=4)
        dark = build_bec_dark_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.0,
                               t_max=2.0, seed=11)
        traj = run_trajectory(basis, dark, cfg)
        assert traj.jumps == []
        overlap = abs(np.vdot(dark, traj.final_state))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_dephasing_destroys_darkness(self):
        basis = build_basis(L=3, N=3, n_max=3)
        dark = build_bec_dark_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=5.0,
                               t_max=5.0, seed=3)
        traj = run_trajectory(basis, dark, cfg)
        assert len(traj.jumps) > 0


class TestFockUnderDephasing:
    def test_fock_state_stationary_without_phaselock(self):
        # Dephasing jumps act diagonally on a Fock state; with Lambda=0
        # the state never changes (up to normalization/phase).
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = fock_state(basis, (2, 0, 1))
        cfg = MonitoringConfig(rate_phaselock=0.0, rate_dephase=1.0,
                               t_max=3.0, seed=7)
        traj = run_trajectory(basis, psi0, cfg)
        overlap = abs(np.vdot(psi0, traj.final_state))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_jump_counts_poisson(self):
        # Fock state (2,0,1): total dephasing rate Γ * sum n_j² = 5Γ,
        # constant in time, so jump counts are Poisson(5 Γ T).
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = fock_state(basis, (2, 0, 1))
        gam, T, M = 1.0, 2.0, 200
        cfg = MonitoringConfig(rate_phaselock=0.0, rate_dephase=gam,
                               t_max=T, seed=21)
        res = run_ensemble(basis, psi0, cfg, M=M)
        lam_expected = 5.0 * gam * T
        mean = res.jump_counts.mean()
        tol = 4.0 * math.sqrt(lam_expected / M)
        assert abs(mean - lam_expected) < tol
        var = res.jump_counts.var(ddof=1)
        assert abs(var - lam_expected) < 0.35 * lam_expected

    def test_waiting_times_exponential(self):
        # Inter-jump waits at constant rate R = 5Γ are exponential; the
        # empirical mean must match 1/R.
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = fock_state(basis, (2, 0, 1))
        cfg = MonitoringConfig(rate_phaselock=0.0, rate_dephase=1.0,
                               t_max=40.0, seed=5)
        traj = run_trajectory(basis, psi0, cfg)
        times = np.array([j.time for j in traj.jumps])
        waits = np.diff(times)
        assert len(waits) > 100
        mean_wait = waits.mean()
        expected = 1.0 / 5.0
        assert abs(mean_wait - expected) < 4.0 * expected / math.sqrt(len(waits))


class TestConservation:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_norm_and_particle_number(self, seed):
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                               t_max=0.5, seed=seed)
        traj = run_trajectory(basis, psi0, cfg)
        assert np.linalg.norm(traj.final_state) == pytest.approx(1.0, abs=1e-10)
        n_tot = total_number(basis, traj.final_state)
        assert n_tot == pytest.approx(basis.N, abs=1e-9)


class TestDeterminism:
    def test_trajectory_repeatable(self):
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.7,
                               t_max=1.0, seed=42,
                               snapshot_times=(0.5, 1.0))
        a = run_trajectory(basis, psi0, cfg, traj_index=3)
        b = run_trajectory(basis, psi0, cfg, traj_index=3)
        assert len(a.jumps) == len(b.jumps)
        np.testing.assert_array_equal(a.final_state, b.final_state)

    def test_trajectories_distinct_across_indices(self):
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=2.0,
                               t_max=2.0, seed=42)
        a = run_trajectory(basis, psi0, cfg, traj_index=0)
        b = run_trajectory(basis, psi0, cfg, traj_index=1)
        assert not np.allclose(a.final_state, b.final_state)

    def test_worker_count_invariance(self):
        basis = build_basis(L=3, N=3, n_max=2)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                               t_max=0.5, seed=9,
                               snapshot_times=(0.25, 0.5))
        seq = run_ensemble(basis, psi0, cfg, M=6, workers=1)
        par = run_ensemble(basis, psi0, cfg, M=6, workers=2)
        np.testing.assert_array_equal(seq.jump_counts, par.jump_counts)
        for t in seq.states:
            np.testing.assert_array_equal(seq.states[t], par.states[t])

    def test_single_member_matches_run_trajectory(self):
        basis = build_basis(L=3, N=3, n_max=2)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                               t_max=0.5, seed=13,
                               snapshot_times=(0.5,))
        res = run_ensemble(basis, psi0, cfg, M=1)
        traj = run_trajectory(basis, psi0, cfg, traj_index=0)
        np.testing.assert_array_equal(res.states_at(0.5)[0],
                                      traj.snapshots[-1][1])

    @pytest.mark.parametrize("L", [3, 6], ids=["dense", "lanczos"])
    def test_complex_start_runs_the_real_trajectory_up_to_phase(self, L):
        # a global phase changes no survival or channel weight: the same
        # jumps at the same times, and every state keeps the phase
        basis = build_basis(L=L, N=L, n_max=3)
        psi0 = default_initial_state(basis)
        phase = np.exp(0.9j)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.7, t_max=1.0,
                               seed=6, snapshot_times=(0.5,))
        channels = JumpChannels(basis, 1.0, 0.7)
        real = run_trajectory(basis, psi0, cfg, channels=channels)
        cplx = run_trajectory(basis, phase * psi0, cfg, channels=channels)
        assert real.final_state.dtype == np.float64
        assert cplx.final_state.dtype == np.complex128
        assert len(real.jumps) > 0
        assert [(j.kind, j.site) for j in cplx.jumps] == \
            [(j.kind, j.site) for j in real.jumps]
        np.testing.assert_allclose([j.time for j in cplx.jumps],
                                   [j.time for j in real.jumps], atol=1e-10)
        for (_, a), (_, b) in zip(cplx.snapshots, real.snapshots):
            np.testing.assert_allclose(a, phase * b, atol=1e-10)
        np.testing.assert_allclose(cplx.final_state, phase * real.final_state,
                                   atol=1e-10)

    def test_rng_streams_independent_of_spawn(self):
        a = trajectory_rng(17, 4).random(8)
        b = trajectory_rng(17, 4).random(8)
        c = trajectory_rng(17, 5).random(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def assert_same_trajectory(a, b):
    """Every field of two Trajectory results, bitwise."""
    assert a.jumps == b.jumps                 # kinds, sites and exact times
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, x), (_, y) in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.final_state, b.final_state)
    assert (a.n_steps, a.krylov_dims, a.reorth_reruns) == \
        (b.n_steps, b.krylov_dims, b.reorth_reruns)


class TestLockstepBatch:
    """A batch advances its members round by round; each member is bitwise
    its own batch of one, whatever the batch size, so results depend on
    neither the block layout nor the worker count."""

    @pytest.mark.parametrize("L,rates,state,t_max", [
        (3, (1.0, 0.7), "fock", 1.5),
        (3, (1.0, 0.0), "fock", 1.5),
        (3, (0.0, 1.0), "mixed", 1.5),
        (7, (1.0, 2.0), "fock", 0.3),
    ], ids=["dense-both", "dense-phaselock", "dense-dephase", "lanczos"])
    @pytest.mark.parametrize("B", [1, 3, 7])
    def test_members_match_their_batch_of_one(self, L, rates, state, t_max, B):
        basis = build_basis(L=L, N=L, n_max=3)
        psi0 = default_initial_state(basis)
        if state == "mixed":        # a superposition, so dephasing jumps act
            psi0 = psi0 + fock_state(basis, (2, 0, 1)) + 0.5 * fock_state(basis, (0, 3, 0))
        cfg = MonitoringConfig(rate_phaselock=rates[0], rate_dephase=rates[1],
                               t_max=t_max, seed=12, snapshot_times=(0.0, t_max / 3))
        channels = JumpChannels(basis, *rates)
        assert isinstance(channels.propagator, KrylovExp if L == 7 else DenseExp)
        first = 4                   # the batch need not start at index 0
        batch = trajectory.run_batch(basis, psi0, cfg, range(first, first + B),
                                     channels=channels)
        assert B == 1 or sum(len(traj.jumps) for traj in batch) > 0
        for i, traj in enumerate(batch):
            assert_same_trajectory(traj, run_trajectory(basis, psi0, cfg, channels=channels,
                                                        traj_index=first + i))
        if rates == (0.0, 1.0):
            assert {j.kind for traj in batch for j in traj.jumps} == {JumpKind.DEPHASE}

    def test_empty_batch_returns_at_once(self):
        # zero members: the event loop yields no round (checked on the
        # generator first, so a loop that spins fails instead of hanging)
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0, t_max=1.0, seed=1)
        channels = JumpChannels(basis, 1.0, 1.0)
        rounds = trajectory.unravel_batch(np.empty((0, basis.dim)), channels, cfg.t_max, [])
        assert next(rounds, None) is None
        assert trajectory.run_batch(basis, psi0, cfg, ()) == []

    @pytest.mark.parametrize("kind", ["lanczos", "expm"])
    def test_member_by_member_rows_are_their_one_row_intervals(self, kind):
        # the propagators that solve member by member give every row of a
        # batch bitwise its one-row result: a jump, a stop, and (Lanczos)
        # a long interval whose bare basis is rebuilt with
        # reorthogonalisation
        if kind == "lanczos":
            basis = build_basis(L=7, N=7, n_max=3)
            channels = JumpChannels(basis, 1.0, 0.5)
            prop, psi = channels.propagator, default_initial_state(basis)
            assert isinstance(prop, KrylovExp)
            r, tau_max = np.array([0.5, 1e-6, 1e-8]), np.array([50.0, 0.3, 100.0])
        else:       # a Jordan block has no eigenbasis
            prop = trajectory.propagator(np.array([[0.5, 1.0], [0.0, 0.5]]), hermitian=False)
            psi = np.array([0.6, 0.8])
            assert isinstance(prop, ExpmExp)
            r, tau_max = np.array([0.3, 1e-6]), np.array([10.0, 0.3])
        rows = np.tile(psi, (len(r), 1))
        ivs, tau, rate, phi = prop.intervals(rows, r, tau_max)
        assert not math.isnan(rate[0])
        assert math.isnan(rate[1]) and tau[1] == tau_max[1]
        if kind == "lanczos":
            assert ivs[2].reorthogonalised and not ivs[0].reorthogonalised
        for m in range(len(r)):
            one = prop.intervals(rows[m:m + 1], r[m:m + 1], tau_max[m:m + 1])
            np.testing.assert_array_equal(tau[m:m + 1], one[1])
            np.testing.assert_array_equal(rate[m:m + 1], one[2])
            np.testing.assert_array_equal(phi[m:m + 1], one[3])
            assert ivs[m].reorthogonalised == one[0][0].reorthogonalised
            np.testing.assert_array_equal(ivs[m].states(tau[m]), one[0][0].states(tau[m]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_batched_choice_is_the_scalar_choice(self, dtype):
        # a round chooses every jumping member's channel at once: for
        # each row bitwise the channel and post-jump state of its own
        # one-row call, the condensate's dead bonds among the rows included
        basis = build_basis(L=4, N=4, n_max=4)
        channels = JumpChannels(basis, 1.0, 0.5)
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((5, basis.dim)).astype(dtype)
        if dtype is complex:
            rows += 1j * rng.standard_normal((5, basis.dim))
        rows[2] = build_bec_dark_state(basis)
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        totals = np.array([2.0 * np.vdot(x, channels.decay @ x).real for x in rows])
        for u in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0 - 1e-16):
            k, post = trajectory._select_rows(rows, channels.stacked, channels.diagonal,
                                              np.full(5, u), totals)
            for m, x in enumerate(rows):
                km, pm = trajectory._select_rows(x[None], channels.stacked,
                                                 channels.diagonal, np.array([u]),
                                                 totals[m:m + 1])
                assert k[m] == km[0]
                np.testing.assert_array_equal(post[m], pm[0])

    def test_ensemble_members_are_run_trajectory(self, monkeypatch):
        # blocks of one, two and all seven members give the same ensemble,
        # and member i is run_trajectory(i)
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0, t_max=1.0,
                               seed=3, snapshot_times=(0.5, 1.0))
        ensembles = []
        for amplitudes in (basis.dim, 2 * basis.dim, trajectory.BLOCK_AMPLITUDES):
            monkeypatch.setattr(trajectory, "BLOCK_AMPLITUDES", amplitudes)
            ensembles.append(run_ensemble(basis, psi0, cfg, M=7))
        for ens in ensembles[1:]:
            for t in cfg.snapshot_times:
                np.testing.assert_array_equal(ens.states_at(t), ensembles[0].states_at(t))
            np.testing.assert_array_equal(ens.intervals, ensembles[0].intervals)
            for kind in JumpKind:
                np.testing.assert_array_equal(ens.jumps_by_kind[kind],
                                              ensembles[0].jumps_by_kind[kind])
        for i in range(7):
            traj = run_trajectory(basis, psi0, cfg, traj_index=i)
            assert ensembles[0].intervals[i] == traj.n_steps
            for t, state in traj.snapshots:
                np.testing.assert_array_equal(ensembles[0].states_at(t)[i], state)

    def test_blocks_cover_the_indices_in_order(self):
        for M, size, workers in [(1, 6553, 1), (24, 6553, 1), (24, 6553, 2), (7, 1, 1),
                                 (3, 1, 4), (100, 30, 3)]:
            chunks = trajectory.blocks(M, size, workers)
            assert [i for c in chunks for i in c] == list(range(M))
            assert max(map(len, chunks)) <= size
            assert len(chunks) >= min(M, workers)
        # a dense batch holds up to BLOCK_AMPLITUDES amplitudes; the Lanczos
        # propagator shares nothing between members and runs one at a time
        for L, dense in [(3, True), (7, False)]:
            basis = build_basis(L=L, N=L, n_max=3)
            channels = JumpChannels(basis, 1.0, 1.0)
            size = trajectory.BLOCK_AMPLITUDES // basis.dim if dense else 1
            assert trajectory.batch_size(channels.propagator, basis.dim) == size


class TestSharedUnitJumps:
    def test_shared_blocks_are_bitwise_fresh_ones(self):
        # channels on one basis share its cached unit-rate bond stack and
        # bond Gram (no dephasing operator is built); a fresh basis builds
        # its own
        basis = build_basis(L=8, N=8, n_max=3)
        for gamma in (0.5, 8.0):
            shared = JumpChannels(basis, 1.0, gamma)
            fresh = JumpChannels(build_basis(L=8, N=8, n_max=3), 1.0, gamma)
            assert set(basis._jump_cache) == {JumpKind.PHASE_LOCK, "gram"}
            # and both are the channels scaled one operator at a time:
            # the bonds stacked, the sites as the diagonals' rates
            bonds = [build_jump(JumpKind.PHASE_LOCK, j, basis) for j in range(1, 8)]
            sites = [math.sqrt(gamma) * build_jump(JumpKind.DEPHASE, j, basis)
                     for j in range(1, 9)]
            per_op = sp.vstack(bonds + sites, format="csr")
            site_rates = np.column_stack([gamma * build_jump(JumpKind.DEPHASE, j,
                                                             basis).diagonal() ** 2
                                          for j in range(1, 9)])
            for stacked, diagonal in ((fresh.stacked, fresh.diagonal),
                                      (sp.vstack(bonds, format="csr"), site_rates)):
                assert (shared.stacked != stacked).nnz == 0
                np.testing.assert_array_equal(shared.diagonal, diagonal)
            assert (shared.decay != fresh.decay).nnz == 0
            # decay sums its diagonal from the bond Gram and the table, in
            # another order than the product of the stacked operators: the
            # same pattern and off-diagonal, the diagonal to a few ulp
            decay = sp.csr_matrix(0.5 * (per_op.T @ per_op))
            diff = shared.decay - decay
            assert shared.decay.nnz == decay.nnz
            assert (diff - sp.diags(diff.diagonal())).nnz == 0
            np.testing.assert_allclose(shared.decay.diagonal(), decay.diagonal(),
                                       rtol=4 * np.finfo(float).eps, atol=0)
            assert shared.labels == fresh.labels


class TestConfigAndHelpers:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            MonitoringConfig(rate_phaselock=-1.0, rate_dephase=0.0,
                             t_max=1.0)
        with pytest.raises(ValueError):
            MonitoringConfig(rate_phaselock=0.0, rate_dephase=0.0,
                             t_max=1.0)
        with pytest.raises(ValueError):
            MonitoringConfig(rate_phaselock=1.0, rate_dephase=math.nan,
                             t_max=1.0)

    def test_snapshot_time_after_t_max_rejected(self):
        # the engine stops at every snapshot time, so none may lie past t_max
        with pytest.raises(ValueError, match="snapshot times"):
            MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.0, t_max=1.0,
                             snapshot_times=(0.5, 1.5))

    def test_max_total_rate_deterministic_above_dense_cutoff(self):
        # dim 336 takes the sparse eigsh path; repeated calls must give
        # the same float
        basis = build_basis(L=6, N=6, n_max=3)
        channels = JumpChannels(basis, 1.0, 0.5)
        assert basis.dim > 64
        values = {channels.max_total_rate() for _ in range(5)}
        assert len(values) == 1
        dense = np.linalg.eigvalsh(2.0 * channels.decay.toarray())[-1]
        assert abs(values.pop() - dense) < 1e-10

    def test_snapshots_cover_requested_times(self):
        basis = build_basis(L=2, N=2, n_max=2)
        psi0 = default_initial_state(basis)
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=0.0,
                               t_max=1.0,
                               snapshot_times=(0.0, 0.3, 1.0))
        traj = run_trajectory(basis, psi0, cfg)
        assert len(traj.snapshots) == 3
        assert [t for t, _ in traj.snapshots] == [0.0, 0.3, 1.0]

    def test_initial_state_requires_unit_filling(self):
        basis = build_basis(L=3, N=2, n_max=2)
        with pytest.raises(ValueError):
            default_initial_state(basis)
