"""Tests for the explicit-ancilla monitoring circuits.

The reduction target is known independently: eliminating a fast lossy
ancilla leaves the chain jump operators at rate g^2/kappa.  Click-rate
statistics, collapse outcomes, and the entanglement generated by
heralded phase-lock clicks are all checked against that picture.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from bosetraj import ancilla, cli, trajectory
from bosetraj.ancilla import (
    CircuitConfig,
    DECAY_SCALE,
    born_markov_rate_check,
    dephasing_hamiltonian,
    first_click_rate,
    phaselock_hamiltonian,
    run_dephasing_circuit,
    run_dephasing_circuits,
    run_phaselock_circuit,
    run_phaselock_circuits,
    superposition_cavity_state,
    _pair_entropy,
)
from bosetraj.fock import NumericGuardError
from bosetraj.trajectory import DenseExp, ExpmExp, propagator, trajectory_rng


class TestConfig:
    def test_reduced_rate(self):
        cfg = CircuitConfig(g_eff=2.0, kappa=50.0)
        assert cfg.reduced_rate == pytest.approx(4.0 / 50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitConfig(kappa=0.0)
        with pytest.raises(ValueError):
            CircuitConfig(g_eff=-1.0)


class TestPhaselockHamiltonian:
    def test_hermitian(self):
        cfg = CircuitConfig(g_eff=1.0, h_eff=0.3, kappa=100.0, n_max=2)
        H, sm = phaselock_hamiltonian(cfg)
        np.testing.assert_allclose(H, H.conj().T, atol=1e-12)

    def test_coupling_matrix_element(self):
        # <0,2;e|H|1,1;g> = g <0,2|d|1,1> = g*sqrt(2)
        cfg = CircuitConfig(g_eff=1.5, kappa=100.0, n_max=2)
        H, _ = phaselock_hamiltonian(cfg)
        d1 = cfg.n_max + 1
        bra = np.zeros(d1 * d1 * 2, dtype=complex)
        bra[(0 * d1 + 2) * 2 + 1] = 1.0      # |0,2>|e>
        ket = np.zeros_like(bra)
        ket[(1 * d1 + 1) * 2 + 0] = 1.0      # |1,1>|g>
        elem = bra.conj() @ H @ ket
        assert abs(elem) == pytest.approx(1.5 * math.sqrt(2.0), abs=1e-12)

    def test_symmetric_state_is_dark(self):
        # (|2,0> + sqrt(2)|1,1> + |0,2>)/2 is annihilated by the pair
        # jump, so the circuit never excites the ancilla from it.
        cfg = CircuitConfig(g_eff=1.0, kappa=100.0, n_max=2, t_max=20.0)
        d1 = cfg.n_max + 1
        psi_cav = np.zeros(d1 * d1, dtype=complex)
        psi_cav[2 * d1 + 0] = 0.5
        psi_cav[1 * d1 + 1] = 1.0 / math.sqrt(2.0)
        psi_cav[0 * d1 + 2] = 0.5
        traj = run_phaselock_circuit(cfg, psi_cav0=psi_cav)
        assert traj.clicks == []


class TestPhaselockCircuit:
    def test_click_entropy_and_heralded_state(self):
        # From the product state |1,1> about half of all trajectories
        # purify onto the dark state and never click; for one that does
        # click, the cavities are left in (|0,2> - |2,0>)/sqrt(2): one
        # ebit of entanglement and > 0.95 fidelity with the heralded
        # target.
        cfg = CircuitConfig(g_eff=1.0, kappa=200.0, n_max=2,
                            t_max=200.0, seed=2)
        traj = None
        for idx in range(10):
            cand = run_phaselock_circuit(cfg, traj_index=idx)
            if cand.clicks:
                traj = cand
                break
        assert traj is not None, "no clicking trajectory among 10 seeds"
        t, s_before, s_after = traj.click_entropy_steps[0]
        assert s_after > s_before
        assert s_after == pytest.approx(math.log(2.0), abs=0.05)
        d1 = cfg.n_max + 1
        target = np.zeros(d1 * d1, dtype=complex)
        target[0 * d1 + 2] = 1.0 / math.sqrt(2.0)
        target[2 * d1 + 0] = -1.0 / math.sqrt(2.0)
        target_full = np.kron(target, np.array([1.0, 0.0], dtype=complex))
        fid = abs(np.vdot(target_full, traj.click_events[0].psi)) ** 2
        assert fid > 0.95

    def test_determinism(self):
        cfg = CircuitConfig(g_eff=1.0, kappa=100.0, n_max=2,
                            t_max=30.0, seed=5)
        a = run_phaselock_circuit(cfg, traj_index=1)
        b = run_phaselock_circuit(cfg, traj_index=1)
        assert len(a.clicks) == len(b.clicks)
        np.testing.assert_array_equal(a.final_state, b.final_state)

    def test_reconstruction_guard_trips_on_defective_generator(self):
        # a Jordan block has no eigenbasis: the decomposition cannot
        # reconstruct it, a Hermitian generator failing the check is an
        # error, and a circuit's generator falls back to expm
        jordan = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(NumericGuardError):
            DenseExp(jordan, hermitian=False)
        with pytest.raises(NumericGuardError):
            propagator(jordan, hermitian=True)
        prop = propagator(jordan, hermitian=False)
        assert isinstance(prop, ExpmExp)
        psi = np.array([0.6, 0.8])
        ivs, taus, rates, phis = prop.intervals(psi[None], np.array([0.3]), np.array([10.0]))
        iv, tau, phi = ivs[0], taus[0], phis[0]
        assert not math.isnan(rates[0]) and phi @ phi == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(iv.states(tau), expm(-jordan * tau) @ psi,
                                   atol=1e-12)
        for taus in (np.linspace(0.1, 3.0, 30), np.array([0.0, 0.2, 1.5])):
            np.testing.assert_allclose(
                iv.states(taus),
                np.column_stack([expm(-jordan * t) @ psi for t in taus]),
                atol=1e-12)

    def test_first_click_survival_matches_expm(self):
        # the first click fires where ||exp(-i H_nh t) psi0||^2 falls to
        # the trajectory's first draw
        cfg = CircuitConfig(g_eff=1.0, kappa=20.0, n_max=2, t_max=50.0, seed=3)
        H, sm = phaselock_hamiltonian(cfg)
        H_nh = H - 0.5j * DECAY_SCALE * cfg.kappa * (sm.conj().T @ sm)
        d1 = cfg.n_max + 1
        psi0 = np.zeros(d1 * d1 * 2, dtype=complex)
        psi0[(1 * d1 + 1) * 2] = 1.0                 # |1,1>|g>
        checked = 0
        for idx in range(6):
            traj = run_phaselock_circuit(cfg, traj_index=idx)
            if not traj.clicks:
                continue
            r = 1.0 - trajectory_rng(cfg.seed, idx).random()
            psi_t = expm(-1j * H_nh * traj.clicks[0]) @ psi0
            assert np.vdot(psi_t, psi_t).real == pytest.approx(r, abs=1e-10)
            checked += 1
        assert checked >= 2

    def test_norm_preserved(self):
        cfg = CircuitConfig(g_eff=1.0, kappa=100.0, n_max=2,
                            t_max=20.0, seed=7)
        traj = run_phaselock_circuit(cfg)
        assert np.linalg.norm(traj.final_state) == pytest.approx(1.0, abs=1e-9)


class TestClickRates:
    def test_first_click_rate_matches_reduction(self):
        # In the Born-Markov regime the first-click rate from |1,1> is
        # 4 g^2/kappa within 15%.
        cfg = CircuitConfig(g_eff=1.0, kappa=200.0, n_max=2)
        point = first_click_rate(cfg)
        assert point.predicted_rate == 4.0 * cfg.reduced_rate
        assert point.relative_error < 0.15

    def test_rate_error_larger_outside_markov_regime(self):
        # kappa/g = 5 sits outside the Born-Markov regime: the reduction
        # error there must exceed the deep-regime error.
        points = born_markov_rate_check(1.0, [5.0, 500.0])
        by_kappa = {p.kappa: p for p in points}
        assert by_kappa[500.0].relative_error < by_kappa[5.0].relative_error

    def test_error_falls_as_g2_over_kappa2(self):
        # the exact rate misses the elimination by its next order,
        # 8 g^2/kappa^2 relative (8.16, 8.03, 8.00, 8.00 times g^2/kappa^2)
        kappas = [20.0, 50.0, 200.0, 500.0]
        for p in born_markov_rate_check(1.0, kappas):
            assert p.relative_error * p.kappa ** 2 == pytest.approx(8.0, rel=0.1)

    def test_slow_modes_stay_apart_from_dark_ones_deep_in_the_regime(self):
        # at kappa/g = 1e6 the slow modes decay at ~g^2/kappa = 1e-6 g,
        # 1e-12 of the spectrum's scale 2 kappa; they must not be taken
        # for dark ones, which decay at rounding
        for p in born_markov_rate_check(1.0, [1e5, 1e6, 1e7]):
            assert p.relative_error < 1e-3

    def test_wrong_decay_scale_fails_the_gate(self, monkeypatch):
        # a click operator sqrt(2 kappa) sigma- in place of 2 sqrt(kappa)
        # sigma- doubles the eliminated rate: criterion 8's 0.15 gate must
        # catch it at kappa/g = 20 and 200 (errors 1.17 and 1.00)
        monkeypatch.setattr(ancilla, "DECAY_SCALE", 2.0)
        ancilla._circuit.cache_clear()
        try:
            points = born_markov_rate_check(1.0, [20.0, 200.0])
        finally:
            ancilla._circuit.cache_clear()
        assert all(p.relative_error > 0.15 for p in points)

    def test_expm_fallback_raises(self):
        # kappa = 5 at n_max = 4 sits near an exceptional point: no
        # eigenbasis to read the rate from, so no guess either
        cfg = CircuitConfig(g_eff=1.0, kappa=5.0, n_max=4)
        assert ancilla.circuit_propagator(phaselock_hamiltonian, cfg) == "expm"
        with pytest.raises(NumericGuardError, match="no eigendecomposition"):
            first_click_rate(cfg)

    @pytest.mark.parametrize("g_eff,kappas", [
        (0.0, [20.0]), (-1.0, [20.0]), (1.0, []), (1.0, [20.0, 0.0]), (1.0, [-5.0]),
    ], ids=["g_zero", "g_negative", "no_kappa", "kappa_zero", "kappa_negative"])
    def test_bad_input_is_rejected(self, g_eff, kappas):
        with pytest.raises(ValueError):
            born_markov_rate_check(g_eff, kappas)


class TestDephasingCircuit:
    def test_collapse_onto_number_state(self):
        # A (|0> + |2>)/sqrt(2) cavity under number monitoring collapses
        # onto one branch; the ancilla stays weakly occupied.
        # collapse needs Gamma n^2 t >> 1: rate 4 g^2/kappa = 0.008 for
        # the n = 2 branch, so t_max = 1500 gives 12 decay constants
        cfg = CircuitConfig(g_eff=1.0, kappa=500.0, n_max=3,
                            t_max=1500.0, seed=3)
        psi0 = superposition_cavity_state(0, 2, cfg.n_max)
        out = run_dephasing_circuit(cfg, psi0)
        assert out.collapsed_to in (0, 2)
        assert out.dominant_weight > 0.99
        assert out.max_ancilla_occupation < 0.05

    def test_zero_branch_never_clicks(self):
        # |0> is invisible to n sigma_x: no clicks, no evolution.
        cfg = CircuitConfig(g_eff=1.0, kappa=500.0, n_max=3,
                            t_max=50.0, seed=4)
        psi0 = np.zeros(cfg.n_max + 1, dtype=complex)
        psi0[0] = 1.0
        out = run_dephasing_circuit(cfg, psi0)
        assert out.click_count == 0
        assert out.collapsed_to == 0

    def test_empty_batch_returns_at_once(self):
        cfg = CircuitConfig(g_eff=1.0, kappa=500.0, n_max=3, t_max=50.0, seed=4)
        psi0 = superposition_cavity_state(1, 3, cfg.n_max)
        assert run_dephasing_circuits(cfg, psi0, []) == []
        assert run_phaselock_circuits(cfg, []) == []

    def test_collapse_statistics_follow_born_rule(self):
        # Equal superposition: both outcomes occur over an ensemble.
        cfg = CircuitConfig(g_eff=1.0, kappa=500.0, n_max=3,
                            t_max=400.0, seed=6)
        psi0 = superposition_cavity_state(1, 3, cfg.n_max)
        outs = [run_dephasing_circuit(cfg, psi0, traj_index=i)
                for i in range(12)]
        winners = [o.collapsed_to for o in outs]
        assert set(winners) <= {1, 3}
        assert len(set(winners)) == 2
        # the high-n branch clicks at rate Gamma n^2: collapsing onto it
        # comes with systematically more clicks
        mean_lo = np.mean([o.click_count for o in outs if o.collapsed_to == 1])
        mean_hi = np.mean([o.click_count for o in outs if o.collapsed_to == 3])
        assert mean_hi > mean_lo


class TestExceptionalPoint:
    """Away from the Born-Markov regime i H_nh can sit at or near an
    exceptional point (the dephasing circuit's n = 4 block is exactly at
    one for kappa = 4 g); no eigendecomposition reconstructs it, and the
    circuits run on the expm fallback."""

    @pytest.mark.parametrize("scheme,kappa", [("phaselock", 5.0),
                                              ("dephasing", 4.0)])
    def test_first_click_matches_expm(self, scheme, kappa):
        # click time at the survival ||exp(-i H_nh t) psi0||^2 = r of the
        # first draw, and the heralded state sigma- exp(-i H_nh t) psi0
        cfg = CircuitConfig(g_eff=1.0, kappa=kappa, n_max=4, t_max=50.0, seed=3)
        d1 = cfg.n_max + 1
        if scheme == "phaselock":
            hamiltonian = phaselock_hamiltonian
            psi_cav = np.zeros(d1 * d1, dtype=complex)
            psi_cav[1 * d1 + 1] = 1.0                      # |1,1>
        else:
            hamiltonian = dephasing_hamiltonian
            psi_cav = superposition_cavity_state(1, 4, cfg.n_max)
        H, sm = hamiltonian(cfg)[:2]
        H_nh = H - 0.5j * DECAY_SCALE * cfg.kappa * (sm.conj().T @ sm)
        assert isinstance(propagator(1j * H_nh, hermitian=False), ExpmExp)
        psi0 = np.kron(psi_cav, np.array([1.0, 0.0], dtype=complex))
        checked = 0
        for idx in range(4):
            events = ancilla._unravel_circuits(hamiltonian, cfg, psi0, (idx,))
            click = next((ev for round_ in events for ev in round_
                          if ev.channel is not None), None)
            if click is None:
                continue
            r = 1.0 - trajectory_rng(cfg.seed, idx).random()
            phi = expm(-1j * H_nh * click.t) @ psi0
            assert np.vdot(phi, phi).real == pytest.approx(r, abs=1e-10)
            heralded = sm @ phi
            np.testing.assert_allclose(click.psi, heralded / np.linalg.norm(heralded),
                                       atol=1e-10)
            checked += 1
        assert checked >= 2


class TestLockstepBatch:
    """All trajectories of a circuit run advance in lockstep; each is bitwise
    its own batch of one, including the expm fallback at an exceptional
    point."""

    @pytest.mark.parametrize("cfg", [
        CircuitConfig(g_eff=1.0, kappa=50.0, n_max=4, t_max=100.0, seed=1),
        CircuitConfig(g_eff=1.0, kappa=5.0, n_max=4, t_max=20.0, seed=3),
    ], ids=["phaselock", "expm"])
    @pytest.mark.parametrize("B", [1, 3, 7])
    def test_phaselock_members_match_their_batch_of_one(self, cfg, B):
        expected = "expm" if cfg.kappa == 5.0 else "dense"
        assert ancilla.circuit_propagator(phaselock_hamiltonian, cfg) == expected
        batch = run_phaselock_circuits(cfg, range(2, 2 + B))
        assert B == 1 or sum(len(traj.clicks) for traj in batch) > 0
        for i, traj in enumerate(batch):
            alone = run_phaselock_circuit(cfg, traj_index=2 + i)
            assert traj.clicks == alone.clicks and traj.intervals == alone.intervals
            np.testing.assert_array_equal(traj.final_state, alone.final_state)
            for a, b in zip(traj.click_events, alone.click_events):
                assert (a.t0, a.t) == (b.t0, b.t)
                np.testing.assert_array_equal(a.psi, b.psi)
                np.testing.assert_array_equal(a.interval.states(a.t - a.t0),
                                              b.interval.states(b.t - b.t0))

    @pytest.mark.parametrize("cfg,levels", [
        (CircuitConfig(g_eff=1.0, kappa=500.0, n_max=4, t_max=400.0, seed=6), (1, 3)),
        (CircuitConfig(g_eff=1.0, kappa=4.0, n_max=4, t_max=3.0, seed=6), (1, 4)),
    ], ids=["dense", "expm"])
    @pytest.mark.parametrize("B", [1, 3, 7])
    def test_dephasing_members_match_their_batch_of_one(self, cfg, levels, B):
        expected = "expm" if cfg.kappa == 4.0 else "dense"
        assert ancilla.circuit_propagator(dephasing_hamiltonian, cfg) == expected
        psi0 = superposition_cavity_state(*levels, cfg.n_max)
        batch = run_dephasing_circuits(cfg, psi0, range(B))
        assert B == 1 or sum(out.click_count for out in batch) > 0
        for i, out in enumerate(batch):
            alone = run_dephasing_circuit(cfg, psi0, traj_index=i)
            assert (out.clicks, out.collapsed_to, out.dominant_weight, out.intervals) == \
                (alone.clicks, alone.collapsed_to, alone.dominant_weight, alone.intervals)
            np.testing.assert_array_equal(out.events[-1].psi, alone.events[-1].psi)


class TestPairEntropy:
    def test_product_state_zero(self):
        d1 = 3
        psi_c = np.zeros(d1 * d1, dtype=complex)
        psi_c[1 * d1 + 1] = 1.0
        psi = np.kron(psi_c, np.array([1.0, 0.0]))
        assert _pair_entropy(psi, 2) == pytest.approx(0.0, abs=1e-12)

    def test_bell_like_state_one_ebit(self):
        d1 = 3
        psi_c = np.zeros(d1 * d1, dtype=complex)
        psi_c[0 * d1 + 2] = 1.0 / math.sqrt(2.0)
        psi_c[2 * d1 + 0] = -1.0 / math.sqrt(2.0)
        psi = np.kron(psi_c, np.array([1.0, 0.0]))
        assert _pair_entropy(psi, 2) == pytest.approx(math.log(2.0), abs=1e-12)


def _eager_dephasing_occupation(cfg, psi_cav0, traj_index):
    """The largest ancilla occupation on the 1/(200 Gamma n_max^2) grid,
    computed interval by interval while the run unravels."""
    spacing = 0.005 / max(cfg.reduced_rate * cfg.n_max ** 2, 1e-12)
    psi = np.kron(np.asarray(psi_cav0, dtype=complex),
                  np.array([1.0, 0.0], dtype=complex))
    max_na = 0.0
    for (ev,) in ancilla._unravel_circuits(dephasing_hamiltonian, cfg, psi, (traj_index,)):
        grid = np.arange(math.floor(ev.t0 / spacing) + 1,
                         math.floor(ev.t / spacing) + 1) * spacing
        if grid.size:
            pops = np.abs(ev.interval.states(grid - ev.t0)) ** 2
            max_na = max(max_na, float(np.max(pops[1::2].sum(axis=0)
                                              / pops.sum(axis=0))))
    return max_na


def _eager_click_entropies(cfg, traj_index):
    """(t, S_before, S_after) per click, computed at each click while the
    run unravels from |1,1>|g>."""
    d1 = cfg.n_max + 1
    psi = np.zeros(d1 * d1 * 2, dtype=complex)
    psi[(1 * d1 + 1) * 2] = 1.0
    steps = []
    for (ev,) in ancilla._unravel_circuits(phaselock_hamiltonian, cfg, psi, (traj_index,)):
        if ev.channel is not None:
            before = ev.interval.states(ev.t - ev.t0)
            steps.append((ev.t, _pair_entropy(before / np.linalg.norm(before), cfg.n_max),
                          _pair_entropy(ev.psi, cfg.n_max)))
    return steps


class TestLazyDiagnostics:
    """The ancilla-occupation grid and the per-click entropies are computed
    from the stored events when read, and only then."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of `_pair_entropy`, of `Interval.states` (scalar and grid
        arguments apart) and of the event loop's rounds from now on."""
        calls = {"pair_entropy": 0, "states": 0, "grid_states": 0, "rounds": 0}
        pair_entropy, states = ancilla._pair_entropy, trajectory.Interval.states
        advance = trajectory._advance

        def counted_pair_entropy(*args):
            calls["pair_entropy"] += 1
            return pair_entropy(*args)

        def counted_states(self, taus):
            calls["grid_states" if np.ndim(taus) else "states"] += 1
            return states(self, taus)

        def counted_advance(*args):
            calls["rounds"] += 1
            return advance(*args)

        monkeypatch.setattr(ancilla, "_pair_entropy", counted_pair_entropy)
        monkeypatch.setattr(trajectory.Interval, "states", counted_states)
        monkeypatch.setattr(trajectory, "_advance", counted_advance)
        return calls

    @pytest.mark.parametrize("scheme,args", [("dephasing", ("--t-max", "400.0")),
                                             ("phaselock", ("--kappa", "50.0"))])
    def test_cli_run_computes_no_unread_diagnostic(self, tmp_path, counts, scheme, args):
        # the CLI reads clicks and final states: the batched rounds form
        # every state themselves, and one pair entropy per phase-lock
        # trajectory (its final entropy) is taken, none per click and no
        # occupation grid
        M = 6
        code = cli.main(["ancilla", "--scheme", scheme, "--M", str(M), "--seed", "2",
                         *args, "--outdir", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert len((tmp_path / "clicks.csv").read_text().splitlines()) > 1
        assert counts["rounds"] > 1
        assert counts == {"pair_entropy": M if scheme == "phaselock" else 0,
                          "states": 0, "grid_states": 0, "rounds": counts["rounds"]}

    @pytest.mark.parametrize("cfg,levels,indices", [
        (CircuitConfig(g_eff=1.0, kappa=500.0, n_max=3, t_max=1500.0, seed=3),
         (0, 2), [0]),
        (CircuitConfig(g_eff=1.0, kappa=500.0, n_max=3, t_max=400.0, seed=6),
         (1, 3), range(4)),
    ], ids=["collapse", "born_rule"])
    def test_occupation_is_bitwise_the_eager_value(self, cfg, levels, indices, counts):
        psi0 = superposition_cavity_state(*levels, cfg.n_max)
        for idx in indices:
            out = run_dephasing_circuit(cfg, psi0, traj_index=idx)
            assert counts["grid_states"] == 0
            value = out.max_ancilla_occupation
            assert counts["grid_states"] > 0
            assert value == _eager_dephasing_occupation(cfg, psi0, idx)
            assert out.max_ancilla_occupation is value     # computed once
            counts["grid_states"] = 0

    @pytest.mark.parametrize("cfg,indices", [
        (CircuitConfig(g_eff=1.0, kappa=200.0, n_max=2, t_max=200.0, seed=2), range(4)),
        (CircuitConfig(g_eff=1.0, kappa=100.0, n_max=2, t_max=30.0, seed=5), range(6, 8)),
        (CircuitConfig(g_eff=1.0, kappa=100.0, n_max=2, t_max=20.0, seed=7), range(3)),
    ], ids=["first_click", "determinism", "norm"])
    def test_click_entropies_are_bitwise_the_eager_values(self, cfg, indices, counts):
        clicked = 0
        for idx in indices:
            traj = run_phaselock_circuit(cfg, traj_index=idx)
            assert counts["pair_entropy"] == 0
            steps = traj.click_entropy_steps
            assert counts["pair_entropy"] == 2 * len(traj.clicks)
            assert steps == _eager_click_entropies(cfg, idx)
            assert [t for t, _, _ in steps] == traj.clicks
            assert traj.click_entropy_steps is steps       # computed once
            counts["pair_entropy"] = 0
            clicked += bool(steps)
        assert clicked >= 1
