"""Tests for the single-site mean-field generator, steady state and sweep.

The central oracle: for a product state of two neighboring sites, the
exact partial trace of the two-site phase-lock dissipator must equal
the single-site generator evaluated with the moment coefficients of the
traced-out neighbor.  This pins every coefficient of the nonlinear
generator against an independent dense computation.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from bosetraj import gutzwiller
from bosetraj.gutzwiller import (
    GwConfig,
    SiteOperators,
    coherent_dm,
    default_initial_dm,
    evolve,
    evolve_batch,
    meanfield_rhs,
    order_parameter_consistency,
    order_parameter_sweep,
    steady_state,
)
from oracles import matrix_dissipator, meanfield_generator


def random_dm(n_max, support, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho[:support, :support] = X @ X.conj().T
    return rho / np.trace(rho)


def phaselock_only(n_max, filling=1.0):
    """Config whose meanfield_rhs is the bare phase-lock part (2 Lambda = 1)."""
    return GwConfig(rate_phaselock=0.5, filling=filling, n_max=n_max)


def exact_two_site_trace(rho1, rho2, n_max):
    """Partial traces of D[d](rho1 x rho2) over either neighbor, summed:
    the exact mean-field drive on one site from both of its bonds."""
    d1 = n_max + 1
    ops = SiteOperators(n_max)
    eye = np.eye(d1, dtype=complex)
    a1, a2 = np.kron(ops.a, eye), np.kron(eye, ops.a)
    d_op = (a1.conj().T + a2.conj().T) @ (a1 - a2)
    dtd = d_op.conj().T @ d_op
    R = np.kron(rho1, rho2)
    out = d_op @ R @ d_op.conj().T - 0.5 * (dtd @ R + R @ dtd)
    out4 = out.reshape(d1, d1, d1, d1)
    left = np.trace(out4, axis1=1, axis2=3)   # site is the left bond member
    right = np.trace(out4, axis1=0, axis2=2)  # site is the right bond member
    return left + right


class TestGeneratorOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_partial_trace(self, seed):
        # Support kept well below the cutoff so truncation cannot bite.
        n_max = 6
        rho = random_dm(n_max, support=4, seed=seed)
        ops = SiteOperators(n_max)
        filling = np.trace(rho @ ops.n).real
        exact = exact_two_site_trace(rho, rho, n_max)
        cfg = GwConfig(rate_phaselock=1.0, filling=filling, n_max=n_max)
        model = meanfield_rhs(rho, ops, cfg)
        np.testing.assert_allclose(model, exact, atol=1e-12)

    def test_fixed_unit_filling_differs_off_filling(self):
        # At <n> != 1 the filling coefficient matters; the oracle resolves
        # which convention is exact.
        n_max = 6
        rho = random_dm(n_max, support=4, seed=3)
        ops = SiteOperators(n_max)
        exact = exact_two_site_trace(rho, rho, n_max)
        model_fixed = meanfield_rhs(rho, ops, GwConfig(n_max=n_max))
        assert np.linalg.norm(model_fixed - exact) > 0.1

    def test_trace_and_hermiticity_preserved(self):
        n_max = 8
        rho = random_dm(n_max, support=5, seed=4)
        ops = SiteOperators(n_max)
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=0.7, n_max=n_max)
        rhs = meanfield_rhs(rho, ops, cfg)
        assert abs(np.trace(rhs)) < 1e-12
        np.testing.assert_allclose(rhs, rhs.conj().T, atol=1e-12)

    def test_number_conserved_at_self_consistent_filling(self):
        n_max = 8
        rho = random_dm(n_max, support=5, seed=5)
        ops = SiteOperators(n_max)
        filling = np.trace(rho @ ops.n).real
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=0.9,
                       filling=filling, n_max=n_max)
        rhs = meanfield_rhs(rho, ops, cfg)
        assert abs(np.trace(ops.n @ rhs)) < 1e-10

    def test_u1_covariance(self):
        # a -> a e^{i theta} maps alpha-moments consistently, so the
        # generator commutes with number-phase rotations.
        n_max = 6
        rho = random_dm(n_max, support=4, seed=6)
        ops = SiteOperators(n_max)
        theta = 0.7321
        U = np.diag(np.exp(1j * theta * np.arange(n_max + 1)))
        cfg = GwConfig(n_max=n_max)
        lhs = meanfield_rhs(U @ rho @ U.conj().T, ops, cfg)
        rhs = U @ meanfield_rhs(rho, ops, cfg) @ U.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_fock_state_kills_moment_part(self):
        # On a Fock state every anomalous moment vanishes, so the
        # generator reduces to its diagonal dissipator part.
        n_max = 6
        ops = SiteOperators(n_max)
        rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        rho[1, 1] = 1.0
        full = meanfield_rhs(rho, ops, phaselock_only(n_max))
        diag_only = (matrix_dissipator(ops.ad, rho)
                     + 2.0 * matrix_dissipator(ops.a, rho)
                     + matrix_dissipator(ops.n, rho))
        np.testing.assert_allclose(full, diag_only, atol=1e-12)


class TestVectorisedGenerator:
    @pytest.mark.parametrize("n_max", range(4, 11))
    @pytest.mark.parametrize("filling", [1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    def test_matches_matrix_form(self, n_max, filling, gamma):
        # the stacked superoperator against the generator written out as
        # d x d matrix products, on a random full-support state
        rho = random_dm(n_max, support=n_max + 1, seed=n_max)
        ops = SiteOperators(n_max)
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=gamma,
                       filling=filling, n_max=n_max)
        np.testing.assert_allclose(meanfield_rhs(rho, ops, cfg),
                                   meanfield_generator(rho, ops, cfg),
                                   rtol=0, atol=1e-12)


class TestSparseGenerator:
    def test_built_lazily_and_without_dense_blocks(self):
        # one dense d^2 x d^2 block at n_max = 40 alone is 22.6 MB
        gutzwiller._site_maps.cache_clear()
        gutzwiller._generator.cache_clear()
        SiteOperators(40)                       # the constructor builds none
        assert gutzwiller._site_maps.cache_info().currsize == 0
        tracemalloc.start()
        try:
            G = gutzwiller._generator(40, 1.0, 1.0, (0.5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        # four moment rows, three Le blocks and the fixed block
        assert G.shape == (4 + 4 * 41 ** 2, 41 ** 2)

    def test_batch_holds_each_member_as_one_diagonal_block(self):
        # member-major rows: a batch's generator is its members' generators
        # on the diagonal, entry for entry, so a stage weights each member's
        # rows on their own and _symmetric_maps slices a batch of one
        rates = (0.0, 1.5, 4.0)
        members = [gutzwiller._generator(5, 0.7, 1.0, (g,)) for g in rates]
        np.testing.assert_array_equal(gutzwiller._generator(5, 0.7, 1.0, rates).toarray(),
                                      sp.block_diag(members).toarray())

    def test_real_seed_evolves_in_real_arithmetic(self):
        cfg = GwConfig(rate_dephase=1.5, n_max=8, dt=0.01, t_max=2.0)
        seed = coherent_dm(0.8, 8)
        real = evolve(cfg, seed, stop_when_steady=False)
        cplx = evolve(cfg, seed.astype(complex),
                      stop_when_steady=False)
        assert real.steps == cplx.steps == 200
        assert real.final.dtype == np.float64
        assert cplx.final.dtype == np.complex128
        np.testing.assert_allclose(real.final, cplx.final,
                                   rtol=0, atol=1e-13)
        assert abs(real.alpha - cplx.alpha) <= 1e-13
        assert real.t == cplx.t and real.converged == cplx.converged

    def test_seed_of_another_cutoff_rejected(self):
        # the cutoff comes from the config: a seed of another size is an error
        cfg = GwConfig(n_max=8, dt=0.01, t_max=0.1)
        for n_max in (4, 9):
            with pytest.raises(ValueError, match="n_max=8"):
                evolve(cfg, coherent_dm(0.8, n_max))
        assert evolve(cfg, coherent_dm(0.8, 8)).final.shape == (9, 9)


class TestCoherentDarkState:
    def test_residual_shrinks_with_cutoff(self):
        # The unit coherent state is dark for the untruncated generator;
        # the residual is a pure truncation artifact and must fall fast
        # with n_max.
        res = {}
        for n_max in (8, 12):
            ops = SiteOperators(n_max)
            rho = coherent_dm(1.0, n_max)
            res[n_max] = np.linalg.norm(
                meanfield_rhs(rho, ops, phaselock_only(n_max)))
        assert res[12] < 1e-3
        assert res[12] < 0.1 * res[8]

    def test_far_from_dark_for_fock(self):
        ops = SiteOperators(12)
        rho = np.zeros((13, 13), dtype=complex)
        rho[1, 1] = 1.0
        assert np.linalg.norm(meanfield_rhs(rho, ops, phaselock_only(12))) > 0.5


class TestDephasing:
    def test_coherence_decay_rates(self):
        # rho_nm(t) = rho_nm(0) exp(-Gamma (n-m)^2 t / 2), populations fixed.
        n_max = 4
        ops = SiteOperators(n_max)
        rho0 = random_dm(n_max, support=4, seed=7)
        gam, t = 1.3, 0.8
        cfg = GwConfig(rate_phaselock=0.0, rate_dephase=gam,
                       n_max=n_max, dt=1e-3, t_max=t)
        ev = evolve(cfg, rho0, stop_when_steady=False)
        n = np.arange(n_max + 1)
        decay = np.exp(-0.5 * gam * (n[:, None] - n[None, :]) ** 2 * t)
        np.testing.assert_allclose(ev.final, rho0 * decay, atol=1e-6)

    def test_alpha_decays_at_half_gamma(self):
        n_max = 6
        rho0 = coherent_dm(0.6, n_max)
        gam, t = 2.0, 1.0
        cfg = GwConfig(rate_phaselock=0.0, rate_dephase=gam,
                       n_max=n_max, dt=1e-3, t_max=t)
        ev = evolve(cfg, rho0, stop_when_steady=False)
        a0 = abs(np.trace(rho0 @ SiteOperators(n_max).a))
        assert abs(ev.alpha) == pytest.approx(
            a0 * math.exp(-0.5 * gam * t), rel=1e-4)


class TestEvolve:
    def test_pure_phaselock_flows_to_unit_coherent(self):
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=0.0,
                       n_max=10, dt=0.005, t_max=100.0)
        ev = evolve(cfg, coherent_dm(0.4, 10))
        assert abs(ev.alpha) == pytest.approx(1.0, abs=5e-3)

    def test_step_halving_agreement(self):
        n_max = 8
        rho0 = coherent_dm(0.8, n_max)
        finals = []
        for dt in (0.01, 0.005):
            cfg = GwConfig(rate_phaselock=1.0, rate_dephase=1.5,
                           n_max=n_max, dt=dt, t_max=2.0)
            ev = evolve(cfg, rho0, stop_when_steady=False)
            finals.append(ev.final)
        assert np.linalg.norm(finals[0] - finals[1]) < 1e-6

    @pytest.mark.parametrize("gamma", [0.0, 6.0])
    def test_reports_the_stopping_step(self, gamma):
        # an early convergence stop reports the state it stopped on
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=gamma, n_max=8,
                       dt=0.01, t_max=100.0)
        ev = evolve(cfg)
        assert ev.converged
        a = SiteOperators(8).a
        assert abs(ev.alpha) == abs(np.trace(ev.final @ a))
        # rerunning to the stopping time without the stop reaches the same state
        rerun = evolve(replace(cfg, t_max=ev.t), stop_when_steady=False)
        np.testing.assert_array_equal(rerun.final, ev.final)

    @pytest.mark.parametrize("gamma, alpha_abs, converged, t_reached", [
        (0.0, 0.999914513671257, True, 5.35),
        (3.0, 0.642211146482682, False, 10.0),
        (6.0, 3.1074693741934e-4, False, 10.0)])
    def test_regression_pin(self, gamma, alpha_abs, converged, t_reached):
        # pinned: the same RK4 run on the matrix-form generator
        # (oracles.meanfield_generator) gives these to 1e-14
        ev = evolve(GwConfig(rate_dephase=gamma, n_max=8, dt=0.01, t_max=10.0))
        assert abs(abs(ev.alpha) - alpha_abs) < 1e-10
        assert ev.converged is converged
        assert ev.t == pytest.approx(t_reached, abs=1e-9)

    def test_trace_guard_trips_on_absurd_step(self):
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=0.0,
                       n_max=8, dt=0.8, t_max=8.0)
        with pytest.raises(RuntimeError):
            evolve(cfg, stop_when_steady=False)

    def test_order_parameter_consistency(self):
        # Closed alpha ODE against Tr[a rhs(rho)] on a state supported
        # away from the cutoff.
        cfg = GwConfig(rate_phaselock=1.0, rate_dephase=0.8, n_max=12)
        rho = random_dm(12, support=6, seed=8)
        assert order_parameter_consistency(rho, cfg) < 1e-10

    def test_default_seed_is_symmetry_broken(self):
        cfg = GwConfig(filling=1.0, n_max=8)
        rho0 = default_initial_dm(cfg)
        ops = SiteOperators(8)
        assert abs(np.trace(rho0 @ ops.a)) > 0.9


class TestSweep:
    def test_sweep_brackets_and_orders(self):
        # Cheap sweep at low cutoff/time: deep ordered and deep
        # disordered points plus a monotone trend and a bracketed
        # critical point.
        template = GwConfig(n_max=8, dt=0.01, t_max=150.0)
        res = order_parameter_sweep([0.5, 3.0, 6.0], template=template)
        amps = {p.gamma: p.alpha_abs for p in res.points}
        assert amps[0.5] > 0.8
        assert amps[6.0] < 1e-3
        assert amps[0.5] > amps[3.0] > amps[6.0]
        assert 3.0 <= res.gamma_c <= 6.0

    def test_no_transition_means_nan(self):
        template = GwConfig(n_max=6, dt=0.01, t_max=20.0)
        res = order_parameter_sweep([0.1, 0.2], template=template)
        assert math.isnan(res.gamma_c)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GwConfig(dt=0.0)
        with pytest.raises(ValueError):
            GwConfig(filling=9.0, n_max=4)
        # dt may exceed only a zero horizon, at which no step is taken
        assert evolve(GwConfig(dt=20.0, t_max=0.0, n_max=4)).steps == 0

    @pytest.mark.parametrize("fields", [
        {"dt": 0.0}, {"dt": math.inf}, {"dt": math.nan}, {"t_max": -1.0},
        {"t_max": math.nan}, {"rate_phaselock": -1.0}, {"rate_dephase": math.inf},
        {"filling": -0.5}, {"n_max": 0}, {"dt": 500.0},
        # t_max is not a whole number of steps: round(t_max / dt) steps
        # would end at 0.12 and at 0.08
        {"dt": 0.06, "t_max": 0.1}, {"dt": 0.04, "t_max": 0.1}],
        ids=lambda fields: "-".join(f"{k}-{v}" for k, v in fields.items()))
    def test_bad_config_names_its_field(self, fields):
        with pytest.raises(ValueError) as err:
            GwConfig(**fields)
        assert all(field in str(err.value) for field in fields)

    def test_evolve_without_phaselock_stays_legal(self):
        ev = evolve(GwConfig(rate_phaselock=0.0, rate_dephase=1.0, n_max=4,
                             dt=0.01, t_max=0.1), stop_when_steady=False)
        assert ev.steps == 10

    @pytest.mark.parametrize("gammas, rate", [([0.0, -0.5], 1.0), ([math.nan], 1.0),
                                              ([0.5], 0.0)])
    def test_sweep_rejects_bad_gamma_or_rate(self, gammas, rate):
        with pytest.raises(ValueError):
            order_parameter_sweep(gammas, GwConfig(rate_phaselock=rate, n_max=4,
                                                   dt=0.01, t_max=0.1))

    def test_counters_match_the_evolves_run(self, monkeypatch):
        batches, solves = [], []

        def recording_batch(*args, **kwargs):
            batches.append(evolve_batch(*args, **kwargs))
            return batches[-1]

        def recording_solve(*args, **kwargs):
            solves.append(steady_state(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(gutzwiller, "evolve_batch", recording_batch)
        monkeypatch.setattr(gutzwiller, "steady_state", recording_solve)
        res = order_parameter_sweep([0.0, 6.0], GwConfig(n_max=8, dt=0.01, t_max=10.0))
        # the grid is the one evolved batch; a converged run stops on its
        # step, the others run to t_max
        (grid,) = batches
        assert [ev.steps for ev in grid] == [535, 1000]
        assert res.counters == {"evolves": 2, "rk4_steps": 1535, "unconverged": 1,
                                "lockstep_steps": 1000,
                                "newton_iterations": sum(ss.iterations for ss in solves)}
        assert len(solves) > 1 and res.branch_end == "vanishing"

    @pytest.mark.parametrize("end", ["fold", "vanishing"])
    @pytest.mark.parametrize("gamma_end", [0.3, 2.0, 3.7, 5.999])
    def test_continuation_finds_the_branch_end(self, monkeypatch, end, gamma_end):
        # a stub branch, ordered below gamma_end; above it Newton either
        # fails (a fold) or finds a disordered state (a continuous vanishing).
        # The grid's evolutions call gamma = 2 ordered at every gamma_end, so
        # a start above the branch end is walked down from.
        def stub(cfg, rho0):
            alive = cfg.rate_dephase < gamma_end
            return gutzwiller.SteadyState(rho=rho0, alpha=0.5 if alive else 0.0,
                                          converged=alive or end == "vanishing",
                                          iterations=3)

        monkeypatch.setattr(gutzwiller, "steady_state", stub)
        res = order_parameter_sweep([0.0, 2.0, 6.0], GwConfig(n_max=8, dt=0.01, t_max=10.0))
        assert abs(res.gamma_c - gamma_end) <= gutzwiller.GAMMA_TOL
        assert res.branch_end == end
        assert res.counters["newton_iterations"] % 3 == 0

    def test_branch_that_outlives_the_grid_means_nan(self, monkeypatch):
        def stub(cfg, rho0):
            return gutzwiller.SteadyState(rho=rho0, alpha=0.5, converged=True, iterations=1)

        monkeypatch.setattr(gutzwiller, "steady_state", stub)
        res = order_parameter_sweep([0.0, 6.0], GwConfig(n_max=8, dt=0.01, t_max=10.0))
        assert math.isnan(res.gamma_c) and res.branch_end is None

    def test_no_ordered_grid_point_means_nan(self):
        res = order_parameter_sweep([6.0], GwConfig(n_max=8, dt=0.01, t_max=10.0))
        assert res.points[0].alpha_abs < 1e-3
        assert math.isnan(res.gamma_c) and res.branch_end is None
        assert res.counters["newton_iterations"] == 0


def thermal_dm(n_max, filling=1.0):
    """The disordered steady state: on a diagonal rho every moment vanishes,
    and f D[a†] + (f + 1) D[a] balance at p_{n+1} / p_n = f / (f + 1)."""
    p = (filling / (filling + 1.0)) ** np.arange(n_max + 1)
    return np.diag(p / p.sum())


def linear_instability(n_max):
    """gamma at which the disordered state loses linear stability, from
    central differences of meanfield_rhs (exact: the RHS is quadratic) on
    its Delta n = 1 coherences, the sector alpha lives in.  Gamma D[n]
    damps that sector at Gamma / 2, so the threshold is twice the leading
    growth rate at Gamma = 0."""
    d, eps = n_max + 1, 1e-3
    cfg, ops, rho = GwConfig(n_max=n_max), SiteOperators(n_max), thermal_dm(n_max)
    assert np.abs(meanfield_rhs(rho, ops, cfg)).max() < 1e-14
    jac = np.empty((d - 1, d - 1))
    for k in range(d - 1):
        e = np.zeros((d, d))
        e[k, k + 1] = e[k + 1, k] = 1.0
        diff = meanfield_rhs(rho + eps * e, ops, cfg) - meanfield_rhs(rho - eps * e, ops, cfg)
        jac[:, k] = np.diagonal(diff, 1) / (2.0 * eps)
    return 2.0 * np.linalg.eigvals(jac).real.max()


class TestSteadyState:
    @pytest.fixture(scope="class")
    def long_runs(self):
        template = GwConfig(n_max=8, dt=0.01, t_max=400.0)
        return template, evolve_batch(template, (1.0, 3.0, 4.25))

    @pytest.mark.parametrize("index, gamma", enumerate((1.0, 3.0, 4.25)))
    def test_matches_a_long_rk4_run(self, long_runs, index, gamma):
        # from the coherent seed straight to the state RK4 settles in
        template, runs = long_runs
        ev = runs[index]
        assert ev.converged
        ss = steady_state(replace(template, rate_dephase=gamma), default_initial_dm(template))
        assert ss.converged and ss.iterations < 10
        assert abs(abs(ss.alpha) - abs(ev.alpha)) < 1e-6
        assert np.abs(ss.rho - ev.final).max() < 1e-6

    @pytest.mark.parametrize("n_max, gamma", [(6, 0.5), (8, 4.25), (12, 3.0)])
    def test_is_a_fixed_point_of_the_matrix_form(self, n_max, gamma):
        # the reduced maps against the generator written out as matrix products
        cfg = GwConfig(rate_dephase=gamma, n_max=n_max)
        ss = steady_state(cfg, default_initial_dm(cfg))
        assert ss.converged
        np.testing.assert_array_equal(ss.rho, ss.rho.T)
        assert np.trace(ss.rho) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.eigvalsh(ss.rho).min() > -1e-12
        ops = SiteOperators(n_max)
        assert np.abs(meanfield_generator(ss.rho, ops, cfg)).max() < 1e-11
        assert ss.alpha == pytest.approx(np.trace(ss.rho @ ops.a).real, abs=1e-14)

    def test_disordered_seed_stays_disordered(self):
        cfg = GwConfig(rate_dephase=1.0, n_max=8)
        ss = steady_state(cfg, np.eye(9) / 9)
        assert ss.converged and ss.alpha == 0.0
        np.testing.assert_allclose(ss.rho, thermal_dm(8), rtol=0, atol=1e-13)

    def test_seed_must_be_real_and_fit_the_cutoff(self):
        cfg = GwConfig(n_max=8)
        for seed in (coherent_dm(0.8, 6), coherent_dm(0.8j, 8)):
            with pytest.raises(ValueError, match="n_max=8"):
                steady_state(cfg, seed)


class TestBranchEnd:
    @pytest.mark.parametrize("t_max", [10.0, 100.0])
    def test_n_max_8_vanishes_at_the_linear_instability(self, t_max):
        res = order_parameter_sweep([0.0, 3.0, 6.0], GwConfig(n_max=8, dt=0.01, t_max=t_max))
        assert res.branch_end == "vanishing"
        assert abs(res.gamma_c - 4.51) < 0.01
        assert abs(res.gamma_c - linear_instability(8)) <= gutzwiller.GAMMA_TOL
        # t_max sets only the grid's rows: gamma_c is the t_max = 10 one
        assert res.gamma_c == order_parameter_sweep(
            [0.0, 3.0, 6.0], GwConfig(n_max=8, dt=0.01, t_max=10.0)).gamma_c

    def test_evolution_still_ordered_at_the_top_of_the_grid(self):
        # |alpha| at gamma = 4.6 still decays at t_max = 100, so every grid
        # point reads ordered; Newton finds the branch gone there and the
        # continuation from gamma = 3 ends where it ends on a wider grid
        res = order_parameter_sweep([0.0, 3.0, 4.6], GwConfig(n_max=8, dt=0.01, t_max=100.0))
        assert min(p.alpha_abs for p in res.points) > 1e-3
        assert res.branch_end == "vanishing"
        assert abs(res.gamma_c - linear_instability(8)) <= gutzwiller.GAMMA_TOL

    def test_n_max_12_ends_at_a_fold(self):
        # past the linear instability (about 2.53): the ordered branch ends
        # at a fold with |alpha| still large
        assert linear_instability(12) < 3.0
        res = order_parameter_sweep([3.0, 4.0], GwConfig(n_max=12, dt=0.005, t_max=5.0))
        assert res.branch_end == "fold"
        assert 3.5 <= res.gamma_c <= 3.75
        below = steady_state(GwConfig(rate_dephase=res.gamma_c - gutzwiller.GAMMA_TOL,
                                      n_max=12), default_initial_dm(GwConfig(n_max=12)))
        assert below.converged and abs(below.alpha) > 0.3
        # past the fold Newton stops as soon as a step fails to shrink
        past = steady_state(GwConfig(rate_dephase=res.gamma_c + 0.05, n_max=12), below.rho)
        assert not past.converged and past.iterations < 10


class TestBatch:
    @pytest.mark.parametrize("rates", [(0.0, 3.0, 6.0),
                                       (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0)])
    def test_members_match_their_batch_of_one(self, rates):
        # every member, converged or not, bitwise equal to its own evolve
        template = GwConfig(n_max=8, dt=0.01, t_max=10.0)
        batch = evolve_batch(template, rates)
        assert batch[0].converged and not batch[-1].converged   # both kinds of stop
        for gamma, ev in zip(rates, batch):
            one = evolve(replace(template, rate_dephase=gamma))
            np.testing.assert_array_equal(ev.final, one.final)
            assert (ev.alpha, ev.t, ev.steps, ev.converged) == (
                one.alpha, one.t, one.steps, one.converged)

    def test_complex_seed_keeps_its_dtype(self):
        template = GwConfig(n_max=6, dt=0.01, t_max=0.5)
        seed = coherent_dm(0.7 * np.exp(0.4j), 6)
        batch = evolve_batch(template, (0.5, 2.0), seed)
        for gamma, ev in zip((0.5, 2.0), batch):
            assert ev.final.dtype == np.complex128
            one = evolve(replace(template, rate_dephase=gamma), seed)
            np.testing.assert_array_equal(ev.final, one.final)

    def test_trace_guard_names_the_rate(self):
        with pytest.raises(RuntimeError, match="rate_dephase=0.25"):
            evolve_batch(GwConfig(n_max=8, dt=0.8, t_max=8.0), (0.25,),
                         stop_when_steady=False)

    def test_bad_rate_rejected_and_empty_batch(self):
        with pytest.raises(ValueError, match="rate_dephase"):
            evolve_batch(GwConfig(n_max=4), (0.5, -1.0))
        assert evolve_batch(GwConfig(n_max=4), ()) == []
