"""Tests for the exact Lindblad reference propagator.

Fixed points (the symmetric condensate, the maximally mixed sector
state under pure dephasing) pin the generator, and a dense matrix
exponential of the generator, probed column by column from its matrix
form, pins the propagator on both of its paths (dense expm and
expm_multiply); the ensemble comparison is checked with both a matching
run and a negative control at deliberately wrong rates.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import expm

from bosetraj import (
    MonitoringConfig,
    build_basis,
    build_bec_dark_state,
    default_initial_state,
    fock_state,
    run_ensemble,
)
from bosetraj.lindblad import (
    DENSE_LIOUVILLIAN_MAX,
    LindbladGenerator,
    compare_with_ensemble,
    default_observables,
    evolve_lindblad,
    expectations,
)
from oracles import dissipator, probed_superoperator


def dense_propagator(basis, rate_phaselock, rate_dephase):
    """t -> rho(t), a dense expm of the superoperator probed column by
    column from LindbladGenerator.rhs."""
    gen = LindbladGenerator(basis, rate_phaselock, rate_dephase)
    sup = probed_superoperator(gen.rhs, basis.dim)
    return lambda rho0, t: (expm(sup * t) @ np.asarray(rho0).ravel()).reshape(
        basis.dim, basis.dim)


def random_dm(basis, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(basis.dim, basis.dim)) \
        + 1j * rng.normal(size=(basis.dim, basis.dim))
    rho = X @ X.conj().T
    return rho / np.trace(rho)


class TestGenerator:
    def test_trace_and_hermiticity(self):
        basis = build_basis(L=3, N=3, n_max=3)
        rho = random_dm(basis, seed=0)
        rhs = LindbladGenerator(basis, 1.0, 0.7).rhs(rho)
        assert abs(np.trace(rhs)) < 1e-12
        np.testing.assert_allclose(rhs, rhs.conj().T, atol=1e-12)

    def test_dark_state_is_fixed_point(self):
        # |D><D| is annihilated by every phase-lock channel.
        basis = build_basis(L=4, N=4, n_max=4)
        dark = build_bec_dark_state(basis)
        rho = np.outer(dark, dark.conj())
        rhs = LindbladGenerator(basis, 1.0, 0.0).rhs(rho)
        assert np.abs(rhs).max() < 1e-12

    def test_fock_diagonal_fixed_under_pure_dephasing(self):
        # Any mixture of Fock projectors is stationary for the dephasing
        # channel alone.
        basis = build_basis(L=3, N=3, n_max=3)
        rng = np.random.default_rng(1)
        p = rng.random(basis.dim)
        rho = np.diag(p / p.sum()).astype(complex)
        rhs = LindbladGenerator(basis, 0.0, 2.0).rhs(rho)
        assert np.abs(rhs).max() < 1e-12

    def test_liouvillian_matches_channel_sum(self):
        # the one-shot assembly against the plain sum of the channels'
        # dissipators, and against the matrix-form generator
        basis = build_basis(L=4, N=4, n_max=3)
        gen = LindbladGenerator(basis, 1.0, 0.7)
        d2 = basis.dim ** 2
        plain = sum((rate * dissipator(b) for rate, b, _, _ in gen.channels),
                    sp.csr_matrix((d2, d2)))
        assembled = gen.liouvillian()
        assert abs(assembled - plain).max() < 1e-12
        rho = random_dm(basis, seed=2)
        np.testing.assert_allclose(assembled @ rho.ravel(),
                                   gen.rhs(rho).ravel(), atol=1e-12)

    @pytest.mark.parametrize("L, n_max", [(3, 3), (4, 2), (5, 2)])
    @pytest.mark.parametrize("rates", [(1.0, 0.7), (0.0, 2.0), (1.5, 0.0)])
    def test_liouvillian_matches_channel_sum_at_each_size(self, L, n_max, rates):
        # the assembly from A, the bonds and W against the plain sum of
        # the channels' dissipators, with each kind alone and both
        gen = LindbladGenerator(build_basis(L=L, N=L, n_max=n_max), *rates)
        d2 = gen.dim ** 2
        plain = sum((rate * dissipator(b) for rate, b, _, _ in gen.channels),
                    sp.csr_matrix((d2, d2)))
        assert abs(gen.liouvillian() - plain).max() < 1e-12

    def test_dimension_cap(self):
        basis = build_basis(L=6, N=6, n_max=6)  # dim 462 is fine
        LindbladGenerator(basis, 1.0, 0.0)
        big = build_basis(L=7, N=7, n_max=7)    # dim 1716 exceeds the cap
        with pytest.raises(ValueError):
            LindbladGenerator(big, 1.0, 0.0)

    def test_channel_counts(self):
        basis = build_basis(L=4, N=4, n_max=2)
        rates = [c[0] for c in LindbladGenerator(basis, 1.0, 2.0).channels]
        assert rates.count(1.0) == 3 and rates.count(2.0) == 4


class TestEvolve:
    def test_relaxes_to_condensate(self):
        # Pure phase-lock monitoring from the uniform Fock state reaches
        # the condensate: fidelity > 0.999 by Lambda*t = 20 at L = 2.
        basis = build_basis(L=2, N=2, n_max=2)
        psi0 = fock_state(basis, (1, 1))
        series = evolve_lindblad(basis, np.outer(psi0, psi0.conj()),
                                 1.0, 0.0, times=[20.0])
        # recompute the final state to extract fidelity
        dark = build_bec_dark_state(basis)
        rho = dense_propagator(basis, 1.0, 0.0)(np.outer(psi0, psi0.conj()), 20.0)
        fid = np.real(dark.conj() @ rho @ dark)
        assert fid > 0.999
        # and the series recorded the same physics: purity back near 1
        assert series.purity[-1] > 0.998

    def test_purity_bounds_and_decay(self):
        basis = build_basis(L=3, N=3, n_max=3)
        psi0 = default_initial_state(basis)
        series = evolve_lindblad(basis, np.outer(psi0, psi0.conj()),
                                 1.0, 1.0, times=[0.0, 0.2, 0.5])
        assert np.all(series.purity <= 1.0 + 1e-9)
        assert np.all(series.purity >= 1.0 / basis.dim - 1e-9)
        assert series.purity[1] < series.purity[0]

    def test_step_halving_agreement(self):
        # one step to t = 1 and two halves agree with each other and with
        # the dense oracle
        basis = build_basis(L=3, N=3, n_max=2)
        rho0 = random_dm(basis, seed=2)
        vals = [evolve_lindblad(basis, rho0, 1.0, 0.5, times=times)
                .observables["n_1"][-1] for times in ([1.0], [0.5, 1.0])]
        n_1 = default_observables(basis)["n_1"]
        exact = np.trace(dense_propagator(basis, 1.0, 0.5)(rho0, 1.0) @ n_1)
        assert abs(vals[0] - vals[1]) < 1e-10
        assert abs(vals[0] - exact) < 1e-10

    def test_matches_dense_expm_of_rhs(self):
        basis = build_basis(L=3, N=3, n_max=3)
        rho0 = random_dm(basis, seed=4)
        # snapshot times as a trajectory run accumulates them: off any grid
        times = [0.0, 0.1 + 0.2, 1.0, 7 * 0.37]
        series = evolve_lindblad(basis, rho0, 1.0, 0.7, times=times)
        assert series.times.tolist() == times
        observables = default_observables(basis)
        propagate = dense_propagator(basis, 1.0, 0.7)
        for i, t in enumerate(times):
            rho = propagate(rho0, t)
            for name, op in observables.items():
                assert abs(series.observables[name][i]
                           - np.trace(rho @ op)) < 1e-10
            assert abs(series.purity[i] - np.trace(rho @ rho).real) < 1e-10

    @pytest.mark.parametrize("L, n_max, rates, path", [
        (3, 3, (1.0, 0.7), "dense"),
        (3, 3, (0.0, 2.0), "dense"),
        (3, 3, (1.5, 0.0), "dense"),
        (4, 2, (1.0, 0.7), "expm_multiply"),
    ])
    def test_both_paths_match_dense_propagator(self, monkeypatch, L, n_max, rates, path):
        # uneven times in any order, with t = 0, a repeated time and a
        # repeated gap (0.5): the dense path takes one expm per distinct
        # gap, and both paths agree with the expm probed from rhs
        basis = build_basis(L=L, N=L, n_max=n_max)
        rho0 = random_dm(basis, seed=6)
        times = [1.25, 0.0, 0.25, 2.0, 0.25, 0.75]
        expms = []
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: expms.append(a) or expm(a))
        series = evolve_lindblad(basis, rho0, *rates, times=times)
        assert series.propagator == path
        assert len(expms) == (3 if path == "dense" else 0)
        assert series.times.tolist() == sorted(times)
        observables = default_observables(basis)
        propagate = dense_propagator(basis, *rates)
        for i, t in enumerate(series.times):
            rho = propagate(rho0, t)
            for name, op in observables.items():
                assert abs(series.observables[name][i] - np.trace(rho @ op)) < 1e-12
            assert abs(series.purity[i] - np.trace(rho @ rho).real) < 1e-12
        assert 0.0 <= series.trace_error < 1e-12

    def test_path_switches_at_the_cap(self):
        # L = 2 sectors of dim N + 1 on either side of the largest dim
        # whose d^2 stays within DENSE_LIOUVILLIAN_MAX
        d = math.isqrt(DENSE_LIOUVILLIAN_MAX)
        for dim, path in ((d, "dense"), (d + 1, "expm_multiply")):
            basis = build_basis(L=2, N=dim - 1, n_max=dim - 1)
            assert basis.dim == dim
            rho0 = np.diag(np.full(dim, 1.0 / dim))
            series = evolve_lindblad(basis, rho0, 1.0, 1.0, times=[0.1])
            assert series.propagator == path

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        basis = build_basis(L=2, N=2, n_max=2)
        rho0 = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"non-finite oracle time {bad}"):
            evolve_lindblad(basis, rho0, 1.0, 1.0, times=[0.5, bad])

    def test_total_number_conserved(self):
        basis = build_basis(L=3, N=3, n_max=3)
        rho0 = random_dm(basis, seed=3)
        series = evolve_lindblad(basis, rho0, 1.0, 0.8, times=[0.0, 0.6])
        n_tot0 = sum(series.observables[f"n_{j}"][0].real for j in (1, 2, 3))
        n_tot1 = sum(series.observables[f"n_{j}"][1].real for j in (1, 2, 3))
        assert n_tot0 == pytest.approx(basis.N, abs=1e-9)
        assert n_tot1 == pytest.approx(basis.N, abs=1e-9)

    def test_observable_names(self):
        basis = build_basis(L=3, N=3, n_max=2)
        obs = default_observables(basis)
        assert set(obs) == {"n_1", "n_2", "n_3", "hop_1_2", "hop_2_3"}

    def test_observables_are_sparse(self):
        basis = build_basis(L=4, N=4, n_max=3)
        for op in default_observables(basis).values():
            assert sp.issparse(op) and op.format == "csr"
            assert op.shape == (basis.dim, basis.dim)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_expectations_match_vdot(self, dtype):
        basis = build_basis(L=4, N=4, n_max=3)
        rng = np.random.default_rng(5)
        states = rng.normal(size=(6, basis.dim)).astype(dtype)
        if dtype is complex:
            states += 1j * rng.normal(size=states.shape)
        for op in default_observables(basis).values():
            want = [np.vdot(psi, op @ psi) for psi in states]
            np.testing.assert_allclose(expectations(states, op), want,
                                       rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module")
def matched_pair():
    basis = build_basis(L=2, N=2, n_max=2)
    psi0 = fock_state(basis, (1, 1))
    cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0,
                           t_max=1.0, seed=101,
                           snapshot_times=(0.5, 1.0))
    ens = run_ensemble(basis, psi0, cfg, M=300)
    rho0 = np.outer(psi0, psi0.conj())
    series = evolve_lindblad(basis, rho0, 1.0, 1.0,
                             times=sorted(ens.states))
    return basis, series, ens, rho0


class TestEnsembleComparison:
    def test_matched_run_agrees(self, matched_pair):
        _, series, ens, _ = matched_pair
        report = compare_with_ensemble(series, ens)
        assert report.passed
        assert report.max_abs_z < 3.0

    def test_negative_control_fails(self, matched_pair):
        # An oracle at deliberately wrong rates must be rejected: this
        # protects the comparison itself from being vacuous.
        basis, _, ens, rho0 = matched_pair
        wrong = evolve_lindblad(basis, rho0, 1.0, 4.0,
                                times=sorted(ens.states))
        # keep metadata consistent so only the physics disagrees
        wrong.rate_dephase = ens.config.rate_dephase
        report = compare_with_ensemble(wrong, ens)
        assert not report.passed

    def test_config_mismatch_rejected(self, matched_pair):
        basis, series, ens, rho0 = matched_pair
        other = evolve_lindblad(basis, rho0, 1.0, 2.0, times=sorted(ens.states))
        with pytest.raises(ValueError):
            compare_with_ensemble(other, ens)
