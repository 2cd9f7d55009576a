import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosetraj import (JumpKind, MonitoringConfig, build_basis, build_bec_dark_state,
                      build_hopping, build_jump, build_number, fock_state,
                      run_ensemble, run_trajectory)
from bosetraj.fock import unit_jumps


def dense_mode_op(n_max):
    a = np.zeros((n_max + 1, n_max + 1))
    for n in range(1, n_max + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


def dense_sector_operator(basis, build):
    """Independent dense oracle: build the operator on the full tensor
    space with kron'd single-mode matrices, then restrict to the sector."""
    a = dense_mode_op(basis.n_max)
    eye = np.eye(basis.n_max + 1)
    def site_op(mat, j):
        ops = [eye] * basis.L
        ops[j] = mat
        out = ops[0]
        for o in ops[1:]:
            out = np.kron(out, o)
        return out
    full = build(lambda j: site_op(a, j), lambda j: site_op(a.T, j))
    # index of each sector state in the tensor basis
    strides = [(basis.n_max + 1) ** (basis.L - 1 - k) for k in range(basis.L)]
    idx = [sum(n * s for n, s in zip(occ, strides)) for occ in basis.states]
    return full[np.ix_(idx, idx)]


def dense_d(basis, j):
    return dense_sector_operator(
        basis, lambda a, ad: (ad(j - 1) + ad(j)) @ (a(j - 1) - a(j)))


class TestBuildBasis:
    def test_two_site_sector(self):
        b = build_basis(2, 2, 2)
        assert b.dim == 3
        assert b.states == ((0, 2), (1, 1), (2, 0))

    def test_stars_and_bars(self):
        assert build_basis(4, 4, 4).dim == 35  # C(7,3), cap not binding

    def test_forced_state(self):
        b = build_basis(3, 3, 1)
        assert b.states == ((1, 1, 1),)

    def test_empty_sector_rejected(self):
        with pytest.raises(ValueError):
            build_basis(2, 5, 2)

    def test_index_inverts_states(self):
        b = build_basis(4, 4, 2)
        for i, s in enumerate(b.states):
            assert b.find(s) == i
        assert b.states == tuple(sorted(b.states))
        np.testing.assert_array_equal(b.find(b.table), np.arange(b.dim))
        for outside in ((4, 0, 0, 0), (3, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1)):
            with pytest.raises(KeyError):
                b.find(outside)

    @given(L=st.integers(1, 4), N=st.integers(0, 5), n_max=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, L, N, n_max):
        if N > L * n_max:
            with pytest.raises(ValueError):
                build_basis(L, N, n_max)
            return
        b = build_basis(L, N, n_max)
        for s in b.states:
            assert sum(s) == N
            assert all(0 <= n <= n_max for n in s)
        assert len(set(b.states)) == b.dim
        # reference loop: the product space in lexicographic order, filtered
        assert b.states == tuple(s for s in itertools.product(range(n_max + 1), repeat=L)
                                 if sum(s) == N)

    def test_code_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            build_basis(40, 2, 2)


class TestArrayBuiltOperators:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_match_dense_oracle_on_random_sectors(self, data):
        # n_max < N is drawn too: the cap then truncates the sector
        L = data.draw(st.integers(2, 4), label="L")
        n_max = data.draw(st.integers(1, 3), label="n_max")
        N = data.draw(st.integers(0, min(L * n_max, 6)), label="N")
        b = build_basis(L, N, n_max)
        assert np.all(np.diff(b.codes) > 0)
        np.testing.assert_array_equal(
            b.table, np.array(b.states, dtype=np.int64).reshape(b.dim, L))
        i = data.draw(st.integers(1, L), label="i")
        j = data.draw(st.integers(1, L), label="j")
        hop = dense_sector_operator(b, lambda a, ad: ad(i - 1) @ a(j - 1))
        np.testing.assert_allclose(build_hopping(b, i, j).toarray(), hop, atol=1e-12)
        num = dense_sector_operator(b, lambda a, ad: ad(j - 1) @ a(j - 1))
        np.testing.assert_allclose(build_number(b, j).toarray(), num, atol=1e-12)
        bond = data.draw(st.integers(1, L - 1), label="bond")
        np.testing.assert_allclose(build_jump(JumpKind.PHASE_LOCK, bond, b).toarray(),
                                   dense_d(b, bond), atol=1e-12)


class TestBuildJump:
    def test_phaselock_on_uniform_fock(self):
        b = build_basis(2, 2, 2)
        out = build_jump(JumpKind.PHASE_LOCK, 1, b) @ fock_state(b, (1, 1))
        expected = np.zeros(3)
        expected[b.find((0, 2))] = math.sqrt(2)
        expected[b.find((2, 0))] = -math.sqrt(2)
        assert np.allclose(out, expected)

    def test_dephase_is_number_operator(self):
        b = build_basis(3, 3, 3)
        for j in range(1, 4):
            c = build_jump(JumpKind.DEPHASE, j, b)
            for occ in b.states:
                out = c @ fock_state(b, occ)
                assert np.allclose(out, occ[j - 1] * fock_state(b, occ))

    def test_symmetric_mode_annihilated(self):
        b = build_basis(2, 2, 2)
        sym = build_bec_dark_state(b)
        assert np.linalg.norm(build_jump(JumpKind.PHASE_LOCK, 1, b) @ sym) < 1e-12

    def test_out_of_range_site(self):
        b = build_basis(3, 3, 3)
        with pytest.raises(ValueError):
            build_jump(JumpKind.PHASE_LOCK, 3, b)
        with pytest.raises(ValueError):
            build_jump(JumpKind.DEPHASE, 4, b)

    @pytest.mark.parametrize("L,N,n_max", [(2, 2, 2), (3, 3, 3), (4, 4, 2)])
    def test_dense_oracle_equivalence(self, L, N, n_max):
        b = build_basis(L, N, n_max)
        for j in range(1, L):
            assert np.allclose(build_jump(JumpKind.PHASE_LOCK, j, b).toarray(),
                               dense_d(b, j), atol=1e-12)

    def test_number_conservation_structural(self):
        # any matrix element connects only sector states, by construction;
        # verify the full-space oracle has no support outside the sector
        b = build_basis(3, 3, 2)
        d = build_jump(JumpKind.PHASE_LOCK, 1, b)
        for occ in b.states:
            out = d @ fock_state(b, occ)
            assert out.shape == (b.dim,)

    def test_dtd_positive_semidefinite(self):
        b = build_basis(4, 4, 2)
        for j in range(1, 4):
            d = build_jump(JumpKind.PHASE_LOCK, j, b).toarray()
            evals = np.linalg.eigvalsh(d.conj().T @ d)
            assert evals.min() >= -1e-10

    def test_truncation_consistency(self):
        # with n_max >= N the cap is not binding; raising it changes nothing
        b1 = build_basis(3, 3, 3)
        b2 = build_basis(3, 3, 5)
        idx = b2.find(b1.table)
        for j in range(1, 3):
            m1 = build_jump(JumpKind.PHASE_LOCK, j, b1).toarray()
            m2 = build_jump(JumpKind.PHASE_LOCK, j, b2).toarray()[np.ix_(idx, idx)]
            assert np.allclose(m1, m2)


class TestApplyExpectation:
    def test_identity(self):
        b = build_basis(3, 3, 2)
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        psi = rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim)
        psi /= np.linalg.norm(psi)
        assert np.allclose(sp.eye(b.dim, format="csr") @ psi, psi)

    def test_number_eigenvalue(self):
        b = build_basis(2, 2, 2)
        psi = fock_state(b, (1, 1))
        c1 = build_jump(JumpKind.DEPHASE, 1, b)
        assert np.allclose(c1 @ psi, psi)
        assert np.vdot(psi, build_number(b, 1) @ psi) == pytest.approx(1.0)

    def test_apply_matches_dense_product(self):
        b = build_basis(2, 2, 2)
        psi = np.zeros(3, complex)
        psi[b.find((0, 2))] = 1 / math.sqrt(2)
        psi[b.find((2, 0))] = -1j / math.sqrt(2)
        d = build_jump(JumpKind.PHASE_LOCK, 1, b)
        assert np.allclose(d @ psi, dense_d(b, 1) @ psi)

    def test_dtd_expectation(self):
        b = build_basis(2, 2, 2)
        psi = fock_state(b, (1, 1))
        d = build_jump(JumpKind.PHASE_LOCK, 1, b)
        val = np.vdot(psi, (d.T @ d) @ psi)
        assert val == pytest.approx(4.0)
        # equals the squared norm of d|1,1> = sqrt(2)|0,2> - sqrt(2)|2,0>
        assert np.linalg.norm(d @ psi) ** 2 == pytest.approx(4.0)

    def test_dephase_composite_on_uniform_filling(self):
        b = build_basis(4, 4, 4)
        psi = fock_state(b, (1, 1, 1, 1))
        for j in range(1, 5):
            c = build_jump(JumpKind.DEPHASE, j, b)
            assert np.vdot(psi, (c.T @ c) @ psi) == pytest.approx(1.0)

    def test_basis_mismatch(self):
        # a state from another sector: products and trajectories refuse it
        b1 = build_basis(2, 2, 2)
        psi = fock_state(build_basis(3, 3, 3), (1, 1, 1))
        with pytest.raises(ValueError):
            build_number(b1, 1) @ psi
        cfg = MonitoringConfig(rate_phaselock=1.0, rate_dephase=1.0, t_max=1.0)
        with pytest.raises(ValueError):
            run_trajectory(b1, psi, cfg)
        with pytest.raises(ValueError):
            run_ensemble(b1, psi, cfg, M=1)


class TestRealArrays:
    def test_operators_are_real_csr(self):
        b = build_basis(3, 3, 2)
        for op in (build_jump(JumpKind.PHASE_LOCK, 1, b),
                   build_jump(JumpKind.DEPHASE, 2, b), build_hopping(b, 1, 3)):
            assert op.format == "csr"
            assert op.dtype == np.float64

    def test_states_are_float64(self):
        b = build_basis(3, 3, 3)
        assert fock_state(b, (1, 1, 1)).dtype == np.float64
        assert build_bec_dark_state(b).dtype == np.float64

    def test_unit_jumps_stack_and_cache(self):
        b = build_basis(3, 3, 2)
        for kind, count in ((JumpKind.PHASE_LOCK, 2), (JumpKind.DEPHASE, 3)):
            stack = unit_jumps(b, kind)
            assert unit_jumps(b, kind) is stack
            assert stack.shape == (count * b.dim, b.dim)
            for j in range(1, count + 1):
                block = stack[(j - 1) * b.dim:j * b.dim]
                assert (block != build_jump(kind, j, b)).nnz == 0


class TestDarkState:
    def test_two_site_amplitudes(self):
        b = build_basis(2, 2, 2)
        D = build_bec_dark_state(b)
        # (|0,2> + sqrt(2)|1,1> + |2,0>)/2
        assert D[b.find((0, 2))] == pytest.approx(0.5)
        assert D[b.find((1, 1))] == pytest.approx(math.sqrt(2) / 2)
        assert D[b.find((2, 0))] == pytest.approx(0.5)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_annihilated_by_all_bonds(self, L):
        b = build_basis(L, L, L)
        D = build_bec_dark_state(b)
        for j in range(1, L):
            assert np.linalg.norm(build_jump(JumpKind.PHASE_LOCK, j, b) @ D) < 1e-10

    def test_uniform_density(self):
        b = build_basis(4, 4, 4)
        D = build_bec_dark_state(b)
        for j in range(1, 5):
            assert np.vdot(D, build_number(b, j) @ D) == pytest.approx(1.0)

    def test_truncated_warns(self):
        with pytest.warns(UserWarning):
            build_bec_dark_state(build_basis(4, 4, 2))


def test_hopping_hermitian_pair():
    b = build_basis(3, 3, 2)
    h12 = build_hopping(b, 1, 2).toarray()
    h21 = build_hopping(b, 2, 1).toarray()
    assert np.allclose(h12, h21.conj().T)
