import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosetraj import (JumpKind, SparseOperator, StateVector, apply,
                      build_basis, build_bec_dark_state, build_hopping,
                      build_jump, build_number, expectation, fock_state)


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
            assert b.index[s] == i
        assert b.states == tuple(sorted(b.states))

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


class TestBuildJump:
    def test_phaselock_on_uniform_fock(self):
        b = build_basis(2, 2, 2)
        out = apply(build_jump(JumpKind.PHASE_LOCK, 1, b), fock_state(b, (1, 1)))
        expected = np.zeros(3, complex)
        expected[b.index[(0, 2)]] = math.sqrt(2)
        expected[b.index[(2, 0)]] = -math.sqrt(2)
        assert np.allclose(out.amplitudes, expected)

    def test_dephase_is_number_operator(self):
        b = build_basis(3, 3, 3)
        for j in range(1, 4):
            c = build_jump(JumpKind.DEPHASE, j, b)
            for occ in b.states:
                out = apply(c, fock_state(b, occ))
                assert np.allclose(out.amplitudes,
                                   occ[j - 1] * fock_state(b, occ).amplitudes)

    def test_symmetric_mode_annihilated(self):
        b = build_basis(2, 2, 2)
        sym = build_bec_dark_state(b)
        assert apply(build_jump(JumpKind.PHASE_LOCK, 1, b), sym).norm() < 1e-12

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
            assert np.allclose(build_jump(JumpKind.PHASE_LOCK, j, b).dense(),
                               dense_d(b, j), atol=1e-12)

    def test_number_conservation_structural(self):
        # any matrix element connects only sector states, by construction;
        # verify the full-space oracle has no support outside the sector
        b = build_basis(3, 3, 2)
        d = build_jump(JumpKind.PHASE_LOCK, 1, b)
        for occ in b.states:
            out = apply(d, fock_state(b, occ))
            assert out.amplitudes.shape == (b.dim,)

    def test_dtd_positive_semidefinite(self):
        b = build_basis(4, 4, 2)
        for j in range(1, 4):
            d = build_jump(JumpKind.PHASE_LOCK, j, b).dense()
            evals = np.linalg.eigvalsh(d.conj().T @ d)
            assert evals.min() >= -1e-10

    def test_truncation_consistency(self):
        # with n_max >= N the cap is not binding; raising it changes nothing
        b1 = build_basis(3, 3, 3)
        b2 = build_basis(3, 3, 5)
        common = {s: i for i, s in enumerate(b2.states) if s in b1.index}
        idx = [b2.index[s] for s in b1.states]
        for j in range(1, 3):
            m1 = build_jump(JumpKind.PHASE_LOCK, j, b1).dense()
            m2 = build_jump(JumpKind.PHASE_LOCK, j, b2).dense()[np.ix_(idx, idx)]
            assert np.allclose(m1, m2)


class TestApplyExpectation:
    def test_identity(self):
        b = build_basis(3, 3, 2)
        import scipy.sparse as sp
        ident = SparseOperator(b, sp.eye(b.dim))
        rng = np.random.default_rng(0)
        psi = StateVector(b, rng.normal(size=b.dim) + 1j * rng.normal(size=b.dim))
        psi.normalize()
        assert np.allclose(apply(ident, psi).amplitudes, psi.amplitudes)

    def test_number_eigenvalue(self):
        b = build_basis(2, 2, 2)
        psi = fock_state(b, (1, 1))
        c1 = build_jump(JumpKind.DEPHASE, 1, b)
        assert np.allclose(apply(c1, psi).amplitudes, psi.amplitudes)
        assert expectation(build_number(b, 1), psi) == pytest.approx(1.0)

    def test_apply_matches_dense_product(self):
        b = build_basis(2, 2, 2)
        psi = np.zeros(3, complex)
        psi[b.index[(0, 2)]] = 1 / math.sqrt(2)
        psi[b.index[(2, 0)]] = -1 / math.sqrt(2)
        psi = StateVector(b, psi)
        d = build_jump(JumpKind.PHASE_LOCK, 1, b)
        assert np.allclose(apply(d, psi).amplitudes, dense_d(b, 1) @ psi.amplitudes)

    def test_dtd_expectation(self):
        b = build_basis(2, 2, 2)
        psi = fock_state(b, (1, 1))
        d = build_jump(JumpKind.PHASE_LOCK, 1, b)
        dtd = SparseOperator(b, d.matrix.conj().T @ d.matrix)
        val = expectation(dtd, psi)
        assert val.real == pytest.approx(4.0)
        assert abs(val.imag) < 1e-12
        # equals the squared norm of d|1,1> = sqrt(2)|0,2> - sqrt(2)|2,0>
        assert apply(d, psi).norm() ** 2 == pytest.approx(4.0)

    def test_dephase_composite_on_uniform_filling(self):
        b = build_basis(4, 4, 4)
        psi = fock_state(b, (1, 1, 1, 1))
        for j in range(1, 5):
            c = build_jump(JumpKind.DEPHASE, j, b)
            ctc = SparseOperator(b, c.matrix.conj().T @ c.matrix)
            assert expectation(ctc, psi).real == pytest.approx(1.0)

    def test_basis_mismatch(self):
        b1 = build_basis(2, 2, 2)
        b2 = build_basis(3, 3, 3)
        with pytest.raises(ValueError):
            apply(build_number(b1, 1), fock_state(b2, (1, 1, 1)))


class TestDarkState:
    def test_two_site_amplitudes(self):
        b = build_basis(2, 2, 2)
        D = build_bec_dark_state(b)
        # (|0,2> + sqrt(2)|1,1> + |2,0>)/2
        assert D.amplitudes[b.index[(0, 2)]] == pytest.approx(0.5)
        assert D.amplitudes[b.index[(1, 1)]] == pytest.approx(math.sqrt(2) / 2)
        assert D.amplitudes[b.index[(2, 0)]] == pytest.approx(0.5)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_annihilated_by_all_bonds(self, L):
        b = build_basis(L, L, L)
        D = build_bec_dark_state(b)
        for j in range(1, L):
            assert apply(build_jump(JumpKind.PHASE_LOCK, j, b), D).norm() < 1e-10

    def test_uniform_density(self):
        b = build_basis(4, 4, 4)
        D = build_bec_dark_state(b)
        for j in range(1, 5):
            assert expectation(build_number(b, j), D).real == pytest.approx(1.0)

    def test_truncated_warns(self):
        with pytest.warns(UserWarning):
            build_bec_dark_state(build_basis(4, 4, 2))


def test_hopping_hermitian_pair():
    b = build_basis(3, 3, 2)
    h12 = build_hopping(b, 1, 2).dense()
    h21 = build_hopping(b, 2, 1).dense()
    assert np.allclose(h12, h21.conj().T)
