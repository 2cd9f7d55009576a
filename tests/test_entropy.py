"""Tests for cut reductions, Schmidt spectra, and entropy averages.

The sector-block partial trace is checked against a dense kron-space
partial trace; the left and right reductions (independent code paths)
cross-check each other through their shared Schmidt spectrum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosetraj import (
    build_basis,
    build_bec_dark_state,
    fock_state,
    reduce_state,
    renyi,
    schmidt_spectrum,
    state_entropy,
    von_neumann,
    average_profile,
)
from bosetraj.entropy import average_profiles
from bosetraj.fock import NumericGuardError
from oracles import reduce_right


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return amps / np.linalg.norm(amps)


def dense_left_rdm(psi, l, basis):
    """Partial trace in the full (n_max+1)^L kron space, restricted to
    the sector: independent of the block decomposition."""
    d1 = basis.n_max + 1
    full = np.zeros((d1,) * basis.L, dtype=complex)
    for k, occ in enumerate(basis.states):
        full[occ] = psi[k]
    dl, dr = d1 ** l, d1 ** (basis.L - l)
    mat = full.reshape(dl, dr)
    return mat @ mat.conj().T


class TestReduceAgainstDense:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_left_matches_dense_kron_trace(self, l):
        basis = build_basis(L=4, N=4, n_max=2)
        psi = random_state(basis, seed=l)
        rdm = reduce_state(psi, l, basis)
        dense = dense_left_rdm(psi, l, basis)
        # embed the sector-restricted block rdm into the kron-space basis
        d1 = basis.n_max + 1
        idx = [sum(o * d1 ** (l - 1 - i) for i, o in enumerate(occ))
               for occ in rdm.left_states]
        embedded = np.zeros_like(dense)
        embedded[np.ix_(idx, idx)] = rdm.matrix
        np.testing.assert_allclose(embedded, dense, atol=1e-12)

    def test_trace_one_and_hermitian(self):
        basis = build_basis(L=4, N=4, n_max=3)
        psi = random_state(basis, seed=0)
        for l in range(1, 4):
            for reduce in (reduce_state, reduce_right):
                rdm = reduce(psi, l, basis)
                assert np.trace(rdm.matrix).real == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(rdm.matrix,
                                           rdm.matrix.conj().T, atol=1e-12)

    def test_left_right_share_schmidt_spectrum(self):
        # Purity: rho_A = B B† and rho_B = B† B have the same nonzero
        # spectrum, so every entropy agrees between the two reductions.
        basis = build_basis(L=5, N=5, n_max=2)
        psi = random_state(basis, seed=4)
        for l in range(1, 5):
            sl = np.sort(np.linalg.eigvalsh(reduce_state(psi, l, basis).matrix))
            sr = np.sort(np.linalg.eigvalsh(reduce_right(psi, l, basis).matrix))
            nl, nr = len(sl), len(sr)
            k = min(nl, nr)
            np.testing.assert_allclose(sl[-k:], sr[-k:], atol=1e-10)
            assert von_neumann(reduce_state(psi, l, basis)) == pytest.approx(
                von_neumann(reduce_right(psi, l, basis)), abs=1e-10)

    def test_cut_out_of_range(self):
        basis = build_basis(L=3, N=3, n_max=2)
        psi = random_state(basis, seed=1)
        for l in (0, 3):
            with pytest.raises(ValueError):
                reduce_state(psi, l, basis)

    def test_block_structure_in_left_number(self):
        # Coherences between left-number sectors vanish identically.
        basis = build_basis(L=4, N=4, n_max=3)
        psi = random_state(basis, seed=6)
        rdm = reduce_state(psi, 2, basis)
        nums = np.array([sum(occ) for occ in rdm.left_states])
        off = np.abs(rdm.matrix[nums[:, None] != nums[None, :]])
        assert off.max() == 0.0


class TestSchmidtSpectrum:
    def test_matches_rdm_eigenvalues(self):
        basis = build_basis(L=4, N=4, n_max=2)
        psi = random_state(basis, seed=2)
        for l in range(1, 4):
            spec = np.sort(schmidt_spectrum(psi, l, basis))
            eig = np.sort(np.linalg.eigvalsh(reduce_state(psi, l, basis).matrix))
            k = len(spec)
            np.testing.assert_allclose(spec, eig[-k:], atol=1e-10)

    def test_sums_to_one(self):
        basis = build_basis(L=5, N=5, n_max=2)
        psi = random_state(basis, seed=3)
        for l in range(1, 5):
            assert schmidt_spectrum(psi, l, basis).sum() == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_pure(self):
        basis = build_basis(L=4, N=4, n_max=4)
        psi = fock_state(basis, (1, 1, 1, 1))
        for l in range(1, 4):
            assert state_entropy(psi, l, basis) == pytest.approx(0.0, abs=1e-12)

    def test_real_and_complex_paths_agree(self):
        # a real state and the same state times a global phase: the real
        # and complex block paths give one spectrum, equal to the
        # eigenvalues of the reduced density matrix at every cut
        basis = build_basis(L=5, N=5, n_max=3)
        amps = np.random.default_rng(8).standard_normal(basis.dim)
        real = (amps / np.linalg.norm(amps))[None]
        phased = real * np.exp(0.7j)
        for l in range(1, 5):
            spec_re = schmidt_spectrum(real, l, basis)[0]
            spec_c = schmidt_spectrum(phased, l, basis)[0]
            assert real.dtype == spec_re.dtype == np.float64
            np.testing.assert_allclose(spec_re, spec_c, atol=1e-12)
            eig = np.sort(np.linalg.eigvalsh(
                reduce_state(phased[0], l, basis).matrix))
            np.testing.assert_allclose(np.sort(spec_re), eig[-len(spec_re):],
                                       atol=1e-12)
        kinds = [("vn", None), ("renyi", 2.0)]
        for p_re, p_c in zip(average_profiles(real, basis, 1.0, 1.0, kinds),
                             average_profiles(phased, basis, 1.0, 1.0, kinds)):
            np.testing.assert_allclose(p_re.mean, p_c.mean, atol=1e-12)

    def test_one_vector_matches_stack_row(self):
        # a single amplitude vector, real or complex, gives its stack row
        basis = build_basis(L=4, N=4, n_max=2)
        real = random_state(basis, seed=7).real
        real /= np.linalg.norm(real)
        stack = np.array([real, real * np.exp(1.3j)])
        for l in range(1, 4):
            rows = schmidt_spectrum(stack, l, basis)
            assert rows.shape[0] == 2
            for psi, row in zip(stack, rows):
                np.testing.assert_array_equal(schmidt_spectrum(psi, l, basis), row)
            np.testing.assert_allclose(rows[1], schmidt_spectrum(real, l, basis),
                                       atol=1e-12)
            assert state_entropy(stack[1], l, basis) == pytest.approx(
                state_entropy(real, l, basis), abs=1e-12)


class TestDarkStateEntropy:
    def test_half_cut_value_small_chain(self):
        # |D> at L=2, N=2: amplitudes (1/2, 1/√2, 1/2) on (0,2),(1,1),(2,0);
        # the l=1 spectrum is (1/4, 1/2, 1/4) with S = (3/2) log 2.
        basis = build_basis(L=2, N=2, n_max=2)
        dark = build_bec_dark_state(basis)
        spec = np.sort(schmidt_spectrum(dark, 1, basis))
        np.testing.assert_allclose(spec, [0.25, 0.25, 0.5], atol=1e-12)
        assert state_entropy(dark, 1, basis) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_profile_symmetric_under_cut_reflection(self):
        # The condensate is permutation symmetric, so S(l) = S(L - l).
        basis = build_basis(L=6, N=6, n_max=6)
        dark = build_bec_dark_state(basis)
        S = [state_entropy(dark, l, basis) for l in range(1, 6)]
        for l in range(1, 6):
            assert S[l - 1] == pytest.approx(S[6 - l - 1], abs=1e-10)


class TestEntropyFunctions:
    def test_von_neumann_uniform_spectrum(self):
        p = np.full(8, 1.0 / 8.0)
        assert von_neumann(p) == pytest.approx(math.log(8), abs=1e-12)

    def test_renyi_orders(self):
        p = np.array([0.5, 0.25, 0.25])
        s2 = -math.log(0.5 ** 2 + 2 * 0.25 ** 2)
        assert renyi(p, 2.0) == pytest.approx(s2, abs=1e-12)
        # infinite-order limit from a large alpha
        assert renyi(p, 200.0) == pytest.approx(-math.log(0.5), abs=1e-2)

    def test_renyi_rejects_bad_alpha(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            renyi(p, 0.0)
        with pytest.raises(ValueError):
            renyi(p, 1.0)
        with pytest.raises(ValueError):
            renyi(p, -2.0)
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                renyi(p, alpha)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_renyi_decreasing_in_alpha_and_vn_between(self, seed):
        basis = build_basis(L=4, N=4, n_max=2)
        psi = random_state(basis, seed)
        spec = schmidt_spectrum(psi, 2, basis)
        s_half = renyi(spec, 0.5)
        s_vn = von_neumann(spec)
        s2 = renyi(spec, 2.0)
        s3 = renyi(spec, 3.0)
        eps = 1e-10
        assert s_half >= s_vn - eps
        assert s_vn >= s2 - eps
        assert s2 >= s3 - eps

    def test_renyi_alpha_to_one_limit(self):
        basis = build_basis(L=4, N=4, n_max=2)
        psi = random_state(basis, seed=9)
        spec = schmidt_spectrum(psi, 2, basis)
        s_vn = von_neumann(spec)
        near = renyi(spec, 1.0 + 1e-6)
        assert near == pytest.approx(s_vn, abs=1e-4)

    def test_corrupted_spectrum_rejected(self):
        with pytest.raises(NumericGuardError):
            von_neumann(np.array([1.1, -0.1]))


class TestAverageProfile:
    def test_single_state_matches_state_entropy(self):
        basis = build_basis(L=4, N=4, n_max=2)
        psi = random_state(basis, seed=5)
        prof = average_profile(psi[None, :], basis,
                               gamma=0.5, t=1.0)
        assert prof.M == 1
        np.testing.assert_array_equal(prof.ls, [1, 2, 3])
        np.testing.assert_array_equal(prof.stderr, 0.0)
        for i, l in enumerate(prof.ls):
            assert prof.mean[i] == pytest.approx(state_entropy(psi, int(l), basis))

    def test_mean_and_stderr(self):
        basis = build_basis(L=3, N=3, n_max=2)
        stack = np.array([random_state(basis, s) for s in range(4)])
        prof = average_profile(stack, basis, gamma=2.0, t=0.5,
                               kind="renyi", alpha=2.0)
        vals = np.array([[state_entropy(s, l, basis, kind="renyi", alpha=2.0)
                          for l in (1, 2)] for s in stack])
        np.testing.assert_allclose(prof.mean, vals.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            prof.stderr, vals.std(axis=0, ddof=1) / 2.0, atol=1e-12)
        assert prof.kind == "renyi" and prof.alpha == 2.0
