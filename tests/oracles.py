"""Independent reference computations shared by several test modules."""

import numpy as np

from bosetraj.entropy import ReducedDM, _cut_blocks, _left_occupations


def reduce_right(psi, l):
    """Keep sites l+1..L, tracing out the left block.  Independent code
    path from `reduce_state` (B† B instead of B B†) so the two sides
    cross-check each other through their shared Schmidt spectrum."""
    basis = psi.basis
    if not 1 <= l <= basis.L - 1:
        raise ValueError(f"cut {l} out of range [1, {basis.L - 1}]")
    n_right = basis.L - l
    right_states = _left_occupations(n_right, basis.n_max,
                                     min(basis.N, n_right * basis.n_max))
    right_index = {s: i for i, s in enumerate(right_states)}
    _, compiled = _cut_blocks(basis, l)
    rho = np.zeros((len(right_states), len(right_states)), dtype=np.complex128)
    # rebuild the per-block right-occupation lists to place B† B globally
    blocks_right = {}
    for k, occ in enumerate(basis.states):
        s = sum(occ[:l])
        blocks_right.setdefault(s, {}).setdefault(occ[l:], None)
    for (nl, nr, li, ri, kk, glob_l), s in zip(compiled, sorted(blocks_right)):
        B = np.zeros((nl, nr), dtype=np.complex128)
        B[li, ri] = psi.amplitudes[kk]
        glob_r = np.array([right_index[occ] for occ in blocks_right[s]])
        rho[np.ix_(glob_r, glob_r)] = B.conj().T @ B
    return ReducedDM(left_states=right_states, matrix=rho)


def matrix_dissipator(X, rho):
    """D[X] rho = X rho X† - (X†X rho + rho X†X) / 2, in matrix form."""
    XdX = X.conj().T @ X
    return X @ rho @ X.conj().T - 0.5 * (XdX @ rho + rho @ XdX)


def meanfield_generator(rho, ops, cfg):
    """The mean-field generator written out as products of d x d
    matrices: the reference for the vectorised `meanfield_rhs`."""
    a, ad, n, f = ops.a, ops.ad, ops.n, cfg.filling
    adad, ad_a_ad, ad_ad_a = ad @ ad, ad @ a @ ad, ad @ ad @ a
    m_a = np.trace(rho @ a)
    m_a2 = np.trace(rho @ ops.a2)
    m_mixed = 0.5 * (np.trace(rho @ ad_a_ad) + np.trace(rho @ ad_ad_a))
    Le = (m_mixed * (rho @ a - a @ rho)
          - m_a2 * (ad @ rho @ ad - 0.5 * (adad @ rho + rho @ adad))
          + m_a * (n @ rho @ ad
                   - 0.5 * (ad_ad_a @ rho + rho @ ad_ad_a)
                   - ad @ rho @ ad @ a
                   + 0.5 * (ad_a_ad @ rho + rho @ ad_a_ad)))
    pl = (f * matrix_dissipator(ad, rho) + (f + 1.0) * matrix_dissipator(a, rho)
          + matrix_dissipator(n, rho) + Le + Le.conj().T)
    return 2.0 * cfg.rate_phaselock * pl + cfg.rate_dephase * matrix_dissipator(n, rho)


def probed_superoperator(rhs, d):
    """Dense d^2 x d^2 matrix of a linear map on d x d matrices, built
    column by column from its action on the matrix units (vec = ravel)."""
    cols = []
    for k in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[k] = 1.0
        cols.append(rhs(unit.reshape(d, d)).ravel())
    return np.array(cols).T
