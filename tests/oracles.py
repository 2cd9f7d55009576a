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
