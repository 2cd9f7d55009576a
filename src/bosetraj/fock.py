"""Number-conserving bosonic Fock sector with sparse operators.

Both monitoring channels conserve total particle number, so the whole
simulation lives inside a single (L, N) sector with a hard per-site
occupation cap n_max.  States are ordered lexicographically so that
indices (and every downstream output file) are reproducible.  A state is
a plain amplitude array over the sector and an operator a real
scipy.sparse CSR matrix: every chain operator is real in the Fock basis.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class NumericGuardError(RuntimeError):
    """A numerical guard tripped: a step, norm, trace or spectrum left its
    trusted range, so the result would be wrong rather than the input."""


class JumpKind(Enum):
    PHASE_LOCK = "phase_lock"
    DEPHASE = "dephase"


class FockBasis:
    """Occupation-number basis of the fixed-N sector of an L-site chain.

    table[i] holds the L occupations of state i (sum N, entries in
    [0, n_max]) and codes[i] their mixed-radix code, the occupations as
    digits in base n_max + 1 with site 1 most significant.
    Lexicographic order makes the codes strictly increasing, so a binary
    search maps occupations back to indices.
    """

    def __init__(self, L: int, N: int, n_max: int, table: np.ndarray):
        self.L, self.N, self.n_max, self.table = L, N, n_max, table
        self.weights = (n_max + 1) ** np.arange(L - 1, -1, -1, dtype=np.int64)
        self.codes = table @ self.weights
        self._cut_cache: dict = {}  # partial-trace bookkeeping, filled lazily
        self._jump_cache: dict = {}  # unit-rate jump stacks and "gram", lazily

    @property
    def dim(self) -> int:
        return len(self.table)

    @cached_property
    def states(self) -> tuple:
        """The occupations as a tuple of tuples, in basis order."""
        return tuple(map(tuple, self.table.tolist()))

    def find(self, occupations) -> np.ndarray:
        """Basis indices of occupation tuples (last axis = sites); raises
        KeyError for any outside the sector."""
        occ = np.asarray(occupations, dtype=np.int64)
        if occ.shape[-1:] == (self.L,) and 0 <= occ.min() and occ.max() <= self.n_max:
            codes = occ @ self.weights
            idx = np.searchsorted(self.codes, codes)
            if np.array_equal(self.codes.take(idx, mode="clip"), codes):
                return idx
        raise KeyError(f"occupation {occupations!r} is not in the sector")

    def __repr__(self):
        return f"FockBasis(L={self.L}, N={self.N}, n_max={self.n_max}, dim={self.dim})"


def build_basis(L: int, N: int, n_max: int) -> FockBasis:
    """Enumerate the sector lexicographically, one site at a time.

    Rejects empty sectors (N > L*n_max) and codes overflowing int64.
    """
    if L < 1:
        raise ValueError(f"need at least one site, got L={L}")
    if N < 0:
        raise ValueError(f"negative particle number N={N}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if N > L * n_max:
        raise ValueError(f"empty sector: N={N} > L*n_max={L * n_max}")
    if (n_max + 1) ** L >= 2 ** 63:
        raise ValueError(f"sector codes overflow int64 at L={L}, n_max={n_max}")
    table = np.zeros((1, 0), dtype=np.int64)
    for site in range(L):
        # each prefix extends by every occupation that leaves a feasible
        # remainder for the other sites, in ascending order
        left = N - table.sum(axis=1)
        lo = np.maximum(0, left - (L - 1 - site) * n_max)
        count = np.minimum(n_max, left) - lo + 1
        parent = np.repeat(np.arange(len(table)), count)
        n = lo[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
        table = np.column_stack([table[parent], n])
    return FockBasis(L, N, n_max, table)


def fock_state(basis: FockBasis, occupation) -> np.ndarray:
    """Basis state |n_1 ... n_L>, real amplitudes."""
    psi = np.zeros(basis.dim)
    psi[basis.find(tuple(occupation))] = 1.0
    return psi


def _hop_operator(basis, terms) -> sp.csr_matrix:
    """sum of sign * a†_p a_q over terms (p, q, sign), 0-based sites, hard
    n_max cutoff.  Each term contributes its columns in ascending order,
    terms in the given order, so duplicate entries always sum alike."""
    occ, rows, cols, vals = basis.table, [], [], []
    for p, q, sign in terms:
        nq = occ[:, q]
        # truncation: a hop drops elements raising site p above n_max
        col = np.flatnonzero((nq > 0) & ((p == q) | (occ[:, p] < basis.n_max)))
        shift = basis.weights[p] - basis.weights[q]
        rows.append(np.searchsorted(basis.codes, basis.codes[col] + shift))
        cols.append(col)
        amp = nq[col] if p == q else np.sqrt(nq[col]) * np.sqrt(occ[col, p] + 1)
        vals.append(sign * amp)   # sign is +-1: exact in any order
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(basis.dim, basis.dim)).tocsr()   # sums duplicates


def build_hopping(basis: FockBasis, i: int, j: int) -> sp.csr_matrix:
    """a†_i a_j with 1-based site indices."""
    for s in (i, j):
        if not 1 <= s <= basis.L:
            raise ValueError(f"site index {s} out of range [1, {basis.L}]")
    return _hop_operator(basis, [(i - 1, j - 1, 1.0)])


def build_number(basis: FockBasis, j: int) -> sp.csr_matrix:
    """Number operator n_j, 1-based."""
    return build_hopping(basis, j, j)


def build_jump(kind: JumpKind, j: int, basis: FockBasis) -> sp.csr_matrix:
    """Jump operator for one monitoring channel at site/bond j (1-based).

    PHASE_LOCK: d_j = (a†_j + a†_{j+1})(a_j - a_{j+1}), defined on bonds
    j in [1, L-1].  DEPHASE: c_j = a†_j a_j on sites j in [1, L].
    """
    if kind is JumpKind.DEPHASE:
        if not 1 <= j <= basis.L:
            raise ValueError(f"dephase site {j} out of range [1, {basis.L}]")
        return build_number(basis, j)
    if kind is JumpKind.PHASE_LOCK:
        if not 1 <= j <= basis.L - 1:
            raise ValueError(f"phase-lock bond {j} out of range [1, {basis.L - 1}]")
        return _hop_operator(basis, [(p, q, sign) for p in (j - 1, j)
                                     for q, sign in ((j - 1, 1.0), (j, -1.0))])
    raise TypeError(f"unknown jump kind {kind!r}")


def unit_jumps(basis: FockBasis, kind: JumpKind) -> sp.csr_matrix:
    """Every unit-rate jump operator of one kind, stacked as one block of
    rows per bond or site in ascending order; built once per basis."""
    if kind not in basis._jump_cache:
        count = basis.L - 1 if kind is JumpKind.PHASE_LOCK else basis.L
        blocks = [build_jump(kind, j, basis) for j in range(1, count + 1)]
        basis._jump_cache[kind] = sp.vstack(blocks or [sp.csr_matrix((0, basis.dim))],
                                            format="csr")
    return basis._jump_cache[kind]


def phaselock_gram(basis: FockBasis) -> sp.csr_matrix:
    """K = sum_j d_j† d_j over the phase-lock bonds, from their cached
    unit-rate stack; built once per basis."""
    if "gram" not in basis._jump_cache:
        stack = unit_jumps(basis, JumpKind.PHASE_LOCK)
        basis._jump_cache["gram"] = sp.csr_matrix(stack.T @ stack)
    return basis._jump_cache["gram"]


def build_bec_dark_state(basis: FockBasis) -> np.ndarray:
    """Uniform condensate (1/sqrt(L) sum_j a†_j)^N |0> inside the sector.

    Exact (annihilated by every phase-lock jump) when n_max >= N; with a
    tighter cap the missing high-occupation components make it only
    approximate, which we flag with a warning.
    """
    if basis.n_max < basis.N:
        warnings.warn("n_max < N: condensate state is truncated, only "
                      "approximately dark", stacklevel=2)
    # multinomial weight N!/prod(n_j!) times sqrt(prod(n_j!)) from (a†)^n|0>
    log_fact = np.array([math.lgamma(n + 1) for n in range(basis.n_max + 1)])
    log_amp = math.lgamma(basis.N + 1) - 0.5 * log_fact[basis.table].sum(axis=1)
    psi = np.exp(log_amp)
    return psi / np.linalg.norm(psi)
