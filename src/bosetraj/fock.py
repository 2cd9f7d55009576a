"""Number-conserving bosonic Fock sector with sparse operators.

Both monitoring channels conserve total particle number, so the whole
simulation lives inside a single (L, N) sector with a hard per-site
occupation cap n_max.  States are ordered lexicographically so that
indices (and every downstream output file) are reproducible.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum

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

    states[i] is a length-L tuple with sum N and entries in [0, n_max];
    index is the exact inverse map.
    """

    def __init__(self, L: int, N: int, n_max: int, states: tuple):
        self.L = L
        self.N = N
        self.n_max = n_max
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self._cut_cache: dict = {}  # partial-trace bookkeeping, filled lazily

    @property
    def dim(self) -> int:
        return len(self.states)

    def __repr__(self):
        return f"FockBasis(L={self.L}, N={self.N}, n_max={self.n_max}, dim={self.dim})"


def build_basis(L: int, N: int, n_max: int) -> FockBasis:
    """Enumerate the sector lexicographically.

    Rejects empty sectors (N > L*n_max).
    """
    if L < 1:
        raise ValueError(f"need at least one site, got L={L}")
    if N < 0:
        raise ValueError(f"negative particle number N={N}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if N > L * n_max:
        raise ValueError(f"empty sector: N={N} > L*n_max={L * n_max}")

    states = []

    def fill(prefix, remaining, sites_left):
        if sites_left == 0:
            if remaining == 0:
                states.append(tuple(prefix))
            return
        # occupation must leave a feasible remainder for the other sites
        lo = max(0, remaining - (sites_left - 1) * n_max)
        hi = min(n_max, remaining)
        for n in range(lo, hi + 1):
            fill(prefix + [n], remaining - n, sites_left - 1)

    fill([], N, L)
    return FockBasis(L, N, n_max, tuple(states))


class StateVector:
    """Complex amplitudes over a FockBasis."""

    def __init__(self, basis: FockBasis, amplitudes: np.ndarray):
        if len(amplitudes) != basis.dim:
            raise ValueError("amplitude length does not match basis dimension")
        self.basis = basis
        self.amplitudes = np.asarray(amplitudes, dtype=np.complex128)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize zero state")
        self.amplitudes /= n
        return self


def fock_state(basis: FockBasis, occupation) -> StateVector:
    """Basis state |n_1 ... n_L>."""
    occupation = tuple(occupation)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index[occupation]] = 1.0
    return StateVector(basis, amps)


class SparseOperator:
    """Sparse matrix acting within one Fock sector."""

    def __init__(self, basis: FockBasis, matrix: sp.spmatrix):
        self.basis = basis
        self.matrix = sp.csr_matrix(matrix, dtype=np.complex128)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _entries_to_operator(basis, entries):
    if not entries:
        mat = sp.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
        return SparseOperator(basis, mat)
    rows, cols, vals = zip(*entries)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim),
                        dtype=np.complex128).tocsr()
    mat.sum_duplicates()
    return SparseOperator(basis, mat)


def _hop_entries(basis, p, q, sign=1.0):
    """Matrix entries of sign * a†_p a_q (0-based sites), hard n_max cutoff."""
    entries = []
    n_max = basis.n_max
    for col, occ in enumerate(basis.states):
        nq = occ[q]
        if nq == 0:
            continue
        if p == q:
            entries.append((col, col, sign * nq))
            continue
        if occ[p] + 1 > n_max:
            continue  # truncation: drop elements raising a site above n_max
        new = list(occ)
        new[q] -= 1
        new[p] += 1
        amp = sign * math.sqrt(nq) * math.sqrt(new[p])
        entries.append((basis.index[tuple(new)], col, amp))
    return entries


def build_hopping(basis: FockBasis, i: int, j: int) -> SparseOperator:
    """a†_i a_j with 1-based site indices."""
    for s in (i, j):
        if not 1 <= s <= basis.L:
            raise ValueError(f"site index {s} out of range [1, {basis.L}]")
    return _entries_to_operator(basis, _hop_entries(basis, i - 1, j - 1))


def build_number(basis: FockBasis, j: int) -> SparseOperator:
    """Number operator n_j, 1-based."""
    return build_hopping(basis, j, j)


def build_jump(kind: JumpKind, j: int, basis: FockBasis) -> SparseOperator:
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
        p0 = j - 1
        entries = []
        for p in (p0, p0 + 1):
            for q, sign in ((p0, 1.0), (p0 + 1, -1.0)):
                entries.extend(_hop_entries(basis, p, q, sign))
        return _entries_to_operator(basis, entries)
    raise TypeError(f"unknown jump kind {kind!r}")


def apply(op: SparseOperator, psi: StateVector) -> StateVector:
    """Unnormalized matrix-vector product; the input is untouched."""
    if op.basis is not psi.basis and op.basis.states != psi.basis.states:
        raise ValueError("operator and state live in different bases")
    return StateVector(psi.basis, op.matrix.dot(psi.amplitudes))


def expectation(op: SparseOperator, psi: StateVector) -> complex:
    """<psi|A|psi> for a normalized state."""
    if op.basis is not psi.basis and op.basis.states != psi.basis.states:
        raise ValueError("operator and state live in different bases")
    return complex(np.vdot(psi.amplitudes, op.matrix.dot(psi.amplitudes)))


def build_bec_dark_state(basis: FockBasis) -> StateVector:
    """Uniform condensate (1/sqrt(L) sum_j a†_j)^N |0> inside the sector.

    Exact (annihilated by every phase-lock jump) when n_max >= N; with a
    tighter cap the missing high-occupation components make it only
    approximate, which we flag with a warning.
    """
    if basis.n_max < basis.N:
        warnings.warn("n_max < N: condensate state is truncated, only "
                      "approximately dark", stacklevel=2)
    amps = np.empty(basis.dim, dtype=np.complex128)
    logN = math.lgamma(basis.N + 1)
    for i, occ in enumerate(basis.states):
        # multinomial weight N!/prod(n_j!) times sqrt(prod(n_j!)) from (a†)^n|0>
        log_amp = logN - 0.5 * sum(math.lgamma(n + 1) for n in occ)
        amps[i] = math.exp(log_amp)
    return StateVector(basis, amps).normalize()
