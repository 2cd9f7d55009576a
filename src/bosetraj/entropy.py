"""Subsystem reduced density matrices and trajectory entropies.

The partial trace exploits the fixed-N sector: amplitudes are grouped
into (left occupation, right occupation) blocks of equal left particle
number, so rho_A comes out block diagonal without ever reshaping a full
L-site tensor.  States are amplitude arrays over a FockBasis passed
alongside; the blocks keep the amplitudes' dtype.  Averages are taken
over entropies, never over density matrices -- the entropy is nonlinear
in the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, NumericGuardError

EIG_TOL = -1e-10
SPECTRA_CHUNK = 256   # states whose Schmidt blocks are held at once


@dataclass
class ReducedDM:
    left_states: tuple       # kept sites' occupations in the sector, sorted
    matrix: np.ndarray       # dense Hermitian, trace 1


def _cut_blocks(basis: FockBasis, l: int):
    """The bipartition at l as (left, blocks): the rows of `left` are the
    sector's distinct occupations of sites 1..l, lexicographic, and each
    block of equal left particle number is (n_left, n_right, left index,
    right index, state index, row of `left` of each local left index)."""
    if l in basis._cut_cache:
        return basis._cut_cache[l]
    if not 1 <= l <= basis.L - 1:
        raise ValueError(f"cut {l} out of range [1, {basis.L - 1}]")
    prefix, suffix = np.divmod(basis.codes, basis.weights[l - 1])
    _, first, left_glob = np.unique(prefix, return_index=True, return_inverse=True)
    left_number = basis.table[:, :l].sum(axis=1)
    blocks = []
    for s in np.unique(left_number):
        k = np.flatnonzero(left_number == s)
        glob, li = np.unique(left_glob[k], return_inverse=True)
        right, ri = np.unique(suffix[k], return_inverse=True)
        blocks.append((len(glob), len(right), li, ri, k, glob))
    result = (basis.table[first, :l], blocks)
    basis._cut_cache[l] = result
    return result


def reduce_state(psi: np.ndarray, l: int, basis: FockBasis) -> ReducedDM:
    """Partial trace of a normalized pure state over `basis` at the cut
    after site l, keeping sites 1..l."""
    left, blocks = _cut_blocks(basis, l)
    rho = np.zeros((len(left), len(left)), dtype=psi.dtype)
    for nl, nr, li, ri, k, glob in blocks:
        B = np.zeros((nl, nr), dtype=psi.dtype)
        B[li, ri] = psi[k]
        rho[np.ix_(glob, glob)] = B @ B.conj().T
    return ReducedDM(left_states=tuple(map(tuple, left.tolist())), matrix=rho)


def schmidt_spectrum(psi: np.ndarray, l: int, basis: FockBasis) -> np.ndarray:
    """Eigenvalues of the reduced density matrix at cut l (squared Schmidt
    coefficients), without materializing rho_A.

    psi is one amplitude vector over `basis`, giving one spectrum, or an
    (M, dim) stack, giving an (M, k) array with one row per state.  Each
    block B is filled in the amplitudes' own dtype, and the smaller Gram
    matrix (B B† or B† B) is diagonalised.
    """
    states, vals = np.atleast_2d(psi), []
    for nl, nr, li, ri, k, _ in _cut_blocks(basis, l)[1]:
        B = np.zeros((len(states), nl, nr), dtype=states.dtype)
        B[:, li, ri] = states[:, k]
        Bh = B.conj().transpose(0, 2, 1)
        vals.append(np.linalg.eigvalsh(B @ Bh if nl <= nr else Bh @ B))
    out = np.concatenate(vals, axis=1)
    return out if psi.ndim > 1 else out[0]


def _clean_spectrum(rho) -> np.ndarray:
    """Eigenvalues of a ReducedDM or an eigenvalue array, clipped to [0, 1]
    once the EIG_TOL guard has passed."""
    if isinstance(rho, ReducedDM):
        rho = np.linalg.eigvalsh(rho.matrix)
    p = np.asarray(rho, dtype=float)
    if p.min() < EIG_TOL:
        raise NumericGuardError(f"reduced density matrix has eigenvalue "
                                f"{p.min():.3g} below {EIG_TOL}: upstream "
                                f"state is corrupted")
    return np.clip(p, 0.0, 1.0)


def _entropies(p: np.ndarray, alpha: float = None) -> np.ndarray:
    """Entropy of each cleaned spectrum along the last axis: Von Neumann
    for alpha None, else Renyi of order alpha."""
    if alpha is None:
        return -(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)
    return np.log((p ** alpha).sum(axis=-1)) / (1.0 - alpha)


def von_neumann(rho) -> float:
    """-sum p log p (natural log) of a ReducedDM or eigenvalue array."""
    return float(_entropies(_clean_spectrum(rho)))


def _order(kind: str, alpha: float = None):
    """The Renyi order of an entropy kind; None for Von Neumann."""
    if kind not in ("vn", "renyi"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    if kind == "renyi" and not (alpha is not None and math.isfinite(alpha)
                                and alpha > 0 and alpha != 1):
        raise ValueError(f"Renyi order must be finite, positive and not 1, got {alpha!r}")
    return alpha if kind == "renyi" else None


def renyi(rho, alpha: float) -> float:
    """Order-alpha Renyi entropy, alpha > 0 and != 1."""
    return float(_entropies(_clean_spectrum(rho), _order("renyi", alpha)))


def state_entropy(psi: np.ndarray, l: int, basis: FockBasis, kind: str = "vn",
                  alpha: float = None) -> float:
    """Entropy of one amplitude vector over `basis` at cut l."""
    return float(_entropies(_clean_spectrum(schmidt_spectrum(psi, l, basis)),
                            _order(kind, alpha)))


@dataclass
class EntropyProfile:
    gamma: float            # reduced dephasing rate Gamma/Lambda
    L: int
    t: float
    kind: str               # "vn" or "renyi"
    alpha: float            # None for Von Neumann
    ls: np.ndarray          # cuts 1..L-1
    mean: np.ndarray
    stderr: np.ndarray
    M: int


def average_profiles(states: np.ndarray, basis: FockBasis, gamma: float,
                     t: float, kinds=(("vn", None),)) -> list:
    """One EntropyProfile per (kind, alpha) of `kinds`: the sample mean and
    standard error of S(l) over an (M, dim) state stack.  Each state's
    spectra are computed once, in chunks of rows to bound memory."""
    orders = [_order(kind, alpha) for kind, alpha in kinds]
    M, ls = states.shape[0], np.arange(1, basis.L)
    S = np.empty((len(kinds), M, len(ls)))
    for i, l in enumerate(ls):
        for c in range(0, M, SPECTRA_CHUNK):
            rows = slice(c, c + SPECTRA_CHUNK)
            p = _clean_spectrum(schmidt_spectrum(states[rows], int(l), basis))
            for j, order in enumerate(orders):
                S[j, rows, i] = _entropies(p, order)
    stderr = S.std(axis=1, ddof=1) / math.sqrt(M) if M > 1 else np.zeros_like(S[:, 0])
    return [EntropyProfile(gamma=gamma, L=basis.L, t=t, kind=kind, alpha=alpha,
                           ls=ls, mean=S[j].mean(axis=0), stderr=stderr[j], M=M)
            for j, (kind, alpha) in enumerate(kinds)]


def average_profile(states: np.ndarray, basis: FockBasis, gamma: float,
                    t: float, kind: str = "vn", alpha: float = None) -> EntropyProfile:
    """Sample mean and standard error of S(l) over an (M, dim) state stack."""
    return average_profiles(states, basis, gamma, t, [(kind, alpha)])[0]
