"""Subsystem reduced density matrices and trajectory entropies.

The partial trace exploits the fixed-N sector: amplitudes are grouped
into (left occupation, right occupation) blocks of equal left particle
number, so rho_A comes out block diagonal without ever reshaping a full
L-site tensor.  Averages are taken over entropies, never over density
matrices -- the entropy is nonlinear in the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, NumericGuardError, StateVector

EIG_TOL = -1e-10


@dataclass
class ReducedDM:
    left_states: tuple       # occupations of the kept sites, lexicographic
    matrix: np.ndarray       # dense Hermitian, trace 1


def _left_occupations(n_sites, n_max, max_total):
    out = []

    def fill(prefix, total):
        if len(prefix) == n_sites:
            out.append(tuple(prefix))
            return
        for n in range(0, min(n_max, max_total - total) + 1):
            fill(prefix + [n], total + n)

    fill([], 0)
    return tuple(out)


def _cut_blocks(basis: FockBasis, l: int):
    """Per-left-particle-number index maps for the bipartition at l."""
    if l in basis._cut_cache:
        return basis._cut_cache[l]
    if not 1 <= l <= basis.L - 1:
        raise ValueError(f"cut {l} out of range [1, {basis.L - 1}]")
    left_states = _left_occupations(l, basis.n_max, min(basis.N, l * basis.n_max))
    left_index = {s: i for i, s in enumerate(left_states)}
    blocks = {}  # left total -> (left global indices, right index map, entry list)
    for k, occ in enumerate(basis.states):
        left, right = occ[:l], occ[l:]
        s = sum(left)
        if s not in blocks:
            blocks[s] = ({}, {}, [])
        lmap, rmap, entries = blocks[s]
        li = lmap.setdefault(left, len(lmap))
        ri = rmap.setdefault(right, len(rmap))
        entries.append((li, ri, k))
    compiled = []
    for s, (lmap, rmap, entries) in sorted(blocks.items()):
        li, ri, k = (np.array(x) for x in zip(*entries))
        glob = np.array([left_index[occ] for occ in lmap])  # local -> global
        compiled.append((len(lmap), len(rmap), li, ri, k, glob))
    result = (left_states, compiled)
    basis._cut_cache[l] = result
    return result


def _block_matrices(psi: StateVector, l: int):
    left_states, compiled = _cut_blocks(psi.basis, l)
    for nl, nr, li, ri, k, glob in compiled:
        B = np.zeros((nl, nr), dtype=np.complex128)
        B[li, ri] = psi.amplitudes[k]
        yield B, glob


def reduce_state(psi: StateVector, l: int) -> ReducedDM:
    """Partial trace of a normalized pure state at the cut after site l,
    keeping sites 1..l."""
    left_states, _ = _cut_blocks(psi.basis, l)
    rho = np.zeros((len(left_states), len(left_states)), dtype=np.complex128)
    for B, glob in _block_matrices(psi, l):
        rho[np.ix_(glob, glob)] = B @ B.conj().T
    return ReducedDM(left_states=left_states, matrix=rho)


def schmidt_spectrum(psi: StateVector, l: int) -> np.ndarray:
    """Eigenvalues of the reduced density matrix (squared Schmidt
    coefficients), without materializing rho_A."""
    vals = []
    for B, _ in _block_matrices(psi, l):
        vals.append(np.linalg.svd(B, compute_uv=False) ** 2)
    return np.concatenate(vals)


def _clean_spectrum(p: np.ndarray) -> np.ndarray:
    if p.min() < EIG_TOL:
        raise NumericGuardError(f"reduced density matrix has eigenvalue "
                                f"{p.min():.3g} below {EIG_TOL}: upstream "
                                f"state is corrupted")
    return np.clip(p, 0.0, 1.0)


def _spectrum(rho) -> np.ndarray:
    if isinstance(rho, ReducedDM):
        return np.linalg.eigvalsh(rho.matrix)
    return np.asarray(rho, dtype=float)


def von_neumann(rho) -> float:
    """-sum p log p (natural log) of a ReducedDM or eigenvalue array."""
    p = _clean_spectrum(_spectrum(rho))
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def renyi(rho, alpha: float) -> float:
    """Order-alpha Renyi entropy, alpha > 0 and != 1."""
    if alpha <= 0:
        raise ValueError("Renyi order must be positive")
    if alpha == 1:
        raise ValueError("alpha = 1 is the Von Neumann entropy")
    p = _clean_spectrum(_spectrum(rho))
    p = p[p > 0.0]
    return float(np.log((p ** alpha).sum()) / (1.0 - alpha))


def state_entropy(psi: StateVector, l: int, kind: str = "vn",
                  alpha: float = None) -> float:
    spec = schmidt_spectrum(psi, l)
    if kind == "vn":
        return von_neumann(spec)
    if kind == "renyi":
        return renyi(spec, alpha)
    raise ValueError(f"unknown entropy kind {kind!r}")


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


def average_profile(states: np.ndarray, basis: FockBasis, gamma: float,
                    t: float, kind: str = "vn", alpha: float = None) -> EntropyProfile:
    """Sample mean and standard error of S(l) over an (M, dim) state stack."""
    M = states.shape[0]
    ls = np.arange(1, basis.L)
    S = np.empty((M, len(ls)))
    for m in range(M):
        psi = StateVector(basis, states[m])
        for i, l in enumerate(ls):
            S[m, i] = state_entropy(psi, int(l), kind=kind, alpha=alpha)
    mean = S.mean(axis=0)
    stderr = (S.std(axis=0, ddof=1) / math.sqrt(M)) if M > 1 else np.zeros(len(ls))
    return EntropyProfile(gamma=gamma, L=basis.L, t=t, kind=kind, alpha=alpha,
                          ls=ls, mean=mean, stderr=stderr, M=M)
