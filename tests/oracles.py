"""Independent reference computations shared by several test modules."""

import numpy as np

from bosetraj.entropy import ReducedDM
from bosetraj.gutzwiller import anticommutator, sandwich


def reduce_right(psi, l, basis):
    """Keep sites l+1..L, tracing out the left block.  Independent code
    path from `reduce_state`: its own loop over `basis.states` into the
    full (left occupation, right occupation) coefficient matrix C, with
    no particle-number blocks, and C† C instead of B B†, so the two sides
    cross-check each other through their shared Schmidt spectrum."""
    if not 1 <= l <= basis.L - 1:
        raise ValueError(f"cut {l} out of range [1, {basis.L - 1}]")
    lefts = {occ: i for i, occ in enumerate(sorted({s[:l] for s in basis.states}))}
    rights = {occ: i for i, occ in enumerate(sorted({s[l:] for s in basis.states}))}
    C = np.zeros((len(lefts), len(rights)), dtype=np.complex128)
    for k, occ in enumerate(basis.states):
        C[lefts[occ[:l]], rights[occ[l:]]] = psi[k]
    return ReducedDM(left_states=tuple(rights), matrix=C.conj().T @ C)


def matrix_dissipator(X, rho):
    """D[X] rho = X rho X† - (X†X rho + rho X†X) / 2, in matrix form."""
    XdX = X.conj().T @ X
    return X @ rho @ X.conj().T - 0.5 * (XdX @ rho + rho @ XdX)


def dissipator(b):
    """D[b] rho = b rho b† - (b†b rho + rho b†b) / 2."""
    bd = b.conj().T
    return sandwich(b, bd) - 0.5 * anticommutator(bd @ b)


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


def unravel_oracle(jumps, psi, t_max, rng, stops=()):
    """Brute-force waiting-time unraveling with dense matrix exponentials.

    jumps: dense jump operators sqrt(rate_k) b_k in channel order.  Uses
    the engine's draw convention (r = 1 - u, then per jump a channel draw
    and the next r), a fresh scipy `expm` for every survival evaluation
    and a bracketing root solve.  Returns (jumps as (time, channel),
    {stop time: normalised state}, final state).
    """
    from scipy.linalg import expm
    from scipy.optimize import brentq

    A = 0.5 * sum(b.conj().T @ b for b in jumps)
    survival = lambda v, x: np.linalg.norm(expm(-A * x) @ v) ** 2
    t, r, events, snaps = 0.0, 1.0 - rng.random(), [], {}
    for t_stop in sorted({*stops, t_max}):
        while True:
            p = survival(psi, t_stop - t)
            if p >= r:
                psi = expm(-A * (t_stop - t)) @ psi / np.sqrt(p)
                r, t = r / p, t_stop
                snaps[t_stop] = psi
                break
            tau = brentq(lambda x: survival(psi, x) - r, 0.0, t_stop - t, xtol=1e-14)
            phi = expm(-A * tau) @ psi
            outs = [b @ phi for b in jumps]
            weights = np.cumsum([np.vdot(o, o).real for o in outs])
            k = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
            psi = outs[k] / np.linalg.norm(outs[k])
            t += tau
            events.append((t, k))
            r = 1.0 - rng.random()
    return events, snaps, psi
