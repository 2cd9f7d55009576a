"""Conformal entropy-profile fits and the Renyi central-charge relation.

The profile model S(l) = (c/6) log[(2L/pi) sin(pi l/L)] + s0 is linear
in (c, s0), so the weighted least-squares solution is closed form; no
nonlinear optimizer appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropyProfile


@dataclass
class CftFit:
    c: float
    s0: float
    c_stderr: float
    s0_stderr: float
    residual_rms: float
    l_min: int
    l_max: int


def chord_regressor(L: int, l) -> np.ndarray:
    """log[(2L/pi) sin(pi l / L)], the open-boundary chord length."""
    l = np.asarray(l, dtype=float)
    return np.log((2.0 * L / np.pi) * np.sin(np.pi * l / L))


def fit_window(L: int, l_min: int = None, l_max: int = None, ls=None) -> tuple:
    """The cuts [l_min, l_max] a fit of an L-site profile uses.  The
    default drops l = 1 and l = L-1 (boundary contamination) from L = 6
    on, where cuts of two chord lengths remain; below it keeps every cut.
    Among the profile's cuts `ls` (default 1..L-1) the window must hold
    two with different chord lengths: l and L - l have the same one, so
    mirror pairs alone leave the fit degenerate."""
    if l_min is None:
        l_min = 2 if L >= 6 else 1
    if l_max is None:
        l_max = L - 2 if L >= 6 else L - 1
    ls = np.arange(1, L) if ls is None else np.asarray(ls)
    inside = ls[(ls >= max(l_min, 1)) & (ls <= min(l_max, L - 1))]
    if len(set(np.minimum(inside, L - inside).tolist())) < 2:
        raise ValueError(f"fit window [{l_min}, {l_max}] of an L = {L} profile "
                         f"must hold two cuts of different chord length "
                         f"(l and L - l have the same one)")
    return l_min, l_max


def fit_profile(profile: EntropyProfile, l_min: int = None,
                l_max: int = None) -> CftFit:
    """Weighted linear least squares of the profile against the chord
    regressor over the `fit_window`; unweighted, with the noise scale
    taken from the residuals, if any standard error is zero."""
    L = profile.L
    l_min, l_max = fit_window(L, l_min, l_max, profile.ls)
    sel = (profile.ls >= l_min) & (profile.ls <= l_max)
    ls = profile.ls[sel]
    y = profile.mean[sel]
    sig = profile.stderr[sel]
    x = chord_regressor(L, ls)
    known_sigma = bool(np.all(sig > 0))
    w = 1.0 / sig ** 2 if known_sigma else np.ones_like(y)

    X = np.column_stack([x / 6.0, np.ones_like(x)])
    XtW = X.T * w
    cov = np.linalg.inv(XtW @ X)
    theta = cov @ (XtW @ y)
    resid = y - X @ theta
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if not known_sigma:
        dof = max(len(y) - 2, 1)
        cov = cov * float((w * resid ** 2).sum() / dof)
    return CftFit(c=float(theta[0]), s0=float(theta[1]),
                  c_stderr=float(np.sqrt(cov[0, 0])),
                  s0_stderr=float(np.sqrt(cov[1, 1])),
                  residual_rms=rms,
                  l_min=int(l_min), l_max=int(l_max))


def central_charge_from_renyi(c_alpha_pairs):
    """Invert c_alpha = (c/2)(1 + 1/alpha) for each order and report the
    spread as a CFT-consistency statistic.

    Returns (list of (alpha, c estimate), spread = max - min).
    """
    estimates = []
    for alpha, c_alpha in c_alpha_pairs:
        if alpha <= 0:
            raise ValueError("Renyi order must be positive")
        estimates.append((alpha, 2.0 * c_alpha / (1.0 + 1.0 / alpha)))
    cs = [c for _, c in estimates]
    spread = max(cs) - min(cs) if cs else 0.0
    return estimates, spread
