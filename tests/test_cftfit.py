"""Tests for the conformal profile fit.

Round-trips synthetic profiles built from known (c, s0) pairs through
the weighted least-squares fit, and checks the Renyi-order inversion.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosetraj import (
    CftFit,
    EntropyProfile,
    central_charge_from_renyi,
    chord_regressor,
    fit_profile,
)
from bosetraj.cftfit import fit_window


def synthetic_profile(L, c, s0, stderr=0.0, noise_seed=None):
    ls = np.arange(1, L)
    mean = (c / 6.0) * chord_regressor(L, ls) + s0
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        mean = mean + rng.normal(scale=stderr, size=len(ls))
    err = np.full(len(ls), stderr)
    return EntropyProfile(gamma=0.0, L=L, t=0.0, kind="vn", alpha=None,
                          ls=ls, mean=mean, stderr=err, M=100)


class TestChordRegressor:
    def test_symmetry_and_maximum_at_half_chain(self):
        L = 12
        x = chord_regressor(L, np.arange(1, L))
        np.testing.assert_allclose(x, x[::-1], atol=1e-12)
        assert np.argmax(x) == L // 2 - 1

    def test_half_chain_value(self):
        # sin(pi/2) = 1, so the regressor is log(2L/pi) at l = L/2
        assert chord_regressor(8, 4) == pytest.approx(np.log(16 / np.pi))


class TestFitRoundTrip:
    @pytest.mark.parametrize("c,s0", [(0.0, 0.7), (1.0, 0.3), (1.5, 0.3)])
    def test_exact_profile_recovered(self, c, s0):
        prof = synthetic_profile(L=10, c=c, s0=s0)
        fit = fit_profile(prof)
        assert fit.c == pytest.approx(c, abs=1e-10)
        assert fit.s0 == pytest.approx(s0, abs=1e-10)
        assert fit.residual_rms < 1e-12

    def test_noisy_profile_within_errorbars(self):
        c, s0 = 1.0, 0.4
        prof = synthetic_profile(L=16, c=c, s0=s0, stderr=0.01, noise_seed=1)
        fit = fit_profile(prof)
        assert abs(fit.c - c) < 4 * fit.c_stderr
        assert abs(fit.s0 - s0) < 4 * fit.s0_stderr

    def test_weighting_downweights_noisy_cuts(self):
        # corrupt one cut but give it a huge stated error: the weighted
        # fit must ignore it, the unweighted fit (which a zero standard
        # error selects) must not.
        c, s0 = 1.0, 0.2
        prof = synthetic_profile(L=12, c=c, s0=s0, stderr=0.001)
        prof.mean[4] += 1.0
        prof.stderr[4] = 10.0
        weighted = fit_profile(prof)
        unweighted = fit_profile(replace(prof, stderr=np.zeros_like(prof.stderr)))
        assert abs(weighted.c - c) < 1e-2
        assert abs(unweighted.c - c) > 0.1

    def test_default_window_drops_boundary_cuts(self):
        prof = synthetic_profile(L=10, c=1.0, s0=0.0)
        fit = fit_profile(prof)
        assert (fit.l_min, fit.l_max) == (2, 8)
        prof4 = synthetic_profile(L=4, c=1.0, s0=0.0)
        fit4 = fit_profile(prof4)
        assert (fit4.l_min, fit4.l_max) == (1, 3)

    def test_window_too_small_rejected(self):
        prof = synthetic_profile(L=10, c=1.0, s0=0.0)
        with pytest.raises(ValueError):
            fit_profile(prof, l_min=4, l_max=4)

    def test_window_outside_the_cuts_rejected(self):
        assert fit_window(10) == (2, 8)
        assert fit_window(6, l_min=0, l_max=9) == (0, 9)   # holds cuts 1..5
        for l_min, l_max in [(5, None), (6, 9), (-3, 1)]:
            with pytest.raises(ValueError):
                fit_window(6, l_min, l_max)

    def test_degenerate_regressor_rejected(self):
        # l and L-l give identical chord lengths; a two-point window at
        # mirror cuts has zero regressor spread.
        prof = synthetic_profile(L=10, c=1.0, s0=0.0)
        sel = np.isin(prof.ls, (3, 7))
        trimmed = EntropyProfile(gamma=0.0, L=10, t=0.0, kind="vn", alpha=None,
                                 ls=prof.ls[sel], mean=prof.mean[sel],
                                 stderr=prof.stderr[sel], M=100)
        with pytest.raises(ValueError):
            fit_profile(trimmed, l_min=3, l_max=7)

    @given(c=st.floats(min_value=0.0, max_value=4.0),
           s0=st.floats(min_value=-1.0, max_value=2.0),
           L=st.integers(min_value=6, max_value=24))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, c, s0, L):
        prof = synthetic_profile(L=L, c=c, s0=s0)
        fit = fit_profile(prof)
        assert fit.c == pytest.approx(c, abs=1e-8)
        assert fit.s0 == pytest.approx(s0, abs=1e-8)


class TestRenyiInversion:
    def test_exact_inversion(self):
        # c_alpha = (c/2)(1 + 1/alpha) with c = 1 gives 1.0 at alpha=1
        # (formal), 0.75 at alpha=2, 2/3 at alpha=3.
        pairs = [(2.0, 0.75), (3.0, 2.0 / 3.0), (0.5, 1.5)]
        estimates, spread = central_charge_from_renyi(pairs)
        for _, c_est in estimates:
            assert c_est == pytest.approx(1.0, abs=1e-12)
        assert spread == pytest.approx(0.0, abs=1e-12)

    def test_spread_detects_inconsistency(self):
        pairs = [(2.0, 0.75), (3.0, 0.75)]
        _, spread = central_charge_from_renyi(pairs)
        assert spread == pytest.approx(2 * 0.75 / (4 / 3) - 1.0, abs=1e-12)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            central_charge_from_renyi([(0.0, 1.0)])

    def test_empty_input(self):
        estimates, spread = central_charge_from_renyi([])
        assert estimates == [] and spread == 0.0
