"""Fock couplings and thermal distributions against arbitrary-precision oracles."""

import math

import numpy as np
import pytest
from reference import fock_coupling, mean_n, mpmath_coupling
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from drsc.motional import (
    PhononDistribution,
    TrapParams,
    default_n_max,
    sideband_coupling_ratios,
    thermal_distribution,
    thermal_state,
)

ETA = 0.07

# |<n'| e^{i eta (a + a^dag)} |n>| at eta = 0.07, mpmath with 40 digits,
# frozen to 22 significant digits
MPMATH_COUPLINGS = {
    (0, 0): 0.9975529988004796811496,
    (1, 0): 0.06982870991603358432551,
    (5, 4): 0.1546152989825876554665,
    (20, 19): 0.2979589014458757174039,
    (100, 99): 0.5419483066233191676755,
    (300, 299): 0.5147528774832490301323,
    (50, 43): 1.12641302943474403308e-6,
    (200, 195): 0.006559719316541247184186,
    (10, 17): 1.603920279308758978628e-8,
    (300, 284): 7.813100285533876985098e-13,
    (737, 736): 0.01254373912990416361711,
    (738, 737): 0.01149789293475690999848,
}


class TestFockCoupling:
    @pytest.mark.parametrize("pair,ref", sorted(MPMATH_COUPLINGS.items()))
    def test_frozen_oracle(self, pair, ref):
        n, n_prime = pair
        # cancellation approaching the coupling zero near n = 749 costs a
        # digit, so the two largest-n entries get one order of slack
        rel = 1e-10 if max(pair) <= 300 else 1e-9
        assert fock_coupling(n, n_prime, ETA) == pytest.approx(abs(ref), rel=rel)

    def test_live_oracle_first_sideband(self):
        for n in [1, 2, 3, 7, 25, 60, 120, 200, 300]:
            ref = mpmath_coupling(n, n - 1, ETA)
            assert fock_coupling(n, n - 1, ETA) == pytest.approx(ref, rel=1e-10)

    def test_live_oracle_large_eta(self):
        # includes sign changes past the first Laguerre zero
        for n in [10, 50, 100, 163, 164, 250]:
            ref = mpmath_coupling(n, n - 1, 0.15)
            assert fock_coupling(n, n - 1, 0.15) == pytest.approx(
                ref, rel=1e-9, abs=1e-14
            )

    @given(
        n=st.integers(min_value=0, max_value=200),
        n_prime=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_indices(self, n, n_prime):
        assert fock_coupling(n, n_prime, ETA) == fock_coupling(n_prime, n, ETA)

    def test_stable_at_extreme_n(self):
        v = fock_coupling(10_000, 9_999, 0.3)
        assert math.isfinite(v)
        assert abs(v) <= 1.0

    def test_carrier_at_zero(self):
        assert fock_coupling(0, 0, ETA) == pytest.approx(math.exp(-(ETA**2) / 2))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fock_coupling(-1, 0, ETA)
        with pytest.raises(ValueError):
            fock_coupling(0, 0, 0.0)


class TestSidebandRatios:
    def test_matches_fock_coupling(self):
        r = sideband_coupling_ratios(600, ETA)
        scale = ETA * math.exp(-(ETA**2) / 2)
        for n in [1, 2, 5, 40, 123, 400, 600]:
            assert r[n] == pytest.approx(fock_coupling(n, n - 1, ETA) / scale, rel=1e-10)

    def test_ground_state_entry_is_zero(self):
        assert sideband_coupling_ratios(5, ETA)[0] == 0.0

    def test_sign_change_location(self):
        # first zero of the n -> n-1 coupling sits near eta sqrt(n) = 1.916,
        # the first zero of J_1(2 eta sqrt(n))
        r = sideband_coupling_ratios(900, ETA)
        flips = np.nonzero(np.diff(np.sign(r[1:])))[0]
        n_flip = int(flips[0]) + 1
        assert abs(ETA * math.sqrt(n_flip) - 1.9159) < 0.05

    def test_first_entry_is_unit(self):
        assert sideband_coupling_ratios(3, ETA)[1] == pytest.approx(1.0)


class TestBesselApproximation:
    def test_red_sideband_close_to_exact(self):
        # |J_1(2 eta sqrt(n))| approximates the coupling magnitude
        for n in [5, 50, 200, 500]:
            exact = fock_coupling(n, n - 1, ETA)
            approx = abs(jv(1, 2.0 * ETA * math.sqrt(n)))
            assert abs(exact - approx) < 0.02


class TestThermalDistributions:
    def test_nbar_one_values(self):
        d = thermal_distribution(1.0, 10)
        np.testing.assert_allclose(d.probs[:3], [0.5, 0.25, 0.125], rtol=1e-14)

    def test_tail_loss_closed_form(self):
        nbar, n_max = 6.08, 80
        d = thermal_distribution(nbar, n_max)
        r = nbar / (nbar + 1.0)
        assert d.tail_loss == pytest.approx(r ** (n_max + 1), rel=1e-9)

    def test_mean_recovers_nbar(self):
        d = thermal_distribution(6.08, 2000)
        assert mean_n(d) == pytest.approx(6.08, rel=1e-9)

    def test_zero_temperature(self):
        d = thermal_distribution(0.0, 5)
        assert d.probs[0] == 1.0
        assert mean_n(d) == 0.0

    def test_thermal_state_coverage(self):
        d = thermal_state(15.87, coverage=0.9999)
        assert d.probs.sum() >= 0.9999

    @given(nbar=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_default_n_max_keeps_coverage(self, nbar):
        n_max = default_n_max(nbar, 0.9999)
        r = nbar / (nbar + 1.0)
        assert 1.0 - r ** (n_max + 1) >= 0.9999

    def test_default_n_max_floors(self):
        assert default_n_max(0.1) == 50
        assert default_n_max(15.0) >= 150

    def test_validation(self):
        with pytest.raises(ValueError):
            PhononDistribution(probs=np.array([0.5, 0.7]), n_max=1)
        with pytest.raises(ValueError):
            PhononDistribution(probs=np.array([0.5]), n_max=1)
        with pytest.raises(ValueError):
            thermal_distribution(-1.0, 10)


class TestTrapParams:
    def test_eta_required_positive(self):
        with pytest.raises(ValueError):
            TrapParams(eta=0.0)
