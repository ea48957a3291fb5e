"""Thermal parameter conversions and their consistency invariants."""

import math

import numpy as np
import pytest
from thermo_reference import mean_photon_number

from thermalwigner.thermo import (
    THETA_MAX,
    ThermalParams,
    params_from_mean_photons,
    params_from_temperature,
    params_from_theta,
    theta_from_temperature,
)


class TestThetaFromTemperature:
    def test_frozen_mode_limit(self):
        # omega / (2 kT) huge -> exp underflows -> theta -> 0
        assert theta_from_temperature(1.0, 1e-4) == pytest.approx(0.0, abs=1e-12)

    def test_hand_inverted_value(self):
        # exp(-2 ln2 / 2) = 1/2, so theta = artanh(0.5)
        assert theta_from_temperature(2.0 * math.log(2.0), 1.0) == pytest.approx(
            0.5493061443340548, rel=1e-14
        )

    def test_consistent_with_occupation(self):
        # sinh^2(theta(omega, kT)) must equal the Bose occupation
        theta = theta_from_temperature(1.0, 1.0)
        assert math.sinh(theta) ** 2 == pytest.approx(
            mean_photon_number(1.0, 1.0), rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theta_from_temperature(0.0, 1.0)
        with pytest.raises(ValueError):
            theta_from_temperature(1.0, -2.0)


class TestMeanPhotonNumber:
    def test_frozen_mode_limit(self):
        assert mean_photon_number(1.0, 1e-4) == 0.0

    def test_direct_value(self):
        # 1 / (e - 1)
        assert mean_photon_number(1.0, 1.0) == pytest.approx(
            0.5819767068693265, rel=1e-14
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mean_photon_number(-1.0, 1.0)
        with pytest.raises(ValueError):
            mean_photon_number(1.0, 0.0)


class TestParamsFromTheta:
    def test_zero(self):
        params = params_from_theta(0.0)
        assert params.n_c == 0.0
        assert params.is_zero_temperature

    def test_direct_value(self):
        assert params_from_theta(0.2).n_c == pytest.approx(
            0.04053618591922742, rel=1e-14
        )

    def test_hyperbolic_identity(self):
        params = params_from_theta(1.0)
        assert params.cosh_2theta == pytest.approx(2.0 * params.n_c + 1.0, rel=1e-14)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            params_from_theta(-0.1)
        with pytest.raises(ValueError):
            params_from_theta(float("nan"))
        with pytest.raises(ValueError):
            params_from_theta(THETA_MAX + 0.1)


class TestConsistency:
    def test_round_trip(self):
        for omega in (0.5, 1.0, 2.0):
            for kt in np.geomspace(0.05, 10.0, 25):
                n_direct = mean_photon_number(omega, float(kt))
                n_via_theta = params_from_theta(
                    theta_from_temperature(omega, float(kt))
                ).n_c
                assert abs(n_via_theta - n_direct) <= 1e-10 * (1.0 + n_direct)

    def test_monotone_in_temperature(self):
        kts = np.geomspace(0.05, 10.0, 40)
        for omega in (0.5, 1.0, 2.0):
            thetas = [theta_from_temperature(omega, float(kt)) for kt in kts]
            occupations = [mean_photon_number(omega, float(kt)) for kt in kts]
            assert np.all(np.diff(thetas) > 0)
            assert np.all(np.diff(occupations) > 0)

    def test_params_from_temperature_bundle(self):
        params = params_from_temperature(1.0, 1.0)
        assert params.n_c == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_params_from_mean_photons(self):
        params = params_from_mean_photons(1.0)
        assert params.theta == pytest.approx(math.asinh(1.0), rel=1e-14)

    def test_mean_photons_above_the_range_name_n_c(self):
        n_c_max = math.sinh(THETA_MAX) ** 2
        for n_c in (math.nextafter(n_c_max, math.inf), 1e5, 1e300):
            with pytest.raises(ValueError, match=r"n_c = .* exceeds the validated range") as info:
                params_from_mean_photons(n_c)
            assert "theta" not in str(info.value)
            assert f"{n_c_max:.6g}" in str(info.value)

    def test_mean_photons_up_to_the_range_are_accepted(self):
        n_c_max = math.sinh(THETA_MAX) ** 2
        for n_c in np.linspace(n_c_max - 1.0, n_c_max, 101):
            assert params_from_mean_photons(float(n_c)).theta <= THETA_MAX
        assert params_from_mean_photons(n_c_max).theta == pytest.approx(THETA_MAX, rel=1e-15)


class TestThermalParams:
    def test_n_c_is_derived_from_theta(self):
        for theta in (0.0, 0.2, 1.0, THETA_MAX):
            assert ThermalParams(theta).n_c == math.sinh(theta) ** 2

    def test_rejects_bad_theta(self):
        for theta in (-0.1, math.nan, math.inf, THETA_MAX + 0.1):
            with pytest.raises(ValueError, match="theta"):
                ThermalParams(theta)
