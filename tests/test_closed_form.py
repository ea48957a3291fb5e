"""Closed-form evaluators: frozen values, reductions, sign structure."""

import math

import numpy as np
import pytest

from thermalwigner.closed_form import (
    DegenerateStateError,
    norm_const_added,
    norm_const_subtracted,
    wigner_closed_form,
    wigner_closed_grid,
    wigner_number_grid,
    wigner_number_state,
    wigner_photon_added,
    wigner_photon_subtracted,
    wigner_photon_subtracted_ncform,
    wigner_thermal_number,
    wigner_thermal_vacuum,
)
from thermalwigner.specfun import factorial, hermite2
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta

ORIGIN = PhasePoint(0.0, 0.0)


def thermal_number_complex_sum(alpha, n, theta):
    """The paper's thermal number double sum at complex alpha, term by term."""
    s = 1.0 / math.cosh(2.0 * theta)
    t = math.tanh(2.0 * theta)
    arg_e = 2.0 * alpha * s * math.cosh(theta)
    arg_y = 2.0 * alpha.conjugate() * s * math.sinh(theta) / t
    total = 0.0
    for l in range(n + 1):
        for k in range(n + 1):
            coeff = (-1.0) ** k * s ** (l + k) * t ** (2 * (n - l)) / (
                factorial(l) * factorial(k) * (factorial(n - l) * factorial(n - k)) ** 2
            )
            total += coeff * abs(hermite2(n - k, n - l, arg_e, arg_y)) ** 2
    return factorial(n) ** 2 * math.exp(-2.0 * abs(alpha) ** 2 * s) / (
        math.pi * math.cosh(2.0 * theta)
    ) * total


def random_points(rng, count, scale=2.5):
    return [
        PhasePoint(float(rng.uniform(-scale, scale)), float(rng.uniform(-scale, scale)))
        for _ in range(count)
    ]


class TestThermalVacuum:
    def test_zero_temperature_peak(self):
        assert wigner_thermal_vacuum(ORIGIN, params_from_theta(0.0)) == pytest.approx(
            1.0 / math.pi, rel=1e-15
        )

    def test_warm_peak(self):
        # sech(0.4) / pi
        assert wigner_thermal_vacuum(ORIGIN, params_from_theta(0.2)) == pytest.approx(
            0.2944390167352791, rel=1e-14
        )

    def test_gaussian_profile(self):
        thermal = params_from_theta(0.3)
        s = 1.0 / math.cosh(0.6)
        for point in random_points(np.random.default_rng(0), 10):
            expected = s / math.pi * math.exp(-2.0 * point.abs2 * s)
            assert wigner_thermal_vacuum(point, thermal) == pytest.approx(expected, rel=1e-14)


class TestPhotonSubtracted:
    def test_n_zero_reduces_to_vacuum(self):
        thermal = params_from_theta(0.7)
        for point in random_points(np.random.default_rng(1), 20):
            assert wigner_photon_subtracted(point, 0, thermal) == pytest.approx(
                wigner_thermal_vacuum(point, thermal), abs=1e-15
            )

    def test_origin_value(self):
        # L_n(0) = 1, so W(0) = 1 / (pi cosh^(n+1) 2 theta)
        assert wigner_photon_subtracted(ORIGIN, 1, params_from_theta(0.8)) == pytest.approx(
            0.04791425637129727, rel=1e-14
        )

    def test_degenerate_subtraction_rejected(self):
        with pytest.raises(DegenerateStateError):
            wigner_photon_subtracted(ORIGIN, 1, params_from_theta(0.0))

    def test_nonnegative_everywhere(self):
        q = np.linspace(-5.0, 5.0, 61)
        for n in range(1, 6):
            for theta in (0.1, 0.5, 1.0, 2.0):
                state = StateSpec(Family.PHOTON_SUBTRACTED, params_from_theta(theta), n=n)
                assert np.min(wigner_closed_grid(state, q, q)) >= 0.0

    def test_occupation_form_matches_theta_form(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            theta = float(rng.uniform(0.05, 1.2))
            n = int(rng.integers(0, 6))
            thermal = params_from_theta(theta)
            point = random_points(rng, 1)[0]
            w_theta = wigner_photon_subtracted(point, n, thermal)
            w_nc = wigner_photon_subtracted_ncform(point, n, thermal.n_c)
            assert abs(w_theta - w_nc) < 1e-12

    def test_occupation_form_examples(self):
        assert wigner_photon_subtracted_ncform(ORIGIN, 0, 0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-15
        )
        # n_c = 1 corresponds to theta = arsinh(1)
        thermal = params_from_theta(math.asinh(1.0))
        point = PhasePoint(1.0, 0.0)
        assert wigner_photon_subtracted_ncform(point, 1, 1.0) == pytest.approx(
            wigner_photon_subtracted(point, 1, thermal), abs=1e-12
        )

    def test_occupation_form_degenerate(self):
        with pytest.raises(DegenerateStateError):
            wigner_photon_subtracted_ncform(ORIGIN, 2, 0.0)


class TestPhotonAdded:
    def test_origin_matches_single_addition_formula(self):
        # the n = 1 case in full: -(e^(-2|a|^2 s) / (pi cosh^2 2theta))
        #                          * (1 - (4 cosh^2 theta / cosh 2theta) |a|^2)
        rng = np.random.default_rng(3)
        for theta in (0.0, 0.2, 0.8, 1.5):
            thermal = params_from_theta(theta)
            c2 = math.cosh(2 * theta)
            for point in random_points(rng, 5):
                expected = (
                    -math.exp(-2.0 * point.abs2 / c2)
                    / (math.pi * c2**2)
                    * (1.0 - 4.0 * math.cosh(theta) ** 2 / c2 * point.abs2)
                )
                assert wigner_photon_added(point, 1, thermal) == pytest.approx(
                    expected, rel=1e-13, abs=1e-16
                )

    def test_origin_values(self):
        for theta in (0.0, 0.3, 0.9):
            expected = -1.0 / (math.pi * math.cosh(2 * theta) ** 2)
            assert wigner_photon_added(ORIGIN, 1, params_from_theta(theta)) == pytest.approx(
                expected, rel=1e-14
            )

    def test_zero_temperature_is_number_state(self):
        thermal = params_from_theta(0.0)
        for point in random_points(np.random.default_rng(4), 20):
            expected = (
                -1.0 / math.pi * math.exp(-2.0 * point.abs2) * (1.0 - 4.0 * point.abs2)
            )
            assert wigner_photon_added(point, 1, thermal) == pytest.approx(
                expected, rel=1e-13, abs=1e-16
            )
            assert wigner_photon_added(point, 3, thermal) == pytest.approx(
                wigner_number_state(point, 3), rel=1e-13, abs=1e-16
            )

    def test_origin_sign_alternates(self):
        for theta in (0.0, 0.2, 0.8, 2.0):
            thermal = params_from_theta(theta)
            for n in range(6):
                value = wigner_photon_added(ORIGIN, n, thermal)
                assert math.copysign(1.0, value) == (-1.0) ** n

    def test_radial_sign_changes_count_n(self):
        radii = np.linspace(0.0, 5.0, 4001)
        for n in range(1, 6):
            for theta in (0.2, 0.5, 1.0):
                thermal = params_from_theta(theta)
                vals = np.array(
                    [
                        wigner_photon_added(PhasePoint(math.sqrt(2.0) * r, 0.0), n, thermal)
                        for r in radii
                    ]
                )
                signs = np.sign(vals)
                changes = int(np.sum(signs[1:] * signs[:-1] < 0))
                assert changes == n, f"n={n} theta={theta}: {changes} sign changes"

    def test_n_zero_reduces_to_vacuum(self):
        thermal = params_from_theta(0.4)
        for point in random_points(np.random.default_rng(5), 10):
            assert wigner_photon_added(point, 0, thermal) == pytest.approx(
                wigner_thermal_vacuum(point, thermal), abs=1e-16
            )


class TestNumberState:
    def test_origin(self):
        assert wigner_number_state(ORIGIN, 0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert wigner_number_state(ORIGIN, 1) == pytest.approx(-1.0 / math.pi, rel=1e-15)

    def test_first_zero_crossing(self):
        # L_1(4 |a|^2) = 0 at |a|^2 = 1/4, i.e. q = 1/sqrt(2)
        point = PhasePoint(1.0 / math.sqrt(2.0), 0.0)
        assert wigner_number_state(point, 1) == pytest.approx(0.0, abs=1e-16)

    def test_grid_matches_points(self):
        q = np.linspace(-2, 2, 9)
        grid = wigner_number_grid(2, q, q)
        for i in (0, 4, 8):
            for j in (1, 5):
                assert grid[i, j] == wigner_number_state(PhasePoint(q[i], q[j]), 2)


class TestThermalNumber:
    def test_n_zero_reduces_to_vacuum(self):
        thermal = params_from_theta(0.5)
        for point in random_points(np.random.default_rng(6), 20):
            assert wigner_thermal_number(point, 0, thermal) == pytest.approx(
                wigner_thermal_vacuum(point, thermal), abs=1e-14
            )

    def test_small_theta_limit_is_number_state(self):
        thermal = params_from_theta(1e-6)
        point = PhasePoint(1.0, 0.0)
        assert abs(
            wigner_thermal_number(point, 1, thermal) - wigner_number_state(point, 1)
        ) < 1e-6

    def test_zero_theta_rejected_with_guidance(self):
        with pytest.raises(DegenerateStateError, match="wigner_number_state"):
            wigner_thermal_number(ORIGIN, 1, params_from_theta(0.0))

    def test_phase_invariance(self):
        # the radial kernel against the paper's complex-alpha double sum,
        # assembled here from the explicit two-variable Hermite sum
        thermal = params_from_theta(0.4)
        rng = np.random.default_rng(7)
        for n in (2, 8):
            for _ in range(10):
                radius = float(rng.uniform(0.1, 2.5))
                for phase in rng.uniform(0.0, 2.0 * math.pi, size=4):
                    point = PhasePoint(radius * math.cos(phase), radius * math.sin(phase))
                    expected = thermal_number_complex_sum(point.alpha, n, thermal.theta)
                    assert wigner_thermal_number(point, n, thermal) == pytest.approx(
                        expected, rel=1e-12
                    )

    def test_returns_float(self):
        value = wigner_thermal_number(PhasePoint(0.3, -0.8), 3, params_from_theta(0.6))
        assert isinstance(value, float)


class TestNormalizationConstants:
    def test_trivial_counts(self):
        thermal = params_from_theta(0.9)
        assert norm_const_subtracted(0, thermal) == 1.0
        assert norm_const_added(0, thermal) == 1.0
        assert norm_const_added(1, params_from_theta(0.0)) == 1.0

    def test_unit_occupation_subtraction(self):
        # sinh^2(theta) = 1 makes C1 = 1 for n = 1
        assert norm_const_subtracted(1, params_from_theta(math.asinh(1.0))) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_formulas(self):
        thermal = params_from_theta(0.5)
        assert norm_const_subtracted(2, thermal) == pytest.approx(
            1.0 / (2.0 * math.sinh(0.5) ** 4), rel=1e-14
        )
        assert norm_const_added(2, thermal) == pytest.approx(
            1.0 / (2.0 * math.cosh(0.5) ** 4), rel=1e-14
        )

    def test_degenerate_subtraction(self):
        with pytest.raises(DegenerateStateError):
            norm_const_subtracted(1, params_from_theta(0.0))


class TestAmplitudeDamping:
    def test_origin_amplitude_strictly_decreasing_in_theta(self):
        thetas = np.linspace(0.05, 2.0, 40)
        cases = [
            (Family.THERMAL_VACUUM, 0),
            (Family.PHOTON_SUBTRACTED, 1),
            (Family.PHOTON_SUBTRACTED, 3),
            (Family.PHOTON_ADDED, 1),
            (Family.PHOTON_ADDED, 3),
        ]
        for family, n in cases:
            amplitudes = [
                abs(
                    wigner_closed_form(
                        StateSpec(family, params_from_theta(float(t)), n=n), ORIGIN
                    )
                )
                for t in thetas
            ]
            assert np.all(np.diff(amplitudes) < 0.0), f"{family} n={n}"


class TestDispatchAndGrids:
    def test_dispatch_covers_families(self):
        thermal = params_from_theta(0.4)
        point = PhasePoint(0.5, -0.5)
        assert wigner_closed_form(
            StateSpec(Family.THERMAL_VACUUM, thermal), point
        ) == wigner_thermal_vacuum(point, thermal)
        assert wigner_closed_form(
            StateSpec(Family.PHOTON_ADDED, thermal, n=2), point
        ) == wigner_photon_added(point, 2, thermal)

    def test_grid_matches_point_evaluator(self):
        thermal = params_from_theta(0.6)
        q = np.linspace(-3.0, 3.0, 7)
        p = np.linspace(-2.0, 2.0, 5)
        for family, n in [
            (Family.THERMAL_VACUUM, 0),
            (Family.PHOTON_SUBTRACTED, 2),
            (Family.PHOTON_ADDED, 3),
            (Family.THERMAL_NUMBER, 2),
        ]:
            state = StateSpec(family, thermal, n=n)
            grid = wigner_closed_grid(state, q, p)
            assert grid.shape == (7, 5)
            for i in (0, 3, 6):
                for j in (0, 2, 4):
                    point = PhasePoint(float(q[i]), float(p[j]))
                    assert grid[i, j] == pytest.approx(
                        wigner_closed_form(state, point), rel=1e-13, abs=1e-16
                    )

    def test_excitation_cap(self):
        thermal = params_from_theta(0.5)
        with pytest.raises(ValueError):
            wigner_photon_added(ORIGIN, 17, thermal)
        with pytest.raises(ValueError):
            StateSpec(Family.PHOTON_ADDED, thermal, n=17)
