"""Closed-form evaluators: frozen values, reductions, sign structure."""

import math
import warnings

import numpy as np
import pytest
from closed_form_reference import (
    norm_const_added,
    norm_const_subtracted,
    wigner_number_grid,
    wigner_number_state,
    wigner_photon_subtracted_ncform,
)

from thermalwigner import closed_form
from thermalwigner.analysis import default_norm_box, negativity_of_state, scan_theta
from thermalwigner.closed_form import (
    DegenerateStateError,
    hermite2,
    laguerre,
    laguerre_rows,
    wigner_closed_form,
    wigner_closed_grid,
)
from thermalwigner.states import Family, PhasePoint, StateSpec, radial_grid
from thermalwigner.thermo import params_from_mean_photons, params_from_theta

ORIGIN = PhasePoint(0.0, 0.0)

# (q, p) axis pairs for the grid fold
GRID_AXES = [
    (np.linspace(-3.0, 3.0, 9), np.linspace(-3.0, 3.0, 9)),  # symmetric, odd
    (np.linspace(-3.0, 3.0, 10), np.linspace(-2.5, 2.5, 8)),  # even, nq != np
    (np.linspace(-1.0, 3.0, 11), np.linspace(-2.0, 0.7, 6)),  # asymmetric
    (np.array([2.0, -0.5, 0.5, -2.0, 0.0]), np.array([-1.0, 1.5])),  # unsorted
]


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
                math.factorial(l) * math.factorial(k)
                * (math.factorial(n - l) * math.factorial(n - k)) ** 2
            )
            total += coeff * abs(hermite2(n - k, n - l, arg_e, arg_y)) ** 2
    return math.factorial(n) ** 2 * math.exp(-2.0 * abs(alpha) ** 2 * s) / (
        math.pi * math.cosh(2.0 * theta)
    ) * total


def thermal_vacuum(point, thermal):
    """The thermal vacuum's closed form at one point."""
    return wigner_closed_form(StateSpec(Family.THERMAL_VACUUM, thermal), point)


def random_points(rng, count, scale=2.5):
    return [
        PhasePoint(float(rng.uniform(-scale, scale)), float(rng.uniform(-scale, scale)))
        for _ in range(count)
    ]


class TestThermalVacuum:
    def test_zero_temperature_peak(self):
        assert thermal_vacuum(ORIGIN, params_from_theta(0.0)) == pytest.approx(
            1.0 / math.pi, rel=1e-15
        )

    def test_warm_peak(self):
        # sech(0.4) / pi
        assert thermal_vacuum(ORIGIN, params_from_theta(0.2)) == pytest.approx(
            0.2944390167352791, rel=1e-14
        )

    def test_gaussian_profile(self):
        thermal = params_from_theta(0.3)
        s = 1.0 / math.cosh(0.6)
        for point in random_points(np.random.default_rng(0), 10):
            expected = s / math.pi * math.exp(-2.0 * point.abs2 * s)
            assert thermal_vacuum(point, thermal) == pytest.approx(expected, rel=1e-14)


class TestPhotonSubtracted:
    def test_n_zero_reduces_to_vacuum(self):
        thermal = params_from_theta(0.7)
        state = StateSpec(Family.PHOTON_SUBTRACTED, thermal, n=0)
        for point in random_points(np.random.default_rng(1), 20):
            assert wigner_closed_form(state, point) == pytest.approx(
                thermal_vacuum(point, thermal), abs=1e-15
            )

    def test_origin_value(self):
        # L_n(0) = 1, so W(0) = 1 / (pi cosh^(n+1) 2 theta)
        state = StateSpec(Family.PHOTON_SUBTRACTED, params_from_theta(0.8), n=1)
        assert wigner_closed_form(state, ORIGIN) == pytest.approx(0.04791425637129727, rel=1e-14)

    def test_degenerate_subtraction_rejected(self):
        state = StateSpec(Family.PHOTON_SUBTRACTED, params_from_theta(0.0), n=1)
        with pytest.raises(DegenerateStateError):
            wigner_closed_form(state, ORIGIN)

    def test_nonnegative_everywhere(self):
        # Horner on positive coefficients at y >= 0: no value is negative or
        # -0.0, on a grid, in the far tail (exp(-2u) underflows at u = 373)
        # or in the negativity volume, at every n up to the cap and theta to 5
        q = np.linspace(-5.0, 5.0, 61)
        u = np.linspace(0.0, 400.0, 2001)
        for n in range(17):
            at = closed_form.prepare_gaussian(Family.PHOTON_SUBTRACTED, n, u)
            for theta in (1e-3, 0.05, 0.3, 1.0, 2.2, 3.7, 5.0):
                state = StateSpec(Family.PHOTON_SUBTRACTED, params_from_theta(theta), n=n)
                for values in (wigner_closed_grid(state, q, q), at(theta)):
                    assert np.all(values >= 0.0) and not np.signbit(values).any()
                assert np.all(at(theta)[:1000] > 0.0)
                assert negativity_of_state(state) == 0.0

    def test_occupation_form_matches_theta_form(self):
        # two algorithms: the theta form sums L_n(-y) by Horner in floats,
        # the test-side occupation form exactly in integers at its float
        # argument (largest relative difference measured out to the
        # norm-box edge: 2.1e-14)
        for n in range(17):
            for theta in (0.01, 0.05, 0.3, 1.0, 2.0, 3.5, 5.0):
                thermal = params_from_theta(theta)
                state = StateSpec(Family.PHOTON_SUBTRACTED, thermal, n=n)
                box = default_norm_box(state)
                for r in np.linspace(0.0, box.q_max, 25):
                    for phi in (0.0, 0.7):
                        point = PhasePoint(r * math.cos(phi), r * math.sin(phi))
                        w_theta = wigner_closed_form(state, point)
                        w_nc = wigner_photon_subtracted_ncform(point, n, thermal.n_c)
                        assert abs(w_theta - w_nc) <= 1e-13 * w_theta, (n, theta, r, phi)

    def test_occupation_form_examples(self):
        assert wigner_photon_subtracted_ncform(ORIGIN, 0, 0.0) == pytest.approx(
            1.0 / math.pi, rel=1e-15
        )
        # n_c = 1 corresponds to theta = arsinh(1)
        thermal = params_from_theta(math.asinh(1.0))
        point = PhasePoint(1.0, 0.0)
        state = StateSpec(Family.PHOTON_SUBTRACTED, thermal, n=1)
        assert wigner_photon_subtracted_ncform(point, 1, 1.0) == pytest.approx(
            wigner_closed_form(state, point), abs=1e-12
        )

    def test_occupation_form_degenerate(self):
        # the state at occupation n_c is StateSpec(..., params_from_mean_photons(n_c))
        state = StateSpec(Family.PHOTON_SUBTRACTED, params_from_mean_photons(0.0), n=2)
        with pytest.raises(DegenerateStateError):
            wigner_closed_form(state, ORIGIN)


class TestPhotonAdded:
    def test_origin_matches_single_addition_formula(self):
        # the n = 1 case in full: -(e^(-2|a|^2 s) / (pi cosh^2 2theta))
        #                          * (1 - (4 cosh^2 theta / cosh 2theta) |a|^2)
        rng = np.random.default_rng(3)
        for theta in (0.0, 0.2, 0.8, 1.5):
            thermal = params_from_theta(theta)
            c2 = math.cosh(2 * theta)
            state = StateSpec(Family.PHOTON_ADDED, thermal, n=1)
            for point in random_points(rng, 5):
                expected = (
                    -math.exp(-2.0 * point.abs2 / c2)
                    / (math.pi * c2**2)
                    * (1.0 - 4.0 * math.cosh(theta) ** 2 / c2 * point.abs2)
                )
                assert wigner_closed_form(state, point) == pytest.approx(
                    expected, rel=1e-13, abs=1e-16
                )

    def test_origin_values(self):
        # L_n(0) = 1: W(0) = (-1)^n / (pi cosh^(n+1) 2theta) to relative
        # precision, also where it is tiny against the peak at high temperature
        for n in (1, 4, 8, 16):
            for theta in (0.0, 0.3, 0.9, 2.0, 3.0, 5.0):
                expected = (-1.0) ** n / (math.pi * math.cosh(2 * theta) ** (n + 1))
                state = StateSpec(Family.PHOTON_ADDED, params_from_theta(theta), n=n)
                assert wigner_closed_form(state, ORIGIN) == pytest.approx(expected, rel=1e-14)

    def test_zero_temperature_is_number_state(self):
        thermal = params_from_theta(0.0)
        one, three = (StateSpec(Family.PHOTON_ADDED, thermal, n=n) for n in (1, 3))
        for point in random_points(np.random.default_rng(4), 20):
            expected = (
                -1.0 / math.pi * math.exp(-2.0 * point.abs2) * (1.0 - 4.0 * point.abs2)
            )
            assert wigner_closed_form(one, point) == pytest.approx(
                expected, rel=1e-13, abs=1e-16
            )
            assert wigner_closed_form(three, point) == pytest.approx(
                wigner_number_state(point, 3), rel=1e-13, abs=1e-16
            )

    def test_origin_sign_alternates(self):
        for theta in (0.0, 0.2, 0.8, 2.0):
            thermal = params_from_theta(theta)
            for n in range(6):
                value = wigner_closed_form(StateSpec(Family.PHOTON_ADDED, thermal, n=n), ORIGIN)
                assert math.copysign(1.0, value) == (-1.0) ** n

    def test_radial_sign_changes_count_n(self):
        radii = np.linspace(0.0, 5.0, 4001)
        for n in range(1, 6):
            for theta in (0.2, 0.5, 1.0):
                state = StateSpec(Family.PHOTON_ADDED, params_from_theta(theta), n=n)
                vals = np.array(
                    [wigner_closed_form(state, PhasePoint(math.sqrt(2.0) * r, 0.0)) for r in radii]
                )
                signs = np.sign(vals)
                changes = int(np.sum(signs[1:] * signs[:-1] < 0))
                assert changes == n, f"n={n} theta={theta}: {changes} sign changes"

    def test_n_zero_reduces_to_vacuum(self):
        thermal = params_from_theta(0.4)
        state = StateSpec(Family.PHOTON_ADDED, thermal, n=0)
        for point in random_points(np.random.default_rng(5), 10):
            assert wigner_closed_form(state, point) == pytest.approx(
                thermal_vacuum(point, thermal), abs=1e-16
            )


class TestNumberState:
    # |n> is the theta = 0 state of the added and thermal number families
    @staticmethod
    def number_states(n):
        return [StateSpec(family, params_from_theta(0.0), n=n)
                for family in (Family.PHOTON_ADDED, Family.THERMAL_NUMBER)]

    def test_origin(self):
        for n, expected in ((0, 1.0 / math.pi), (1, -1.0 / math.pi)):
            for state in self.number_states(n):
                assert wigner_closed_form(state, ORIGIN) == pytest.approx(expected, rel=1e-15)

    def test_first_zero_crossing(self):
        # L_1(4 |a|^2) = 0 at |a|^2 = 1/4, i.e. q = 1/sqrt(2)
        point = PhasePoint(1.0 / math.sqrt(2.0), 0.0)
        for state in self.number_states(1):
            assert wigner_closed_form(state, point) == pytest.approx(0.0, abs=1e-16)

    def test_grid_matches_points(self):
        q = np.linspace(-2, 2, 9)
        for state in self.number_states(2):
            grid = wigner_closed_grid(state, q, q)
            for i in (0, 4, 8):
                for j in (1, 5):
                    assert grid[i, j] == wigner_closed_form(state, PhasePoint(q[i], q[j]))


class TestThermalNumber:
    def test_n_zero_reduces_to_vacuum(self):
        thermal = params_from_theta(0.5)
        state = StateSpec(Family.THERMAL_NUMBER, thermal, n=0)
        for point in random_points(np.random.default_rng(6), 20):
            assert wigner_closed_form(state, point) == pytest.approx(
                thermal_vacuum(point, thermal), abs=1e-14
            )

    def test_small_theta_limit_is_number_state(self):
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(1e-6), n=1)
        point = PhasePoint(1.0, 0.0)
        assert abs(wigner_closed_form(state, point) - wigner_number_state(point, 1)) < 1e-6

    @pytest.mark.parametrize("n", range(17))
    def test_zero_theta_is_the_number_state(self, n):
        # S(0) = 1: at theta = 0 the table's row n sums to 1 and every other
        # row to 0, so the series is |n>; held to the peak of its own route
        q = np.sqrt(2.0 * np.linspace(0.0, 40.0, 801))  # u = |alpha|^2 in [0, 40]
        expected = wigner_number_grid(n, q, [0.0])
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.0), n=n)
        got = wigner_closed_grid(state, q, [0.0])
        assert np.max(np.abs(got - expected)) <= 5e-15 * np.max(np.abs(expected))
        assert wigner_closed_form(state, ORIGIN) == (-1) ** n / math.pi

    def test_phase_invariance(self):
        # the radial kernel against the paper's complex-alpha double sum,
        # assembled here from the explicit two-variable Hermite sum
        thermal = params_from_theta(0.4)
        rng = np.random.default_rng(7)
        for n in (2, 8):
            state = StateSpec(Family.THERMAL_NUMBER, thermal, n=n)
            for _ in range(10):
                radius = float(rng.uniform(0.1, 2.5))
                for phase in rng.uniform(0.0, 2.0 * math.pi, size=4):
                    point = PhasePoint(radius * math.cos(phase), radius * math.sin(phase))
                    expected = thermal_number_complex_sum(point.alpha, n, thermal.theta)
                    assert wigner_closed_form(state, point) == pytest.approx(expected, rel=1e-12)

    def test_kernel_keeps_the_argument_shape(self):
        # the kernel sums its series over the flattened u = |alpha|^2
        # sech 2theta; the result comes back in the shape of u, 0-d included
        u = np.array([[0.1, 0.5, 2.0], [0.0, 1.3, 4.2]])

        def kernel(u, n):
            return closed_form.prepare_gaussian(Family.THERMAL_NUMBER, n, u)(0.6)

        for n in (0, 1, 5):
            values = kernel(u, n)
            assert values.shape == (2, 3)
            flat = kernel(u.ravel(), n)
            assert values.ravel() == pytest.approx(flat, rel=1e-14)
            single = kernel(1.3, n)
            assert single.shape == ()
            assert float(single) == pytest.approx(values[1, 1], rel=1e-14)
        # n = 0 runs no recurrence step and is the thermal vacuum
        assert kernel(u, 0) == pytest.approx(
            closed_form.prepare_gaussian(Family.THERMAL_VACUUM, 0, u)(0.6), rel=1e-14
        )

    def test_far_tail_underflows_to_zero(self):
        # the rows carry exp(-v/2) from their first order on, so a radius
        # where L_j(v) alone would overflow gives 0, not inf * 0
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.5), n=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = closed_form.wigner_closed_radial(state, np.array([1e3, 1e9, 1e12, 1e15]))
        assert np.array_equal(values, np.zeros(4))

    def test_returns_float(self):
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.6), n=3)
        value = wigner_closed_form(state, PhasePoint(0.3, -0.8))
        assert isinstance(value, float)


class TestFarTail:
    # where exp(-2u) underflows to 0 every closed form is +0.0: its
    # polynomial factor, which may overflow there, is never evaluated
    FAR = np.array([1e9, 1e12, 1e15, 1e154, 1e300, 5e307])  # 4 * 5e307 overflows

    @staticmethod
    def positive_zeros(values):
        return np.array_equal(values, np.zeros(np.shape(values))) and not np.signbit(values).any()

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [0, 2, 16])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 3.0])
    def test_radial_values_underflow_to_positive_zero(self, family, n, theta):
        state = StateSpec(family, params_from_theta(theta), n=n)
        abs2 = np.concatenate([[0.0, 0.5], self.FAR])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = closed_form.wigner_closed_radial(state, abs2)
            u = abs2 * (1.0 / math.cosh(2.0 * theta))
            prepared = closed_form.prepare_gaussian(family, n, u)(theta)
            point = wigner_closed_form(state, PhasePoint(1e154, 0.0))
        assert self.positive_zeros(values[2:])
        assert np.array_equal(prepared, values)
        assert values[0] != 0.0 and values[0] == wigner_closed_form(state, ORIGIN)
        assert point == 0.0 and not math.copysign(1.0, point) < 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 16])
    def test_zero_temperature_forms_underflow_to_positive_zero(self, n):
        # |n> at theta = 0 through both of its families, and the subtracted
        # state at the occupation n_c = 0.5
        states = [StateSpec(family, params_from_theta(0.0), n=n)
                  for family in (Family.PHOTON_ADDED, Family.THERMAL_NUMBER)]
        states.append(StateSpec(Family.PHOTON_SUBTRACTED, params_from_mean_photons(0.5), n=n))
        for state in states:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = wigner_closed_grid(state, [0.0, 1e12, 1e154], [0.0])
                point = wigner_closed_form(state, PhasePoint(1e154, 0.0))
            assert self.positive_zeros(grid[1:]) and self.positive_zeros(np.array([point]))
            assert grid[0, 0] == wigner_closed_form(state, ORIGIN)

    @pytest.mark.parametrize("family", list(Family))
    def test_point_with_an_overflowing_radius_is_refused(self, family):
        state = StateSpec(family, params_from_theta(0.5), n=2)
        for point in (PhasePoint(1e200, 0.0), PhasePoint(-1e154, 1.4e154)):
            with pytest.raises(ValueError, match=r"^\|alpha\|\^2 = \(q\^2 \+ p\^2\) / 2 "
                                                 r"overflows at the point"):
                wigner_closed_form(state, point)


class TestNodeTable:
    # the paper's double sum is radial: its real Hermite arguments have
    # x y = v / 2 and x / y = rho = 1 + sech 2theta, so each square
    # H_{m,j}(x, y)^2 is rho^(m-j) H_{m,j}(z, z)^2, z = sqrt(v / 2), the
    # step that makes the sum exp(-v/2) times a polynomial in v

    @staticmethod
    def arguments(v, theta):
        """The kernel's real Hermite arguments x, y at v = 4 |alpha|^2 sech 2theta."""
        s, t = 1.0 / math.cosh(2.0 * theta), math.tanh(2.0 * theta)
        r = math.sqrt(v / (4.0 * s))
        return 2.0 * r * s * math.cosh(theta), 2.0 * r * s * math.sinh(theta) / t

    @staticmethod
    def term_scale(m, j, x, y):
        """The sum of the absolute terms of H_{m,j}(x, y) at x, y >= 0: its rounding scale."""
        return sum(math.factorial(m) * math.factorial(j) * x ** (m - l) * y ** (j - l)
                   / (math.factorial(l) * math.factorial(j - l) * math.factorial(m - l))
                   for l in range(min(m, j) + 1))

    @pytest.mark.parametrize("v, theta", [(0.3, 0.1), (2.0, 0.5), (7.5, 1.0), (19.0, 2.5),
                                          (40.0, 5.0)])
    def test_hermite_squares_factor_through_the_diagonal(self, v, theta):
        # H_{m,j}(x, y) = rho^((m-j)/2) H_{m,j}(z, z), so their squares
        # differ by rho^(m-j); held to the cancellation of the explicit sum
        x, y = self.arguments(v, theta)
        assert x * y == pytest.approx(0.5 * v, rel=1e-14)
        assert x / y == pytest.approx(1.0 + 1.0 / math.cosh(2.0 * theta), rel=1e-14)
        ratio = math.sqrt(1.0 + 1.0 / math.cosh(2.0 * theta))
        z = math.sqrt(0.5 * v)
        for m in range(9):
            for j in range(9):
                off_diagonal = hermite2(m, j, x, y)
                diagonal = ratio ** (m - j) * hermite2(m, j, z, z)
                scale = self.term_scale(m, j, x, y)
                assert abs(off_diagonal - diagonal) <= 1e-14 * scale, (m, j)
                assert abs(abs(off_diagonal) ** 2 - ratio ** (2 * (m - j))
                           * abs(hermite2(m, j, z, z)) ** 2) <= 1e-13 * scale**2, (m, j)


class TestFoldedRows:
    # a_k = a_{2n-k}, so the thermal number kernel folds the 2n + 1 rows
    # R_j = exp(-2u) L_j(4u) onto n + 1 and holds them for every theta; a
    # one-theta call is a prepared kernel called once.  A value never
    # depends on what ran before it.

    U = np.linspace(0.0, 9.0, 401)
    OTHER_U = np.linspace(0.01, 7.0, 401)  # other radii, the same count

    @staticmethod
    def fresh(u, n, theta):
        return closed_form.prepare_gaussian(Family.THERMAL_NUMBER, n, u)(theta)

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 16])
    def test_held_rows_are_the_folded_rows(self, n):
        envelope = np.exp(-2.0 * self.U)
        every = [row.copy() for row in laguerre_rows(4.0 * self.U, envelope, 2 * n + 1)]
        expected = [every[k] + every[2 * n - k] for k in range(n)] + [every[n]]
        held = closed_form._thermal_number_rows(self.U, envelope, n)
        assert held.shape == (n + 1, self.U.size)
        assert all(np.array_equal(h, e) for h, e in zip(held, expected))

    def test_interleaved_prepared_kernels_equal_fresh_calls(self):
        # prepared kernels over two sets of radii and three n, called in
        # turn at temperatures out of order, each against a fresh call
        cases = [(u, n) for u in (self.U, self.OTHER_U) for n in (2, 6, 16)]
        thetas = (0.9, 0.2, 2.5, 0.05, 5.0)
        fresh = {(id(u), n): [self.fresh(u, n, t) for t in thetas] for u, n in cases}
        prepared = {(id(u), n): closed_form.prepare_gaussian(Family.THERMAL_NUMBER, n, u)
                    for u, n in cases}
        for i, theta in enumerate(thetas):
            for key in reversed(list(prepared)) if i % 2 else prepared:
                assert np.array_equal(prepared[key](theta), fresh[key][i]), (key[1], theta)

    @pytest.mark.parametrize("n", [2, 6])
    def test_no_earlier_call_changes_a_value(self, n):
        theta = 0.9
        reference = self.fresh(self.U, n, theta)
        earlier_calls = [
            lambda: self.fresh(self.OTHER_U, n, theta),  # other radii
            lambda: self.fresh(self.U, n - 1, theta),  # smaller n
            lambda: self.fresh(self.U, n + 3, theta),  # larger n
            lambda: self.fresh(self.U, n, 2.0),  # other theta
            # another family
            lambda: closed_form.prepare_gaussian(Family.PHOTON_ADDED, n, self.U)(theta),
            lambda: self.fresh(self.U[:50], n, theta),  # a prefix
        ]
        for earlier in earlier_calls:
            earlier()
            assert np.array_equal(self.fresh(self.U, n, theta), reference)

    def test_point_values_match_the_prepared_rows(self):
        values = self.fresh(self.U, 7, 0.4)
        for i in (0, 17, 200, 400):
            assert self.fresh(self.U[i], 7, 0.4) == values[i]

    def test_a_scan_leaves_no_array_in_the_module(self):
        # the only arrays closed_form keeps are its read-only lru_cache entries
        for family in Family:
            scan_theta(family, 3, [0.3, 0.8, 1.4])
            scan_theta(family, 3, [0.5], include_negativity=False)

        def arrays(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, (tuple, list, set)):
                return [a for item in value for a in arrays(item)]
            if isinstance(value, dict):
                return arrays(list(value.values()))
            return []

        assert [name for name, value in vars(closed_form).items() if arrays(value)] == []
        assert closed_form._thermal_number_matrix.cache_info().currsize > 0
        matrix = closed_form._thermal_number_matrix(3)
        assert closed_form._thermal_number_matrix(3) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_folded_sum_against_the_explicit_sum(self, n):
        # sum_{k=0}^{2n} a_k exp(-2u) L_k(4u), every row its own, with the
        # mirrored coefficients a_{2n-k} = a_k; held to the rows' scale
        u = np.array([0.0, 0.125, 0.75, 2.75, 6.0])
        theta = 0.7
        series = closed_form._thermal_number_series(n, theta)
        coeffs = np.concatenate([series, series[-2::-1]])
        expected = sum(c * np.exp(-2.0 * u) * laguerre(k, 4.0 * u) for k, c in enumerate(coeffs))
        got = self.fresh(u, n, theta)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.abs(coeffs).sum()
        assert got[0] == pytest.approx(coeffs.sum(), rel=1e-14)


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
        s = 1.0 / math.cosh(0.8)
        assert thermal_vacuum(point, thermal) == pytest.approx(
            s / math.pi * math.exp(-2.0 * point.abs2 * s), rel=1e-14)
        assert wigner_closed_form(
            StateSpec(Family.PHOTON_ADDED, thermal, n=2), point
        ) == closed_form.prepare_gaussian(Family.PHOTON_ADDED, 2,
                                          point.abs2 * (1.0 / thermal.cosh_2theta))(thermal.theta)

    @pytest.mark.parametrize("family, n", [
        (Family.THERMAL_VACUUM, 0), (Family.PHOTON_SUBTRACTED, 3),
        (Family.PHOTON_ADDED, 4), (Family.THERMAL_NUMBER, 3),
        *[(family, n) for family in (Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED,
                                     Family.THERMAL_NUMBER) for n in (0, 1, 2, 7, 16)],
    ])
    def test_prepared_kernel_is_the_one_theta_call(self, family, n):
        # prepare_gaussian does the theta-free work once; each theta it is
        # then handed gives bitwise a fresh one-theta call, on any radii.  It
        # holds u and exp(-2u) across theta, so a kernel that wrote into
        # either would change a later step: u is read-only here, and the
        # steps come back to their first theta
        u = np.linspace(0.0, 30.0, 301)
        u.setflags(write=False)
        at = closed_form.prepare_gaussian(family, n, u)
        for theta in (1.7, 0.05, 0.9, 5.0, 1.7):
            assert np.array_equal(at(theta), closed_form.prepare_gaussian(family, n, u)(theta))
        single = closed_form.prepare_gaussian(family, n, np.float64(1.3))(0.7)
        assert np.ndim(single) == 0

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

    @pytest.mark.parametrize("q, p", GRID_AXES)
    def test_folded_grid_equals_per_node_kernel(self, q, p):
        # the grid evaluator folds onto distinct |alpha|^2; the per-node
        # kernel takes u = |alpha|^2 sech 2theta at every node of the
        # product grid.  Every kernel is elementwise in its radii, so the
        # two agree bit for bit.
        abs2 = 0.5 * (q[:, None] ** 2 + p[None, :] ** 2)
        for family, n in [
            (Family.THERMAL_VACUUM, 0),
            (Family.PHOTON_SUBTRACTED, 3),
            (Family.PHOTON_ADDED, 4),
            (Family.THERMAL_NUMBER, 5),
        ]:
            state = StateSpec(family, params_from_theta(0.7), n=n)
            grid = wigner_closed_grid(state, q, p)
            per_node = closed_form.prepare_gaussian(family, n, abs2 * (1.0 / math.cosh(1.4)))(0.7)
            assert grid.shape == (q.size, p.size)
            assert np.array_equal(grid, per_node), family

    @pytest.mark.parametrize("q, p", GRID_AXES)
    def test_radial_grid_calls_its_kernel_once_on_distinct_radii(self, q, p):
        # the spy returns each radius's position, so the grid names the
        # radius every node was given
        calls = []

        def spy(abs2):
            calls.append(abs2.copy())
            return np.arange(abs2.size, dtype=float)

        grid = radial_grid(spy, q, p)
        assert len(calls) == 1
        (radii,) = calls
        assert radii.ndim == 1 and np.all(np.diff(radii) > 0.0)
        assert grid.shape == (q.size, p.size)
        abs2 = 0.5 * (q[:, None] ** 2 + p[None, :] ** 2)
        assert np.array_equal(radii[grid.astype(int)], abs2)

    def test_grid_refuses_non_finite_axis(self):
        state = StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.3))
        with pytest.raises(ValueError, match="finite"):
            wigner_closed_grid(state, [0.0, np.nan], [0.0])

    @pytest.mark.parametrize("q, p", [([-1e200, 0.0, 1e200], [0.0]),
                                      ([0.0, 1.0], [1.4e154]),
                                      ([1e154], [1e154])])
    def test_radial_grid_refuses_an_overflowing_radius_before_the_kernel(self, q, p):
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows at the grid corner"):
                radial_grid(calls.append, q, p)
        assert calls == []

    def test_grids_refuse_an_empty_axis(self):
        state = StateSpec(Family.PHOTON_ADDED, params_from_theta(0.3), n=2)
        with pytest.raises(ValueError, match="non-empty"):
            wigner_closed_grid(state, [], [0.0, 1.0])
        with pytest.raises(ValueError, match="non-empty"):
            wigner_closed_grid(state, [0.0, 1.0], np.array([]))

    def test_excitation_cap(self):
        thermal = params_from_theta(0.5)
        with pytest.raises(ValueError):
            StateSpec(Family.PHOTON_ADDED, params_from_theta(0.0), n=17)  # |17>
        with pytest.raises(ValueError):
            StateSpec(Family.PHOTON_ADDED, thermal, n=17)
