"""Polynomial special functions against brute-force and exact-rational oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from closed_form_reference import laguerre_exact
from specfun_reference import laguerre_from_hermite, laguerre_sum
from thermalwigner.analysis import NORM_GRID_POINTS, _radial_simpson_plan
from thermalwigner.closed_form import hermite2, laguerre, laguerre_rows


def hermite2_brute(m, n, x, y):
    """Direct double-index sum with exact integer coefficients."""
    acc = 0.0 + 0.0j
    for l in range(min(m, n) + 1):
        coeff = Fraction(
            math.factorial(m) * math.factorial(n) * (-1) ** l,
            math.factorial(l) * math.factorial(n - l) * math.factorial(m - l),
        )
        acc += float(coeff) * x ** (m - l) * y ** (n - l)
    return acc


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert laguerre(0, 7.3) == 1.0

    def test_order_one(self):
        assert laguerre(1, 2.0) == -1.0

    def test_order_two_explicit(self):
        # 1 - 2x + x^2/2 at x = 1: 1 - 2 + 0.5
        assert laguerre(2, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_exact_reference_is_correctly_rounded(self):
        # the test-side L_n that the |n> and occupation-form references sum
        # in integers: within half an ulp of 50 digits, also where the
        # factorial sum alternates (4 |alpha|^2 up to the Gaussian's underflow)
        with mpmath.workdps(50):
            for n in range(21):
                for x in (0.0, 1e-300, 0.3, 1.7, 13.3, 57.1, 400.0, 1490.0, -3.2, -1e5):
                    exact = mpmath.laguerre(n, 0, mpmath.mpf(x))
                    got = laguerre_exact(n, x)
                    assert abs(got - exact) <= 0.5 * math.ulp(got), (n, x)

    def test_sum_matches_exact_low_order(self):
        for n in (0, 1):
            for x in (-3.0, 0.0, 2.5, 19.0):
                assert laguerre_sum(n, x) == laguerre_exact(n, x)

    def test_recurrence_against_exact_sum(self):
        # full desk-scale domain, exact rational oracle
        for n in range(21):
            for x in np.linspace(-20.0, 20.0, 41):
                ref = laguerre_exact(n, float(x))
                got = laguerre(n, float(x))
                assert abs(got - ref) <= 2e-14 * (1.0 + abs(ref))  # 9.5e-15 measured

    def test_recurrence_against_float_sum_where_well_conditioned(self):
        # all sum terms are positive for x <= 0, so the float sum is reliable
        for n in range(21):
            for x in np.linspace(-20.0, 0.0, 21):
                ref = laguerre_sum(n, float(x))
                got = laguerre(n, float(x))
                assert abs(got - ref) <= 3e-15 * (1.0 + abs(ref))  # 1.5e-15 measured

    def test_is_the_seed_one_last_row_of_the_shared_recurrence(self):
        # one recurrence serves laguerre and the thermal number rows: the
        # added kernel's argument 4 cosh^2(theta) u on the norm plan's radii
        keys, _ = _radial_simpson_plan(NORM_GRID_POINTS)
        x = 4.0 * math.cosh(1.0) ** 2 * (0.5 * 68.0 / (NORM_GRID_POINTS - 1) ** 2) * keys
        rows = [row.copy() for row in laguerre_rows(x, 1.0, 17)]
        for n in range(17):
            assert np.array_equal(laguerre(n, x), rows[n]), n

    def test_is_exactly_one_at_the_origin(self):
        # every step at x = 0 is (j + 1) * (1 / (j + 1)), exactly 1 up to j = 48,
        # so the added W(0) carries no rounding from its polynomial
        for n in range(33):
            assert laguerre(n, 0.0) == 1.0
            assert np.all(laguerre(n, np.zeros(3)) == 1.0)

    def test_positive_on_negative_axis(self):
        for n in range(11):
            vals = laguerre(n, np.linspace(-20.0, -1e-3, 200))
            assert np.all(vals > 0.0)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-5, 5, 11)
        vec = laguerre(4, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert laguerre(4, float(x)) == v

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_leaves_its_input_alone(self, n):
        # the recurrence works in its own buffers: the argument is never
        # written to, and the result is never a view of it
        xs = np.linspace(-3.0, 3.0, 7)
        before = xs.copy()
        vals = laguerre(n, xs)
        assert np.array_equal(xs, before)
        assert not np.shares_memory(vals, xs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            laguerre(-1, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, float("nan"))
        with pytest.raises(ValueError):
            laguerre(2, float("inf"))


class TestHermite2:
    def test_zero_order_is_one(self):
        assert hermite2(0, 0, 3.7 + 1j, -2.0) == 1.0 + 0.0j

    def test_one_one_is_xy_minus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = complex(rng.normal(), rng.normal())
            y = complex(rng.normal(), rng.normal())
            assert hermite2(1, 1, x, y) == pytest.approx(x * y - 1.0, rel=1e-13)

    def test_two_two_at_unity(self):
        # via the bridge: 2 * L_2(1) = 2 * (-0.5)
        assert hermite2(2, 2, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(0, 9))
            n = int(rng.integers(0, 9))
            x = complex(rng.normal(), rng.normal()) * 2.0
            y = complex(rng.normal(), rng.normal()) * 2.0
            ref = hermite2_brute(m, n, x, y)
            assert hermite2(m, n, x, y) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            m = int(rng.integers(0, 9))
            n = int(rng.integers(0, 9))
            x = complex(rng.normal(), rng.normal()) * 2.0
            y = complex(rng.normal(), rng.normal()) * 2.0
            a = hermite2(m, n, x, y)
            b = hermite2(n, m, y, x)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))

    def test_coefficients_are_exact(self):
        # at x = y = 0 only the l = n term of H_{n,n} survives: (-1)^n n!,
        # the exact integer correctly rounded, up to the order cap
        for n in range(33):
            assert hermite2(n, n, 0.0, 0.0) == (-1) ** n * float(math.factorial(n))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hermite2(33, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hermite2(0, 33, 1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hermite2(1, 1, complex("nan"), 1.0)


class TestBridge:
    def test_trivial_order(self):
        assert laguerre_from_hermite(0, 2.0 + 1j, -3.0) == 1.0 + 0.0j

    def test_order_one_example(self):
        # (-1) * (2*1 - 1) = -1 = L_1(2)
        assert laguerre_from_hermite(1, 2.0, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_complex_pair_with_real_product(self):
        # x*y = i * (-i) = 1; both routes brute-forced
        bridge = laguerre_from_hermite(3, 1j, -1j)
        ref = laguerre_exact(3, 1.0)
        assert bridge.imag == pytest.approx(0.0, abs=1e-14)
        assert bridge.real == pytest.approx(ref, abs=1e-13)

    def test_identity_against_laguerre(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(0, 9))
            prod = float(rng.uniform(-20.0, 20.0))
            mag = float(rng.uniform(0.3, 3.0))
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            x = mag * phase
            y = prod / x
            lref = laguerre(n, prod)
            bridge = laguerre_from_hermite(n, x, y)
            assert abs(bridge - lref) <= 1e-10 * (1.0 + abs(lref))

