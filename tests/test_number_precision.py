"""Thermal number kernel against the paper's double sum: exact, in 50 digits, and at the origin.

The kernel shares no formula with the double sum: its coefficient table
comes from a single sum over powers of tanh^2(2 theta) / 4, while the
references below expand the double sum itself.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from thermalwigner import closed_form
from thermalwigner.analysis import default_norm_box
from thermalwigner.closed_form import wigner_closed_grid, wigner_thermal_number
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta

# Largest absolute error allowed per n over every theta and radius below.
MAX_ABS_ERR = {4: 2e-16, 8: 3e-16, 12: 3e-16, 16: 3e-16}
THETAS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)
RADII = 9


def thermal_number_mp(n, theta, q, p):
    """The paper's double sum at alpha = (q + i p)/sqrt(2), 50 significant digits.

    W = n!^2 exp(-2|a|^2 s) / (pi cosh 2theta)
        * sum_{l,k} (-1)^k s^(l+k) t^(2(n-l)) / (l! k! ((n-l)! (n-k)!)^2)
          * |H_{n-k,n-l}(E, Y)|^2,
    s = sech 2theta, t = tanh 2theta, E = 2 alpha s cosh theta,
    Y = 2 conj(alpha) s sinh theta / t, with H by its explicit sum.
    """
    with mpmath.workdps(50):
        theta = mpmath.mpf(theta)
        alpha = mpmath.mpc(q, p) / mpmath.sqrt(2)
        s = mpmath.sech(2 * theta)
        t = mpmath.tanh(2 * theta)
        e = 2 * alpha * s * mpmath.cosh(theta)
        y = 2 * mpmath.conj(alpha) * s * mpmath.sinh(theta) / t
        fact = mpmath.factorial

        def hermite(m, j):
            return mpmath.fsum(
                fact(m) * fact(j) * (-1) ** i * e ** (m - i) * y ** (j - i)
                / (fact(i) * fact(j - i) * fact(m - i))
                for i in range(min(m, j) + 1)
            )

        total = mpmath.fsum(
            (-1) ** k * s ** (l + k) * t ** (2 * (n - l))
            / (fact(l) * fact(k) * (fact(n - l) * fact(n - k)) ** 2)
            * abs(hermite(n - k, n - l)) ** 2
            for l in range(n + 1)
            for k in range(n + 1)
        )
        abs2 = abs(alpha) ** 2
        return float(fact(n) ** 2 * mpmath.exp(-2 * abs2 * s) / (mpmath.pi * mpmath.cosh(2 * theta)) * total)


@pytest.mark.parametrize("n", sorted(MAX_ABS_ERR))
def test_number_kernel_against_50_digit_sum(n):
    worst = 0.0
    for theta in THETAS:
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(theta), n=n)
        q = np.linspace(0.0, default_norm_box(state).q_max, RADII)
        got = wigner_closed_grid(state, q, [0.0])[:, 0]
        ref = np.array([thermal_number_mp(n, theta, float(qi), 0.0) for qi in q])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= MAX_ABS_ERR[n], f"n={n}: max abs error {worst:.2e}"


def test_every_order_to_the_cap_against_50_digit_sum():
    # every recurrence depth 0..16 in the kernel, each held to the bound of
    # the nearest tabulated n at or above it
    q = np.array([0.0, 0.7, 1.9, 3.1])
    for n in range(17):
        bound = MAX_ABS_ERR[min(k for k in MAX_ABS_ERR if k >= n)]
        for theta in (0.3, 1.2, 3.0, 5.0):
            u = 0.5 * q**2 / math.cosh(2.0 * theta)
            got = closed_form.prepare_gaussian(Family.THERMAL_NUMBER, n, u)(theta)
            ref = np.array([thermal_number_mp(n, theta, float(qi), 0.0) for qi in q])
            worst = float(np.max(np.abs(got - ref)))
            assert worst <= bound, f"n={n}, theta={theta}: max abs error {worst:.2e}"


def test_reference_reproduces_the_vacuum_at_n_zero():
    theta, q = 0.5, 1.3
    s = 1.0 / math.cosh(2.0 * theta)
    expected = s / math.pi * math.exp(-q * q * s)
    assert thermal_number_mp(0, theta, q, 0.0) == pytest.approx(expected, rel=1e-15)


def exact_number_table(n):
    """The paper's double sum as exact rationals G[k][r], a_k = (-1)^n / (pi cosh 2theta) sum_r G[k][r] cos(r psi).

    Term (m, j) = (n - k, n - l) of the double sum (:func:`thermal_number_mp`)
    is f_mj s^(2n-m-j) t^(2j) |H_{m,j}(E, Y)|^2.  At a radius the Hermite
    arguments are real with x y = v / 2 and x / y = rho = 1 + s, v = 4u,
    so the square is rho^(m-j) H_{m,j}(z, z)^2 at z^2 = v / 2: a
    polynomial in v, written in L_k(v) by v^q = q! sum_k (-1)^k C(q, k) L_k(v).
    With t^2 = 1 - s^2 the temperature factor is s^(2n-m-j) (1 - s)^j (1 + s)^m.
    The sum over (m, j) is even in s, and s^2 = cos^2(psi / 2) at
    psi = 2 arctan(sinh 2theta), so s^(2q) = 4^-q (C(2q, q) + 2 sum_r C(2q, q - r) cos(r psi)).
    """
    fact, comb = math.factorial, math.comb
    size = 2 * n + 1
    in_s = [[Fraction(0)] * size for _ in range(size)]  # [k][p]: pi cosh(2 theta) a_k at s^p
    for m, j in itertools.product(range(n + 1), repeat=2):
        weight = Fraction(fact(n) ** 2 * (-1) ** (n - m),
                          fact(n - m) * fact(n - j) * (fact(m) * fact(j)) ** 2)
        hermite = [Fraction(fact(m) * fact(j) * (-1) ** l, fact(l) * fact(j - l) * fact(m - l))
                   for l in range(min(m, j) + 1)]  # H_{m,j}(z, z) at z^(m+j-2l)
        square = [Fraction(0)] * (m + j + 1)  # H_{m,j}(z, z)^2 at v^q
        for (l1, h1), (l2, h2) in itertools.product(enumerate(hermite), repeat=2):
            q = m + j - l1 - l2
            square[q] += h1 * h2 / 2**q
        laguerre = [sum(c * fact(q) * (-1) ** k * comb(q, k) for q, c in enumerate(square) if q >= k)
                    for k in range(m + j + 1)]
        low = 2 * n - m - j
        temperature = [sum(comb(j, i) * (-1) ** i * comb(m, p - low - i) for i in range(j + 1)
                           if 0 <= p - low - i <= m) for p in range(size)]
        for k, c in enumerate(laguerre):
            for p, t in enumerate(temperature):
                in_s[k][p] += weight * c * t
    table = []
    for row in in_s:
        assert not any(row[1::2]), "the double sum is even in s"
        cosines = [Fraction(0)] * (n + 1)
        for q, c in enumerate(row[::2]):
            for r in range(q + 1):
                cosines[r] += c * (2 if r else 1) * comb(2 * q, q - r) / 4**q
        table.append([(-1) ** n * c for c in cosines])
    return table


@pytest.mark.parametrize("n", range(8))
def test_coefficient_table_is_the_double_sum_correctly_rounded(n):
    # the kernel's table holds rows k <= n; the others are their mirror
    expected = np.array([[float(c) for c in row] for row in exact_number_table(n)[:n + 1]])
    assert np.array_equal(closed_form._thermal_number_matrix(n), expected)


@pytest.mark.parametrize("n", range(8))
def test_double_sum_coefficients_are_mirror_symmetric(n):
    # rows k and 2n - k of the exact expansion are equal, so a_k = a_{2n-k}
    # and the kernel sums L_k + L_{2n-k} against one coefficient
    table = exact_number_table(n)
    assert len(table) == 2 * n + 1
    assert all(table[k] == table[2 * n - k] for k in range(n))


@pytest.mark.parametrize("n", range(17))
def test_coefficient_table_rows_are_bounded(n):
    # at psi = 0 the series is the zero-temperature number state, all in
    # row n; every term of the product is at most |G[k, r]|
    table = closed_form._thermal_number_matrix(n)
    assert table.shape == (n + 1, n + 1)
    assert np.all(table[n] >= 0.0)
    assert np.all(np.abs(table.sum(axis=1) - np.eye(n + 1)[n]) <= 1e-15)
    assert np.max(np.abs(table).sum(axis=1)) <= 1.0 + 1e-15


@pytest.mark.parametrize("n", [0, 1, 4, 8, 16])
def test_series_is_the_single_tau_sum(n):
    # a_k = (-1)^n / (pi cosh 2theta) sum_m b_km tau^m, tau = tanh^2(2theta) / 4,
    # k <= n, in 50 digits: checks the angle, sign and scale the table is
    # read with; held in units of 1 / (pi cosh 2theta)
    worst = 0.0
    for theta in THETAS:
        got = closed_form._thermal_number_series(n, theta)
        assert got.shape == (n + 1,)
        with mpmath.workdps(50):
            tau = mpmath.tanh(2 * mpmath.mpf(theta)) ** 2 / 4
            unit = mpmath.pi * mpmath.cosh(2 * mpmath.mpf(theta))
            for k in range(n + 1):
                inner = mpmath.fsum(
                    (-1) ** m * math.comb(n, m) * math.comb(n + m, m)
                    * math.comb(2 * m, m + k - n) * tau**m
                    for m in range(abs(k - n), n + 1))
                worst = max(worst, float(abs(got[k] - (-1) ** n * inner / unit) * unit))
    assert worst <= 5e-16, f"n={n}: max error {worst:.2e} of 1 / (pi cosh 2theta)"


@pytest.mark.parametrize("theta", [0.01, 0.1])
@pytest.mark.parametrize("q", [16.0, 24.0])
def test_far_tail_error_is_absolute(theta, q):
    # the coefficients carry absolute precision, about 1e-16 of
    # 1 / (pi cosh 2theta), so a value's error scales with the rows it sums,
    # sum_k |exp(-v/2) L_k(v)|, not with W: at n = 16, theta = 0.01, q = 16
    # W is 2.6e-82 while that scale is 5.3e-62, and the kernel's sign there
    # is not resolved (measured errors 4.8e-18 to 8.8e-18 of the scale)
    n = 16
    u = np.array([0.5 * q * q / math.cosh(2.0 * theta)])
    got = float(closed_form.prepare_gaussian(Family.THERMAL_NUMBER, n, u)(theta)[0])
    ref = thermal_number_mp(n, theta, q, 0.0)
    with mpmath.workdps(30):
        v = 4 * mpmath.mpf(float(u[0]))
        rows = mpmath.fsum(abs(mpmath.exp(-v / 2) * mpmath.laguerre(k, 0, v))
                           for k in range(2 * n + 1))
        scale = float(rows / (mpmath.pi * mpmath.cosh(2 * mpmath.mpf(theta))))
    assert abs(got - ref) <= 1e-16 * scale, f"error {abs(got - ref):.2e} of scale {scale:.2e}"


@pytest.mark.parametrize("n", range(17))
def test_origin_value_is_a_legendre_polynomial(n):
    # W(0) = sum_k a_k = (-1)^n P_n(1 - 2 tanh^2 2theta) / (pi cosh 2theta),
    # held in units of 1 / (pi cosh 2theta)
    worst = 0.0
    for theta in np.geomspace(1e-3, 5.0, 40):
        theta = float(theta)
        got = wigner_thermal_number(PhasePoint(0.0, 0.0), n, params_from_theta(theta))
        with mpmath.workdps(30):
            t = mpmath.tanh(2 * mpmath.mpf(theta))
            unit = mpmath.pi * mpmath.cosh(2 * mpmath.mpf(theta))
            expected = (-1) ** n * mpmath.legendre(n, 1 - 2 * t * t) / unit
            worst = max(worst, float(abs(got - expected) * unit))
    assert worst <= 1e-14, f"n={n}: max error {worst:.2e} of 1 / (pi cosh 2theta)"
