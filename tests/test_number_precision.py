"""Thermal number kernel against a 50-digit evaluation of the same double sum."""

import math

import mpmath
import numpy as np
import pytest

from thermalwigner import closed_form
from thermalwigner.analysis import default_norm_box
from thermalwigner.closed_form import wigner_closed_grid
from thermalwigner.states import Family, StateSpec
from thermalwigner.thermo import params_from_theta

# Largest absolute error allowed per n over every theta and radius below.
MAX_ABS_ERR = {4: 1e-15, 8: 5e-14, 12: 5e-12, 16: 2e-10}
THETAS = (0.1, 0.5, 1.0, 1.5, 2.0)  # up to the scan-theta default maximum
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
            got = closed_form._thermal_number_kernel(u, n, theta)
            ref = np.array([thermal_number_mp(n, theta, float(qi), 0.0) for qi in q])
            worst = float(np.max(np.abs(got - ref)))
            assert worst <= bound, f"n={n}, theta={theta}: max abs error {worst:.2e}"


@pytest.mark.parametrize("order", [9, 17, 33])
def test_gauss_laguerre_rule_against_40_digit_rule(order):
    # nodes polished as roots of L_order and weights from the Christoffel
    # sum, both in 40 digits; the kernel's projection is as good as these
    nodes, weights, _ = closed_form._gauss_laguerre(order)
    with mpmath.workdps(40):
        roots = [mpmath.findroot(lambda v: mpmath.laguerre(order, 0, v), float(v)) for v in nodes]
        exact = [1 / mpmath.fsum(mpmath.laguerre(j, 0, r) ** 2 for j in range(order))
                 for r in roots]
        roots = np.array([float(r) for r in roots])
        exact = np.array([float(w) for w in exact])
    assert np.max(np.abs(nodes - roots) / roots) < 1e-14
    assert np.max(np.abs(weights - exact) / exact) < 2e-14


def test_reference_reproduces_the_vacuum_at_n_zero():
    theta, q = 0.5, 1.3
    s = 1.0 / math.cosh(2.0 * theta)
    expected = s / math.pi * math.exp(-q * q * s)
    assert thermal_number_mp(0, theta, q, 0.0) == pytest.approx(expected, rel=1e-15)
