"""Photon-subtracted and photon-added kernels against a 50-digit Laguerre sum."""

import math

import mpmath
import numpy as np
import pytest

from thermalwigner import closed_form
from thermalwigner.analysis import default_norm_box
from thermalwigner.states import Family, StateSpec
from thermalwigner.thermo import params_from_theta

NS = (0, 1, 2, 4, 8, 12, 16)
THETAS = (0.05, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0)
RADII = 400

# Largest error over every n, theta and radius above, relative to the
# largest |W| on the radii (both families) and pointwise (subtracted,
# whose values are all positive).  Measured: 6.7e-15, 6.0e-15 and 7.1e-15.
MAX_ERR_OF_PEAK = {Family.PHOTON_SUBTRACTED: 1e-14, Family.PHOTON_ADDED: 1e-14}
MAX_REL_ERR_SUBTRACTED = 1e-14


def laguerre_family_mp(family, n, theta, u):
    """The closed form at each float u of ``u``, from the explicit Laguerre sum in 50 digits.

    Subtracted: exp(-2u) / (pi c^(n+1)) L_n(-4 sinh^2(theta) u); added:
    (-1)^n exp(-2u) / (pi c^(n+1)) L_n(4 cosh^2(theta) u), c = cosh 2theta,
    with L_n(x) = sum_k C(n, k) (-x)^k / k!.
    """
    with mpmath.workdps(50):
        theta = mpmath.mpf(theta)
        if family is Family.PHOTON_SUBTRACTED:
            slope, sign = -4 * mpmath.sinh(theta) ** 2, 1
        else:
            slope, sign = 4 * mpmath.cosh(theta) ** 2, (-1) ** n
        coefficients = [mpmath.binomial(n, k) * (-1) ** k / mpmath.factorial(k)
                        for k in range(n + 1)]
        scale = sign / (mpmath.pi * mpmath.cosh(2 * theta) ** (n + 1))
        values = []
        for ui in u:
            ui = mpmath.mpf(float(ui))
            x = slope * ui
            values.append(float(scale * mpmath.exp(-2 * ui)
                                * mpmath.fsum(c * x**k for k, c in enumerate(coefficients))))
        return np.array(values)


def norm_box_radii(state):
    """``RADII`` values of u from 0 to the corner of the state's norm box."""
    corner = default_norm_box(state).q_max ** 2  # |alpha|^2 at q = p = q_max
    return np.linspace(0.0, corner / state.thermal.cosh_2theta, RADII)


def errors(family, n, theta):
    """(error relative to the largest |W|, pointwise relative error) on the radii.

    The pointwise error is None for the added family, whose values change sign.
    """
    state = StateSpec(family, params_from_theta(theta), n=n)
    u = norm_box_radii(state)
    got = closed_form.prepare_gaussian(family, n, u)(theta)
    ref = laguerre_family_mp(family, n, theta, u)
    err = np.abs(got - ref)
    pointwise = float(np.max(err / ref)) if family is Family.PHOTON_SUBTRACTED else None
    return float(np.max(err) / np.max(np.abs(ref))), pointwise


@pytest.mark.parametrize("family", [Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED])
@pytest.mark.parametrize("n", NS)
def test_laguerre_kernel_against_50_digit_sum(family, n):
    for theta in THETAS:
        of_peak, pointwise = errors(family, n, theta)
        assert of_peak <= MAX_ERR_OF_PEAK[family], (
            f"{family.value} n={n} theta={theta}: error {of_peak:.2e} of the peak")
        if pointwise is not None:
            assert pointwise <= MAX_REL_ERR_SUBTRACTED, (
                f"n={n} theta={theta}: pointwise relative error {pointwise:.2e}")


def test_subtracted_horner_is_pointwise_accurate_at_low_temperature():
    # at n = 16, theta = 0.05 the three-term recurrence was 8.5e-15 off
    # pointwise; Horner on the positive series is 2.0e-15 off
    assert errors(Family.PHOTON_SUBTRACTED, 16, 0.05)[1] <= 3e-15


def test_reference_reproduces_the_origin_and_the_vacuum():
    theta = 0.7
    c = math.cosh(2.0 * theta)
    for family in (Family.PHOTON_SUBTRACTED, Family.PHOTON_ADDED):
        assert laguerre_family_mp(family, 3, theta, [0.0])[0] == pytest.approx(
            (1.0 if family is Family.PHOTON_SUBTRACTED else -1.0) / (math.pi * c**4),
            rel=1e-15)
        assert laguerre_family_mp(family, 0, theta, [1.3])[0] == pytest.approx(
            math.exp(-2.6) / (math.pi * c), rel=1e-15)
