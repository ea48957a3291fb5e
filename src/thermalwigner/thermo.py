"""Thermal parameterizations of a single bosonic mode.

Every state is written in the thermo-field-dynamics variable ``theta``
(Takahashi & Umezawa), and ``ThermalParams`` holds it alone.  Three
equivalent descriptions are accepted at the boundary and converted to
theta once, here:

  * ``theta`` itself, with tanh(theta) = exp(-omega/(2 kT)),
  * the mean thermal occupation ``n_c`` = sinh^2(theta),
  * the physical pair (omega, kT), with hbar = 1 and kT in energy units
    so the Boltzmann constant never appears numerically.

Useful identities: n_c = sinh^2(theta), cosh(2 theta) = 2 n_c + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Above this the sech/tanh combinations in the evaluators are not
# validated against double-precision cancellation (n_c ~ 5.5e3 already).
THETA_MAX = 5.0


def _check_positive(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class ThermalParams:
    """The thermal squeeze parameter theta, 0 <= theta <= THETA_MAX.

    Every other thermal quantity is derived from it.
    """

    theta: float

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta) or theta < 0.0:
            raise ValueError(f"theta must be finite and >= 0, got {self.theta!r}")
        if theta > THETA_MAX:
            raise ValueError(
                f"theta = {theta:g} exceeds the validated range (max {THETA_MAX})"
            )
        object.__setattr__(self, "theta", theta)

    @property
    def n_c(self) -> float:
        """Mean thermal photon number sinh^2(theta)."""
        return math.sinh(self.theta) ** 2

    @property
    def cosh_2theta(self) -> float:
        return math.cosh(2.0 * self.theta)

    @property
    def is_zero_temperature(self) -> bool:
        return self.theta == 0.0


def theta_from_temperature(omega: float, kt: float) -> float:
    """theta = artanh(exp(-omega / (2 kT))); strictly increasing in kT."""
    omega = _check_positive(omega, "omega")
    kt = _check_positive(kt, "kT")
    return math.atanh(math.exp(-omega / (2.0 * kt)))


def params_from_theta(theta: float) -> ThermalParams:
    """Bundle from theta itself."""
    return ThermalParams(float(theta))


def params_from_mean_photons(n_c: float) -> ThermalParams:
    """Bundle from the mean occupation; theta = arsinh(sqrt(n_c)).

    An occupation above sinh^2(THETA_MAX) (about 5506.1) is refused
    with a message that names n_c and that maximum.
    """
    n_c = float(n_c)
    if not math.isfinite(n_c) or n_c < 0.0:
        raise ValueError(f"n_c must be finite and >= 0, got {n_c!r}")
    n_c_max = math.sinh(THETA_MAX) ** 2
    if n_c > n_c_max:
        raise ValueError(
            f"n_c = {n_c:g} exceeds the validated range (max sinh^2({THETA_MAX:g}) = "
            f"{n_c_max:.6g})"
        )
    return ThermalParams(math.asinh(math.sqrt(n_c)))


def params_from_temperature(omega: float, kt: float) -> ThermalParams:
    """Bundle from the physical pair (omega, kT)."""
    theta = theta_from_temperature(omega, kt)
    if theta > THETA_MAX:
        raise ValueError(
            f"kT = {kt:g} at omega = {omega:g} gives theta = {theta:g}, "
            f"beyond the validated range (max {THETA_MAX})"
        )
    return ThermalParams(theta)
