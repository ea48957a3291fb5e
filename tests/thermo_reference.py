"""Test-side reference for the thermal parameterizations of ``thermalwigner.thermo``.

The package converts (omega, kT) to theta alone; the Bose occupation
here is the independent route the tests compare sinh^2(theta) against.
"""

import math


def mean_photon_number(omega: float, kt: float) -> float:
    """Bose occupation n_c = 1 / (exp(omega / kT) - 1)."""
    omega, kt = float(omega), float(kt)
    for value, name in ((omega, "omega"), (kt, "kT")):
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    exponent = omega / kt
    if exponent > 700.0:  # expm1 would overflow; occupation is zero anyway
        return 0.0
    return 1.0 / math.expm1(exponent)
