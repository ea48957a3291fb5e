"""Value types shared by the closed-form evaluators and the Fock oracle."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .thermo import ThermalParams

# Excitation / subtraction / addition counts above this are refused: the
# finite-temperature number-state formula needs (n+1)^2 polynomial terms
# with factorial-squared coefficients that are only validated to here.
EXCITATION_MAX = 16

_SQRT2 = math.sqrt(2.0)


def check_excitation_count(n) -> int:
    """Return ``n`` as an int in 0..EXCITATION_MAX, or raise ValueError."""
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n > EXCITATION_MAX:
        raise ValueError(f"n = {int(n)} exceeds the supported maximum {EXCITATION_MAX}")
    return int(n)


class Family(str, enum.Enum):
    """The four state families the library evaluates."""

    THERMAL_VACUUM = "vacuum"
    PHOTON_SUBTRACTED = "subtracted"
    PHOTON_ADDED = "added"
    THERMAL_NUMBER = "number"


@dataclass(frozen=True)
class PhasePoint:
    """A point in (q, p) phase space, hbar = 1, with alpha = (q + i p) / sqrt(2)."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"phase-space point must be finite, got {self!r}")

    @property
    def alpha(self) -> complex:
        return complex(self.q / _SQRT2, self.p / _SQRT2)

    @property
    def abs2(self) -> float:
        """|alpha|^2 = (q^2 + p^2) / 2."""
        return 0.5 * (self.q * self.q + self.p * self.p)

    @classmethod
    def from_alpha(cls, alpha: complex) -> "PhasePoint":
        return cls(q=alpha.real * _SQRT2, p=alpha.imag * _SQRT2)


@dataclass(frozen=True)
class StateSpec:
    """Tagged description of one state: family, excitation count, thermal bundle.

    ``n`` counts subtracted/added photons or the number-state excitation;
    it is forced to 0 for the thermal vacuum.
    """

    family: Family
    thermal: ThermalParams
    n: int = 0

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        n = check_excitation_count(self.n)
        if family is Family.THERMAL_VACUUM:
            n = 0
        object.__setattr__(self, "n", n)

    def describe(self) -> str:
        if self.family is Family.THERMAL_VACUUM:
            return f"vacuum(theta={self.thermal.theta:g})"
        return f"{self.family.value}(n={self.n}, theta={self.thermal.theta:g})"
