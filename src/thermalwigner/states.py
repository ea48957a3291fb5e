"""Value types and grid geometry shared by the closed-form evaluators and the Fock oracle."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .thermo import ThermalParams

# Excitation / subtraction / addition counts above this are refused: the
# closed forms' precision tests against 50-digit references and the Fock
# oracle's checks run to here and no further.
EXCITATION_MAX = 16

_SQRT2 = math.sqrt(2.0)


def _abs2(q: float, p: float, where: str) -> float:
    """|alpha|^2 = (q^2 + p^2) / 2 at one (q, p), or ValueError where it overflows."""
    abs2 = 0.5 * (q * q + p * p)
    if not math.isfinite(abs2):
        raise ValueError(f"|alpha|^2 = (q^2 + p^2) / 2 overflows at {where} "
                         f"|q| = {abs(q):g}, |p| = {abs(p):g}")
    return abs2


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
        """|alpha|^2 = (q^2 + p^2) / 2; ValueError where it overflows."""
        return _abs2(self.q, self.p, "the point")

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


def radial_grid(radial, q, p) -> np.ndarray:
    """radial(|alpha|^2) on the product of axes q and p, one call on its distinct radii.

    Every state here is Fock-diagonal, so its Wigner function depends on
    |alpha|^2 = (q^2 + p^2) / 2 alone.  The grid is folded onto its
    distinct |q| and |p|, the distinct |alpha|^2 of that quadrant are
    found with ``np.unique``, ``radial`` is called once on them, as a
    strictly increasing 1-D array, and its values are scattered back to
    every node.  The fold is exact on any axes: (-q)^2 == q^2.

    Raises:
        ValueError: for an empty or non-finite axis, or when the largest
            |alpha|^2 of the grid overflows; either before ``radial`` runs.

    Returns an array of shape (len(q), len(p)).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.size == 0 or p.size == 0:
        raise ValueError(f"grid axes must be non-empty, got {q.size} x {p.size} nodes")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError("grid axes must be finite")
    q_abs, iq = np.unique(np.abs(q), return_inverse=True)
    p_abs, ip = np.unique(np.abs(p), return_inverse=True)
    _abs2(float(q_abs[-1]), float(p_abs[-1]), "the grid corner")
    abs2, inverse = np.unique(0.5 * (q_abs[:, None] ** 2 + p_abs[None, :] ** 2),
                              return_inverse=True)
    quadrant = radial(abs2)[inverse].reshape(q_abs.size, p_abs.size)
    return quadrant.take(iq.ravel(), axis=0).take(ip.ravel(), axis=1)
