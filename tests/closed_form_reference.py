"""Test-side references for the closed forms of ``thermalwigner.closed_form``.

The closed forms are normalized in closed form and never use the
normalization constants here.  They are the paper's normalization
constants of the photon-subtracted and photon-added thermal states,
whose inverses are the raw traces that the Fock oracle's conditioning
returns.

The zero-temperature number state |n> and the photon-subtracted state
in its occupation form are evaluated here on a route of their own.
L_n is summed exactly, in integers, at the float argument and rounded
once (:func:`laguerre_exact`); it shares no line with the package's
three-term recurrence, which the added and thermal number kernels run.
A float sum would not do: L_n(4|alpha|^2) alternates, and its float sum
degrades past n ~ 15.  Nothing here takes a kernel or a Laguerre
function from the package.
"""

import math

import numpy as np

from thermalwigner.closed_form import DegenerateStateError
from thermalwigner.states import PhasePoint, check_excitation_count
from thermalwigner.thermo import ThermalParams


def norm_const_subtracted(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-subtracted thermal state.

    1 / (n! sinh^(2n) theta); the inverse is the raw trace of the
    subtracted (unnormalized) density matrix.
    """
    n = check_excitation_count(n)
    if n >= 1 and thermal.theta == 0.0:
        raise DegenerateStateError(
            "the photon-subtracted vacuum has zero norm; the normalization "
            "constant diverges"
        )
    if n == 0:
        return 1.0
    return 1.0 / (math.factorial(n) * math.sinh(thermal.theta) ** (2 * n))


def norm_const_added(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-added thermal state.

    1 / (n! cosh^(2n) theta); total for all theta >= 0.
    """
    n = check_excitation_count(n)
    if n == 0:
        return 1.0
    return 1.0 / (math.factorial(n) * math.cosh(thermal.theta) ** (2 * n))


def laguerre_exact(n: int, x: float) -> float:
    """L_n(x) at the float x, exact and rounded once.

    x = m / d with d a power of two, so
    n! d^n L_n(x) = sum_k (-1)^k C(n, k) (n! / k!) m^k d^(n-k)
    is an integer, summed by Horner in m over d, and one int-by-int
    division, which Python rounds correctly, gives L_n(x).
    """
    m, d = float(x).as_integer_ratio()
    total = 0
    for k in range(n, -1, -1):
        coefficient = (-1) ** k * math.comb(n, k) * (math.factorial(n) // math.factorial(k))
        total = total * m + coefficient * d ** (n - k)
    return total / (math.factorial(n) * d**n)


def wigner_number_state(point: PhasePoint, n: int) -> float:
    """The zero-temperature number state |n>: (-1)^n / pi exp(-2|a|^2) L_n(4|a|^2).

    +0.0 where exp(-2|a|^2) underflows, and L_n is not evaluated there.
    """
    abs2 = point.abs2
    envelope = math.exp(-2.0 * abs2)
    if envelope == 0.0:
        return 0.0
    return (-1) ** n / math.pi * envelope * laguerre_exact(n, 4.0 * abs2)


def wigner_number_grid(n: int, q, p) -> np.ndarray:
    """:func:`wigner_number_state` at every node of the axes q x p, shape (len(q), len(p))."""
    return np.array([[wigner_number_state(PhasePoint(float(qi), float(pj)), n) for pj in p]
                     for qi in q])


def wigner_photon_subtracted_ncform(point: PhasePoint, n: int, n_c: float) -> float:
    """The photon-subtracted thermal state in its occupation n_c = sinh^2(theta).

    W = exp(-2|a|^2 / w) / (pi w^(n+1)) * L_n(-4 n_c |a|^2 / w), w = 2 n_c + 1
    = cosh 2theta; +0.0 where the Gaussian underflows.
    """
    abs2 = point.abs2
    width = 2.0 * n_c + 1.0
    envelope = math.exp(-2.0 * abs2 / width) / (math.pi * width ** (n + 1))
    if envelope == 0.0:
        return 0.0
    return envelope * laguerre_exact(n, -4.0 * n_c * abs2 / width)
