"""Closed-form Wigner functions of the four finite-temperature families.

All evaluators share the structure Gaussian envelope x polynomial
modulation.  Writing s = sech(2 theta), c = cosh(2 theta):

  * thermal vacuum:      W = s/pi * exp(-2|a|^2 s)
  * photon-subtracted:   W = exp(-2|a|^2 s) / (pi c^(n+1))
                              * L_n(-(4 sinh^2 theta / c) |a|^2)   >= 0
  * photon-added:        W = (-1)^n exp(-2|a|^2 s) / (pi c^(n+1))
                              * L_n((4 cosh^2 theta / c) |a|^2)
  * thermal number:      double polynomial sum over two-variable
                          Hermite moduli, see :func:`_thermal_number_kernel`
  * zero-T number state: W = (-1)^n / pi * exp(-2|a|^2) L_n(4 |a|^2),
                          the theta -> 0 limit of the added and thermal
                          number families.

Here |a|^2 = (q^2 + p^2)/2 and the normalization is
integral W dq dp = 1 (vacuum peak 1/pi).

Every family is Fock-diagonal, so its Wigner function depends on |a|^2
alone.  Each family has one radial kernel ``kernel(abs2, n, theta)`` in
``_KERNELS``; the point evaluator :func:`wigner_closed_form`, the grid
evaluator :func:`wigner_closed_grid` and the per-family ``wigner_*``
wrappers all go through that table.  The thermal number sum is taken at
real arguments, with the two-variable Hermite rows built by recurrence
on the distinct radii of the input.
"""

from __future__ import annotations

import math

import numpy as np

# The kernels never call ``hermite2``.  It stays importable from here
# because the benchmark's tracer (perfbench/tracing.py) wraps
# ``closed_form.hermite2`` to count its calls.
from .specfun import factorial, hermite2, hermite2_rows, laguerre  # noqa: F401
from .states import EXCITATION_MAX, Family, PhasePoint, StateSpec
from .thermo import ThermalParams


class DegenerateStateError(ValueError):
    """The requested state does not exist (zero norm or removable limit)."""


def _check_n(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n > EXCITATION_MAX:
        raise ValueError(f"n = {n} exceeds the supported maximum {EXCITATION_MAX}")
    return int(n)


# ---------------------------------------------------------------------------
# radial kernels: kernel(abs2, n, theta) -> W, vectorized over |alpha|^2


def _vacuum_kernel(abs2, n: int, theta: float):
    sech2 = 1.0 / math.cosh(2.0 * theta)
    return sech2 / math.pi * np.exp(-2.0 * abs2 * sech2)


def _laguerre_envelope(abs2, n: int, theta: float):
    """exp(-2|a|^2 sech 2theta) / (pi cosh^(n+1) 2theta) of the Laguerre families."""
    cosh2 = math.cosh(2.0 * theta)
    return np.exp(-2.0 * abs2 * (1.0 / cosh2)) / (math.pi * cosh2 ** (n + 1))


def _subtracted_kernel(abs2, n: int, theta: float):
    if n >= 1 and theta == 0.0:
        raise DegenerateStateError(
            "photon subtraction from the zero-temperature vacuum yields the "
            "null state; no Wigner function exists"
        )
    scale = 4.0 * math.sinh(theta) ** 2 / math.cosh(2.0 * theta)
    return _laguerre_envelope(abs2, n, theta) * laguerre(n, -scale * abs2)


def _subtracted_nc_kernel(abs2, n: int, n_c: float):
    width = 2.0 * n_c + 1.0
    envelope = np.exp(-2.0 * abs2 / width) / (math.pi * width ** (n + 1))
    return envelope * laguerre(n, -4.0 * n_c * abs2 / width)


def _added_kernel(abs2, n: int, theta: float):
    scale = 4.0 * math.cosh(theta) ** 2 / math.cosh(2.0 * theta)
    return (-1.0) ** n * _laguerre_envelope(abs2, n, theta) * laguerre(n, scale * abs2)


def _number_kernel(abs2, n: int):
    return (-1.0) ** n / math.pi * np.exp(-2.0 * abs2) * laguerre(n, 4.0 * abs2)


def _thermal_number_coefficients(n: int, theta: float) -> np.ndarray:
    """D[m, j], the weight of H_{m,j}(x, y)^2 in the thermal number sum."""
    sech2 = 1.0 / math.cosh(2.0 * theta)
    tanh2 = math.tanh(2.0 * theta)
    fact = np.array([factorial(i) for i in range(n + 1)])
    m = np.arange(n + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    return (
        factorial(n) ** 2
        * (-1.0) ** (n - m)
        * sech2 ** (2 * n - m - j)
        * tanh2 ** (2 * j)
        / (fact[n - m] * fact[n - j] * (fact[m] * fact[j]) ** 2)
    )


def _thermal_number_kernel(abs2, n: int, theta: float):
    """Double Hermite sum for the finite-temperature number state.

    With s = sech(2 theta), t = tanh(2 theta) and the linear arguments
    E = 2 alpha s cosh(theta), Y = 2 conj(alpha) s sinh(theta) / t:

        W = n!^2 exp(-2|a|^2 s) / (pi cosh 2 theta)
            * sum_{l,k=0}^{n} (-1)^k s^(l+k) t^(2(n-l))
              / (l! k! ((n-l)! (n-k)!)^2) * |H_{n-k,n-l}(E, Y)|^2

    The t^(2(n-l)) exponent follows l only: the Y-side argument carries
    1/t, and the l-indexed differentiations that produce the sum restore
    t powers on that side alone.

    The sum is radial.  At alpha = r e^(i phi) every term of
    H_{m,j}(E, Y) carries the phase e^(i phi (m - j)), so
    |H_{m,j}(E, Y)| = |H_{m,j}(x, y)| at the real arguments
    x = 2 r s cosh(theta), y = 2 r s sinh(theta) / t.  The kernel
    therefore evaluates each distinct |alpha|^2 once, in real arithmetic:
    the Hermite rows H_{m,0..n} come from one recurrence
    (:func:`~thermalwigner.specfun.hermite2_rows`) and each row's
    squares are contracted with the coefficient matrix, with
    m = n - k and j = n - l.
    """
    if theta <= 0.0:
        raise DegenerateStateError(
            "theta = 0 is a removable limit of the thermal number formula; "
            "use wigner_number_state for the zero-temperature case"
        )
    abs2 = np.asarray(abs2, dtype=float)
    radii2, inverse = np.unique(abs2, return_inverse=True)
    sech2 = 1.0 / math.cosh(2.0 * theta)
    scale = 2.0 * np.sqrt(radii2) * sech2
    x = scale * math.cosh(theta)
    y = scale * (math.sinh(theta) / math.tanh(2.0 * theta))
    coeff = _thermal_number_coefficients(n, theta)
    total = np.zeros_like(radii2)
    for m, row in enumerate(hermite2_rows(n, n, x, y)):
        total += coeff[m] @ (row * row)
    values = np.exp(-2.0 * radii2 * sech2) / (math.pi * math.cosh(2.0 * theta)) * total
    return values[inverse].reshape(abs2.shape)


_KERNELS = {
    Family.THERMAL_VACUUM: _vacuum_kernel,
    Family.PHOTON_SUBTRACTED: _subtracted_kernel,
    Family.PHOTON_ADDED: _added_kernel,
    Family.THERMAL_NUMBER: _thermal_number_kernel,
}


# ---------------------------------------------------------------------------
# dispatch and grid evaluation


def wigner_closed_form(state: StateSpec, point: PhasePoint) -> float:
    """Evaluate the closed form selected by ``state`` at one point."""
    return float(_KERNELS[state.family](point.abs2, state.n, state.thermal.theta))


def wigner_closed_grid(state: StateSpec, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate the closed form on the Cartesian product of axes q and p.

    Returns an array of shape (len(q), len(p)) with entry [i, j] at
    (q[i], p[j]).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError("grid axes must be finite")
    abs2 = 0.5 * (q[:, None] ** 2 + p[None, :] ** 2)
    return _KERNELS[state.family](abs2, state.n, state.thermal.theta)


def wigner_number_grid(n: int, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Zero-temperature number-state Wigner function on the axes q x p."""
    n = _check_n(n)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    abs2 = 0.5 * (q[:, None] ** 2 + p[None, :] ** 2)
    return _number_kernel(abs2, n)


# ---------------------------------------------------------------------------
# public point evaluators


def wigner_thermal_vacuum(point: PhasePoint, thermal: ThermalParams) -> float:
    """Wigner function of the thermal (single-mode Gaussian) state."""
    return wigner_closed_form(StateSpec(Family.THERMAL_VACUUM, thermal), point)


def wigner_photon_subtracted(point: PhasePoint, n: int, thermal: ThermalParams) -> float:
    """Wigner function after subtracting n photons from the thermal state.

    Nonnegative everywhere: the Laguerre polynomial is evaluated at a
    nonpositive argument where all its terms are positive.

    Raises:
        DegenerateStateError: for n >= 1 at theta = 0, where subtraction
            annihilates the vacuum and the state has zero norm.
    """
    return wigner_closed_form(StateSpec(Family.PHOTON_SUBTRACTED, thermal, n=n), point)


def wigner_photon_subtracted_ncform(point: PhasePoint, n: int, n_c: float) -> float:
    """Photon-subtracted Wigner function parameterized by the occupation n_c.

    Algebraically identical to :func:`wigner_photon_subtracted` under
    n_c = sinh^2(theta), 2 n_c + 1 = cosh(2 theta); kept as an
    independent evaluation route for cross-checking.
    """
    n = _check_n(n)
    n_c = float(n_c)
    if not math.isfinite(n_c) or n_c < 0.0:
        raise ValueError(f"n_c must be finite and >= 0, got {n_c!r}")
    if n >= 1 and n_c == 0.0:
        raise DegenerateStateError(
            "photon subtraction from the zero-occupation state yields the "
            "null state; no Wigner function exists"
        )
    return float(_subtracted_nc_kernel(point.abs2, n, n_c))


def wigner_photon_added(point: PhasePoint, n: int, thermal: ThermalParams) -> float:
    """Wigner function after adding n photons to the thermal state.

    Sign at the origin is (-1)^n and the radial profile inherits the n
    sign changes of the Laguerre polynomial, so the function dips
    negative for every n >= 1.  theta = 0 is allowed (it gives the
    number state |n>).
    """
    return wigner_closed_form(StateSpec(Family.PHOTON_ADDED, thermal, n=n), point)


def wigner_thermal_number(point: PhasePoint, n: int, thermal: ThermalParams) -> float:
    """Wigner function of the finite-temperature number state.

    Raises:
        DegenerateStateError: at theta = 0, a removable 0/0 limit of the
            formula whose value is :func:`wigner_number_state`.
    """
    return wigner_closed_form(StateSpec(Family.THERMAL_NUMBER, thermal, n=n), point)


def wigner_number_state(point: PhasePoint, n: int) -> float:
    """Wigner function of the zero-temperature number state |n>."""
    n = _check_n(n)
    return float(_number_kernel(point.abs2, n))


def norm_const_subtracted(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-subtracted thermal state.

    1 / (n! sinh^(2n) theta); the inverse is the raw trace of the
    subtracted (unnormalized) density matrix, which the Fock oracle
    reproduces numerically.
    """
    n = _check_n(n)
    if n >= 1 and thermal.theta == 0.0:
        raise DegenerateStateError(
            "the photon-subtracted vacuum has zero norm; the normalization "
            "constant diverges"
        )
    if n == 0:
        return 1.0
    return 1.0 / (factorial(n) * math.sinh(thermal.theta) ** (2 * n))


def norm_const_added(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-added thermal state.

    1 / (n! cosh^(2n) theta); total for all theta >= 0.
    """
    n = _check_n(n)
    if n == 0:
        return 1.0
    return 1.0 / (factorial(n) * math.cosh(thermal.theta) ** (2 * n))
