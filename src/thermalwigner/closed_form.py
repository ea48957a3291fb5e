"""Closed-form Wigner functions of the four finite-temperature families.

All evaluators share the structure Gaussian envelope x polynomial
modulation.  Writing s = sech(2 theta), c = cosh(2 theta):

  * thermal vacuum:      W = s/pi * exp(-2|a|^2 s)
  * photon-subtracted:   W = exp(-2|a|^2 s) / (pi c^(n+1))
                              * L_n(-(4 sinh^2 theta / c) |a|^2)   >= 0
  * photon-added:        W = (-1)^n exp(-2|a|^2 s) / (pi c^(n+1))
                              * L_n((4 cosh^2 theta / c) |a|^2)
  * thermal number:      double polynomial sum over two-variable
                          Hermite moduli, exp(-2|a|^2 s) times a polynomial
                          of degree 2n in |a|^2, see :func:`_thermal_number_kernel`
  * zero-T number state: W = (-1)^n / pi * exp(-2|a|^2) L_n(4 |a|^2),
                          the theta -> 0 limit of the added and thermal
                          number families.

Here |a|^2 = (q^2 + p^2)/2 and the normalization is
integral W dq dp = 1 (vacuum peak 1/pi).

Every family is Fock-diagonal, so its Wigner function depends on |a|^2
alone.  Each family has one radial kernel ``kernel(abs2, n, theta)`` in
``_KERNELS``, dispatched by :func:`wigner_closed_radial`; the point
evaluator :func:`wigner_closed_form`, the grid evaluator
:func:`wigner_closed_grid`, the per-family ``wigner_*`` wrappers and the
radial quadrature of ``analysis`` all go through it.  The thermal number
sum is taken at real arguments at the 2n + 1 nodes of a Gauss-Laguerre
rule, projected onto Laguerre polynomials and summed by Clenshaw's
recurrence at the radii it is given.

The grid evaluators are one call to
:func:`~thermalwigner.states.radial_grid`, which folds the product grid
onto its distinct |alpha|^2 and calls the kernel once on them, so every
kernel sees distinct radii and none deduplicates its input.  Every kernel
is elementwise in its radii: a radius gets the same value, bit for bit,
whatever else the call evaluates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# The kernels never call ``hermite2``.  It stays importable from here
# because the benchmark's tracer (perfbench/tracing.py) wraps
# ``closed_form.hermite2`` to count its calls.
from .specfun import factorial, hermite2, laguerre  # noqa: F401
from .states import Family, PhasePoint, StateSpec, check_excitation_count, radial_grid
from .thermo import ThermalParams


class DegenerateStateError(ValueError):
    """The requested state does not exist (zero norm or removable limit)."""


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


def _laguerre_rows(count: int, x: np.ndarray) -> np.ndarray:
    """L_0(x) ... L_{count-1}(x) as the rows of one array.

    The three-term recurrence of :func:`~thermalwigner.specfun.laguerre`,
    rounded in the same order, with every order kept.
    """
    rows = np.empty((count, x.size))
    rows[0] = 1.0
    if count > 1:
        rows[1] = 1.0 - x
    for k in range(1, count - 1):
        rows[k + 1] = ((2 * k + 1 - x) * rows[k] - k * rows[k - 1]) / (k + 1)
    return rows


@lru_cache(maxsize=None)
def _gauss_laguerre(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``order``-point Gauss-Laguerre rule: nodes, weights and L_j at the nodes.

    The rule integrates exp(-v) f(v) on [0, inf) exactly for every
    polynomial f of degree below 2 * order.  Its nodes are the
    eigenvalues of the Laguerre Jacobi matrix, diagonal 2k + 1 and
    off-diagonal k (Golub & Welsch, Math. Comp. 23, 221, 1969), refined
    by one Newton step on L_order.  The L_j are orthonormal under
    exp(-v), so the weights are the Christoffel numbers
    1 / sum_{j < order} L_j(v)^2, normalized to sum 1, the integral of
    exp(-v).  That sum of squares has no cancellation: its weights are
    within 1e-14 of 40-digit ones at every odd order up to 33, where the
    textbook v / (order L_{order-1}(v))^2 is off by up to 3e-13.  Returns the
    nodes, the weights and the rows L_0 ... L_{order-1} at the nodes,
    cached per order and read-only.
    """
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + 1.0) + np.diag(k[1:], -1)  # eigvalsh reads the lower triangle
    nodes = np.linalg.eigvalsh(jacobi)
    # L_order'(v) = order (L_order(v) - L_{order-1}(v)) / v
    below, top = _laguerre_rows(order + 1, nodes)[-2:]
    nodes = nodes - nodes * top / (order * (top - below))
    rows = _laguerre_rows(order, nodes)
    weights = 1.0 / np.sum(rows * rows, axis=0)
    weights /= weights.sum()
    for array in (nodes, weights, rows):
        array.setflags(write=False)
    return nodes, weights, rows


@lru_cache(maxsize=None)
def _thermal_number_factorials(n: int) -> np.ndarray:
    """n!^2 (-1)^(n-m) / ((n-m)! (n-j)! (m! j!)^2), the theta-free part of D[m, j].

    D[m, j] = this * s^(2n-m-j) t^(2j) is the weight of H_{m,j}(x, y)^2
    in the thermal number sum; cached per n and read-only.
    """
    fact = np.array([factorial(i) for i in range(n + 1)])
    m = np.arange(n + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    factorials = (
        factorial(n) ** 2
        * (-1.0) ** (n - m)
        / (fact[n - m] * fact[n - j] * (fact[m] * fact[j]) ** 2)
    )
    factorials.setflags(write=False)
    return factorials


def _laguerre_series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] L_j(x) by Clenshaw's recurrence (MTAC 9, 118, 1955).

    b_k = a_k + (2k + 1 - x) b_{k+1} / (k + 1) - (k + 1) b_{k+2} / (k + 2)
    runs down from b_J = a_J to the sum b_0, elementwise in x.
    """
    b1 = np.full_like(x, coeffs[-1])
    b2 = np.zeros_like(x)
    tmp = np.empty_like(x)
    for k in range(coeffs.size - 2, -1, -1):
        np.subtract(2 * k + 1, x, out=tmp)
        tmp *= b1
        tmp *= 1.0 / (k + 1)
        b2 *= -(k + 1) / (k + 2)
        b2 += tmp
        b2 += coeffs[k]
        b1, b2 = b2, b1
    return b1


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
    x = 2 r s cosh(theta), y = 2 r s sinh(theta) / t.  With v = 4 r^2 s
    the sum is exp(-v/2) times a polynomial P(v) of degree 2n, a
    Gaussian-Laguerre function of the temperature as the paper finds.

    P is taken from the double sum at the 2n + 1 nodes v_i of the
    Gauss-Laguerre rule of that order, the Hermite rows H_{m,0..n}
    coming from the recurrence

        H_{0,k} = y^k,    H_{m+1,k} = x H_{m,k} - k H_{m,k-1}

    (the s-derivative of the generating function exp(s x + t y - s t)),
    each row's squares contracted with the coefficient matrix, with
    m = n - k and j = n - l.  The rule's weights project those values
    onto L_0 ... L_{2n}; the projection is exact, since P L_j has degree
    at most 4n and the rule integrates exp(-v) times any polynomial of
    degree up to 4n + 1.  The series sum_j a_j L_j(v) is then summed by
    Clenshaw's recurrence at each given radius: 2n + 1 terms per radius
    instead of the (n + 1)^2 of the table, and a kernel elementwise in
    its radii, so a radius gives the same value in any input.

    The error is the double sum's own: its cancellation at the nodes,
    which grows with n and as theta falls (against a 50-digit sum, about
    4e-16, 2e-14, 5e-13 and 4e-11 at n = 4, 8, 12, 16 for theta from
    0.1 to 5).  Fed exact node values, the projection and the series are
    within 1e-14 of it at n = 16.
    """
    if theta <= 0.0:
        raise DegenerateStateError(
            "theta = 0 is a removable limit of the thermal number formula; "
            "use wigner_number_state for the zero-temperature case"
        )
    abs2 = np.asarray(abs2, dtype=float)
    nodes, weights, rows = _gauss_laguerre(2 * n + 1)
    cosh2 = math.cosh(2.0 * theta)
    sech2 = 1.0 / cosh2
    tanh2 = math.tanh(2.0 * theta)
    m = np.arange(n + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    coeff = _thermal_number_factorials(n) * sech2 ** (2 * n - m - j) * tanh2 ** (2 * j)
    # the real Hermite arguments at the nodes, where 2 r s = sqrt(v s)
    scale = np.sqrt(nodes * sech2)
    x = scale * math.cosh(theta)
    y = scale * (math.sinh(theta) / tanh2)
    k = np.arange(n + 1.0)[:, None]
    row = y**k  # H_{0,k}
    total = coeff[0] @ (row * row)
    for step in range(1, n + 1):
        correction = k[1:] * row[:-1]
        row *= x
        row[1:] -= correction
        total += coeff[step] @ (row * row)
    series = rows @ (weights * total) / (math.pi * cosh2)  # a_0 ... a_2n
    radii2 = abs2.ravel()
    values = np.exp(-2.0 * radii2 * sech2) * _laguerre_series(series, 4.0 * sech2 * radii2)
    return values.reshape(abs2.shape)


_KERNELS = {
    Family.THERMAL_VACUUM: _vacuum_kernel,
    Family.PHOTON_SUBTRACTED: _subtracted_kernel,
    Family.PHOTON_ADDED: _added_kernel,
    Family.THERMAL_NUMBER: _thermal_number_kernel,
}


# ---------------------------------------------------------------------------
# dispatch and grid evaluation


def wigner_closed_radial(state: StateSpec, abs2) -> np.ndarray:
    """The closed form selected by ``state`` at each |alpha|^2 of ``abs2``."""
    return _KERNELS[state.family](abs2, state.n, state.thermal.theta)


def wigner_closed_form(state: StateSpec, point: PhasePoint) -> float:
    """Evaluate the closed form selected by ``state`` at one point."""
    return float(wigner_closed_radial(state, point.abs2))


def wigner_closed_grid(state: StateSpec, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate the closed form on the Cartesian product of axes q and p.

    Returns an array of shape (len(q), len(p)) with entry [i, j] at
    (q[i], p[j]).
    """
    return radial_grid(lambda abs2: wigner_closed_radial(state, abs2), q, p)


def wigner_number_grid(n: int, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Zero-temperature number-state Wigner function on the axes q x p."""
    n = check_excitation_count(n)
    return radial_grid(lambda abs2: _number_kernel(abs2, n), q, p)


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
    n = check_excitation_count(n)
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
    n = check_excitation_count(n)
    return float(_number_kernel(point.abs2, n))


def norm_const_subtracted(n: int, thermal: ThermalParams) -> float:
    """Normalization constant of the n-photon-subtracted thermal state.

    1 / (n! sinh^(2n) theta); the inverse is the raw trace of the
    subtracted (unnormalized) density matrix, which the Fock oracle
    reproduces numerically.
    """
    n = check_excitation_count(n)
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
    n = check_excitation_count(n)
    if n == 0:
        return 1.0
    return 1.0 / (factorial(n) * math.cosh(thermal.theta) ** (2 * n))
