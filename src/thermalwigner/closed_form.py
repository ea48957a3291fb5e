"""Closed-form Wigner functions of the four finite-temperature families.

Every family is a Gaussian-Laguerre function of the temperature, as the
paper finds: exp(-2u) times a polynomial in the Gaussian variable
u = |a|^2 sech(2 theta).  Writing s = sech(2 theta), c = cosh(2 theta):

  * thermal vacuum:      W = s/pi * exp(-2u)
  * photon-subtracted:   W = exp(-2u) / (pi c^(n+1)) * L_n(-4 sinh^2(theta) u)   >= 0,
                          L_n(-y) = sum_k C(n, k) y^k / k!
  * photon-added:        W = (-1)^n exp(-2u) / (pi c^(n+1)) * L_n(4 cosh^2(theta) u)
  * thermal number:      W = exp(-2u) sum_{k=0}^{2n} a_k L_k(4u), the paper's
                          double sum over two-variable Hermite moduli,
                          a_k = a_{2n-k} = (-1)^n / (pi c) sum_r G_kr cos(r psi),
                          psi = 2 arctan(sinh 2theta), see
                          :func:`_thermal_number_sum`
  * zero-T number state: W = (-1)^n / pi * exp(-2|a|^2) L_n(4 |a|^2),
                          the theta = 0 value of the added and thermal
                          number families, where u = |a|^2; kept as the
                          reference their zero-temperature limits are
                          checked against.

Here |a|^2 = (q^2 + p^2)/2 and the normalization is
integral W dq dp = 1 (vacuum peak 1/pi).

Every family is Fock-diagonal, so its Wigner function depends on |a|^2
alone.  Each family has one radial kernel in u, dispatched by
:func:`prepare_gaussian`: given (family, n, u) it does the theta-free
work once, the Gaussian exp(-2u) that the vacuum and Laguerre kernels
scale and the Laguerre rows of the thermal number state, and returns
the closed form as a function of theta.  :func:`wigner_closed_gaussian`
is its one-theta call; :func:`wigner_closed_radial` passes that
u = |a|^2 * sech(2 theta), and the point evaluator
:func:`wigner_closed_form`, the grid evaluator :func:`wigner_closed_grid`
and the per-family ``wigner_*`` wrappers go through it.  The radial
quadrature of ``analysis`` builds u itself from its plan and prepares
it once per scan.  The photon-subtracted L_n(-y), a series of positive
terms, is summed by Horner in y on its exact coefficients C(n, k) / k!;
the photon-added L_n is one call of
:func:`~thermalwigner.specfun.laguerre`.  The thermal number
coefficients a_k are one product of an exact theta-free table G with
the cosines cos(r psi) at every theta, 0 included, where they give
|n>; a_k = a_{2n-k}, so the series is summed over n + 1 held rows,
exp(-v/2) (L_k(v) + L_{2n-k}(v)) at v = 4u, which a one-theta call
builds and sums once and a scan sums at every theta.
Those rows and ``laguerre`` come from the one three-term
recurrence :func:`~thermalwigner.specfun.laguerre_rows`, seeded with
exp(-v/2) or with 1.  The Horner loop and that recurrence multiply and
add only.  No kernel writes
into the u or exp(-2u) it is handed, which a prepared kernel holds
across theta.  No call keeps state for the next.
Where exp(-2u) underflows to 0 every closed form is +0.0, and no
polynomial factor is evaluated there, where it could overflow.

The grid evaluators are one call to
:func:`~thermalwigner.states.radial_grid`, which folds the product grid
onto its distinct |alpha|^2 and calls the kernel once on them, so every
kernel sees distinct radii and none deduplicates its input.  Every kernel
is elementwise in its radii: a radius gets the same value, bit for bit,
whatever else the call evaluates and whatever was evaluated before.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

# The kernels never call ``hermite2``.  It stays importable from here
# because the benchmark's tracer (perfbench/tracing.py) wraps
# ``closed_form.hermite2`` to count its calls.
from .specfun import hermite2, laguerre, laguerre_rows  # noqa: F401
from .states import Family, PhasePoint, StateSpec, check_excitation_count, radial_grid
from .thermo import ThermalParams, params_from_mean_photons


class DegenerateStateError(ValueError):
    """The requested state does not exist: it has zero norm."""


# ---------------------------------------------------------------------------
# radial kernels, vectorized over u = |alpha|^2 sech 2theta.  Each takes its
# theta-free inputs from prepare_gaussian, then theta: the vacuum kernel the
# Gaussian envelope = exp(-2u), the Laguerre kernels (u, envelope, n) at the
# radii where that envelope is nonzero (_live), and the thermal number kernel
# the Laguerre rows it folds from them, and n.


def _live(u):
    """(live, u[live], exp(-2u)[live]) at the radii u, live where exp(-2u) != 0.

    Beyond them every closed form is +0.0, while its polynomial factor can
    overflow there (and 0 * inf is NaN): a kernel sees the live radii
    alone and :func:`_scatter` writes +0.0 at the others.  Where every
    radius is live, as on every norm plan, ``live`` is None and the radii
    are u itself.
    """
    u = np.asarray(u, dtype=float)
    envelope = np.exp(-2.0 * u)
    live = envelope != 0.0
    if live.all():
        return None, u, envelope
    return live, u[live], envelope[live]


def _scatter(live, values):
    """``values`` at the ``live`` radii and +0.0 at the others; ``values`` if live is None."""
    if live is None:
        return values
    out = np.zeros(live.shape)
    out[live] = values
    return out


def _vacuum_kernel(envelope, theta: float):
    return (1.0 / math.cosh(2.0 * theta)) / math.pi * envelope


def _subtracted_kernel(u, envelope, n: int, theta: float):
    """exp(-2u) / (pi cosh^(n+1) 2theta) * L_n(-y) at y = 4 sinh^2(theta) u.

    L_n(-y) = sum_k C(n, k) y^k / k! has positive terms only, so it is
    summed by Horner in y on coefficients that are the exact ratios
    C(n, k) / k!, correctly rounded: every step adds positive to
    positive, so nothing cancels, the error is a few n ulp pointwise and
    no value is negative or -0.0.  The polynomial is then scaled, in
    place, by the envelope and by 1 / (pi cosh^(n+1) 2theta).  2n + 3
    array passes and no division; ``u`` and ``envelope`` are read, never
    written, since a prepared kernel holds them for every theta.
    """
    if n >= 1 and theta == 0.0:
        raise DegenerateStateError(
            "photon subtraction from the zero-temperature vacuum yields the "
            "null state; no Wigner function exists"
        )
    scale = 1.0 / (math.pi * math.cosh(2.0 * theta) ** (n + 1))
    if n == 0:
        return envelope * scale
    coefficients = [math.comb(n, k) / math.factorial(k) for k in range(n + 1)]
    y = 4.0 * math.sinh(theta) ** 2 * u
    values = y * coefficients[n]
    values += coefficients[n - 1]
    for coefficient in reversed(coefficients[:n - 1]):
        values *= y
        values += coefficient
    values *= envelope
    values *= scale
    return values


def _subtracted_nc_kernel(abs2: float, n: int, n_c: float) -> float:
    width = 2.0 * n_c + 1.0
    envelope = np.exp(-2.0 * abs2 / width) / (math.pi * width ** (n + 1))
    if envelope == 0.0:  # the far tail, where L_n can overflow
        return 0.0
    return envelope * laguerre(n, -4.0 * n_c * abs2 / width)


def _added_kernel(u, envelope, n: int, theta: float):
    """(-1)^n exp(-2u) / (pi cosh^(n+1) 2theta) * L_n(4 cosh^2(theta) u).

    L_n from one :func:`~thermalwigner.specfun.laguerre` call, the seed-1
    last row of the recurrence that also builds the thermal number rows,
    then two in-place products: the envelope, and the one scalar
    (-1)^n / (pi cosh^(n+1) 2theta).
    """
    values = laguerre(n, 4.0 * math.cosh(theta) ** 2 * u)
    values *= envelope
    values *= (-1.0) ** n / (math.pi * math.cosh(2.0 * theta) ** (n + 1))
    return values


def _number_kernel(abs2, n: int):
    """The zero-temperature number state, where u = |alpha|^2."""
    live, abs2, envelope = _live(abs2)
    return _scatter(live, (-1.0) ** n / math.pi * envelope * laguerre(n, 4.0 * abs2))


@lru_cache(maxsize=None)
def _thermal_number_matrix(n: int) -> np.ndarray:
    """The theta-free table G of the thermal number coefficients, (n + 1, n + 1), read-only.

    a_k = (-1)^n / (pi cosh 2theta) sum_m b_km tau^m, with
    b_km = (-1)^m C(n, m) C(n + m, m) C(2m, m + k - n) and
    tau = tanh^2(2 theta) / 4 (:func:`_thermal_number_sum`).  In floats
    the tau-sum alternates and cancels.  In the angle
    psi = 2 arctan(sinh 2theta), cos psi = 1 - 2 tanh^2 2theta, so
    tau = sin^2(psi / 2) / 4 and

        tau^m = 16^-m (C(2m, m) + 2 sum_{r=1}^{m} (-1)^r C(2m, m - r) cos(r psi)).

    Row k holds the coefficients G[k, r] of cos(r psi), r = 0 ... n, in
    sum_m b_km tau^m.  Each is an integer over 16^n, summed in Python
    integers and divided once, int by int, so it is correctly rounded.
    Row n is nonnegative and sums to 1, and no row's absolute sum exceeds
    it.  b_km = b_(2n-k)m, so only rows k <= n are built.  Cached per n.
    """
    binomials = [[math.comb(2 * m, m - r) for r in range(m + 1)] for m in range(n + 1)]
    rows = []
    for k in range(n + 1):
        row = [0] * (n + 1)  # 16^n sum_m b_km tau^m, the cos(r psi) terms without (-1)^r
        for m in range(n - k, n + 1):
            b = (-1) ** m * math.comb(n, m) * math.comb(n + m, m) * math.comb(2 * m, m + k - n)
            b *= 16 ** (n - m)
            row[:m + 1] = [c + b * binomial for c, binomial in zip(row, binomials[m])]
        rows.append([(-1) ** r * (2 if r else 1) * c / 16**n for r, c in enumerate(row)])
    matrix = np.array(rows)
    matrix.setflags(write=False)
    return matrix


def _thermal_number_series(n: int, theta: float) -> np.ndarray:
    """The coefficients a_0 ... a_n of W = exp(-v/2) sum_k a_k L_k(v) at temperature theta.

    a_k = (-1)^n / (pi cosh 2theta) sum_r G[k, r] cos(r psi), with
    psi = 2 arctan(sinh 2theta) and G :func:`_thermal_number_matrix`:
    one product per theta, whose terms are bounded by |G[k, r]|; the
    other half is the mirror a_{2n-k} = a_k.  The error is absolute, about
    1e-16 of 1 / (pi cosh 2theta), above the outer a_{n +- j} ~ tau^j at
    small theta.  At theta = 0, psi = 0 and a_k = (-1)^n / pi times the
    sum of row k: 1 for k = n and 0 for the others, to the rounding of
    the table's entries, so the series is the number state |n>.
    """
    psi = 2.0 * math.atan(math.sinh(2.0 * theta))
    scale = (-1.0) ** n / (math.pi * math.cosh(2.0 * theta))
    return _thermal_number_matrix(n) @ np.cos(psi * np.arange(n + 1)) * scale


def _thermal_number_rows(u, envelope, n: int) -> np.ndarray:
    """The n + 1 folded rows S_k = R_k + R_{2n-k} (k < n), S_n = R_n, R_j = exp(-2u) L_j(4u).

    R_0 ... R_2n stream through a three-row ring of
    :func:`~thermalwigner.specfun.laguerre_rows`: rows j <= n are copied
    out, and each row j > n is added into row 2n - j.
    """
    rows = np.empty((n + 1, u.size))
    for j, row in enumerate(laguerre_rows(4.0 * u, envelope, 2 * n + 1)):
        if j <= n:
            rows[j] = row
        else:
            rows[2 * n - j] += row
    return rows


def _thermal_number_sum(rows: np.ndarray, n: int, theta: float):
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
    x = 2 r s cosh(theta), y = 2 r s sinh(theta) / t.  With v = 4u =
    4 r^2 s the sum is exp(-v/2) times a polynomial P(v) of degree 2n,
    a Gaussian-Laguerre function of the temperature as the paper finds.

    Its Laguerre coefficients collapse to one sum.  Taken, like the
    double sum, from the generating function of the two-mode Wigner
    function of S(theta)|n, n>, and summed with the identity
    sum_j C(n, j)^2 X^j (X + w)^(n-j) = sum_m C(n, m) C(n + m, m) X^m w^(n-m),
    it is

        W = exp(-v/2) sum_{k=0}^{2n} a_k L_k(v),
        a_k = (-1)^n / (pi cosh 2theta)
              * sum_{m=|k-n|}^{n} (-1)^m C(n, m) C(n + m, m) C(2m, m + k - n) tau^m,

    tau = tanh^2(2 theta) / 4.  C(2m, m + k - n) is symmetric under
    k <-> 2n - k, so a_k = a_{2n-k} and W = sum_{k=0}^{n} a_k S_k over
    the folded ``rows`` of :func:`_thermal_number_rows`.
    :func:`_thermal_number_series` takes a_0 ... a_n from a theta-free
    exact table in cos(r psi), psi = 2 arctan(sinh 2theta)
    (:func:`_thermal_number_matrix`), one product per theta, and the
    sum is accumulated in k order, elementwise, so a radius gives the
    same value in any input.  ``rows`` is read, never written.

    No step cancels: the table's rows have absolute sums of at most 1,
    the cosines and |exp(-v/2) L_j(v)| <= 1 (v >= 0) are bounded by 1,
    and so each folded row by 2.  Against a 50-digit evaluation of the
    double sum the error is at most about 1e-16 at every n up to 16, for
    theta from 0.001 to 5.  That bound is absolute, about 1e-16 of
    1 / (pi cosh 2theta): in the far tail at small theta, where W is far
    below it, the sign of a value is not resolved.
    """
    series = _thermal_number_series(n, theta)
    total = rows[0] * series[0]
    tmp = np.empty_like(total)
    for coeff, row in zip(series[1:], rows[1:]):
        np.multiply(row, coeff, out=tmp)
        total += tmp
    return total


_LAGUERRE_KERNELS = {
    Family.PHOTON_SUBTRACTED: _subtracted_kernel,
    Family.PHOTON_ADDED: _added_kernel,
}


# ---------------------------------------------------------------------------
# dispatch and grid evaluation


def prepare_gaussian(family: Family, n: int, u):
    """The closed form of ``family`` and ``n`` at the radii ``u``, as a function of theta.

    Does the theta-free work once and returns ``at(theta)``, the closed
    form at each u = |alpha|^2 sech 2theta of ``u``, so that a scan over
    temperatures on fixed u pays it once; a one-theta call
    (:func:`wigner_closed_gaussian`) is ``at`` called once.  That work is
    the Gaussian exp(-2u), which the vacuum and Laguerre kernels scale,
    and for the thermal number state its 2n + 1 rows exp(-2u) L_j(4u)
    folded onto n + 1 by the mirror symmetry of their coefficients
    (:func:`_thermal_number_rows`), which ``at`` sums at every theta.
    """
    family = Family(family)
    if family is Family.THERMAL_VACUUM:
        return partial(_vacuum_kernel, np.exp(-2.0 * u))
    live, u, envelope = _live(u)
    if family is Family.THERMAL_NUMBER:
        kernel = partial(_thermal_number_sum, _thermal_number_rows(u, envelope, n), n)
    else:
        kernel = partial(_LAGUERRE_KERNELS[family], u, envelope, n)
    return lambda theta: _scatter(live, kernel(theta).reshape(u.shape))


def wigner_closed_gaussian(state: StateSpec, u) -> np.ndarray:
    """The closed form selected by ``state`` at each u = |alpha|^2 sech 2theta of ``u``."""
    return prepare_gaussian(state.family, state.n, u)(state.thermal.theta)


def wigner_closed_radial(state: StateSpec, abs2) -> np.ndarray:
    """The closed form selected by ``state`` at each |alpha|^2 of ``abs2``."""
    return wigner_closed_gaussian(
        state, np.asarray(abs2, dtype=float) * (1.0 / state.thermal.cosh_2theta)
    )


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
    n_c = sinh^2(theta), 2 n_c + 1 = cosh(2 theta), and kept as an
    independent evaluation route for cross-checking: it takes L_n from
    the three-term recurrence of :func:`~thermalwigner.specfun.laguerre`,
    where the theta form sums the power series by Horner.

    Raises:
        ValueError: for an n_c that is not finite, is negative or exceeds
            sinh^2(THETA_MAX), with the message of
            :func:`~thermalwigner.thermo.params_from_mean_photons`.
        DegenerateStateError: for n >= 1 at n_c = 0.
    """
    n = check_excitation_count(n)
    n_c = float(n_c)
    params_from_mean_photons(n_c)  # the theta form's range, refused alike
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

    theta = 0 is allowed: it gives the number state |n>, whose value
    :func:`wigner_number_state` evaluates on its own route.
    """
    return wigner_closed_form(StateSpec(Family.THERMAL_NUMBER, thermal, n=n), point)


def wigner_number_state(point: PhasePoint, n: int) -> float:
    """Wigner function of the zero-temperature number state |n>."""
    n = check_excitation_count(n)
    return float(_number_kernel(point.abs2, n))
