"""Polynomial special functions used by the phase-space formulas.

Two families are needed: ordinary Laguerre polynomials L_n(x) and the
two-variable Hermite polynomials H_{m,n}(x, y) defined by the double sum

    H_{m,n}(x, y) = sum_{l=0}^{min(m,n)} m! n! (-1)^l x^(m-l) y^(n-l)
                    / (l! (n-l)! (m-l)!),

which satisfy the bridge identity (-1)^n / n! * H_{n,n}(x, y) = L_n(x y).

Laguerre values come from one stable three-term recurrence,
:func:`laguerre_rows`, which writes seed * L_j(x) for every order j and
never divides; the tests replay it against the explicit factorial sum
and, through the bridge identity, against ``hermite2``, the explicit
double sum at complex arguments with exact integer coefficients, which
no kernel calls.  :func:`laguerre` is its seed-1 last row; the thermal
number kernel of ``closed_form`` folds its rows seeded with exp(-2u) at
x = 4u, L_k + L_{2n-k}, and sums them.

All functions accept scalars or numpy arrays in their continuous
arguments and are pure, so they are safe to call from any thread.
"""

from __future__ import annotations

import math

import numpy as np

# The two-variable Hermite sum is only validated at desk-scale orders.
HERMITE_ORDER_MAX = 32


def _check_order(n: int, name: str = "n") -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_finite(x, name: str):
    arr = np.asarray(x)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def laguerre_rows(x, seed, count: int):
    """Yield seed * L_j(x) for j = 0 .. count - 1, streamed through three rows.

    The forward recurrence (j + 1) l_{j+1} = (2j + 1 - x) l_j - j l_{j-1},
    seeded with l_0 = seed and l_1 = (1 - x) l_0, elementwise in the
    flattened x; each step multiplies by the reciprocal 1 / (j + 1), so
    no pass divides, and the step to l_2 subtracts l_0 unscaled.  Stable
    for the moderate orders used here, unlike the alternating factorial
    sum which degrades past n ~ 15.  The rows live in a three-row ring
    of its own, so each yielded row is overwritten two steps later; a
    caller that keeps a row copies it.  ``x`` and ``seed`` are read,
    never written.
    """
    x = np.ravel(x)
    rows = np.empty((3, x.size))
    tmp = np.empty_like(x)
    rows[0] = np.ravel(seed)
    yield rows[0]
    if count > 1:
        np.subtract(1.0, x, out=rows[1])
        rows[1] *= rows[0]
        yield rows[1]
    for j in range(1, count - 1):
        nxt = rows[(j + 1) % 3]
        np.subtract(2 * j + 1, x, out=nxt)
        nxt *= rows[j % 3]
        nxt -= rows[0] if j == 1 else np.multiply(rows[(j - 1) % 3], j, out=tmp)
        nxt *= 1.0 / (j + 1)
        yield nxt


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x), the last row of :func:`laguerre_rows` seeded with 1.

    The rows stream through three buffers, and the result is a view of
    one of them, never of ``x``.

    Args:
        n: polynomial order, n >= 0.
        x: real argument, scalar or array.

    Returns:
        L_n(x) with the shape of ``x`` (float scalar for scalar input).
    """
    n = _check_order(n)
    x = _check_finite(x, "x")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float, copy=False)  # read-only below
    *_, values = laguerre_rows(x, 1.0, n + 1)
    return float(values[0]) if scalar else values.reshape(x.shape)


def hermite2(m: int, n: int, x, y):
    """Two-variable Hermite polynomial H_{m,n}(x, y).

    Evaluated by the explicit double-index sum, each coefficient
    m! n! (-1)^l / (l! (n-l)! (m-l)!) = (-1)^l l! C(m, l) C(n, l) an
    exact Python integer converted once to float.  Orders are restricted
    to m, n <= 32, beyond which the sum is unvalidated.  It is a test
    reference: no kernel calls it.

    Args:
        m, n: polynomial orders, >= 0.
        x, y: complex arguments, scalars or broadcastable arrays.

    Returns:
        H_{m,n}(x, y), complex, with the broadcast shape of (x, y).
    """
    m = _check_order(m, "m")
    n = _check_order(n, "n")
    if m > HERMITE_ORDER_MAX or n > HERMITE_ORDER_MAX:
        raise ValueError(
            f"hermite2 orders are limited to {HERMITE_ORDER_MAX}, got ({m}, {n})"
        )
    x = _check_finite(x, "x")
    y = _check_finite(y, "y")
    scalar = x.ndim == 0 and y.ndim == 0
    x = np.atleast_1d(x).astype(complex)
    y = np.atleast_1d(y).astype(complex)
    acc = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for l in range(min(m, n) + 1):
        coeff = float((-1) ** l * math.factorial(l) * math.comb(m, l) * math.comb(n, l))
        acc += coeff * x ** (m - l) * y ** (n - l)
    return complex(acc.reshape(-1)[0]) if scalar else acc
