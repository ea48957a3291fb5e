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
double sum at complex arguments.  :func:`laguerre` is its seed-1 last
row; the thermal number kernel of ``closed_form`` sums its rows seeded
with exp(-2u) at x = 4u.

All functions accept scalars or numpy arrays in their continuous
arguments and are pure, so they are safe to call from any thread.
"""

from __future__ import annotations

import numpy as np

# Factorials as exact-as-representable floats.  Indices above the table
# size are refused instead of silently losing precision.
FACTORIAL_TABLE_SIZE = 64
_FACTORIALS = np.ones(FACTORIAL_TABLE_SIZE + 1)
_FACTORIALS[1:] = np.cumprod(np.arange(1.0, FACTORIAL_TABLE_SIZE + 1))

# The two-variable Hermite sum is only validated at desk-scale orders.
HERMITE_ORDER_MAX = 32


def factorial(n: int) -> float:
    """n! as a float, from the cached table (n <= 64)."""
    if n < 0 or n != int(n):
        raise ValueError(f"factorial requires a nonnegative integer, got {n!r}")
    if n > FACTORIAL_TABLE_SIZE:
        raise ValueError(
            f"factorial table covers 0..{FACTORIAL_TABLE_SIZE}; got {n}"
        )
    return float(_FACTORIALS[int(n)])


def _check_order(n: int, name: str = "n") -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


def _check_finite(x, name: str):
    arr = np.asarray(x)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def laguerre_rows(x, seed, count: int, rows: np.ndarray):
    """Yield seed * L_j(x) for j = 0 .. count - 1, into rows[j % len(rows)].

    The forward recurrence (j + 1) l_{j+1} = (2j + 1 - x) l_j - j l_{j-1},
    seeded with l_0 = seed and l_1 = (1 - x) l_0, elementwise in the
    flattened x; each step multiplies by the reciprocal 1 / (j + 1), so
    no pass divides.  Stable for the moderate orders used here, unlike
    the alternating factorial sum which degrades past n ~ 15.  Given
    ``count`` rows it keeps every order; given three, it streams them,
    and each yielded row is overwritten two steps later.  Either way a
    row is rounded the same.  ``x`` and ``seed`` are read, never written.
    """
    x = np.ravel(x)
    tmp = np.empty_like(x)
    size = len(rows)
    rows[0] = np.ravel(seed)
    yield rows[0]
    if count > 1:
        np.subtract(1.0, x, out=rows[1])
        rows[1] *= rows[0]
        yield rows[1]
    for j in range(1, count - 1):
        nxt = rows[(j + 1) % size]
        np.subtract(2 * j + 1, x, out=nxt)
        nxt *= rows[j % size]
        np.multiply(rows[(j - 1) % size], j, out=tmp)
        nxt -= tmp
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
    *_, values = laguerre_rows(x, 1.0, n + 1, np.empty((3, x.size)))
    return float(values[0]) if scalar else values.reshape(x.shape)


def hermite2(m: int, n: int, x, y):
    """Two-variable Hermite polynomial H_{m,n}(x, y).

    Evaluated by the explicit double-index sum with the factorial
    coefficients taken from the float table.  Orders are restricted to
    m, n <= 32, beyond which the coefficient products are unvalidated.

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
        coeff = (
            factorial(m)
            * factorial(n)
            * (-1.0) ** l
            / (factorial(l) * factorial(n - l) * factorial(m - l))
        )
        acc += coeff * x ** (m - l) * y ** (n - l)
    return complex(acc.reshape(-1)[0]) if scalar else acc
