"""Polynomial special functions used by the phase-space formulas.

Two families are needed: ordinary Laguerre polynomials L_n(x) and the
two-variable Hermite polynomials H_{m,n}(x, y) defined by the double sum

    H_{m,n}(x, y) = sum_{l=0}^{min(m,n)} m! n! (-1)^l x^(m-l) y^(n-l)
                    / (l! (n-l)! (m-l)!),

which satisfy the bridge identity (-1)^n / n! * H_{n,n}(x, y) = L_n(x y).

Both families are produced by recurrences: Laguerre values by the
stable three-term recurrence, and the Hermite table at real arguments
row by row (``hermite2_rows``).  The explicit factorial sums are kept
(``laguerre_sum``, ``hermite2``) as independent references that the
tests replay against the recurrences.

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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the three-term recurrence.

    (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x), seeded with
    L_0 = 1 and L_1 = 1 - x.  Stable for the moderate orders used here,
    unlike the alternating factorial sum which degrades past n ~ 15.

    Args:
        n: polynomial order, n >= 0.
        x: real argument, scalar or array.

    Returns:
        L_n(x) with the shape of ``x`` (float scalar for scalar input).
    """
    n = _check_order(n)
    x = _check_finite(x, "x")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    prev = np.ones_like(x)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return float(cur[0]) if scalar else cur


def laguerre_sum(n: int, x):
    """L_n(x) by the explicit factorial sum.

    Reference implementation: sum_{l=0}^{n} n! / ((l!)^2 (n-l)!) (-x)^l.
    Exact for n = 0, 1 by construction; used by the tests as the
    independent check on :func:`laguerre`.
    """
    n = _check_order(n)
    x = _check_finite(x, "x")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    acc = np.zeros_like(x)
    for l in range(n + 1):
        coeff = factorial(n) / (factorial(l) ** 2 * factorial(n - l))
        acc += coeff * (-x) ** l
    return float(acc[0]) if scalar else acc


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


def hermite2_rows(m_max: int, k_max: int, x, y):
    """Rows of the two-variable Hermite table at real arguments.

    Yields, for m = 0, 1, ..., m_max, the array of shape
    (k_max + 1,) + broadcast shape of (x, y) whose entry k is
    H_{m,k}(x, y).  The rows come from the recurrence

        H_{0,k} = y^k,    H_{m+1,k} = x H_{m,k} - k H_{m,k-1},

    the s-derivative of the generating function exp(s x + t y - s t).
    Each step is vectorized over k and keeps only the previous row, so
    the whole table is never held; every yielded row is a fresh array.

    Args:
        m_max, k_max: largest orders, 0 <= m_max, k_max <= 32.
        x, y: real arguments, scalars or broadcastable arrays.
    """
    m_max = _check_order(m_max, "m_max")
    k_max = _check_order(k_max, "k_max")
    if m_max > HERMITE_ORDER_MAX or k_max > HERMITE_ORDER_MAX:
        raise ValueError(
            f"hermite2 orders are limited to {HERMITE_ORDER_MAX}, got ({m_max}, {k_max})"
        )
    x = _check_finite(x, "x")
    y = _check_finite(y, "y")
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        raise TypeError("hermite2_rows takes real arguments; use hermite2 for complex ones")
    x, y = np.broadcast_arrays(x.astype(float), y.astype(float))
    k = np.arange(k_max + 1.0).reshape((-1,) + (1,) * x.ndim)
    row = y ** k
    yield row
    for _ in range(m_max):
        step = x * row
        step[1:] -= k[1:] * row[:-1]
        row = step
        yield row


def laguerre_from_hermite(n: int, x, y):
    """L_n(x*y) assembled from the diagonal Hermite polynomial.

    Returns (-1)^n / n! * H_{n,n}(x, y), which equals L_n(x*y) whenever
    the product x*y is real.  Useful as a consistency bridge between the
    two polynomial families.
    """
    n = _check_order(n)
    return (-1.0) ** n / factorial(n) * hermite2(n, n, x, y)
