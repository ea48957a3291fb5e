"""Test-side references for the Laguerre and Hermite functions of ``thermalwigner.closed_form``.

The package evaluates L_n by its three-term recurrence
(``closed_form.laguerre``); these are the
independent routes the tests replay it against: the explicit factorial
sum, and the bridge identity (-1)^n / n! H_{n,n}(x, y) = L_n(x y) through
the two-variable Hermite double sum.
"""

import math

from thermalwigner.closed_form import hermite2


def laguerre_sum(n: int, x: float) -> float:
    """L_n(x) by the explicit factorial sum, sum_l n! / ((l!)^2 (n-l)!) (-x)^l.

    Exact for n = 0, 1 by construction.
    """
    fact = math.factorial
    return sum(fact(n) / (fact(l) ** 2 * fact(n - l)) * (-x) ** l for l in range(n + 1))


def laguerre_from_hermite(n: int, x, y):
    """(-1)^n / n! H_{n,n}(x, y), which is L_n(x y) whenever x y is real."""
    return (-1.0) ** n / math.factorial(n) * hermite2(n, n, x, y)
