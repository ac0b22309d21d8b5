"""Closed-form counting formulas used as independent cross-checks.

Everything returns exact ints; formulas with a quotient assert divisibility
instead of rounding.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError("formula value is not an integer: %d/%d" % (num, den))
    return q


def double_factorial(n: int) -> int:
    """(2n - 1)!!, the number of diagrams of size n; 1 at n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


@lru_cache(maxsize=None)
def stein(n: int) -> int:
    """Connected diagrams of size n, by the quadratic recurrence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    return sum((2 * k - 1) * stein(k) * stein(m + 1 - k) for k in range(1, m + 1))


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact_div(comb(2 * n, n), n + 1)


def tutte(n: int) -> int:
    """Rooted triangulations with n internal and 3 external vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _exact_div(2 * comb(4 * n + 1, n - 1), n * (n + 1))


def brown(m: int, n: int) -> int:
    """Rooted triangulations with n internal and m + 3 external vertices."""
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    num = 2 * factorial(2 * m + 3) * factorial(4 * n + 2 * m + 1)
    den = (
        factorial(m)
        * factorial(m + 2)
        * factorial(n)
        * factorial(3 * n + 2 * m + 3)
    )
    return _exact_div(num, den)


def corollary_count(n: int, i: int) -> int:
    """Connected top-cycle-free diagrams of size n with first terminal at i.

    For 2 <= i <= n the count is the closed form

        2 (2i-1)! (4n-2i-3)! / ((i-2)! i! (n-i)! (3n-i-1)!),

    which on the diagonal i = n is Catalan(n - 1).

    At i = n = 1 the formula needs (-1)! and is undefined, but the count is
    1: the single chord has t1 = 1 and omega sends it to the single-edge
    triangulation. This is Catalan(0), so the diagonal holds there too.

    For i = 1 and n >= 2 the count is 0: in a connected diagram with two or
    more chords the root crosses a later chord, so it is never terminal and
    t1 >= 2.

    Raises ValueError for i < 1 and for i > n.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if n < i:
        raise ValueError("n must be >= i")
    if i == 1:
        return 1 if n == 1 else 0
    num = 2 * factorial(2 * i - 1) * factorial(4 * n - 2 * i - 3)
    den = (
        factorial(i - 2)
        * factorial(i)
        * factorial(n - i)
        * factorial(3 * n - i - 1)
    )
    return _exact_div(num, den)


def corollary_sum(n: int) -> int:
    """Connected top-cycle-free total at size n via the refined formula."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(corollary_count(n, i) for i in range(min(2, n), n + 1))


def brown_sum(n: int) -> int:
    """Same total via triangulation counts by exterior size."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    return sum(brown(i - 2, n - i) for i in range(2, n + 1))


def stanley(n: int) -> int:
    """Interval count of the lattice of Dyck paths under dominance."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return catalan(n) * catalan(n + 2) - catalan(n + 1) ** 2


def kreweras(n: int) -> int:
    """Interval count of the noncrossing-partition refinement lattice."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _exact_div(comb(3 * n, n), 2 * n + 1)


def schroeder(m: int) -> int:
    """Large Schroeder number S_m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return sum(catalan(k) * comb(m + k, m - k) for k in range(m + 1))


def baxter(n: int) -> int:
    """Baxter permutations of length n - 1 (as a function of diagram size n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    num = sum(
        comb(n, k - 1) * comb(n, k) * comb(n, k + 1) for k in range(1, n)
    )
    return _exact_div(num, comb(n, 1) * comb(n, 2))


def semi_baxter(n: int) -> int:
    """Semi-Baxter permutations of length n - 1 (as a function of size n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return 1
    num = 24 * sum(
        comb(n - 1, j + 2) * comb(n + 1, j) * comb(n + j + 1, j + 1)
        for j in range(n)
    )
    den = (n - 2) * (n - 1) ** 2 * n * (n + 1)
    return _exact_div(num, den)


def gen_catalan(n: int) -> int:
    """Generalized Catalan value (1/n) sum_k C(2n, n-1-k) C(n-1+k, k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = sum(comb(2 * n, n - 1 - k) * comb(n - 1 + k, k) for k in range(n))
    return _exact_div(num, n)


def one_terminal(n: int) -> int:
    """One-terminal diagrams of size n: (2n - 3)!!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return double_factorial(n - 1)


ORACLES = {
    "double-factorial": double_factorial,
    "stein": stein,
    "tutte": tutte,
    "corollary-sum": corollary_sum,
    "brown-sum": brown_sum,
    "stanley": stanley,
    "kreweras": kreweras,
    "catalan": catalan,
    "catalan-squared": lambda n: catalan(n) ** 2,
    "schroeder": schroeder,
    "schroeder-shifted": lambda n: schroeder(n - 2),
    "baxter": baxter,
    "semi-baxter": semi_baxter,
    "gen-catalan": gen_catalan,
    "one-terminal": one_terminal,
}


def oracle_value(name: str, n: int) -> int | None:
    """Oracle value at n, or None where the formula is undefined."""
    fn = ORACLES.get(name)
    if fn is None:
        raise ValueError("unknown oracle: %s" % name)
    try:
        return fn(n)
    except ValueError:
        return None
