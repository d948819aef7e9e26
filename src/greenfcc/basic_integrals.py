"""The basic integrals J_n(k) = integral over [0, pi] of cos(kx) cos^n(x).

Every series term is built from them, and they have a closed form:

    J_n(k) = pi * C(n, (n-k)/2) / 2^n    for k <= n and k+n even,
    J_n(k) = 0                           for k > n or k+n odd.

The quotient C(n, a) / 2^n is one correctly rounded division of Python
integers, so every value is the closed form rounded twice (the quotient,
then the product with pi), the selection-rule zeros are exact, and every
lookup is bit-reproducible.  ``j_integral`` evaluates the closed form
directly; ``shared_table`` hands out one process-wide ``IntegralTable``
that keeps the columns J_k(k), J_(k+2)(k), ... of the sites in use.
"""

from __future__ import annotations

import math
import threading


class IntegralTable:
    """Columns of J_n(k) for n <= ``max_n``, one per k, built on first use.

    ``l_cache[k]`` lists J_n(k) for n = k, k+2, ... <= ``max_n``.  Its
    binomials follow from C(k, 0) = 1 by the exact integer recurrence
    C(n+2, a+1) = C(n, a) (n+1)(n+2) / ((a+1)(n+1-a)), with a = (n-k)/2.
    Two threads that build the same column store the first one; a column
    never changes once stored, so concurrent readers see identical floats.
    """

    def __init__(self, max_n: int = 64):
        if type(max_n) is not int or max_n < 0:
            raise ValueError(f"max_n must be a non-negative int; got {max_n!r}")
        self.max_n = max_n
        self.l_cache: dict[int, list[float]] = {}

    def _column(self, k: int) -> list[float]:
        column = self.l_cache.get(k)
        if column is not None:
            return column
        column = []
        c = 1
        for a, n in enumerate(range(k, self.max_n + 1, 2)):
            column.append(math.pi * (c / (1 << n)))
            c = c * (n + 1) * (n + 2) // ((a + 1) * (n + 1 - a))
        return self.l_cache.setdefault(k, column)

    def j_value(self, n: int, k: int) -> float:
        """J_n(k), with the selection rules applied before the cap.

        k > n or odd k+n give an exact zero even for n above ``max_n``.
        """
        if n < 0 or k < 0:
            raise ValueError("j_integral indices must be non-negative")
        if k > n or (k + n) % 2:
            return 0.0
        if n > self.max_n:
            raise ValueError(
                f"index {n} exceeds table cap max_n={self.max_n}; "
                "build a larger table"
            )
        return self._column(k)[(n - k) // 2]


_default = IntegralTable(64)
_default_lock = threading.Lock()


def shared_table(min_max_n: int) -> IntegralTable:
    """Module-wide table, grown geometrically so caches amortize."""
    global _default
    if _default.max_n >= min_max_n:
        return _default
    with _default_lock:
        if _default.max_n < min_max_n:
            _default = IntegralTable(max(min_max_n, 2 * _default.max_n))
        return _default


def j_integral(n: int, k: int) -> float:
    """J_n(k) from its closed form, selection rules first."""
    if n < 0 or k < 0:
        raise ValueError("j_integral indices must be non-negative")
    if k > n or (k + n) % 2:
        return 0.0
    return math.pi * (math.comb(n, (n - k) // 2) / (1 << n))
