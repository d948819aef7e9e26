"""Cosine-power and cosine-product integrals over [0, pi].

Three quantities feed every series term:

    I_n    = integral of cos^n(x)            -> IntegralTable.power_value
    L_n(k) = integral of cos(kx) cos^n(x)    -> IntegralTable.product_value
    J_n(k) = L_n(k) with the selection rules -> IntegralTable.j_value

I_n vanishes for odd n and equals pi * 2^(-n) * C(n, n/2) for even n.
L_n(k) is reduced to I integrals through the Chebyshev expansion of
cos(kx) in powers of cos(x):

    L_n(k) = 2^(k-1) I_(k+n)
             + k * sum_{i=1}^{floor(k/2)} (-1)^i 2^(k-2i-1) C(k-i-1, i-1) I_(k+n-2i) / i

That sum alternates and its leading term grows like 2^(k-1), so in floats
it would lose roughly k bits to cancellation.  All cached values are
therefore exact rationals with the factor pi split off; floats are formed
only at the API boundary, making the parity zeros exact and every lookup
bit-reproducible.  ``shared_table`` hands out one process-wide table,
and ``j_integral`` reads J_n(k) from it.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction


def _power_fraction(n: int) -> Fraction:
    # I_n / pi; the even case is the central binomial ratio C(n, n/2) / 2^n.
    if n % 2:
        return Fraction(0)
    return Fraction(math.comb(n, n // 2), 1 << n)


class IntegralTable:
    """Shared cache of I_n and L_n(k) values.

    The I cache (``i_cache``) is built eagerly up to ``max_n`` and never
    modified afterwards.  The L cache (``l_cache``) fills lazily under a
    lock, keyed by (n, k); entries are exact rationals (value / pi) and
    never change once stored, so concurrent readers always see identical
    floats.
    """

    def __init__(self, max_n: int = 64):
        if max_n < 0:
            raise ValueError("max_n must be non-negative")
        self.max_n = max_n
        self.i_cache: list[Fraction] = [_power_fraction(p) for p in range(max_n + 1)]
        self.l_cache: dict[tuple[int, int], Fraction] = {}
        self._lock = threading.Lock()

    def _power(self, n: int) -> Fraction:
        if n > self.max_n:
            raise ValueError(
                f"index {n} exceeds table cap max_n={self.max_n}; "
                "build a larger table"
            )
        return self.i_cache[n]

    def _product(self, n: int, k: int) -> Fraction:
        key = (n, k)
        cached = self.l_cache.get(key)
        if cached is not None:
            return cached
        if k < 1:
            raise ValueError("L_n(k) requires k >= 1")
        head = Fraction(1 << (k - 1)) * self._power(k + n)
        correction = Fraction(0)
        for i in range(1, k // 2 + 1):
            piece = (
                Fraction(math.comb(k - i - 1, i - 1), i)
                * self._power(k + n - 2 * i)
            )
            exp2 = k - 2 * i - 1
            if exp2 >= 0:
                piece *= 1 << exp2
            else:
                piece /= 1 << (-exp2)
            correction += -piece if i % 2 else piece
        total = head + k * correction
        with self._lock:
            return self.l_cache.setdefault(key, total)

    def power_value(self, n: int) -> float:
        """I_n as a float."""
        if n < 0:
            raise ValueError("cosine power must be non-negative")
        return math.pi * float(self._power(n))

    def product_value(self, n: int, k: int) -> float:
        """L_n(k) as a float, for k >= 1.

        At k = 1 the correction sum is empty and the value is I_(n+1).
        The rational arithmetic gives the selection-rule zeros (odd k+n,
        or k > n) exactly.
        """
        if n < 0:
            raise ValueError("cosine power must be non-negative")
        return math.pi * float(self._product(n, k))

    def j_value(self, n: int, k: int) -> float:
        """J_n(k) with the selection rules applied before any evaluation.

        Order matters at the boundaries: k > n or odd k+n force an exact
        zero even where the k = 0, 1 reductions would be defined.
        """
        if n < 0 or k < 0:
            raise ValueError("j_integral indices must be non-negative")
        if k > n or (k + n) % 2:
            return 0.0
        if k == 0:
            return self.power_value(n)
        if k == 1:
            return self.power_value(n + 1)
        return self.product_value(n, k)


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
    """J_n(k): selection rules first, then I_n, I_(n+1) or L_n(k)."""
    if n < 0 or k < 0:
        raise ValueError("j_integral indices must be non-negative")
    if k > n or (k + n) % 2:
        return 0.0
    return shared_table(n + k).j_value(n, k)
