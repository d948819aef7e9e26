"""Binomial coefficients as one shared float table.

Every series term is a sum of binomials C(i, j), 0 <= j <= i, times
the cosine integrals J.  ``binomial_table`` builds them once per order
by the exact integer Pascal recurrence and rounds each entry once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HARD_ORDER_CAP = 1000
"""Largest supported series order.

Float binomials C(i, i//2) stay below the double overflow threshold up
to i of roughly 1020; the cap leaves headroom and keeps table sizes sane.
"""


@lru_cache(maxsize=4)
def binomial_table(max_order: int) -> np.ndarray:
    """Dense float table T[i, j] = C(i, j) for 0 <= j <= i <= max_order.

    Entries above the diagonal are zero, which downstream sums rely on to
    skip masking.  Rows are built by the exact integer Pascal recurrence
    and rounded once on conversion, so T[i, j] is the correctly rounded
    value of C(i, j).  The returned array is read-only and shared.
    """
    if not 0 <= max_order <= HARD_ORDER_CAP:
        raise ValueError(
            f"max_order must be within [0, {HARD_ORDER_CAP}], got {max_order}"
        )
    table = np.zeros((max_order + 1, max_order + 1))
    row = [1]
    for i in range(max_order + 1):
        table[i, : i + 1] = [float(v) for v in row]
        row = [1] + [row[j] + row[j + 1] for j in range(i)] + [1]
    table.flags.writeable = False
    return table
