"""The series order cap, and binomial coefficients as a dense float table.

Every series term is a sum of binomials C(i, j), 0 <= j <= i, times the
cosine integrals J.  The series take them from scaled factorials
(``green_series._factorial_scales``) and never build this table:
``binomial_table`` is off the evaluation path, kept as a public name
that the benchmark's tracer still resolves.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HARD_ORDER_CAP = 1000
"""Largest supported series order.

Up to this order the scaled factorials E[k] = 256^k / k! and
G[j] = j! / 2^(9j), from which both series take their binomials, lie in
[4.3e-160, 3.8e109] and [2.5e-221, 1], and the largest product they
stand for, C(i, j) R_j with R_j <= pi^2 an inner row of series5 scaled
by 2^-j, stays below 2.7e300.  Near i = 1030 C(i, i//2) pi^2 leaves the
double range; the cap leaves headroom below that.
"""


@lru_cache(maxsize=4)
def binomial_table(max_order: int) -> np.ndarray:
    """Dense float table T[i, j] = C(i, j) for 0 <= j <= i <= max_order.

    Entries above the diagonal are zero.  Rows are built by the exact
    integer Pascal recurrence and rounded once on conversion, so T[i, j]
    is the correctly rounded value of C(i, j).  The returned array is
    read-only and shared.
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
