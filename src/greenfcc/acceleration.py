"""Nonlinear sequence transforms for slowly converging partial sums.

Both transforms are exact on geometric tails: fed partial sums of
a + a*r + a*r^2 + ..., they recover the limit from a handful of terms.
Near the spectral band edge the Green-function series converges only
algebraically and the epsilon algorithm is the workhorse; iterated
Aitken is kept as a cheap cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_EPS = 2.0**-52


@dataclass
class PartialSumSequence:
    """Partial sums S_0, S_1, ... of a series."""

    sums: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.sums) < 1:
            raise ValueError("need at least one partial sum")
        if not all(math.isfinite(s) for s in self.sums):
            raise ValueError("partial sums must be finite")


def _dedupe(sums: list[float]) -> list[float]:
    out = [sums[0]]
    for s in sums[1:]:
        if s != out[-1]:
            out.append(s)
    return out


# an even column whose last two entries differ by at most this many machine
# epsilons of their magnitude has converged; deeper columns only difference
# the rounding noise.  The table amplifies rounding in the sums, so a
# settled column of a slow geometric tail (|r| near 0.9) can still spread
# over several epsilons: in 2e5 random 12-term geometric inputs a bar of 4
# let 2 noise-built results through, 16 none (nor in 4e5 more).
SETTLED_ULPS = 16


def _settled_spread(col: list[float]) -> float | None:
    """Spread of the last two entries if they agree to rounding, else None."""
    if len(col) < 2:
        return None
    spread = abs(col[-1] - col[-2])
    scale = max(abs(col[-1]), abs(col[-2]))
    return spread if spread <= SETTLED_ULPS * _EPS * scale else None


def _wynn_even_columns(sums: list[float]) -> tuple[list[float], float | None]:
    """Last entry of every even epsilon column, and the settled spread.

    Builds Wynn's lozenge column by column.  Growth stops at the first
    even column (epsilon_0 included) whose last two entries agree within
    ``SETTLED_ULPS`` machine epsilons: that column has converged, and
    every deeper one would be built from differences of rounding noise.
    The second element is then that column's in-column spread; it is
    None when the table ran out instead.  Growth also stops early at a
    zero or non-finite inverse difference, where deeper columns carry no
    information.
    """
    prev2 = [0.0] * (len(sums) + 1)  # epsilon_{-1}
    prev1 = list(sums)  # epsilon_0
    evens = [prev1[-1]]
    col = 0
    while len(prev1) >= 2:
        if col % 2 == 0:
            spread = _settled_spread(prev1)
            if spread is not None:
                return evens, spread
        col += 1
        cur = []
        for idx in range(len(prev1) - 1):
            diff = prev1[idx + 1] - prev1[idx]
            if diff == 0.0 or not math.isfinite(diff):
                return evens, None
            entry = prev2[idx + 1] + 1.0 / diff
            if not math.isfinite(entry):
                return evens, None
            cur.append(entry)
        if col % 2 == 0:
            evens.append(cur[-1])
        prev2, prev1 = prev1, cur
    return evens, None


def wynn_epsilon_with_estimate(seq: PartialSumSequence) -> tuple[float, float]:
    """(limit estimate, heuristic error) from the epsilon table.

    The estimate is the last entry of the deepest useful even column:
    the first one settled to rounding level (see ``_wynn_even_columns``),
    or the deepest one built when none settles.  Exactly equal
    consecutive sums are dropped first, so a series that has stalled
    returns its stalled value.

    When an even column has settled to rounding level, the error
    heuristic is that column's in-column spread (the gap between its
    last two entries, a few units of rounding).  Otherwise it is the
    absolute difference between the last two even-column entries.  With
    fewer than two even columns (or fewer than three distinct sums) the
    transform has nothing to compare, so the estimate is the last step of
    the distinct sums, |S_last - S_prev|, and infinite when only one
    distinct sum exists.
    """
    sums = _dedupe(seq.sums)
    last_step = abs(sums[-1] - sums[-2]) if len(sums) > 1 else math.inf
    if len(sums) < 3:
        return sums[-1], last_step
    evens, spread = _wynn_even_columns(sums)
    if spread is not None:
        return evens[-1], spread
    if len(evens) < 2:
        return evens[-1], last_step
    return evens[-1], abs(evens[-1] - evens[-2])


def aitken_delta2(seq: PartialSumSequence) -> float:
    """Iterated Aitken delta-squared extrapolation; returns the last entry.

    Each pass maps S_i -> S_{i+2} - (S_{i+2} - S_{i+1})^2 / (second
    difference) and shortens the sequence by two; passes repeat until
    fewer than three points remain.  Zero second differences stop the
    iteration at the current stage.
    """
    sums = _dedupe(seq.sums)
    while len(sums) >= 3:
        nxt = []
        for i in range(len(sums) - 2):
            d2 = sums[i + 2] - sums[i + 1]
            d1 = sums[i + 1] - sums[i]
            denom = d2 - d1
            if denom == 0.0 or not math.isfinite(denom):
                return sums[-1]
            entry = sums[i + 2] - d2 * d2 / denom
            if not math.isfinite(entry):
                return sums[-1]
            nxt.append(entry)
        sums = nxt
    return sums[-1]
