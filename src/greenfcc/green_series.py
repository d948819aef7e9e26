"""Binomial-expansion series for the FCC lattice Green function.

The generating integral

    G(t, l, m, n) = (1/pi^3) * int_0^pi^3 cos(lx) cos(my) cos(nz) / (t - w)

with structure function w = gamma*cx*cy + cy*cz + cz*cx is expanded in
powers of 1/t.  Two rearrangements are implemented:

* ``evaluate_series5``: single expansion of 1/(t - w); the i-th outer
  term is t^(-1-i) times the i-th moment of w against the site cosines,
  and that moment collapses to a double sum of binomials times the basic
  cosine integrals J.

* ``evaluate_series6``: the gamma bond is expanded separately against
  (t - u)^(-1-j) with u the two remaining bonds, giving a double series
  whose inner sum is geometric-with-binomial weights in gamma/t.

Every term of either arrangement is non-negative for gamma > 0, so the
partial sums increase monotonically toward G.  One scan, ``_scan``, sums
the terms of both: it stops once a geometric tail bound with ratio
r = (2+gamma)/t (series 5) or 2/(t-gamma) (series 6) meets the
tolerance.  That is not a sound truncation test: it trusts the bound
from the first nonzero term on, and at a far site the terms rise for a
long stretch after that, so the scan can stop on a tiny term
(``greenfcc eval --t 4 --lmn 12 12 0`` exits 0 as converged with value
8.9e-16, where G = 7.52e-10).  At the band edge the terms decay only
like i^(-3/2); the evaluators accept t = 2+gamma but do not mark the
result converged.  A sequence transform sharpens the value there, but
its estimate is not a bound, so a transformed result never claims
convergence either.

The raw moments grow like (2+gamma)^i and leave the double range past
order 680/ln(2+gamma).  Series5 therefore works with the normalized
moments nu_i = moment_i / s^i, s = 2+gamma: the double sum with the
weights C(i,j) (gamma/s)^(i-j) (2/s)^j, a binomial distribution, over
inner rows scaled by 2^-j, each at most pi^2.  Nothing in nu_i
overflows and nothing depends on t; the i-th term is nu_i r^i / t with
r = s/t, and the i-th moment is nu_i s^i.

Both series sum the inner sums R(p, q) = sum_k E[k] E[q-k] J_l[p+k]
J_m[p+q-k]: nu_i over q with p = i - q, series6's row q over p.  One
tile builder, ``_r_blocks``, forms R as matrix products of J and E
views, a column block of q at a time, with two readouts: series5 sums
weighted anti-diagonals into its table nu_0 .. nu_(D-1) (``_nu_table``),
series6 reads columns as its rows (``_series6_rows``).  Each series
builds its terms to the depth ``_depth`` gives it and hands them to the
scan as an iterable.

Both series take every binomial from the scaled factorials
E[k] = 256^k/k! and G[j] = j!/2^(9j): C(i,j) G[j] = G[i]/G[i-j] in
series5 and C(i,k) 2^-i = E[k] E[i-k] G[i] in series6.  No binomial
table is built.  ``HARD_ORDER_CAP``, the deepest order either series
sums, is set here by the range of E and G.  One entry, ``_scan_for``,
checks every series call's arguments before a table is touched.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .acceleration import (
    PartialSumSequence,
    aitken_delta2,
    wynn_epsilon_with_estimate,
)
from .basic_integrals import shared_table
from .errors import DomainError
from .params import GreenParams, SeriesEvaluation

PI3 = math.pi**3

HARD_ORDER_CAP = 1000
"""Largest supported series order.

Up to this order the scaled factorials E[k] = 256^k / k! and
G[j] = j! / 2^(9j), from which both series take their binomials, lie in
[4.3e-160, 3.8e109] and [2.5e-221, 1], and the largest product they
stand for, C(i, j) R_j with R_j <= pi^2 an inner row of series5 scaled
by 2^-j, stays below 2.7e300.  Near i = 1030 C(i, i//2) pi^2 leaves the
double range; the cap leaves headroom below that.
"""

_ACCEL_CHOICES = ("none", "wynn", "aitken")

# the nu table's fixed tiles: s2 rows per matrix product, c columns per block.
# Picked by timing tables of 146 to 1000 orders against sizes from 8 x 32 to
# 128 x 128: 32 x 32 ties, 64 columns win at 1000 orders but peak past 2 MB,
# and 64 x 64 or larger tiles are slower below 400 orders.
_ROW_TILE = 16
_COL_TILE = 32
# series6 forms its rows in groups of this many, as the scan reaches them
_ROW_GROUP = 16


def _safe_order(gamma: float) -> int:
    """Last order whose moment nu_i s^i stays inside the double range.

    Moments grow like (2+gamma)^i; moment_coefficient refuses orders
    beyond this index.
    """
    return int(680.0 / math.log(2.0 + gamma))


@lru_cache(maxsize=32)
def _site_tables(l: int, m: int, n: int, j_depth: int) -> tuple[np.ndarray, ...]:
    """The read-only J vectors J_p(l), J_p(m), J_p(n), p <= j_depth, of one site.

    They are read from the shared closed-form table and depend on
    neither t nor gamma, so the cache keeps a sweep, a comparison or a
    repeated call from rebuilding them.  Series6 has j_depth = n_max + l_max,
    enough for every inner index j < l_max.
    """
    table = shared_table(j_depth)
    vectors = []
    for site in (l, m, n):
        vectors.append(np.array([table.j_value(p, site) for p in range(j_depth + 1)]))
        vectors[-1].flags.writeable = False
    return tuple(vectors)


@lru_cache(maxsize=1)
def _factorial_scales() -> tuple[np.ndarray, np.ndarray]:
    """E[k] = 256^k / k! and G[j] = j! / 2^(9j) for k, j <= HARD_ORDER_CAP.

    Each entry is one correctly rounded division of Python integers and
    does not depend on the order a caller needs, so one table at the cap
    serves every depth.  E[k] E[d] G[k+d] = C(k+d, k) 2^-(k+d) and
    G[i] / G[i-j] = C(i, j) G[j], so the scaled factorials carry every
    binomial of both series and the 2^-j row scaling of nu_i.  Up to the
    cap the base 256 keeps E within [4e-160, 4e109], G within [2e-221, 1]
    and every product E[k] E[d] J J below 1e221.  Both arrays are
    read-only and shared.
    """
    fact = [1]
    for k in range(1, HARD_ORDER_CAP + 1):
        fact.append(fact[-1] * k)
    E = np.array([(1 << 8 * k) / f for k, f in enumerate(fact)])
    G = np.array([f / (1 << 9 * k) for k, f in enumerate(fact)])
    E.flags.writeable = False
    G.flags.writeable = False
    return E, G


@dataclass
class _Workspace:
    """The tables of one evaluation: scaled factorials and the site's J vectors.

    E, G (the binomials of both series) and the J vectors J_p(l), J_p(m),
    J_p(n), p <= ``j_depth``, come from process-wide caches and depend on
    neither t nor gamma.  Both series read them through the one tile
    builder ``_r_blocks``, with two readouts: series5 sums weighted
    anti-diagonals, series6 reads columns.
    """

    params: GreenParams
    j_depth: int

    def __post_init__(self) -> None:
        p = self.params
        self.E, self.G = _factorial_scales()
        self.Jl, self.Jm, self.Jn = _site_tables(p.l, p.m, p.n, self.j_depth)


def _strided(arr: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """The view whose entry [x, y, ...] is arr[start + x steps[0] + y steps[1] + ...].

    numpy checks that every entry lies inside ``arr``.
    """
    size = arr.itemsize
    return np.ndarray(shape, buffer=arr, offset=start * size, strides=[s * size for s in steps])


def _shifted(values: np.ndarray, offset: int, length: int, fill: float = 0.0) -> np.ndarray:
    """``length`` entries, values[x] at offset + x and ``fill`` elsewhere."""
    out = np.full(length, fill) if fill else np.zeros(length)
    take = max(0, min(values.size, length - offset))
    out[offset : offset + take] = values[:take]
    return out


def _tiles(params: GreenParams, c0: int, s_stop: int) -> list[tuple[int, int, int]]:
    """The tiles (s0, e_lo, e_hi) of column block c0 whose product can be nonzero.

    s0 < ``s_stop`` runs over multiples of ``_ROW_TILE`` whose last row
    s0 + _ROW_TILE - 1 is at least -((1 + lm - c0) // 2), the first row
    s2 of the block that reaches p >= 0 (see ``_r_blocks``); [e_lo,
    e_hi] is where P and B can both be nonzero, and must not be empty.
    """
    a, b = (params.n + params.l - params.m) // 2, (params.n - params.l + params.m) // 2
    lm = (params.l + params.m - params.n) // 2
    s1_min = -((1 + lm - c0) // 2)
    ts, c1 = _ROW_TILE, c0 + _COL_TILE - 1
    tiles = []
    for s0 in range(-(-max(0, s1_min + 1 - ts) // ts) * ts, s_stop, ts):
        s1 = s0 + ts - 1
        e_lo = max(-s1, -((a + c1) // 2))
        e_hi = min(s1 + 1, (b + c1 + 1) // 2)
        if e_lo <= e_hi:
            tiles.append((s0, e_lo, e_hi))
    return tiles


def _r_blocks(ws: _Workspace, blocks: list, lead: int):
    """The inner sums R(p, q) = sum_k E[k] E[q-k] Jl[p+k] Jm[p+q-k], one column block at a time.

    R vanishes unless q = n + 2c with c >= 0.  Write h = (l+m+n)/2,
    a = (n+l-m)/2, b = n - a, lm = h - n and s' = p + (q-l-m)/2 =
    2 s2 + par with par = 0 or 1, so p = s' - c + lm; R = 0 for s' < 0.
    With k = a + c + 2e - par

        R = sum_e P_par[s2, e] B_par[e, c],
        P_par[s2, e] = Jl[l + 2(s2+e)] Jm[m + 2(s2+par-e)],
        B_par[e, c] = E[a - par + c + 2e] E[b + par + c - 2e],

    a Hankel times a Toeplitz view of the J vectors and two strided
    views of E, all zero-padded, so every term of the sum is >= 0.

    For each (c0, r0, rows, tiles) of ``blocks``, in column order, this
    yields (buf, block), block[par, s2 - r0, c - c0] = R(p, q) for
    r0 <= s2 < r0 + rows and c0 <= c < c0 + _COL_TILE: ``_ROW_TILE`` x
    ``_COL_TILE`` products over each tile's range of e, both parities at
    once, and 0 off the tiles.  buf[lead + s' - 2 r0, c - c0] interleaves
    the block by s', after ``lead`` zero rows and before _COL_TILE - 1.
    No temporary holds more than about 2^16 doubles.
    """
    l, m, n = ws.params.l, ws.params.m, ws.params.n
    a, b = (n + l - m) // 2, (n - l + m) // 2
    ts, tc = _ROW_TILE, _COL_TILE
    s_end = max(r0 + rows for _, r0, rows, _ in blocks)
    c_end = blocks[-1][0] + tc
    k_max = max((hi - lo + 1 for *_, tiles in blocks for _, lo, hi in tiles), default=1)
    # every array below covers the indices its views reach with zeros;
    # pad shifts index 0 of the J and E arrays
    pad = k_max + 2 * (ts + tc)
    jl = _shifted(ws.Jl[l::2], pad, 2 * pad + 2 * s_end)
    jm = _shifted(ws.Jm[m::2], pad, 2 * pad + 2 * s_end)
    ep = _shifted(ws.E, pad, 2 * pad + n + 2 * c_end)
    # hankel[x, j] = jl[x + j]; toeplitz[par, y, j] = jm[y + par - j + k_max - 1]
    hankel = _strided(jl, 0, (jl.size - k_max + 1, k_max), (1, 1))
    toeplitz = _strided(jm, k_max - 1, (2, jm.size - k_max, k_max), (1, 1, -1))
    # e_up[par, r, c] = ep[r - par + c + 1]; e_down[par, r, c] = ep[top - r + par + c]
    top = ep.size - tc - 1
    e_up = _strided(ep, 1, (2, ep.size - tc, tc), (-1, 1, 1))
    e_down = _strided(ep, top, (2, top + 1, tc), (1, -1, 1))
    for c0, r0, rows, tiles in blocks:
        buf = np.zeros((lead + 2 * rows + tc - 1, tc))
        block = buf[lead : lead + 2 * rows].reshape(rows, 2, tc).transpose(1, 0, 2)
        e0 = min((e_lo for _, e_lo, _ in tiles), default=0)
        width = max((e_hi for _, _, e_hi in tiles), default=0) - e0 + 1
        r_up = pad + a + c0 + 2 * e0 - 1
        r_down = top - pad - b - c0 + 2 * e0
        B = e_up[:, r_up : r_up + 2 * width : 2] * e_down[:, r_down : r_down + 2 * width : 2]
        for s0, e_lo, e_hi in tiles:
            k = e_hi - e_lo + 1
            x = pad + s0 + e_lo
            y = pad + s0 - e_lo - k_max + 1
            P = hankel[x : x + ts, :k] * toeplitz[:, y : y + ts, :k]
            np.matmul(P, B[:, e_lo - e0 : e_hi - e0 + 1], out=block[:, s0 - r0 : s0 - r0 + ts])
        yield buf, block


def _nu_table(ws: _Workspace, count: int) -> np.ndarray:
    """nu_0 .. nu_(count-1) of the workspace's site.

    pi^3 nu_i = sum_q w(i, q) R(i - q, q) over the inner sums R of
    ``_r_blocks``, with w(i, q) = G[i] / G[p] (gamma/s)^p (2/s)^q Jn[q],
    p = i - q, where G[i] / G[p] = C(i, q) G[q]: R(p, q) G[q] is the row
    q = j of the double sum.  The weight is formed in that order: the
    ratio (up to 1e79) goes into the gamma ladder before the J_n ladder,
    since at gamma = 1, i = 1000, q near 512 the two ladders alone
    multiply to about 1e-323.  Both ladders are formed elementwise for
    the table's orders.  Weights with q > i are zero.

    A tile is formed only if its least order i = 2 s2 + c + h is below
    ``count`` and some of its weights are nonzero.  Each weighted block
    is summed along its anti-diagonals s' + c = i - h, a sheared view of
    its buffer, into nu_i in column order, so no sum depends on
    ``count``: a shorter table is bit for bit a prefix of a longer one.
    """
    l, m, n = ws.params.l, ws.params.m, ws.params.n
    h = (l + m + n) // 2
    lm = h - n  # lm = (l+m-n)/2, so p = s' - c + lm
    ts, tc = _ROW_TILE, _COL_TILE
    blocks = []  # (c0, r0, rows, tiles) in column order
    for c0 in range(0, max(count - h, 0), tc):
        tiles = _tiles(ws.params, c0, (count - h - c0 + 1) // 2)
        if tiles:
            blocks.append((c0, tiles[0][0], tiles[-1][0] + ts - tiles[0][0], tiles))
    nus = np.zeros(count)
    if not blocks:
        return nus
    s_end = max(r0 + rows for _, r0, rows, _ in blocks)
    c_end = blocks[-1][0] + tc
    # the weights' arrays are zero-padded like the tiles' (ones for G in a denominator)
    gi = _shifted(ws.G[:count], 0, 2 * s_end + c_end + h + tc)
    p_pad = c_end + abs(lm) + tc
    gp = _shifted(ws.G, p_pad, 2 * p_pad + 2 * s_end, fill=1.0)
    orders, s = np.arange(count), ws.params.band_edge
    gs = _shifted(np.power(ws.params.gamma / s, orders), p_pad, gp.size)
    jn = _shifted(np.power(2.0 / s, orders) * ws.Jn[:count], 0, n + 2 * c_end + 2 * tc)
    # g_i[par, r, c] = gi[r + par + c]; g_p, gs_p [par, r, c] = gp, gs[r + par - c + tc - 1]
    g_i = _strided(gi, 0, (2, gi.size - tc, tc), (1, 1, 1))
    g_p = _strided(gp, tc - 1, (2, gp.size - tc, tc), (1, 1, -1))
    gs_p = _strided(gs, tc - 1, (2, gs.size - tc, tc), (1, 1, -1))
    for (c0, r0, rows, _), (buf, block) in zip(blocks, _r_blocks(ws, blocks, tc - 1)):
        i0 = 2 * r0 + c0 + h
        p0 = p_pad + 2 * r0 - c0 + lm - tc + 1
        q0 = n + 2 * c0
        w = g_i[:, i0 : i0 + 2 * rows : 2] / g_p[:, p0 : p0 + 2 * rows : 2]
        w *= gs_p[:, p0 : p0 + 2 * rows : 2]
        w *= jn[q0 : q0 + 2 * tc : 2]
        block *= w
        # sheared[d, c] = buf[tc - 1 + d - c, c], the entry of order i0 + d
        sheared = _strided(buf, (tc - 1) * tc, (2 * rows + tc - 1, tc), (tc, 1 - tc))
        sums = sheared.sum(axis=1)
        stop = min(count, i0 + sums.size)
        nus[i0:stop] += sums[: stop - i0]
    nus /= PI3
    return nus


def _depth(params: GreenParams, ratio: float, denominator: float, stop_tol: float, n_max: int) -> int:
    """The terms a scan reads before it stops, for terms term_i <= ratio^i / denominator.

    Once some term is nonzero, the scan's tail bound after term i is then
    at most ratio/(1-ratio) ratio^i / denominator, and the first nonzero
    term comes by order l+m+n.  So the scan stops by order
    max(i*, l+m+n), with i* the first i where that bound meets
    ``stop_tol``; two more orders cover the rounding of the bound and of
    the logarithms here.  At ratio >= 1 nothing stops the scan before
    ``n_max``.

    Series5 passes (r, t, tol), r = (2+gamma)/t: its term is nu_i r^i / t
    with |nu_i| <= 1, and its first nonzero term comes at order
    max((l+m+n)/2, l, m, n).  Series6 passes (r6, t - gamma, tol/2),
    r6 = 2/(t - gamma).  With x = gamma/t, piece p of its row q is
    C(q+p, p) x^p (2/t)^q (R(p, q) G[q]) Jn[q] / (t pi^3).  Every J is at
    most pi, so Jn[q] <= pi and R(p, q) G[q] = sum_k C(q, k) 2^-q Jl Jm
    <= pi^2; with sum_p C(q+p, p) x^p = (1 - x)^-(q+1) the row is at most
    (2/t)^q / t (t/(t - gamma))^(q+1) = r6^q / (t - gamma), and a row cut
    at ``l_max`` sums fewer pieces.  Its first nonzero row is
    q = max(l+m, n) <= l+m+n, at p = 0.
    """
    if ratio >= 1.0:
        return n_max
    logs = math.log(stop_tol) + math.log(denominator) + math.log1p(-ratio) - math.log(ratio)
    return min(n_max, max(math.ceil(logs / math.log(ratio)), params.l + params.m + params.n) + 2)


def moment_coefficient(i: int, params: GreenParams) -> float:
    """i-th moment of the structure function against the site cosines.

    Equals (1/pi^3) * int w^i cos(lx)cos(my)cos(nz) over [0, pi]^3, i.e.
    the coefficient of t^(-1-i) in the Green-function expansion.  For
    gamma = 1 at the origin these are the weighted closed-walk counts of
    the 12-neighbour FCC shell: 1, 0, 3/4, 3/4, ...  Values grow like
    (2+gamma)^i, so orders above int(680 / ln(2+gamma)) (618 at
    gamma = 1, always below the hard order cap) would leave the double
    range and are rejected, as are orders that are not integers.  It
    builds the table nu_0 .. nu_i and reads its last entry, the same
    float any longer table holds; series5 builds its table once and does
    not call it.
    """
    i = _whole(i, "moment order")
    if i < 0:
        raise ValueError("moment order must be non-negative")
    limit = _safe_order(params.gamma)
    if i > limit:
        raise ValueError(
            f"moment order {i} exceeds {limit}, the largest whose value "
            f"fits a double at gamma={params.gamma}"
        )
    return float(_nu_table(_Workspace(params, i), i + 1)[i]) * params.band_edge**i


def _whole(value, name: str) -> int:
    """``value`` as an int by operator.index; a bool, or what it refuses, is a ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer; got {value!r}")
    return operator.index(value)


def _scan_for(
    params: GreenParams, method: str, tol: float, n_max: int, l_max: int | None, accel: str
) -> _ScanState:
    """The scan of ``method``, its arguments checked before any table is touched; series6 reads ``l_max``."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
    n_max = _whole(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > HARD_ORDER_CAP:
        raise ValueError(
            f"n_max={n_max} exceeds the hard cap {HARD_ORDER_CAP}; "
            "double-precision intermediates overflow beyond it"
        )
    if accel not in _ACCEL_CHOICES:
        raise ValueError(f"accel must be one of {_ACCEL_CHOICES}")
    if params.t < params.band_edge:
        raise DomainError(
            f"series methods need t >= 2+gamma = {params.band_edge}; got t={params.t}"
        )
    if method == "series5":
        return _scan_series5(params, tol, n_max)
    if method != "series6":
        raise ValueError("convergence diagnostics need a series method")
    l_max = _whole(l_max, "l_max")
    if l_max < 1 or l_max > HARD_ORDER_CAP:
        raise ValueError(f"l_max must lie in [1, {HARD_ORDER_CAP}]")
    return _scan_series6(params, tol, n_max, l_max)


@dataclass
class _ScanState:
    """Everything one adaptive summation pass produced."""

    terms: list[float] = field(default_factory=list)
    sums: list[float] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)
    inner_errors: list[float] = field(default_factory=list)
    stopped: bool = False
    inner_ok: bool = True

    @property
    def best_bound(self) -> float:
        return self.bounds[-1] if self.bounds else math.inf


def _scan(
    rows: Iterable[tuple[float, float, bool]],
    ratio: float,
    stop_tol: float,
    n_max: int,
) -> _ScanState:
    """Kahan-sum the terms of either series, read as (term, inner_error, inner_ok) rows.

    Series5 has no inner sum and gives (term, 0.0, True).  After each
    term the geometric tail bound ratio/(1-ratio) * max(term, ratio *
    prev) is taken, and the running bound is the least of the bounds
    taken once some nonzero term has been seen.  Before that, and always
    when ``ratio >= 1``, it is inf.  The terms of both series are >= 0
    and exactly 0.0 until the first order whose walks reach the site, so
    the first nonzero term needs no floor index of its own.  Inner
    errors are kept per term and ``inner_ok`` holds only if every row
    reported it.  The scan stops once the running bound is <=
    ``stop_tol``, or after ``n_max`` terms.

    ``rows`` is built to the depth ``_depth`` gives, so it can end
    before ``n_max`` only once the scan has stopped.  If it ends sooner
    the scan raises IndexError, unless every term so far is 0.0 (below
    the double range, as at t = 1e300): then it ends unstopped.
    """
    geo = ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    state = _ScanState()
    total = comp = 0.0
    seen_nonzero = False
    running = math.inf
    for i, (term, inner_error, inner_ok) in enumerate(itertools.islice(rows, n_max)):
        state.terms.append(term)
        state.inner_errors.append(inner_error)
        state.inner_ok = state.inner_ok and inner_ok
        if term != 0.0:
            seen_nonzero = True
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
        state.sums.append(total)
        prev = state.terms[i - 1] if i >= 1 else 0.0
        bound = geo * max(term, ratio * prev) if ratio < 1.0 else math.inf
        if seen_nonzero:
            running = min(running, bound)
        state.bounds.append(running)
        if running <= stop_tol:
            state.stopped = True
            break
    else:
        if len(state.terms) < n_max and seen_nonzero:
            raise IndexError(f"the rows ended after {len(state.terms)} of {n_max} terms")
    return state


def _scan_series5(params: GreenParams, tol: float, n_max: int) -> _ScanState:
    t = params.t
    r = params.band_edge / t
    nus = _nu_table(_Workspace(params, n_max), _depth(params, r, t, tol, n_max))
    return _scan(((nu * r**i / t, 0.0, True) for i, nu in enumerate(nus.tolist())), r, tol, n_max)


def _scan_series6(params: GreenParams, tol: float, n_max: int, l_max: int) -> _ScanState:
    """Series6's scan; its rows are formed ``_ROW_GROUP`` at a time as it reaches them.

    Rows q = n, n+2, ... below the depth are read by column from one R
    block of ``_COL_TILE`` rows at a time, built to the widest of its
    groups; the rows between, where J_q(n) = 0, are 0.  A group's width
    is the envelope width (``_envelope_count``) of its last row, at
    least one past the first p where R(p, q) of its first row can be
    nonzero, and at most ``l_max``.  No width changes a row that stops
    inside it, and a row that does not stop reports so.
    """
    ws = _Workspace(params, n_max + l_max)
    l, m, n = params.l, params.m, params.n
    gap = params.t - params.gamma
    r_out = 2.0 / gap
    depth = _depth(params, r_out, gap, tol * 0.5, n_max)

    def tol_inner(q: int) -> float:
        budget = tol * 0.25 * (1.0 - r_out) * r_out**q if r_out < 1.0 else tol * 0.25 / n_max
        return max(budget, 1e-300)

    def width(qs: range) -> int:
        # R(p, q) = 0 until p + q >= l, p + q >= m and 2p + q >= l + m;
        # the envelope holds from the first nonzero piece on
        first = max(l - qs[0], m - qs[0], (l + m - qs[0] + 1) // 2)
        return min(max(_envelope_count(ws, qs[-1], tol_inner(qs[-1]), l_max), first + 1), l_max)

    def rows():
        yield from itertools.repeat((0.0, 0.0, True), min(n, depth))
        for q0 in range(n, depth, 2 * _COL_TILE):
            block = range(q0, min(q0 + 2 * _COL_TILE, depth), 2)
            groups = [block[k : k + _ROW_GROUP] for k in range(0, len(block), _ROW_GROUP)]
            widths = [width(qs) for qs in groups]
            R = _series6_r(ws, (q0 - n) // 2, len(block), max(widths))
            for k, qs, w in zip(range(0, len(block), _ROW_GROUP), groups, widths):
                tols = [tol_inner(q) for q in qs]
                for q, row in zip(qs, _series6_rows(ws, (qs[0] - n) // 2, tols, R[k : k + len(qs), :w])):
                    yield row
                    if q + 1 < depth:
                        yield 0.0, 0.0, True

    return _scan(rows(), r_out, tol * 0.5, n_max)


def _envelope_count(ws: _Workspace, q: int, tol_q: float, l_max: int) -> int:
    """The pieces row q of series6 takes if every R(p, q) G[q] is pi^2, its bound.

    J <= pi and sum_k C(q, k) 2^-q = 1 give piece_p <= env_p = c_p Jn[q] /
    (pi t) and ratio_p env_(p-1) < env_p, so once a piece is nonzero the
    row stops by the first p with ratio_p < 1 and 2 env_p ratio_p /
    (1 - ratio_p) <= ``tol_q``: found by bisection on logarithms.
    """
    t, x = ws.params.t, ws.params.gamma / ws.params.t
    log_x = math.log(x)
    log_a = math.log(2.0 * ws.Jn[q] / (math.pi * t * tol_q)) + q * math.log(2.0 / t)
    log_a -= math.lgamma(q + 1)

    def passes(p: int) -> bool:
        ratio = x * (q + p + 2) / (p + 2)
        log_c = math.lgamma(q + p + 1) - math.lgamma(p + 1) + p * log_x
        return ratio < 1.0 and log_a + log_c + math.log(ratio / (1.0 - ratio)) <= 0.0

    return min(bisect.bisect_left(range(l_max), True, key=passes) + 1, l_max)


def _series6_r(ws: _Workspace, c0: int, cols: int, width: int) -> np.ndarray:
    """R(p, q) as r[c - c0, p], q = n + 2c, for c0 <= c < c0 + ``cols`` and p < ``width``.

    A view over one block of ``_r_blocks`` at column c0, from its first
    tile that reaches p >= 0; rows of s' < 0 and of tiles left out are 0.
    """
    tc, lm = _COL_TILE, (ws.params.l + ws.params.m - ws.params.n) // 2
    s_stop = (width + c0 + cols - 2 - lm) // 2 + 1
    tiles = _tiles(ws.params, c0, s_stop)
    r0 = tiles[0][0] if tiles else 0
    base = c0 - lm - 2 * r0  # the row of p = 0, column c0, past the lead
    lead = max(0, -base)
    rows = max(0, -(-(s_stop - r0) // _ROW_TILE) * _ROW_TILE)
    buf, _ = next(_r_blocks(ws, [(c0, r0, rows, tiles)], lead))
    # r[c - c0, p] = buf[lead + base + c - c0 + p, c - c0]
    return _strided(buf, (lead + base) * tc, (cols, width), (tc + 1, tc))


def _ladder_start(r: float, i: int) -> tuple[float, int]:
    """r**i for 0 < r < 1 as math.frexp splits it, also where r**i is not normal.

    Below the normal range the mantissa of r, in [0.5, 1), is raised
    instead; its power stays normal up to i = 1021, past HARD_ORDER_CAP.
    """
    c = r**i
    if c >= sys.float_info.min:
        return math.frexp(c)
    mr, er = math.frexp(r)
    m, e = math.frexp(mr**i)
    return m, e + er * i


def _series6_rows(ws: _Workspace, c0: int, tols: list[float], R: np.ndarray) -> list:
    """Rows q = n + 2c, c0 <= c < c0 + len(tols), of series6.

    With x = gamma/t, piece p of row q is c_p (R(p, q) G[q]) Jn[q] / t /
    pi^3, c_p = C(q+p, p) x^p (2/t)^q, and R(p, q) G[q] = sum_k C(q,k)
    2^-q Jl[p+k] Jm[p+q-k] is read from ``R``, p < W.  A row stops at the
    first p whose ratio x (q+p+2)/(p+2) is below 1, with a piece so far
    nonzero and 2 max(piece_p, ratio piece_(p-1)) ratio / (1 - ratio) at
    most ``tols[c - c0]``; it gives the fsum of its pieces, that bound
    (inf if the ratio never fell below 1) and whether it stopped, or
    sums all W pieces.  All rows are formed at once, elementwise in this
    operation order; the ratio never rises with p and is divided by only
    where below 1 (at t = 2 gamma it is exactly 1 at p = q - 2).

    The ladder starts from (2/t)^q split by ``_ladder_start`` (subnormal
    or 0 at deep rows of large gamma); every factor x (q+p)/p is split by
    np.frexp, mantissas multiplied in sequence and exponents summed.  The
    mantissa stays in [2^-(p+1), 1], never overflows (the ladder passes
    1e308 at gamma = 7, t = 9.01 from q = 510) and stays normal, where
    scaling by 2^k is exact: ldexp gives the unscaled ladder where normal.
    """
    t, x = ws.params.t, ws.params.gamma / ws.params.t
    count, width = R.shape
    q0 = ws.params.n + 2 * c0
    qs = range(q0, q0 + 2 * count, 2)
    pv = np.arange(1, width + 2)
    f = x * (np.arange(q0, q0 + 2 * count, 2)[:, None] + pv)
    f /= pv  # f[:, p] = x (q+p+1)/(p+1): the ladder's step to p+1, the ratio at p-1
    # pieces[:, 1 + p] holds piece p and pieces[:, 0] = 0, the piece before p = 0
    pieces = np.zeros((count, width + 1))
    ladder = pieces[:, 1:]
    exps = np.empty(R.shape, dtype=np.int64)
    ladder[:, 0], exps[:, 0] = zip(*(_ladder_start(2.0 / t, q) for q in qs))
    np.frexp(f[:, : width - 1], out=(ladder[:, 1:], exps[:, 1:]))
    np.multiply.accumulate(ladder, axis=1, out=ladder)
    np.cumsum(exps, axis=1, out=exps)
    piece = np.ldexp(ladder, exps, out=ladder)
    piece *= R * ws.G[q0 : q0 + 2 * count : 2, None]
    piece *= ws.Jn[q0 : q0 + 2 * count : 2, None]
    piece /= t
    piece /= PI3
    ratio = f[:, 1:]
    below = ratio < 1.0
    bounds = ratio * pieces[:, :-1]
    np.maximum(piece, bounds, out=bounds)
    bounds *= 2.0
    bounds *= ratio
    np.divide(bounds, 1.0 - ratio, out=bounds, where=below)
    halt = bounds <= np.array(tols)[:, None]
    halt &= below
    halt &= np.logical_or.accumulate(piece != 0.0, axis=1)
    out = []
    for row, (stop, ok) in enumerate(zip(halt.argmax(axis=1).tolist(), halt.any(axis=1).tolist())):
        last = stop if ok else width - 1
        bound = float(bounds[row, last]) if below[row, last] else math.inf
        out.append((math.fsum(piece[row, : last + 1].tolist()), bound, ok))
    return out


def _doubling_indices(count: int) -> list[int]:
    return [(1 << k) - 1 for k in range(1, count.bit_length() + 1) if (1 << k) - 1 < count]


def _transform(sums: list[float], method: str) -> tuple[float, float]:
    """Sequence transform tuned for the band-edge tail.

    At t = 2+gamma the partial sums close in like 1/sqrt(i), which the
    transforms cannot accelerate directly (error ratios tend to 1).
    Sampling at doubling indices i = 2^k - 1 turns every i^(-p-1/2) tail
    component into a geometric one in k, exactly the regime where Wynn
    and Aitken converge; away from the edge the subsampled tail decays
    even faster, so the same sampling is used whenever enough terms
    exist.  Fewer than four doubling indices means at most 15 sums, and
    those are transformed whole.
    """
    idx = _doubling_indices(len(sums))
    window = [sums[i] for i in idx] if len(idx) >= 4 else list(sums)
    seq = PartialSumSequence(window)
    if method == "wynn":
        return wynn_epsilon_with_estimate(seq)
    value = aitken_delta2(seq)
    prev = aitken_delta2(PartialSumSequence(window[:-1])) if len(window) > 3 else window[-1]
    return value, abs(value - prev)


def _finish(state: _ScanState, tol: float, accel: str, method: str) -> SeriesEvaluation:
    """The evaluation a finished scan reports.

    The raw result is the last partial sum, with the running tail bound
    plus the inner errors as its estimate.  With ``accel`` set and the
    raw sum unconverged after at least three terms, the transformed
    value is reported instead, unless the stability guard rejects it:
    a transform may not move more than ten tail bounds off the last
    partial sum.  A transformed value never claims convergence: its
    estimate is the change between the last transforms, not a bound,
    and at the band edge it falls below tol while the true error is far
    larger.
    """
    raw_bound = state.best_bound + math.fsum(state.inner_errors)
    raw_converged = state.stopped and state.inner_ok and raw_bound <= tol
    if accel != "none" and not raw_converged and len(state.sums) >= 3:
        value, estimate = _transform(state.sums, accel)
        # stability guard: a transform may not wander off the raw sum scale
        drift = abs(value - state.sums[-1])
        bound = state.best_bound
        if not (math.isfinite(bound) and drift > 10.0 * max(bound, 1e-300)):
            return SeriesEvaluation(
                value=value,
                terms_used=len(state.terms),
                abs_error_estimate=estimate,
                method=method,
                accelerated=accel,
                converged=False,
            )
    return SeriesEvaluation(
        value=state.sums[-1],
        terms_used=len(state.terms),
        abs_error_estimate=raw_bound,
        method=method,
        accelerated="none",
        converged=raw_converged,
    )


def evaluate_series5(
    params: GreenParams,
    tol: float = 1e-10,
    n_max: int = 400,
    accel: str = "none",
) -> SeriesEvaluation:
    """Green function by the single binomial expansion in 1/t.

    Summation stops once the running geometric tail bound (ratio
    r = (2+gamma)/t) drops to ``tol`` or ``n_max`` terms are exhausted.
    That stop is not sound: at t = 4, site (12, 12, 0) it claims
    convergence with 8.9e-16 for G = 7.52e-10 (see the module
    docstring).  With ``accel`` set, a sequence transform is applied to
    the partial sums whenever the raw tail fails to converge, guarded
    against transform blow-ups; this is what makes the band edge
    t = 2+gamma usable.
    """
    state = _scan_for(params, "series5", tol, n_max, None, accel)
    return _finish(state, tol, accel, "series5")


def evaluate_series6(
    params: GreenParams,
    tol: float = 1e-10,
    n_max: int = 400,
    l_max: int = 400,
    accel: str = "none",
) -> SeriesEvaluation:
    """Green function by the double expansion with the gamma bond split off.

    The outer index follows the two isotropic bonds (tail ratio
    2/(t-gamma)); each inner sum in gamma/t is truncated adaptively with
    its own budgeted tolerance, so the reported error covers both limits.
    Agrees with evaluate_series5 within combined error estimates.
    """
    state = _scan_for(params, "series6", tol, n_max, l_max, accel)
    return _finish(state, tol, accel, "series6")


def convergence_rows(
    params: GreenParams,
    tol: float = 1e-10,
    n_max: int = 400,
    method: str = "series5",
    accel: str = "none",
    l_max: int = 400,
) -> tuple[list[dict], SeriesEvaluation]:
    """Per-term diagnostics, and the evaluation the same scan gives.

    Each row holds the term, partial sum, tail bound and transform
    value.  The accelerated estimate in row i is the transform the
    evaluators apply, taken over the partial sums up to i.  ``l_max``
    bounds the inner sums of series6 as in evaluate_series6; the
    evaluation is the one evaluate_series5 or evaluate_series6 reports
    for the same arguments.
    """
    state = _scan_for(params, method, tol, n_max, l_max, accel)
    rows = []
    for i, (term, psum, bound) in enumerate(zip(state.terms, state.sums, state.bounds)):
        accel_value: float | None = None
        if accel != "none" and i >= 2:
            accel_value, _ = _transform(state.sums[: i + 1], accel)
        rows.append(
            {
                "i": i,
                "term": term,
                "partial_sum": psum,
                "tail_bound": bound if math.isfinite(bound) else None,
                "accelerated_estimate": accel_value,
            }
        )
    return rows, _finish(state, tol, accel, method)
