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
J_m[p+q-k]: nu_i over q with p = i - q, series6's row q over p.  The
cached record of a site (``_site_tables``), built once to the deepest J
any call reads, holds the J and E arrays zero-padded, and ``_r_block``
forms one column block of q from their views.  Series5 sums weighted
anti-diagonals into its table nu_0 .. nu_(D-1)
(``_nu_table``); series6 reads columns as its rows (``_series6_rows``),
forming a block when its scan reaches it.  Each series builds its terms
to the depth ``_depth`` gives it and hands them to the scan in chunks,
lists of terms, inner errors and flags: series5 all its terms at once,
series6 one row group at a time.  That depth comes from a closed-form,
site-free envelope of the terms: every J_p is at most b(p) = min(pi,
sqrt(2 pi / p)), so nu_i decays like i^(-3/2) (``_nu_envelope``) and
series6's row q like q^(-3/2) r6^q (``_row_envelope``).  The envelope
only sizes the tables; the scan's stop rule does not read it.

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
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .acceleration import (
    PartialSumSequence,
    aitken_delta2,
    wynn_epsilon_with_estimate,
)
from .basic_integrals import shared_table
from .errors import DomainError
from .params import GreenParams, SeriesEvaluation, _real, _whole

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
# the constants of the series5 and series6 envelopes (``_depth``)
_NU_ENVELOPE = 8.0 * math.sqrt(2.0) / math.pi**2
_ROW_ENVELOPE = 8.0 / math.pi**2
_TINY = sys.float_info.min  # the least normal double


def _safe_order(gamma: float) -> int:
    """Last order whose moment nu_i s^i stays inside the double range.

    Moments grow like (2+gamma)^i; moment_coefficient refuses orders
    beyond this index.
    """
    return int(680.0 / math.log(2.0 + gamma))


class _SiteTables(NamedTuple):
    """The read-only tables of one site, the views of R included (``_site_tables``)."""

    Jl: np.ndarray
    Jm: np.ndarray
    Jn: np.ndarray
    a: int
    b: int
    lm: int
    k_max: int
    pad: int
    hankel: np.ndarray
    toeplitz: np.ndarray
    e_up: np.ndarray
    e_down: np.ndarray


@lru_cache(maxsize=32)
def _site_tables(l: int, m: int, n: int) -> _SiteTables:
    """The J vectors of site (l, m, n) to depth D = 2 HARD_ORDER_CAP and the views ``_r_block`` reads.

    J_p(l), J_p(m), J_p(n), p <= D, are read from the shared closed-form
    table at p of the site index's parity and are 0 elsewhere.  Jl[l::2],
    Jm[m::2] and E are zero-padded, index 0 at ``pad``, under a Hankel
    and a Toeplitz view of the J vectors and two strided views of E.  A
    block (c0, s_stop) reads E below n + 2 c_end with c_end = c0 +
    _COL_TILE, rows s2 below s_end = s_stop + _ROW_TILE, and tiles at
    most min(2 s_end, c_end + n//2 + 1) wide (``_tiles``).  Every block
    has c0 <= (D - n)//2 and s_stop <= (D + |lm|)//2 + 1, lm =
    (l+m-n)/2: series5 and moment_coefficient build tables of count <=
    HARD_ORDER_CAP + 1 orders, whose columns c < (count + 1 - n)//2 have
    s_stop = (count - h - c0 + 1)//2, h = lm + n >= 0, and series6 reads
    q = n + 2c < n_max <= HARD_ORDER_CAP to s_stop = (width + c - 1 -
    lm)//2 + 1, width <= l_max <= HARD_ORDER_CAP.  So one record serves
    every call on the site.

    Nothing here depends on t or gamma, so the cache keeps a sweep, a
    comparison or a repeated call from rebuilding it.  Every array, and
    every array a view is built on, is read-only and shared.
    """
    depth = 2 * HARD_ORDER_CAP
    table = shared_table(depth)
    Jl, Jm, Jn = np.zeros(depth + 1), np.zeros(depth + 1), np.zeros(depth + 1)
    for J, k in ((Jl, l), (Jm, m), (Jn, n)):
        J[k::2] = [table.j_value(p, k) for p in range(k, depth + 1, 2)]
    a, b, lm = (n + l - m) // 2, (n - l + m) // 2, (l + m - n) // 2
    ts, tc = _ROW_TILE, _COL_TILE
    c_end = max(0, (depth - n) // 2) + tc
    s_end = (depth + abs(lm)) // 2 + 1 + ts
    k_max = min(n // 2 + c_end + 1, 2 * s_end)
    pad = k_max + 2 * (ts + tc)
    jl = _shifted(Jl[l::2], pad, 2 * pad + 2 * s_end)
    jm = _shifted(Jm[m::2], pad, 2 * pad + 2 * s_end)
    ep = _shifted(_factorial_scales()[0], pad, 2 * pad + n + 2 * c_end)
    for arr in (Jl, Jm, Jn, jl, jm, ep):
        arr.flags.writeable = False
    return _SiteTables(
        Jl, Jm, Jn, a, b, lm, k_max, pad,
        # hankel[x, j] = jl[x + j]; toeplitz[par, y, j] = jm[y + par - j + k_max - 1]
        hankel=_strided(jl, 0, (jl.size - k_max + 1, k_max), (1, 1)),
        toeplitz=_strided(jm, k_max - 1, (2, jm.size - k_max, k_max), (1, 1, -1)),
        # e_up[par, r, c] = ep[r - par + c + 1]; e_down[par, r, c] = ep[r + par + c]
        e_up=_strided(ep, 1, (2, ep.size - tc, tc), (-1, 1, 1)),
        e_down=_strided(ep, 0, (2, ep.size - tc, tc), (1, 1, 1)),
    )


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


def _tiles(site: _SiteTables, c0: int, s_stop: int) -> list[tuple[int, int, int]]:
    """The tiles (s0, e_lo, e_hi) of column block c0 whose product can be nonzero.

    s0 < ``s_stop`` runs over multiples of ``_ROW_TILE`` whose last row
    s0 + _ROW_TILE - 1 is at least -((1 + lm - c0) // 2), the first row
    s2 of the block that reaches p >= 0 (see ``_r_block``); [e_lo,
    e_hi] is where P and B can both be nonzero, and must not be empty.
    """
    a, b, lm = site.a, site.b, site.lm
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


def _r_block(site: _SiteTables, c0: int, s_stop: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """The inner sums R(p, q) = sum_k E[k] E[q-k] Jl[p+k] Jm[p+q-k] of column block c0.

    R vanishes unless q = n + 2c with c >= 0.  Write h = (l+m+n)/2,
    a = (n+l-m)/2, b = n - a, lm = h - n and s' = p + (q-l-m)/2 =
    2 s2 + par with par = 0 or 1, so p = s' - c + lm; R = 0 for s' < 0.
    With k = a + c + 2e - par

        R = sum_e P_par[s2, e] B_par[e, c],
        P_par[s2, e] = Jl[l + 2(s2+e)] Jm[m + 2(s2+par-e)],
        B_par[e, c] = E[a - par + c + 2e] E[b + par + c - 2e],

    a Hankel times a Toeplitz view of the J vectors and two strided
    views of E, all zero-padded, so every term of the sum is >= 0.

    Returns (r0, first, buf, block): block[par, s2 - r0, c - c0] = R(p, q)
    for c0 <= c < c0 + _COL_TILE and s2 from r0, the first of ``_tiles``,
    in whole tiles to ``s_stop``, both parities of a tile by one product,
    0 off the tiles.  buf[s' - first, c - c0], first = min(2 r0 -
    _COL_TILE + 1, c0 - lm), holds it from every p >= 0 to _COL_TILE - 1
    zero rows past it.  No temporary passes ~2^16 doubles.
    """
    ts, tc, pad = _ROW_TILE, _COL_TILE, site.pad
    tiles = _tiles(site, c0, s_stop)
    r0 = tiles[0][0] if tiles else 0
    rows = max(0, -(-(s_stop - r0) // ts) * ts)
    lead = max(tc - 1, 2 * r0 + site.lm - c0)
    buf = np.zeros((lead + 2 * rows + tc - 1, tc))
    block = buf[lead : lead + 2 * rows].reshape(rows, 2, tc).transpose(1, 0, 2)
    e0 = min((e_lo for _, e_lo, _ in tiles), default=0)
    width = max((e_hi for _, _, e_hi in tiles), default=0) - e0 + 1
    r_up = pad + site.a + c0 + 2 * e0 - 1
    r_down = pad + site.b + c0 - 2 * e0
    B = site.e_up[:, r_up : r_up + 2 * width : 2] * site.e_down[:, r_down : r_down - 2 * width : -2]
    for s0, e_lo, e_hi in tiles:
        k = e_hi - e_lo + 1
        x = pad + s0 + e_lo
        y = pad + s0 - e_lo - site.k_max + 1
        P = site.hankel[x : x + ts, :k] * site.toeplitz[:, y : y + ts, :k]
        np.matmul(P, B[:, e_lo - e0 : e_hi - e0 + 1], out=block[:, s0 - r0 : s0 - r0 + ts])
    return r0, 2 * r0 - lead, buf, block


def _nu_table(params: GreenParams, site: _SiteTables, count: int) -> np.ndarray:
    """nu_0 .. nu_(count-1) of the site, at the gamma of ``params``.

    pi^3 nu_i = sum_q w(i, q) R(i - q, q) over the inner sums R of
    ``_r_block``, with w(i, q) = G[i] / G[p] (gamma/s)^p (2/s)^q Jn[q],
    p = i - q, where G[i] / G[p] = C(i, q) G[q]: R(p, q) G[q] is the row
    q = j of the double sum.  The weight is formed in that order: the
    ratio (up to 1e79) goes into the gamma ladder before the J_n ladder,
    since at gamma = 1, i = 1000, q near 512 the two ladders alone
    multiply to about 1e-323.  Both ladders are formed elementwise for
    the table's orders.  Weights with q > i are zero.

    Blocks hold the columns with an order i = s' + c + h < ``count`` at
    s' >= 0 and p = i - n - 2c >= 0, and tiles of least order below
    ``count``.  Each weighted block is summed along its anti-diagonals
    s' + c = i - h, a sheared view of its buffer, into nu_i in column
    order: a shorter table is bit for bit a prefix of a longer one.
    """
    n, lm = params.n, site.lm  # p = s' - c + lm
    G = _factorial_scales()[1]
    h = lm + n
    ts, tc = _ROW_TILE, _COL_TILE
    c_stop = min(count - h, (count + 1 - n) // 2)
    s_end, c_end = (count + 1) // 2 + ts, max(c_stop, 0) + tc  # past every block
    nus = np.zeros(count)
    # the weights' arrays are zero-padded like the tiles' (ones for G in a denominator)
    gi = _shifted(G[:count], 0, 2 * s_end + c_end + h + tc)
    p_pad = c_end + abs(lm) + tc
    gp = _shifted(G, p_pad, 2 * p_pad + 2 * s_end, fill=1.0)
    orders, s = np.arange(count), params.band_edge
    gs = _shifted(np.power(params.gamma / s, orders), p_pad, gp.size)
    jn = _shifted(np.power(2.0 / s, orders) * site.Jn[:count], 0, n + 2 * c_end + 2 * tc)
    # g_i[par, r, c] = gi[r + par + c]; g_p, gs_p [par, r, c] = gp, gs[r + par - c + tc - 1]
    g_i = _strided(gi, 0, (2, gi.size - tc, tc), (1, 1, 1))
    g_p = _strided(gp, tc - 1, (2, gp.size - tc, tc), (1, 1, -1))
    gs_p = _strided(gs, tc - 1, (2, gs.size - tc, tc), (1, 1, -1))
    for c0 in range(0, c_stop, tc):
        r0, first, buf, block = _r_block(site, c0, (count - h - c0 + 1) // 2)
        rows = block.shape[1]
        i0 = 2 * r0 + c0 + h
        p0 = p_pad + 2 * r0 - c0 + lm - tc + 1
        q0 = n + 2 * c0
        w = g_i[:, i0 : i0 + 2 * rows : 2] / g_p[:, p0 : p0 + 2 * rows : 2]
        w *= gs_p[:, p0 : p0 + 2 * rows : 2]
        w *= jn[q0 : q0 + 2 * tc : 2]
        block *= w
        # sheared[d, c] = buf[2 r0 - first + d - c, c], the entry of order i0 + d
        sheared = _strided(buf, (2 * r0 - first) * tc, (2 * rows + tc - 1, tc), (tc, 1 - tc))
        sums = sheared.sum(axis=1)
        stop = min(count, i0 + sums.size)
        nus[i0:stop] += sums[: stop - i0]
    nus /= PI3
    return nus


def _nu_envelope(params: GreenParams, i: int) -> float:
    """U_i >= |nu_i| at every site (see ``_depth``): 1 below i = 2 and where x y is not normal."""
    s = 2.0 + params.gamma
    xy = 2.0 * params.gamma / (s * s)
    if i < 2 or xy < _TINY:
        return 1.0
    u = _NU_ENVELOPE / ((i + 1) * math.sqrt(i * xy))
    return u if u < 1.0 else 1.0


def _row_envelope(params: GreenParams, q: int) -> float:
    """V_q, with series6's row q <= V_q r6^q / (t - gamma) (see ``_depth``): 1 at q = 0 and where x is not normal."""
    x = params.gamma / params.t
    if q < 1 or x < _TINY:
        return 1.0
    u = _ROW_ENVELOPE / (q * math.sqrt((q + 1) * x))
    return u if u < 1.0 else 1.0


def _depth(
    params: GreenParams,
    ratio: float,
    denominator: float,
    stop_tol: float,
    n_max: int,
    envelope: Callable[[GreenParams, int], float],
) -> int:
    """The terms a scan reads before it stops, for terms term_i <= U_i ratio^i / denominator.

    U = ``envelope`` does not increase, so U_(i-1) ratio^i / denominator
    bounds both term_i and ratio term_(i-1), and once some term is
    nonzero the scan's tail bound after term i is at most geo U_(i-1)
    ratio^i / denominator, geo = ratio/(1-ratio).  The first nonzero
    term comes by order l+m+n, so the scan stops by order max(i*, l+m+n),
    with i* any i where that bound meets ``stop_tol``; two more orders
    cover the rounding of the bound and of the logarithms here.  At
    ratio >= 1 nothing stops the scan before ``n_max``.

    With logs = log(stop_tol denominator / geo), i passes where i >=
    g(i) = (logs - log U_(i-1)) / log ratio, and g does not increase.
    The crude i0 = ceil(logs / log ratio), the bound at U = 1, passes;
    i1 = ceil(g(i0)) <= i0 may not, but i2 = ceil(g(i1)) >= ceil(g(i0))
    = i1 gives g(i2) <= g(i1) <= i2, so i2 passes: two steps, in closed
    form, and never past i0.

    Both bounds rest on J_p(k) <= b(p) = min(pi, sqrt(2 pi / p)), from
    C(2m, m) / 4^m <= 1 / sqrt(pi m): b(0) = pi, b(p) = sqrt(2 pi / p)
    from p = 1 on, b(k)^2 <= 4 pi / (k+1), and b(q)^2 <= 2 pi / q for
    q >= 1.  With sum_k C(q, k) 2^-q = 1, R(p, q) G[q] is at most the
    largest b(p+k) b(p+q-k), k <= q.  For p >= 1 that is b(p) b(p+q),
    since (p+k)(p+q-k) >= p (p+q).  At p = 0 the ends give pi b(q) and
    every other product 2 pi / sqrt(k (q-k)) <= 2 pi / sqrt(q-1) <=
    2 sqrt(pi) b(q).  So R(p, q) G[q] <= (2/sqrt(pi)) b(p) b(p+q) for
    every p, and Jn[q] <= b(q).

    Series5 passes (r, t, tol, ``_nu_envelope``), r = (2+gamma)/t: its
    term is nu_i r^i / t.  With s = 2+gamma, x = gamma/s, y = 2/s and Q
    ~ Bin(i, y), P = i - Q ~ Bin(i, x), pi^3 nu_i = sum_q C(i, q) x^p
    y^q Jn[q] R(p, q) G[q] <= (2/sqrt(pi)) b(i) E[b(P) b(Q)].  By
    Cauchy-Schwarz and E[1/(Q+1)] = (1 - x^(i+1)) / ((i+1) y) <= 1 /
    ((i+1) y), the same for P with x, E[b(P) b(Q)] <= 4 pi / ((i+1)
    sqrt(x y)), so for i >= 1

        nu_i <= U_i = 8 sqrt(2) / (pi^2 (i+1) sqrt(i x y)),

    and nu_i <= 1 since every J is at most pi and the weights sum to 1.
    Its first nonzero term comes at order max((l+m+n)/2, l, m, n).

    Series6 passes (r6, t - gamma, tol/2, ``_row_envelope``), r6 = 2/(t
    - gamma).  With x = gamma/t, piece p of its row q is C(q+p, p) x^p
    (2/t)^q (R(p, q) G[q]) Jn[q] / (t pi^3), and a row cut at ``l_max``
    sums fewer pieces.  P negative binomial, P(P = p) = C(q+p, p) x^p
    (1-x)^(q+1), has E[1/(P+1)] = (1-x) (1 - (1-x)^q) / (q x) <= 1 /
    ((q+1) x), since u - u^(q+1) <= q/(q+1) on [0, 1].  With b(q)^2 <=
    2 pi / q, Cauchy-Schwarz on E[b(P)] and (2/t)^q (1-x)^-(q+1) / t =
    r6^q / (t - gamma), row q is at most r6^q / (t - gamma) times

        V_q = 8 / (pi^2 q sqrt((q+1) x)),  q >= 1,

    and times 1, as R(p, q) G[q] <= pi^2, Jn[q] <= pi and sum_p C(q+p,
    p) x^p = (1-x)^-(q+1).  Its first nonzero row is q =
    max(l+m, n) <= l+m+n, at p = 0.  Where x y or x is below the normal
    range both envelopes take the bound 1, which needs no x.
    """
    if ratio >= 1.0:
        return n_max
    logs = math.log(stop_tol) + math.log(denominator) + math.log1p(-ratio) - math.log(ratio)
    log_r = math.log(ratio)
    i = math.ceil(logs / log_r)
    for _ in range(2):
        i = math.ceil((logs - math.log(envelope(params, i - 1))) / log_r)
    return min(n_max, max(i, params.l + params.m + params.n) + 2)


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
    site = _site_tables(params.l, params.m, params.n)
    return float(_nu_table(params, site, i + 1)[i]) * params.band_edge**i


def _scan_for(
    params: GreenParams, method: str, tol: float, n_max: int, l_max: int | None, accel: str
) -> tuple[_ScanState, SeriesEvaluation]:
    """The scan of ``method`` and the evaluation it gives; series6 reads ``l_max``.

    Every argument is checked before any table is touched, and ``tol``
    is taken as a Python float by both.
    """
    tol = _real(tol, "tol")
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
        state = _scan_series5(params, tol, n_max)
    elif method == "series6":
        l_max = _whole(l_max, "l_max")
        if l_max < 1 or l_max > HARD_ORDER_CAP:
            raise ValueError(f"l_max must lie in [1, {HARD_ORDER_CAP}]")
        state = _scan_series6(params, tol, n_max, l_max)
    else:
        raise ValueError("convergence diagnostics need a series method")
    return state, _finish(state, tol, accel, method)


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
    chunks: Iterable[tuple[list[float], list[float], list[bool]]],
    ratio: float,
    stop_tol: float,
    n_max: int,
) -> _ScanState:
    """Kahan-sum the terms of either series, read as chunks (terms, inner_errors, inner_ok).

    A chunk holds three lists of equal length, one entry per term.
    Series5 hands its whole term list as one chunk, with inner errors
    0.0 and flags True; series6 one chunk per row group.  After each
    term the geometric tail bound ratio/(1-ratio) * max(term, ratio *
    prev) is taken, and the running bound is the least of the bounds
    taken once some nonzero term has been seen.  Before that, and always
    when ``ratio >= 1``, it is inf.  The terms of both series are >= 0
    and exactly 0.0 until the first order whose walks reach the site, so
    the first nonzero term needs no floor index of its own.  Inner
    errors are kept per term and ``inner_ok`` holds only if every term
    read reported it.  The scan stops once the running bound is <=
    ``stop_tol``, or after ``n_max`` terms; it reads no chunk past the
    one it stops in.  Only the summation runs per term: terms, errors
    and flags are taken a chunk at a time.

    The chunks are built to the depth ``_depth`` gives, so they can end
    before ``n_max`` only once the scan has stopped.  If they end sooner
    the scan raises IndexError, unless every term so far is 0.0 (below
    the double range, as at t = 1e300): then it ends unstopped.
    """
    geo = ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    bounded = ratio < 1.0
    state = _ScanState()
    add_sum, add_bound = state.sums.append, state.bounds.append
    total = comp = prev = 0.0
    seen_nonzero = False
    running = math.inf
    for terms, inner_errors, inner_ok in chunks:
        start = len(state.sums)
        for term in terms[: n_max - start]:
            if term != 0.0:
                seen_nonzero = True
                y = term - comp
                s = total + y
                comp = (s - total) - y
                total = s
            add_sum(total)
            if seen_nonzero and bounded:
                # geo * max(term, ratio * prev), the least bound so far
                bound = ratio * prev
                bound = geo * (bound if bound > term else term)
                if bound < running:
                    running = bound
            add_bound(running)
            if running <= stop_tol:
                state.stopped = True
                break
            prev = term
        read = len(state.sums) - start
        state.terms += terms[:read]
        state.inner_errors += inner_errors[:read]
        state.inner_ok = state.inner_ok and all(inner_ok[:read])
        if state.stopped or len(state.sums) == n_max:
            return state
    if seen_nonzero:
        raise IndexError(f"the chunks ended after {len(state.sums)} of {n_max} terms")
    return state


def _scan_series5(params: GreenParams, tol: float, n_max: int) -> _ScanState:
    """Series5's scan: its terms nu_i r^i / t, by Python's pow, as one chunk."""
    t = params.t
    r = params.band_edge / t
    site = _site_tables(params.l, params.m, params.n)
    nus = _nu_table(params, site, _depth(params, r, t, tol, n_max, _nu_envelope))
    terms = [nu * r**i / t for i, nu in enumerate(nus.tolist())]
    return _scan([(terms, [0.0] * len(terms), [True] * len(terms))], r, tol, n_max)


def _scan_series6(params: GreenParams, tol: float, n_max: int, l_max: int) -> _ScanState:
    """Series6's scan; its rows are formed ``_ROW_GROUP`` at a time as it reaches them.

    Rows q = n, n+2, ... below the depth are read by column from R blocks
    of ``_COL_TILE`` rows, each formed to the widest of its groups when
    the scan reaches it; the rows between, where J_q(n) = 0, are 0.  A
    group's width is the envelope width (``_envelope_count``) of its last
    row, at least one past the first p where R(p, q) of its first row
    can be nonzero, and at most ``l_max``.  No width changes a row that
    stops inside it, and a row that does not stop reports so.  The rows
    below n are one chunk of zeros; each group is one chunk, its rows
    interleaved with the zero rows after them.
    """
    l, m, n = params.l, params.m, params.n
    site = _site_tables(l, m, n)
    gap = params.t - params.gamma
    r_out = 2.0 / gap
    depth = _depth(params, r_out, gap, tol * 0.5, n_max, _row_envelope)

    def tol_inner(q: int) -> float:
        budget = tol * 0.25 * (1.0 - r_out) * r_out**q if r_out < 1.0 else tol * 0.25 / n_max
        return max(budget, 1e-300)

    def width(qs: range) -> int:
        # R(p, q) = 0 until p + q >= l, p + q >= m and 2p + q >= l + m;
        # the envelope holds from the first nonzero piece on
        first = max(l - qs[0], m - qs[0], (l + m - qs[0] + 1) // 2)
        return min(max(_envelope_count(params, site, qs[-1], tol_inner(qs[-1]), l_max), first + 1), l_max)

    def chunks():
        zeros = min(n, depth)
        yield [0.0] * zeros, [0.0] * zeros, [True] * zeros
        for q0 in range(n, depth, 2 * _COL_TILE):
            block = range(q0, min(q0 + 2 * _COL_TILE, depth), 2)
            groups = [block[k : k + _ROW_GROUP] for k in range(0, len(block), _ROW_GROUP)]
            widths = [width(qs) for qs in groups]
            R = _series6_r(site, (q0 - n) // 2, len(block), max(widths))
            for k, qs, w in zip(itertools.count(0, _ROW_GROUP), groups, widths):
                tols = [tol_inner(q) for q in qs]
                rows = _series6_rows(params, site, (qs[0] - n) // 2, tols, R[k : k + len(qs), :w])
                # row q at 2 (q - qs[0]), then the zero row q + 1 unless it is past the depth
                size = 2 * len(qs) - (qs[-1] + 1 >= depth)
                chunk = [0.0] * size, [0.0] * size, [True] * size
                for column, values in zip(chunk, rows):
                    column[::2] = values
                yield chunk

    return _scan(chunks(), r_out, tol * 0.5, n_max)


def _envelope_count(params: GreenParams, site: _SiteTables, q: int, tol_q: float, l_max: int) -> int:
    """The pieces row q of series6 takes if every R(p, q) G[q] is at its bound B(p).

    J_p(k) <= b(p) = min(pi, sqrt(2 pi / p)), since C(2m, m) / 4^m <=
    1 / sqrt(pi m), and b does not increase.  With sum_k C(q, k) 2^-q = 1
    this gives R(p, q) G[q] <= max_k b(p+k) b(p+q-k) = b(p) b(p+q).
    Take B(p) = pi^2 for p < 2 and b(p-1) b(p-1+q) from p = 2 on: B does
    not increase, and it bounds R(p, q) G[q] and R(p-1, q) G[q] alike.
    So piece_p <= env_p = c_p B(p) Jn[q] / (t pi^3), and since ratio_p =
    x (q+p+2)/(p+2) <= x (q+p)/p = c_p / c_(p-1), also ratio_p
    piece_(p-1) <= ratio_p c_(p-1) B(p) Jn[q] / (t pi^3) <= env_p: the
    envelope covers both terms of the row's stop test.  Once a piece is
    nonzero the row stops by the first p with ratio_p < 1 and 2 env_p
    ratio_p / (1 - ratio_p) <= ``tol_q``: found by bisection on logarithms.
    Where x is below the normal range (0.0 at t = 1e300, gamma = 1e-30)
    no bound in x is taken: the row takes all ``l_max`` pieces.
    """
    t, x = params.t, params.gamma / params.t
    if x < _TINY:
        return l_max
    log_x = math.log(x)
    # a sum of logarithms: 2 Jn[q] / (pi t tol_q) underflows at t = 1e300, tol_q = 1e10
    log_a = math.log(2.0 * site.Jn[q] / math.pi) - math.log(t) - math.log(tol_q) + q * math.log(2.0 / t)
    log_a -= math.lgamma(q + 1)
    log_2_pi = math.log(2.0 / math.pi)

    def passes(p: int) -> bool:
        ratio = x * (q + p + 2) / (p + 2)
        if ratio >= 1.0:
            return False
        log_c = math.lgamma(q + p + 1) - math.lgamma(p + 1) + p * log_x
        if p >= 2:  # B(p) / pi^2
            log_c += log_2_pi - 0.5 * math.log((p - 1) * (p - 1 + q))
        return log_a + log_c + math.log(ratio / (1.0 - ratio)) <= 0.0

    return min(bisect.bisect_left(range(l_max), True, key=passes) + 1, l_max)


def _series6_r(site: _SiteTables, c0: int, cols: int, width: int) -> np.ndarray:
    """R(p, q) as r[c - c0, p], q = n + 2c, c0 <= c < c0 + cols, p < width: a view of one ``_r_block``.

    Rows of s' < 0 and of tiles left out are 0.
    """
    tc, lm = _COL_TILE, site.lm
    _, first, buf, _ = _r_block(site, c0, (width + c0 + cols - 2 - lm) // 2 + 1)
    # r[c - c0, p] = buf[c - lm + p - first, c - c0]
    return _strided(buf, (c0 - lm - first) * tc, (cols, width), (tc + 1, tc))


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


def _series6_pieces(
    params: GreenParams, site: _SiteTables, c0: int, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of series6 rows q = n + 2c, c0 <= c < c0 + len(R), and their ratios.

    With x = gamma/t, piece p of row q is c_p (R(p, q) G[q]) Jn[q] / t /
    pi^3, c_p = C(q+p, p) x^p (2/t)^q, and R(p, q) G[q] = sum_k C(q,k)
    2^-q Jl[p+k] Jm[p+q-k] is read from ``R``, p < W.  Returns (pieces,
    f): pieces[:, 1 + p] is piece p and pieces[:, 0] = 0, the piece
    before p = 0; f[:, p] = x (q+p+1)/(p+1), p <= W, is the ladder's step
    to p+1 and the ratio at p-1.  All rows are formed at once,
    elementwise in this operation order.

    The ladder starts from (2/t)^q split by ``_ladder_start`` (subnormal
    or 0 at deep rows of large gamma); every factor x (q+p)/p is split by
    np.frexp, mantissas multiplied in sequence and exponents summed.  The
    mantissa stays in [2^-(p+1), 1], never overflows (the ladder passes
    1e308 at gamma = 7, t = 9.01 from q = 510) and stays normal, where
    scaling by 2^k is exact: ldexp gives the unscaled ladder where normal.
    """
    t, x = params.t, params.gamma / params.t
    count, width = R.shape
    q0 = params.n + 2 * c0
    qs = range(q0, q0 + 2 * count, 2)
    pv = np.arange(1.0, width + 2)
    f = np.arange(q0, q0 + 2 * count, 2.0)[:, None] + pv
    f *= x
    f /= pv
    pieces = np.zeros((count, width + 1))
    ladder = pieces[:, 1:]
    exps = np.empty(R.shape, dtype=np.intc)
    ladder[:, 0], exps[:, 0] = zip(*(_ladder_start(2.0 / t, q) for q in qs))
    np.frexp(f[:, : width - 1], out=(ladder[:, 1:], exps[:, 1:]))
    np.multiply.accumulate(ladder, axis=1, out=ladder)
    np.add.accumulate(exps, axis=1, out=exps)
    piece = np.ldexp(ladder, exps, out=ladder)
    piece *= R * _factorial_scales()[1][q0 : q0 + 2 * count : 2, None]
    piece *= site.Jn[q0 : q0 + 2 * count : 2, None]
    piece /= t
    piece /= PI3
    return pieces, f


def _series6_rows(
    params: GreenParams, site: _SiteTables, c0: int, tols: list[float], R: np.ndarray
) -> tuple[list[float], list[float], list[bool]]:
    """Rows q = n + 2c, c0 <= c < c0 + len(tols), of series6, from ``_series6_pieces``.

    A row stops at the first p whose ratio x (q+p+2)/(p+2) is below 1,
    with a piece so far nonzero and 2 max(piece_p, ratio piece_(p-1))
    ratio / (1 - ratio) at most ``tols[c - c0]``, or sums all W pieces.
    Returns three lists, one entry per row: the sum of its pieces, that
    bound (inf if the ratio never fell below 1) and whether it stopped,
    the columns of the scan's chunk.  The ratio never rises with p and
    is divided by only where below 1 (at t = 2 gamma it is exactly 1 at
    p = q - 2).  Every piece is >= 0, so a piece so far is nonzero
    exactly where the prefix sum s_p is > 0.

    The sum is Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26,
    2005) over the whole group: s = the prefix sums of the pieces, each
    addition's exact rounding error by TwoSum, z = s_p - s_(p-1), e_p =
    (s_(p-1) - (s_p - z)) + (piece_p - z), and a row's total s_last +
    E_last with E the prefix sums of e.  For n pieces >= 0 of sum S its
    error is at most eps S + gamma_(n-1)^2 S (eps = 2^-53), so the total
    lies within about one ulp of S.  It reads the pieces up to ``last``
    only: a wider R changes no row that stops inside the narrower one.
    """
    pieces, f = _series6_pieces(params, site, c0, R)
    count, width = R.shape
    piece = pieces[:, 1:]
    ratio = f[:, 1:]
    below = ratio < 1.0
    bounds = ratio * pieces[:, :-1]
    np.maximum(piece, bounds, out=bounds)
    bounds *= 2.0
    bounds *= ratio
    np.divide(bounds, 1.0 - ratio, out=bounds, where=below)
    sums = np.add.accumulate(pieces, axis=1)
    prev, s = sums[:, :-1], sums[:, 1:]
    halt = bounds <= np.array(tols)[:, None]
    halt &= below
    halt &= s > 0.0
    z = s - prev
    e = s - z
    np.subtract(prev, e, out=e)
    np.subtract(piece, z, out=z)
    e += z
    np.add.accumulate(e, axis=1, out=e)
    e += s
    stops = halt.argmax(axis=1)
    rows = np.arange(count)
    ok = halt[rows, stops]
    last = np.where(ok, stops, width - 1)
    totals = e[rows, last]
    row_bounds = np.where(below[rows, last], bounds[rows, last], math.inf)
    return totals.tolist(), row_bounds.tolist(), ok.tolist()


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
    return _scan_for(params, "series5", tol, n_max, None, accel)[1]


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
    return _scan_for(params, "series6", tol, n_max, l_max, accel)[1]


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
    state, evaluation = _scan_for(params, method, tol, n_max, l_max, accel)
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
    return rows, evaluation
