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
partial sums, each the correctly rounded sum of its terms (math.fsum),
increase monotonically toward G.  Each series sums a count of terms
fixed before the first one: the least k <= n_max whose
closed-form envelope tail, a bound on the sum of every term from k on
at every site, meets the tolerance (``_tail``, found by one bisection,
``_first_passing``).  At the band edge the terms decay only like
i^(-3/2), no geometric tail exists, and the evaluators sum n_max terms
and do not mark the result converged.  A sequence transform sharpens
the value there, but its estimate is not a bound, so a transformed
result never claims convergence either.

The raw moments grow like (2+gamma)^i and leave the double range past
order 680/ln(2+gamma).  Series5 therefore works with the normalized
moments nu_i = moment_i / s^i, s = 2+gamma: the double sum with the
weights C(i,j) (gamma/s)^(i-j) (2/s)^j, a binomial distribution, over
inner rows scaled by 2^-j, each at most pi^2.  Nothing in nu_i
overflows and nothing depends on t; the i-th term is nu_i r^i / t with
r = s/t, and the i-th moment is nu_i s^i.

Both series sum the inner sums R(p, q) = sum_k E[k] E[q-k] J_l[p+k]
J_m[p+q-k]: nu_i over q with p = i - q, series6's row q over p.  R
depends on the site alone: the cached record of a site
(``_site_tables``), built once to the deepest J any call reads, holds
the J and E arrays zero-padded and the site's store of R, and
``_r_block`` forms a column block of q from their views once, keeps it
in the record and extends it when a deeper call asks for more.  A
series call only weights stored entries, O(N^2) work where forming
them is O(N^3).
Series5 weights each stored block and sums its anti-diagonals in one
pass, an einsum over 1-D weights in p and q, into its table nu_0 ..
nu_(k-1) (``_nu_table``); series6 reads columns as its rows
(``_series6_rows``), a block of R at a time.  The count k comes from a
closed-form, site-free envelope of the terms: every J_p is at most b(p)
= min(pi, sqrt(2 pi / p)), so nu_i decays like i^(-3/2)
(``_nu_envelope``) and series6's row q like q^(-3/2) r6^q
(``_row_envelope``).  Each inner sum of series6 takes the pieces its
own envelope asks for (``_envelope_count``) and reports that
envelope's tail past them.

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
from collections.abc import Callable
from dataclasses import dataclass
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
# series6 sizes its rows in groups of this many
_ROW_GROUP = 16
# the constants of the series5 and series6 envelopes
_NU_ENVELOPE = 8.0 * math.sqrt(2.0) / math.pi**2
_ROW_ENVELOPE = 8.0 / math.pi**2
_TINY = sys.float_info.min  # the least normal double
_LEAST = math.ulp(0.0)  # the least positive double, the floor of every tail


def _safe_order(gamma: float) -> int:
    """Last order whose moment nu_i s^i stays inside the double range.

    Moments grow like (2+gamma)^i; moment_coefficient refuses orders
    beyond this index.
    """
    return int(680.0 / math.log(2.0 + gamma))


class _SiteTables(NamedTuple):
    """The tables of one site, the views and the store of R included (``_site_tables``)."""

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
    blocks: dict[int, np.ndarray]  # column block c0 -> its read-only F (``_r_block``)


@lru_cache(maxsize=8)
def _site_tables(l: int, m: int, n: int) -> _SiteTables:
    """The J vectors of site (l, m, n) to depth D = 2 HARD_ORDER_CAP, the views ``_r_block`` reads and its store.

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

    ``blocks``, empty here, is the site's store of inner sums R:
    ``_r_block`` keeps each column block to the most rows any call has
    asked for.  Series5 and moment_coefficient read at most 16 blocks
    (q < HARD_ORDER_CAP + 1) of at most 1001 rows, series6 at most 16
    blocks of l_max + 31 rows, so a store holds at most 16 x 1031 x 32
    doubles, 4.22 MB: series6 at t = 2+gamma with n_max = l_max = 1000
    reaches it.  With the J arrays, about 0.15 MB near the origin, a
    record holds at most 4.4 MB there, and the cache's 8 records 35 MB.
    A record it drops costs the next call on its site the rebuild and
    the tile products every call made before R was stored.

    Nothing here depends on t or gamma, so the cache keeps a sweep, a
    comparison or a repeated call from rebuilding it.  Every array, and
    every array a view is built on, is read-only and shared; only
    ``blocks`` grows.  Callers key
    it by (max(l, m), min(l, m), n): G is symmetric in l and m, and so
    both orders read one record and get one result.
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
        blocks={},
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


def _shifted(values: np.ndarray, offset: int, length: int) -> np.ndarray:
    """``length`` entries, values[x] at offset + x and 0 elsewhere."""
    out = np.zeros(length)
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


def _r_block(site: _SiteTables, c0: int, rows: int) -> np.ndarray:
    """The stored inner sums R(p, q) = sum_k E[k] E[q-k] Jl[p+k] Jm[p+q-k] of column block c0.

    R vanishes unless q = n + 2c with c >= 0.  Write h = (l+m+n)/2,
    a = (n+l-m)/2, b = n - a, lm = h - n and s' = p + (q-l-m)/2 =
    2 s2 + par with par = 0 or 1, so p = s' - c + lm; R = 0 for s' < 0.
    With k = a + c + 2e - par

        R = sum_e P_par[s2, e] B_par[e, c],
        P_par[s2, e] = Jl[l + 2(s2+e)] Jm[m + 2(s2+par-e)],
        B_par[e, c] = E[a - par + c + 2e] E[b + par + c - 2e],

    a Hankel times a Toeplitz view of the J vectors and two strided
    views of E, all zero-padded, so every term of the sum is >= 0.

    The site's record keeps the block in ``blocks[c0]`` as the
    read-only F[u, c - c0] = R(p, q) on the rows u = s' - c0 + lm = p +
    c - c0 below the most ``rows`` any call has asked for, and no
    further: R depends on the site alone.  Entries of p < 0 and rows no
    tile covers are 0.  A call that asks for more rows copies the
    stored ones and forms only the tiles of ``_tiles`` that reach past
    them, both parities of a tile by one product into one tile-sized
    buffer, whose rows inside the new ones it copies; a tile's product
    depends on (s0, e_lo, e_hi) alone, so every stored entry is the
    same float at every depth, and threads that extend one block at
    once store blocks that agree on every row they share.  Returns F.
    """
    ts, tc, pad, lo = _ROW_TILE, _COL_TILE, site.pad, c0 - site.lm  # lo: the s' of row 0
    old = site.blocks.get(c0)
    done = 0 if old is None else old.shape[0]
    if rows <= done:
        return old
    F = np.zeros((rows, tc))
    if old is not None:
        F[:done] = old
    tiles = [tile for tile in _tiles(site, c0, (lo + rows + 1) // 2) if 2 * (tile[0] + ts) - lo > done]
    if tiles:
        e0 = min(e_lo for _, e_lo, _ in tiles)
        span = max(e_hi for _, _, e_hi in tiles) - e0 + 1
        r_up = pad + site.a + c0 + 2 * e0 - 1
        r_down = pad + site.b + c0 - 2 * e0
        B = site.e_up[:, r_up : r_up + 2 * span : 2] * site.e_down[:, r_down : r_down - 2 * span : -2]
        # tile[s' - 2 s0] = product[par, s2 - s0]
        tile = np.empty((2 * ts, tc))
        product = tile.reshape(ts, 2, tc).transpose(1, 0, 2)
        for s0, e_lo, e_hi in tiles:
            k = e_hi - e_lo + 1
            x = pad + s0 + e_lo
            y = pad + s0 - e_lo - site.k_max + 1
            P = site.hankel[x : x + ts, :k] * site.toeplitz[:, y : y + ts, :k]
            np.matmul(P, B[:, e_lo - e0 : e_hi - e0 + 1], out=product)
            u0 = 2 * s0 - lo
            top, bottom = max(u0, done), min(u0 + 2 * ts, rows)
            F[top:bottom] = tile[top - u0 : bottom - u0]
    F.flags.writeable = False
    site.blocks[c0] = F
    return F


def _nu_table(params: GreenParams, site: _SiteTables, count: int) -> np.ndarray:
    """nu_0 .. nu_(count-1) of the site, at the gamma of ``params``.

    With x = gamma/s, y = 2/s and the stored inner sums R of
    ``_r_block``, pi^3 nu_i = sum_q C(i, q) x^p y^q Jn[q] R(p, q) G[q],
    p = i - q, and C(i, q) G[q] = G[i] / G[p], so

        pi^3 nu_i = G[i] sum_q T[p] y_q R(p, q),

    T[p] = x^p / G[p] (0 for p < 0) and y_q = y^q Jn[q], both 1-D.
    Block c0 holds the columns q = q0 + 2j, q0 = n + 2 c0, j <
    _COL_TILE, as F[u, j] = R(u - j, q), so order i = q0 + d sums the
    block's anti-diagonal d = u + j: one einsum over the view T[d - 2j]
    and the sheared view F[d - j, j], which weights and sums every entry
    in one pass.  Each product is formed as (T[p] y_q) R(p, q), at most
    pi^3 C(i, q) x^p y^q / G[i] <= pi^3 / G[i] <= 1.25e222, and so is
    every sum; T R alone reaches 4e220 pi^2 / G[q] and overflows, and at
    gamma = 1000 y_q underflows to 0 at deep q, where inf 0 would be
    NaN.  G[i] multiplies each order once, after its sum.

    The sheared view starts at d = _COL_TILE - 1, where F[d - j, j] is
    in F for every j.  The head rows d below it read a zero-padded copy
    of F's first rows, and only the columns j <= d/2 < _COL_TILE/2,
    the only ones with p = d - 2j >= 0; all blocks' heads go into one
    einsum.  A sum's terms and their order depend on (i, q0) alone, so a
    shorter table is bit for bit a prefix of a longer one.
    """
    n, tc = params.n, _COL_TILE
    hr, hc = tc - 1, tc // 2  # the head rows and their columns
    blocks = range(0, min(count - site.lm - n, (count + 1 - n) // 2), tc)
    if not blocks:
        return np.zeros(count)
    G = _factorial_scales()[1]
    orders, s = np.arange(count), params.band_edge
    # Tv[d, j] = T[d - 2j], ys[b, j] = y_q at q = n + 2 (b tc + j)
    T = _shifted(np.power(params.gamma / s, orders) / G[:count], 2 * hr, count + 2 * hr)
    Tv = _strided(T, 2 * hr, (count, tc), (1, -2))
    y = _shifted(np.power(2.0 / s, orders) * site.Jn[:count], 0, n + 2 * tc * len(blocks))
    ys = _strided(y, n, (len(blocks), tc), (2 * tc, 2))
    # sums[i] = pi^3 nu_i / G[i]; past count, the heads of the last block
    sums = np.zeros(max(count, n + 2 * tc * len(blocks)))
    # head[b, hc - 1 + u, j] = F[u, j] of block b, u < hr, and zeros before
    head = np.zeros((len(blocks), hc - 1 + hr, hc))
    for b, c0 in enumerate(blocks):
        q0 = n + 2 * c0
        F = _r_block(site, c0, count - q0)
        top = F[:hr, :hc]
        head[b, hc - 1 : hc - 1 + len(top)] = top
        if count - q0 > hr:
            Fs = _strided(F, hr * tc, (count - q0 - hr, tc), (tc, 1 - tc))
            # einsum multiplies its operands left to right: (T y) R
            sums[q0 + hr : count] += np.einsum("dj,j,dj->d", Tv[hr : count - q0], ys[b], Fs)
    k = min(hr, count)
    Hs = _strided(head, (hc - 1) * hc, (len(blocks), k, hc), (head[0].size, hc, 1 - hc))
    sums[n : n + 2 * tc * len(blocks)].reshape(-1, 2 * tc)[:, :k] += np.einsum(
        "dj,bj,bdj->bd", Tv[:k, :hc], ys[:, :hc], Hs
    )
    nus = sums[:count] * G[:count]
    nus /= PI3
    return nus


def _nu_envelope(params: GreenParams, i: int) -> float:
    """U_i >= |nu_i| at every site: 1 below i = 2 and where x y is not normal.

    Both envelopes rest on J_p(k) <= b(p) = min(pi, sqrt(2 pi / p)),
    from C(2m, m) / 4^m <= 1 / sqrt(pi m): b(0) = pi, b(p) = sqrt(2 pi /
    p) from p = 1 on, b(k)^2 <= 4 pi / (k+1), and b(q)^2 <= 2 pi / q for
    q >= 1.  With sum_k C(q, k) 2^-q = 1, R(p, q) G[q] is at most the
    largest b(p+k) b(p+q-k), k <= q.  For p >= 1 that is b(p) b(p+q),
    since (p+k)(p+q-k) >= p (p+q).  At p = 0 the ends give pi b(q) and
    every other product 2 pi / sqrt(k (q-k)) <= 2 pi / sqrt(q-1) <=
    2 sqrt(pi) b(q).  So R(p, q) G[q] <= (2/sqrt(pi)) b(p) b(p+q) for
    every p, and Jn[q] <= b(q).

    Series5's term is nu_i r^i / t, r = s/t.  With s = 2+gamma, x =
    gamma/s, y = 2/s and Q ~ Bin(i, y), P = i - Q ~ Bin(i, x), pi^3 nu_i
    = sum_q C(i, q) x^p y^q Jn[q] R(p, q) G[q] <= (2/sqrt(pi)) b(i)
    E[b(P) b(Q)].  By Cauchy-Schwarz and E[1/(Q+1)] = (1 - x^(i+1)) /
    ((i+1) y) <= 1 / ((i+1) y), the same for P with x, E[b(P) b(Q)] <=
    4 pi / ((i+1) sqrt(x y)), so for i >= 1

        nu_i <= U_i = 8 sqrt(2) / (pi^2 (i+1) sqrt(i x y)),

    and nu_i <= 1 since every J is at most pi and the weights sum to 1.
    Where x y is below the normal range the bound 1 needs no x.  U does
    not increase, so the terms from k on sum to at most U_k r^k / (t -
    s) (``_tail``).
    """
    s = 2.0 + params.gamma
    xy = 2.0 * params.gamma / (s * s)
    if i < 2 or xy < _TINY:
        return 1.0
    u = _NU_ENVELOPE / ((i + 1) * math.sqrt(i * xy))
    return u if u < 1.0 else 1.0


def _row_envelope(params: GreenParams, q: int) -> float:
    """V_q, with series6's row q <= V_q r6^q / (t - gamma): 1 at q = 0 and where x is not normal.

    With x = gamma/t, piece p of row q is C(q+p, p) x^p (2/t)^q (R(p, q)
    G[q]) Jn[q] / (t pi^3), and a row cut at ``l_max`` sums fewer
    pieces.  P negative binomial, P(P = p) = C(q+p, p) x^p (1-x)^(q+1),
    has E[1/(P+1)] = (1-x) (1 - (1-x)^q) / (q x) <= 1 / ((q+1) x), since
    u - u^(q+1) <= q/(q+1) on [0, 1].  With the bounds of
    ``_nu_envelope``, b(q)^2 <= 2 pi / q, Cauchy-Schwarz on E[b(P)] and
    (2/t)^q (1-x)^-(q+1) / t = r6^q / (t - gamma), r6 = 2/(t - gamma),
    row q is at most r6^q / (t - gamma) times

        V_q = 8 / (pi^2 q sqrt((q+1) x)),  q >= 1,

    and times 1, as R(p, q) G[q] <= pi^2, Jn[q] <= pi and sum_p C(q+p,
    p) x^p = (1-x)^-(q+1).  Where x is below the normal range the bound
    1 needs no x.  V does not increase, so the rows from k on sum to at
    most V_k r6^k / (t - gamma - 2) (``_tail``).
    """
    x = params.gamma / params.t
    if q < 1 or x < _TINY:
        return 1.0
    u = _ROW_ENVELOPE / (q * math.sqrt((q + 1) * x))
    return u if u < 1.0 else 1.0


def _tail(
    params: GreenParams, ratio: float, gap: float, envelope: Callable[[GreenParams, int], float]
) -> Callable[[int], float]:
    """tail(k) >= the sum of the terms from k on, for terms term_i <= U_i ratio^i / d.

    U = ``envelope`` does not increase, so the sum is at most U_k
    ratio^k / (d (1 - ratio)), and tail does not increase in k.  The
    caller forms ``gap`` = d (1 - ratio) as a difference: t - (2+gamma)
    for series5 (d = t), t - gamma - 2 for series6 (d = t - gamma).  At
    ratio >= 1, the band edge, tail is inf.  It is never below the least
    positive double, where the product underflows (t = 1e300), so a
    positive G never reports the estimate 0.0.
    """
    if ratio >= 1.0:
        return lambda k: math.inf
    return lambda k: max(envelope(params, k) * ratio**k / gap, _LEAST)


def _first_passing(passes: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least k in [lo, hi) where ``passes`` holds, or hi if none, by bisection.

    ``passes`` must stay true once it holds, as a test of a tail that
    does not increase does.
    """
    return bisect.bisect_left(range(lo, hi), True, key=passes) + lo


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
    site = _site_tables(max(params.l, params.m), min(params.l, params.m), params.n)
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
    """The terms one series call summed, the sum of their inner tails and their outer tail."""

    terms: list[float]
    inner_error: float  # series6's row tails summed (``_series6_rows``); 0.0 for series5
    ratio: float  # of the geometric scale the stability guard reads (``_term_scale``)
    tail: Callable[[int], float]  # tail(k) bounds the terms from k on (``_tail``)


def _scan_series5(params: GreenParams, tol: float, n_max: int) -> _ScanState:
    """Series5's k terms nu_i r^i / t, by Python's pow, k the least count whose tail meets ``tol``."""
    t, s = params.t, params.band_edge
    r = s / t
    tail = _tail(params, r, t - s, _nu_envelope)
    count = _first_passing(lambda k: tail(k) <= tol, 1, n_max)
    site = _site_tables(max(params.l, params.m), min(params.l, params.m), params.n)
    terms = [nu * r**i / t for i, nu in enumerate(_nu_table(params, site, count).tolist())]
    return _ScanState(terms, 0.0, r, tail)


def _scan_series6(params: GreenParams, tol: float, n_max: int, l_max: int) -> _ScanState:
    """Series6's k rows, k the least count whose tail meets ``tol``/2, and their inner tails summed.

    Rows q = n, n+2, ... below k are read by column from R blocks of
    ``_COL_TILE`` rows, each formed to the widest of its groups of
    ``_ROW_GROUP`` rows; the rows between, where J_q(n) = 0, are 0.  A
    group's width is the envelope width (``_envelope_count``) of its last
    row under that row's budget, at least one past the first p where
    R(p, q) of its first row can be nonzero, and at most ``l_max``.  The
    budgets sum to at most tol/4.
    """
    l, m, n = params.l, params.m, params.n
    site = _site_tables(max(l, m), min(l, m), n)
    gap = params.t - params.gamma
    r_out = 2.0 / gap
    tail = _tail(params, r_out, gap - 2.0, _row_envelope)
    count = _first_passing(lambda k: tail(k) <= tol * 0.5, 1, n_max)

    def width(qs: range) -> int:
        # R(p, q) = 0 until p + q >= l, p + q >= m and 2p + q >= l + m
        first = max(l - qs[0], m - qs[0], (l + m - qs[0] + 1) // 2)
        q = qs[-1]
        budget = tol * 0.25 * (1.0 - r_out) * r_out**q if r_out < 1.0 else tol * 0.25 / n_max
        return min(max(_envelope_count(params, site, q, max(budget, 1e-300), l_max), first + 1), l_max)

    terms, tails = [0.0] * count, []
    for q0 in range(n, count, 2 * _COL_TILE):
        block = range(q0, min(q0 + 2 * _COL_TILE, count), 2)
        groups = [block[k : k + _ROW_GROUP] for k in range(0, len(block), _ROW_GROUP)]
        widths = [width(qs) for qs in groups]
        R = _series6_r(site, (q0 - n) // 2, len(block), max(widths))
        for k, qs, w in zip(itertools.count(0, _ROW_GROUP), groups, widths):
            rows = slice(qs[0], qs[-1] + 1, 2)
            c0 = (qs[0] - n) // 2
            terms[rows], row_tails = _series6_rows(params, site, c0, R[k : k + len(qs), :w])
            tails += row_tails
    return _ScanState(terms, math.fsum(tails), r_out, tail)


def _envelope_count(params: GreenParams, site: _SiteTables, q: int, tol_q: float, l_max: int) -> int:
    """The pieces row q of series6 takes for its envelope tail to meet ``tol_q``, at most ``l_max``.

    J_p(k) <= b(p) = min(pi, sqrt(2 pi / p)) (``_nu_envelope``), and b
    does not increase, so R(p, q) G[q] <= max_k b(p+k) b(p+q-k) = b(p)
    b(p+q).  Take B(p) = pi^2 for p < 2 and b(p-1) b(p-1+q) from p = 2
    on: B does not increase, and it bounds R(p', q) G[q] at every p' >=
    p - 1.  So piece_p' <= c_p' B(p) Jn[q] / (t pi^3) for p' >= p.  With
    f_p = x (q+p+1)/(p+1) = c_(p+1) / c_p, which does not increase, and
    ratio_p = f_(p+1) = x (q+p+2)/(p+2) >= f_p / 2, the pieces past p
    sum to at most 2 env_p ratio_p / (1 - ratio_p), env_p = c_p B(p)
    Jn[q] / (t pi^3), where ratio_p < 1 (``_series6_rows``).  A row of
    p + 1 pieces meets ``tol_q`` at the first p where that bound does:
    found by bisection on logarithms.  Where x is below the normal range
    (0.0 at t = 1e300, gamma = 1e-30) no bound in x is taken: the row
    takes all ``l_max`` pieces.
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

    return min(_first_passing(passes, 0, l_max) + 1, l_max)


def _series6_r(site: _SiteTables, c0: int, cols: int, width: int) -> np.ndarray:
    """R(p, q) as r[c - c0, p], q = n + 2c, c0 <= c < c0 + cols, p < width: a view of the stored block, no copy.

    Rows of s' < 0 and of tiles left out are 0.
    """
    # r[c - c0, p] = F[p + c - c0, c - c0]
    return _strided(_r_block(site, c0, width + cols - 1), 0, (cols, width), (_COL_TILE + 1, _COL_TILE))


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of series6 rows q = n + 2c, c0 <= c < c0 + len(R), their ratios and last envelopes.

    With x = gamma/t, piece p of row q is c_p (R(p, q) G[q]) Jn[q] / t /
    pi^3, c_p = C(q+p, p) x^p (2/t)^q, and R(p, q) G[q] = sum_k C(q,k)
    2^-q Jl[p+k] Jm[p+q-k] is read from ``R``, p < W.  Returns (pieces,
    f, env): pieces[:, 1 + p] is piece p and pieces[:, 0] = 0, the piece
    before p = 0; f[:, p] = x (q+p+1)/(p+1), p <= W, is the ladder's step
    to p+1 and the ratio at p-1; env = c_(W-1) B(W-1) Jn[q] / (t pi^3)
    bounds the last piece and every one after it (``_envelope_count``).
    All rows are formed at once, elementwise in this operation order.

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
    qv = np.arange(q0, q0 + 2 * count, 2.0)
    f = qv[:, None] + pv
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
    p = width - 1
    env = piece[:, p] * (math.pi**2 if p < 2 else 2.0 * math.pi / np.sqrt((p - 1) * (p - 1 + qv)))
    jn = site.Jn[q0 : q0 + 2 * count : 2]
    piece *= R * _factorial_scales()[1][q0 : q0 + 2 * count : 2, None]
    piece *= jn[:, None]
    piece /= t
    piece /= PI3
    env *= jn
    env /= t
    env /= PI3
    return pieces, f, env


def _series6_rows(
    params: GreenParams, site: _SiteTables, c0: int, R: np.ndarray
) -> tuple[list[float], list[float]]:
    """Rows q = n + 2c, c0 <= c < c0 + len(R), of series6, each the sum of its W pieces, and their tails.

    A row's tail bounds the pieces past its last one, p = W - 1: 2 env
    ratio / (1 - ratio), env of ``_series6_pieces`` and ratio = x
    (q+W+1)/(W+1) (``_envelope_count``), inf where the ratio is not
    below 1, and never below the least positive double.  Returns the two
    lists, one entry per row.

    The sum is Sum2 of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 26,
    2005) over the whole group: s = the prefix sums of the pieces, each
    addition's exact rounding error by TwoSum, z = s_p - s_(p-1), e_p =
    (s_(p-1) - (s_p - z)) + (piece_p - z), and a row's total s_last +
    the sum of e.  For n pieces >= 0 of sum S its error is at most eps S
    + gamma_(n-1)^2 S (eps = 2^-53), so the total lies within about one
    ulp of S.
    """
    pieces, f, env = _series6_pieces(params, site, c0, R)
    ratio = f[:, -1]
    below = ratio < 1.0
    tails = np.full(ratio.shape, math.inf)
    np.divide(2.0 * env * ratio, 1.0 - ratio, out=tails, where=below)
    np.maximum(tails, _LEAST, out=tails)
    sums = np.add.accumulate(pieces, axis=1)
    prev, s = sums[:, :-1], sums[:, 1:]
    z = s - prev
    e = s - z
    np.subtract(prev, e, out=e)
    np.subtract(pieces[:, 1:], z, out=z)
    e += z
    return (s[:, -1] + e.sum(axis=1)).tolist(), tails.tolist()


def _window(count: int) -> list[int]:
    """The indices of the partial sums a transform over ``count`` of them reads (``_transform``).

    The doubling indices i = 2^k - 1 below ``count``; fewer than four of
    them means at most 15 sums, and then every index.
    """
    if count < 16:
        return list(range(count))
    return [(1 << k) - 1 for k in range(1, count.bit_length())]


def _transform(window: list[float], method: str) -> tuple[float, float]:
    """Sequence transform tuned for the band-edge tail, over the partial sums at ``_window``.

    At t = 2+gamma the partial sums close in like 1/sqrt(i), which the
    transforms cannot accelerate directly (error ratios tend to 1).
    Sampling at doubling indices i = 2^k - 1 turns every i^(-p-1/2) tail
    component into a geometric one in k, exactly the regime where Wynn
    and Aitken converge; away from the edge the subsampled tail decays
    even faster, so the same sampling is used whenever enough terms
    exist, and shorter sequences are transformed whole.
    """
    seq = PartialSumSequence(window)
    if method == "wynn":
        return wynn_epsilon_with_estimate(seq)
    value = aitken_delta2(seq)
    prev = aitken_delta2(PartialSumSequence(window[:-1])) if len(window) > 3 else window[-1]
    return value, abs(value - prev)


def _term_scale(terms: list[float], ratio: float) -> float:
    """The drift scale of the stability guard, read off the terms.

    The least geo max(term_i, ratio term_(i-1)) from the first nonzero
    term on, geo = ratio/(1 - ratio) and term_(-1) = 0; inf at ratio >=
    1 and where every term is 0.0.  It is no bound on the error and
    never a claim: at a far site the terms rise for a long stretch after
    the first nonzero one.
    """
    x = np.array(terms)
    nonzero = np.flatnonzero(x)
    if ratio >= 1.0 or nonzero.size == 0:
        return math.inf
    prev = np.concatenate(([0.0], x[:-1]))
    return ratio / (1.0 - ratio) * float(np.maximum(x, ratio * prev)[nonzero[0] :].min())


def _finish(state: _ScanState, tol: float, accel: str, method: str) -> SeriesEvaluation:
    """The evaluation a finished scan reports.

    The raw result is math.fsum of the terms, their correctly rounded
    sum, with the outer tail plus the inner tails as its estimate,
    converged where that is at most ``tol``.  With ``accel`` set and the
    raw sum unconverged after at least three terms, the transform of the
    partial sums at ``_window``, each the math.fsum of its terms, is
    reported instead, unless the stability guard rejects it: a transform
    may not move more than ten times the term scale (``_term_scale``)
    off the raw sum.  A transformed value never claims convergence: its
    estimate is the change between the last transforms, not a bound, and
    at the band edge it falls below tol while the true error is far
    larger.
    """
    terms = state.terms
    total = math.fsum(terms)
    raw_bound = state.tail(len(terms)) + state.inner_error
    raw_converged = raw_bound <= tol
    if accel != "none" and not raw_converged and len(terms) >= 3:
        value, estimate = _transform([math.fsum(terms[: i + 1]) for i in _window(len(terms))], accel)
        drift = abs(value - total)
        scale = _term_scale(terms, state.ratio)
        if not (math.isfinite(scale) and drift > 10.0 * max(scale, 1e-300)):
            return SeriesEvaluation(
                value=value,
                terms_used=len(terms),
                abs_error_estimate=estimate,
                method=method,
                accelerated=accel,
                converged=False,
            )
    return SeriesEvaluation(
        value=total,
        terms_used=len(terms),
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

    It sums the least count of terms, at most ``n_max``, whose
    closed-form tail U_k r^k / (t - 2 - gamma), r = (2+gamma)/t and a
    bound at every site, meets ``tol``, and reports that tail as its
    estimate.  With ``accel`` set, a sequence transform is applied to
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
    2/(t-gamma)); it sums the least count of rows whose closed-form tail
    meets ``tol``/2.  Each inner sum in gamma/t takes the pieces its
    envelope asks for under its own budget, and the reported error is
    the outer tail plus every inner tail.  Agrees with evaluate_series5
    within combined error estimates.
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

    Each row holds the term, partial sum (math.fsum of the terms up to
    it), the closed-form bound on the terms after it (the outer tail)
    and transform value.  The accelerated estimate in row i is the
    transform the evaluators apply, taken over the partial sums up to
    i.  ``l_max`` bounds the inner sums of series6 as in
    evaluate_series6; the evaluation is the one evaluate_series5 or
    evaluate_series6 reports for the same arguments.
    """
    state, evaluation = _scan_for(params, method, tol, n_max, l_max, accel)
    terms = state.terms
    sums = [math.fsum(terms[: i + 1]) for i in range(len(terms))]
    rows = []
    for i, (term, psum) in enumerate(zip(terms, sums)):
        bound = state.tail(i + 1)
        accel_value: float | None = None
        if accel != "none" and i >= 2:
            accel_value, _ = _transform([sums[j] for j in _window(i + 1)], accel)
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
