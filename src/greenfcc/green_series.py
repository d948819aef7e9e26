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
partial sums increase monotonically toward G and a geometric tail bound
with ratio r = (2+gamma)/t (series 5) or 2/(t-gamma) (series 6) gives a
sound truncation test away from the band edge t = 2+gamma.  At the band
edge the terms decay only like i^(-3/2); the evaluators accept t = 2+gamma
but do not mark the result converged.  A sequence transform sharpens the
value there, but its estimate is not a bound, so a transformed result
never claims convergence either.

The raw moments grow like (2+gamma)^i and leave the double range past
order 680/ln(2+gamma).  Series5 therefore works with the normalized
moments nu_i = moment_i / s^i, s = 2+gamma: the double sum with the
weights C(i,j) (gamma/s)^(i-j) (2/s)^j, a binomial distribution, over
inner rows scaled by 2^-j, each at most pi^2.  Since C(j,k) =
j!/(k!(j-k)!), the inner rows are j! times sums of products
E[k] E[j-k] J_l J_m, and after a change of index those sums are
entries of matrix products of a Hankel times a Toeplitz view of the J
vectors with two strided views of E.  One call builds the whole table
nu_0 .. nu_(D-1) it needs from such products, tile by tile, and reads
each nu_i back along an anti-diagonal (see ``_nu_table``).  Nothing in
nu_i overflows and nothing depends on t; the i-th term is nu_i r^i / t
with r = s/t, and the i-th moment is nu_i s^i.

Both series take every binomial from the scaled factorials
E[k] = 256^k/k! and G[j] = j!/2^(9j): C(i,j) G[j] = G[i]/G[i-j] in
series5 and C(i,k) 2^-i = E[k] E[i-k] G[i] in series6.  No binomial
table is built.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acceleration import (
    PartialSumSequence,
    aitken_delta2,
    wynn_epsilon_with_estimate,
)
from .basic_integrals import IntegralTable, shared_table
from .combinatorics import HARD_ORDER_CAP
from .errors import DomainError
from .params import GreenParams, SeriesEvaluation

PI3 = math.pi**3

_ACCEL_CHOICES = ("none", "wynn", "aitken")

# the nu table's fixed tiles: s2 rows per matrix product, c columns per block.
# Picked by timing tables of 146 to 1000 orders against sizes from 8 x 32 to
# 128 x 128: 32 x 32 ties, 64 columns win at 1000 orders but peak past 2 MB,
# and 64 x 64 or larger tiles are slower below 400 orders.
_ROW_TILE = 16
_COL_TILE = 32


def _j_vector(table: IntegralTable, site: int, length: int) -> np.ndarray:
    vec = np.array([table.j_value(p, site) for p in range(length)])
    vec.flags.writeable = False
    return vec


def _safe_order(gamma: float) -> int:
    """Last order whose moment nu_i s^i stays inside the double range.

    Moments grow like (2+gamma)^i; moment_coefficient refuses orders
    beyond this index.
    """
    return int(680.0 / math.log(2.0 + gamma))


@dataclass(frozen=True, eq=False)
class _SiteTables:
    """J vectors of one site and the strided views series6 reads.

    ``hankel[a, k] = Jl[a + k]`` and ``jm_rev[a, c] = Jm[a + depth - c]``
    are zero-copy views of width depth + 1; series6 has j_depth =
    depth + l_max entries, enough rows for every inner index j < l_max.
    Every array is read-only.
    """

    Jl: np.ndarray
    Jm: np.ndarray
    Jn: np.ndarray
    hankel: np.ndarray
    jm_rev: np.ndarray


@lru_cache(maxsize=32)
def _site_tables(l: int, m: int, n: int, depth: int, j_depth: int) -> _SiteTables:
    """The integer-only tables of site (l, m, n), shared by every t and gamma.

    The J vectors hold J_p(site) for p <= j_depth, read from the shared
    exact table; ``depth`` fixes the window width of the views.  Nothing
    here depends on t or gamma, so the cache keeps a sweep, a comparison
    or a repeated call from rebuilding them; every power ladder, double
    sum and scan still runs per call.
    """
    table = shared_table(j_depth + max(l, m, n, 8) + 2)
    Jl = _j_vector(table, l, j_depth + 1)
    Jm = _j_vector(table, m, j_depth + 1)
    Jn = _j_vector(table, n, j_depth + 1)
    return _SiteTables(
        Jl=Jl,
        Jm=Jm,
        Jn=Jn,
        hankel=sliding_window_view(Jl, depth + 1),
        jm_rev=sliding_window_view(Jm, depth + 1)[:, ::-1],
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


@dataclass
class _Workspace:
    """Per-evaluation tables: scaled factorials, site tables, gamma ladders, nu.

    The scaled factorials E, G (the binomials of both series) and the
    site tables come from process-wide caches; the ladders
    (gamma/s)^k and (2/s)^j J_n[j], s = 2+gamma, and the table ``nus`` of
    nu_0, nu_1, ... are built for each evaluation, on series5's first
    term.  Nothing here depends on t, and nothing of size depth^2 is
    built.
    """

    params: GreenParams
    depth: int
    j_depth: int

    def __post_init__(self) -> None:
        p = self.params
        self.E, self.G = _factorial_scales()
        site = _site_tables(p.l, p.m, p.n, self.depth, self.j_depth)
        self.Jl, self.Jm, self.Jn = site.Jl, site.Jm, site.Jn
        self.hankel, self.jm_rev = site.hankel, site.jm_rev
        self.nus = np.zeros(0)

    @cached_property
    def gs_pows(self) -> np.ndarray:
        p = self.params
        return np.power(p.gamma / p.band_edge, np.arange(self.depth + 1))

    @cached_property
    def jn_scaled(self) -> np.ndarray:
        ladder = np.power(2.0 / self.params.band_edge, np.arange(self.depth + 1))
        return ladder * self.Jn[: self.depth + 1]

    @cached_property
    def ramp(self) -> np.ndarray:
        """The integers 0 .. j_depth + 1 as floats, series6's ladder and ratio factors."""
        return np.arange(self.j_depth + 2, dtype=float)

    def nu(self, i: int) -> float:
        """nu_i, read from ``nus``; an order past the table raises IndexError."""
        return float(self.nus[i])

    def moment(self, i: int) -> float:
        return self.nu(i) * self.params.band_edge**i

    def term5(self, i: int) -> float:
        t = self.params.t
        return self.nu(i) * (self.params.band_edge / t) ** i / t


def _workspace(params: GreenParams, depth: int, j_depth: int | None = None) -> _Workspace:
    return _Workspace(params, depth, depth if j_depth is None else j_depth)


def _strided(arr: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """The view whose entry [x, y, ...] is arr[start + x steps[0] + y steps[1] + ...].

    numpy checks that every entry lies inside ``arr``.
    """
    size = arr.itemsize
    return np.ndarray(shape, buffer=arr, offset=start * size, strides=[s * size for s in steps])


def _shifted(values: np.ndarray, offset: int, length: int, fill: float = 0.0) -> np.ndarray:
    """``length`` entries, values[x] at offset + x and ``fill`` elsewhere."""
    out = np.full(length, fill)
    take = max(0, min(values.size, length - offset))
    out[offset : offset + take] = values[:take]
    return out


def _nu_table(ws: _Workspace, count: int, first: int = 0) -> np.ndarray:
    """nu_first .. nu_(count-1) of the workspace's site, from blocked matrix products.

    The entries below ``first`` are NaN.

    With q the inner row index and p = i - q,

        pi^3 nu_i = sum_q w(i, q) R(p, q),  R(p, q) = sum_k E[k] E[q-k] Jl[p+k] Jm[p+q-k],

    w(i, q) = G[i] / G[p] (gamma/s)^p (2/s)^q Jn[q], where
    G[i] / G[p] = C(i, q) G[q], and R(p, q) G[q] is the row q = j of the
    double sum.  The weight is formed in that order: the ratio (up to
    1e79) goes into the gamma ladder before the J_n ladder, since at
    gamma = 1, i = 1000, q near 512 the two ladders alone multiply to
    about 1e-323.  J_q(n) vanishes unless q = n + 2c with c >= 0.
    Write h = (l+m+n)/2, a = (n+l-m)/2, b = n - a and
    s' = p + (q-l-m)/2 = 2 s2 + par with par = 0 or 1; then
    i = s' + c + h, and with k = a + c + 2e - par

        R = sum_e P_par[s2, e] B_par[e, c],
        P_par[s2, e] = Jl[l + 2(s2+e)] Jm[m + 2(s2+par-e)],
        B_par[e, c] = E[a - par + c + 2e] E[b + par + c - 2e],

    a Hankel times a Toeplitz view of the J vectors and two strided
    views of E, all zero-padded, so every term of the sum is >= 0.
    Weights with q > i are zero.

    The products run in fixed tiles of ``_ROW_TILE`` rows s2 by
    ``_COL_TILE`` columns c, both parities at once.  A tile is formed only
    if its least order 2 s2 + c + h is below ``count``, its greatest
    order is at least ``first`` and some of its weights are nonzero, and
    it sums over the range of e where its P and B can both be nonzero.
    One column block at a time, the weighted tiles are interleaved by s'
    and summed along the anti-diagonals s' + c = i - h of a sheared view;
    the blocks add into nu_i in column order.  So no sum depends on
    ``count`` or ``first``: a table of fewer orders equals the first
    entries of a longer one bit for bit, and nu_i is the same number
    whichever table holds it.  No temporary holds more than about 2^16
    doubles.
    """
    l, m, n = ws.params.l, ws.params.m, ws.params.n
    h, a = (l + m + n) // 2, (n + l - m) // 2
    b, lm = n - a, h - n  # lm = (l+m-n)/2, so p = s' - c + lm
    ts, tc = _ROW_TILE, _COL_TILE
    blocks = []  # (c0, [(s0, e_lo, e_hi), ...]) in column order
    for c0 in range(0, max(count - h, 0), tc):
        c1 = c0 + tc - 1
        tiles = []
        for s0 in range(0, (count - h - c0 + 1) // 2, ts):
            s1 = s0 + ts - 1
            e_lo = max(-s1, -((a + c1) // 2))
            e_hi = min(s1 + 1, (b + c1 + 1) // 2)
            if c0 <= 2 * s1 + 1 + lm and e_lo <= e_hi and 2 * s1 + c1 + h + 1 >= first:
                tiles.append((s0, e_lo, e_hi))
        if tiles:
            blocks.append((c0, tiles))
    nus = np.zeros(count)
    nus[:first] = np.nan
    if not blocks:
        return nus
    s_end = max(col[-1][0] for _, col in blocks) + ts
    c_end = blocks[-1][0] + tc
    k_max = max(hi - lo + 1 for _, col in blocks for _, lo, hi in col)
    # every array below covers the indices its views reach with zeros
    # (ones for G in a denominator); pad shifts index 0 of the J and E arrays
    pad = k_max + 2 * (ts + tc)
    jl = _shifted(ws.Jl[l::2], pad, 2 * pad + 2 * s_end)
    jm = _shifted(ws.Jm[m::2], pad, 2 * pad + 2 * s_end)
    ep = _shifted(ws.E, pad, 2 * pad + n + 2 * c_end)
    gi = _shifted(ws.G[:count], 0, 2 * s_end + c_end + h + tc)
    p_pad = c_end + abs(lm) + tc
    gp = _shifted(ws.G, p_pad, 2 * p_pad + 2 * s_end, fill=1.0)
    gs = _shifted(ws.gs_pows[:count], p_pad, gp.size)
    jn = _shifted(ws.jn_scaled[:count], 0, n + 2 * c_end + 2 * tc)
    # hankel[x, j] = jl[x + j]; toeplitz[par, y, j] = jm[y + par - j + k_max - 1]
    hankel = _strided(jl, 0, (jl.size - k_max + 1, k_max), (1, 1))
    toeplitz = _strided(jm, k_max - 1, (2, jm.size - k_max, k_max), (1, 1, -1))
    # e_up[par, r, c] = ep[r - par + c + 1]; e_down[par, r, c] = ep[top - r + par + c]
    top = ep.size - tc - 1
    e_up = _strided(ep, 1, (2, ep.size - tc, tc), (-1, 1, 1))
    e_down = _strided(ep, top, (2, top + 1, tc), (1, -1, 1))
    # g_i[par, r, c] = gi[r + par + c]; g_p, gs_p [par, r, c] = gp, gs[r + par - c + tc - 1]
    g_i = _strided(gi, 0, (2, gi.size - tc, tc), (1, 1, 1))
    g_p = _strided(gp, tc - 1, (2, gp.size - tc, tc), (1, 1, -1))
    gs_p = _strided(gs, tc - 1, (2, gs.size - tc, tc), (1, 1, -1))
    for c0, tiles in blocks:
        r0 = tiles[0][0]
        rows = tiles[-1][0] + ts - r0
        e0 = min(e_lo for _, e_lo, _ in tiles)
        width = max(e_hi for _, _, e_hi in tiles) - e0 + 1
        r_up = pad + a + c0 + 2 * e0 - 1
        r_down = top - pad - b - c0 + 2 * e0
        B = e_up[:, r_up : r_up + 2 * width : 2] * e_down[:, r_down : r_down + 2 * width : 2]
        # rows tc-1 .. tc-2+2*rows hold the block interleaved by s', the rest stay 0
        buf = np.zeros((2 * rows + 2 * tc - 2, tc))
        block = buf[tc - 1 : tc - 1 + 2 * rows].reshape(rows, 2, tc).transpose(1, 0, 2)
        for s0, e_lo, e_hi in tiles:
            k = e_hi - e_lo + 1
            x = pad + s0 + e_lo
            y = pad + s0 - e_lo - k_max + 1
            P = hankel[x : x + ts, :k] * toeplitz[:, y : y + ts, :k]
            np.matmul(P, B[:, e_lo - e0 : e_hi - e0 + 1], out=block[:, s0 - r0 : s0 - r0 + ts])
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


def _nu_depth(params: GreenParams, tol: float, n_max: int) -> int:
    """The orders of nu that series5's scan reads before it stops.

    Every |nu_i| <= 1, so once some term is nonzero the scan's tail bound
    after term i is at most r/(1-r) r^i / t, r = (2+gamma)/t, and the
    first nonzero term comes by order max((l+m+n)/2, l, m, n) <= l+m+n.
    So the scan stops by order max(i*, l+m+n), with i* the first i where
    that bound meets ``tol``; two more orders cover the rounding of the
    bound and of the logarithms here.  At r >= 1 nothing stops the scan
    before ``n_max``.
    """
    r = params.band_edge / params.t
    if r >= 1.0:
        return n_max
    i_star = (math.log(tol) + math.log(params.t) + math.log1p(-r) - math.log(r)) / math.log(r)
    return min(n_max, max(math.ceil(i_star), params.l + params.m + params.n) + 2)


def moment_coefficient(i: int, params: GreenParams) -> float:
    """i-th moment of the structure function against the site cosines.

    Equals (1/pi^3) * int w^i cos(lx)cos(my)cos(nz) over [0, pi]^3, i.e.
    the coefficient of t^(-1-i) in the Green-function expansion.  For
    gamma = 1 at the origin these are the weighted closed-walk counts of
    the 12-neighbour FCC shell: 1, 0, 3/4, 3/4, ...  Values grow like
    (2+gamma)^i, so orders above int(680 / ln(2+gamma)) (618 at
    gamma = 1, always below the hard order cap) would leave the double
    range and are rejected.  It forms every tile of the nu table that
    reaches order i, so one order costs a fair part of a full table's
    matrix products; series5 builds its table once and does not call it.
    """
    if i < 0:
        raise ValueError("moment order must be non-negative")
    limit = _safe_order(params.gamma)
    if i > limit:
        raise ValueError(
            f"moment order {i} exceeds {limit}, the largest whose value "
            f"fits a double at gamma={params.gamma}"
        )
    ws = _workspace(params, i)
    ws.nus = _nu_table(ws, i + 1, first=i)
    return ws.moment(i)


def _validate_series_call(params: GreenParams, tol: float, n_max: int, accel: str):
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive and finite")
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
    row: Callable[[int], tuple[float, float, bool]],
    ratio: float,
    stop_tol: float,
    n_max: int,
) -> _ScanState:
    """Kahan-sum the terms row(0), row(1), ... of either series.

    ``row(i)`` returns (term, inner_error, inner_ok); series5 has no
    inner sum and reports (term, 0.0, True).  After each term the
    geometric tail bound ratio/(1-ratio) * max(term, ratio * prev) is
    taken, and the running bound is the least of the bounds taken once
    some nonzero term has been seen.  Before that, and always when
    ``ratio >= 1``, it is inf.  The terms of both series are >= 0 and
    exactly 0.0 until the first order whose walks reach the site, so
    the first nonzero term needs no floor index of its own.  Inner
    errors are kept per term and ``inner_ok`` holds only if every row
    reported it.  The scan stops once the running bound is <=
    ``stop_tol``, or after ``n_max`` terms.
    """
    geo = ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    state = _ScanState()
    total = comp = 0.0
    seen_nonzero = False
    running = math.inf
    for i in range(n_max):
        term, inner_error, inner_ok = row(i)
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
    return state


def _scan_series5(params: GreenParams, tol: float, n_max: int) -> _ScanState:
    ws = _workspace(params, n_max)
    ws.nus = _nu_table(ws, _nu_depth(params, tol, n_max))
    return _scan(lambda i: (ws.term5(i), 0.0, True), params.band_edge / params.t, tol, n_max)


def _scan_series6(
    params: GreenParams, tol: float, n_max: int, l_max: int
) -> _ScanState:
    if l_max < 1 or l_max > HARD_ORDER_CAP:
        raise ValueError(f"l_max must lie in [1, {HARD_ORDER_CAP}]")
    ws = _workspace(params, n_max, j_depth=n_max + l_max)
    t, gamma = params.t, params.gamma
    x_ramp = gamma / t * ws.ramp
    r_out = 2.0 / (t - gamma)
    first = 8

    def row(i: int) -> tuple[float, float, bool]:
        nonlocal first
        if ws.Jn[i] == 0.0:
            return 0.0, 0.0, True
        if r_out < 1.0:
            tol_inner = max(tol * 0.25 * (1.0 - r_out) * r_out**i, 1e-300)
        else:
            tol_inner = max(tol * 0.25 / n_max, 1e-300)
        value, error, ok, count = _series6_row(ws, i, x_ramp, tol_inner, l_max, first)
        first = count + 4
        return value, error, ok

    return _scan(row, r_out, tol * 0.5, n_max)


def _ladder_start(r: float, i: int) -> tuple[float, int]:
    """r**i for 0 < r < 1 as math.frexp splits it, also where r**i is not normal.

    Where the power is a normal number the result is frexp(r**i)
    exactly.  Below that the mantissa of r, which lies in [0.5, 1), is
    raised instead; its power stays normal up to i = 1021, past
    HARD_ORDER_CAP.
    """
    c = r**i
    if c >= sys.float_info.min:
        return math.frexp(c)
    mr, er = math.frexp(r)
    m, e = math.frexp(mr**i)
    return m, e + er * i


def _series6_row(
    ws: _Workspace, i: int, x_ramp: np.ndarray, tol_inner: float, l_max: int, first: int
) -> tuple[float, float, bool, int]:
    """One outer row of the double series: adaptive sum over j.

    With x = gamma/t and ``x_ramp`` = x * ws.ramp, piece j is
    c_j (row_j G[i]) Jn[i] / t / pi^3, where c_j = C(i+j, j) x^j (2/t)^i
    and row_j G[i] = sum_k C(i,k) 2^-i Jl[j+k] Jm[j+i-k], formed as G[i]
    times the sum over E[k] E[i-k] Jl Jm.  The sum stops at the first j
    whose ratio x (i+j+2)/(j+2) of successive binomial weights is below
    1, with some piece so far nonzero and the tail bound
    2 max(piece_j, ratio piece_(j-1)) ratio / (1 - ratio) at most
    ``tol_inner``; otherwise after ``l_max`` pieces.  Returns the fsum
    of the pieces, the last tail bound taken (inf if ``l_max`` ended the
    sum before the ratio fell below 1, so no tail bound exists), whether
    the stop test was met, and the number of pieces.

    The indices j run in chunks [j, stop), each evaluated in numpy with
    no interpreted loop per j.  The rows of a chunk come from the
    workspace's sliding windows of Jl and reversed Jm, each reduced
    along its own contiguous axis.  The ladder comes from
    np.multiply.accumulate, which multiplies in sequence just as
    c *= x (i+j+1)/(j+1) does.  Pieces, ratios and bounds are formed
    elementwise in the scalar form's operation order, and argmax finds
    the first j that passes the stop test.  So every piece, bound, flag
    and sum is bit-identical to the one-j-at-a-time form.  The ratio
    never rises with j, so the indices that take a bound are a suffix of
    the chunk; the bound is formed on that suffix alone and never
    divides by 1 - ratio = 0 (at t = 2 gamma the ratio is exactly 1 at
    j = i - 2).

    The first chunk is ``first`` wide; the scan passes the previous
    row's count plus 4, so most rows end within their first chunk.
    Later chunks are 16 wide.

    The ladder is carried as a mantissa, renormalised by math.frexp at
    each chunk start, and a binary exponent, applied with ldexp: at large
    gamma (2/t)^i is subnormal or 0 at deep rows whose sum is a normal
    number.  Scaling by 2^k is exact between normal numbers, so each c_j
    equals the unscaled ladder's wherever that stays normal.  The
    mantissa grows by at most the largest ladder factor, x (i+1) at
    j = 0, per step, so the first chunk is cut short enough that it
    stays below 2^1000.
    """
    t = ws.params.t
    base = ws.E[: i + 1] * ws.E[i::-1]
    jl_windows = ws.hankel[:, : i + 1]
    jm_windows = ws.jm_rev[:, ws.depth - i :]
    jn_i = ws.Jn[i]
    g_i = float(ws.G[i])  # a numpy scalar would slow every piece's products
    ramp = ws.ramp
    m, e = _ladder_start(2.0 / t, i)
    if x_ramp[i + 1] > 2.0:
        first = min(first, int(1000.0 / math.log2(x_ramp[i + 1])))
    pieces: list[float] = []
    prev_piece = 0.0
    seen = False
    bound = math.inf
    ok = False
    j, width = 0, first
    while j < l_max:
        stop = min(j + width, l_max)
        # f[q] = x (i+j+q)/(j+q): the ladder factor at j+q-1 and the
        # ratio at j+q-2, in the scalar form's operation order
        f = np.empty(stop - j + 2)
        f[0] = m
        np.divide(x_ramp[i + j + 1 : i + stop + 2], ramp[j + 1 : stop + 2], out=f[1:])
        ladder = np.multiply.accumulate(f[:-1])  # c_j .. c_stop over 2^e
        rows = np.add.reduce(base * jl_windows[j:stop] * jm_windows[j:stop], axis=1)
        # buf holds the piece before the chunk, then the chunk's pieces
        buf = np.empty(stop - j + 1)
        buf[0] = prev_piece
        piece = np.multiply(np.ldexp(ladder[:-1], e), rows * g_i, out=buf[1:])
        piece *= jn_i
        piece /= t
        piece /= PI3
        ratio = f[2:]
        count = stop - j
        u = 0 if ratio[0] < 1.0 else int(np.count_nonzero(ratio >= 1.0))
        if u < count:
            r = ratio[u:]
            # binomial ratio governs the tail; the J factors vary slowly
            # and the factor 2 covers their residual growth
            bounds = 2.0 * np.maximum(piece[u:], r * buf[u:-1]) * r / (1.0 - r)
            halt = bounds <= tol_inner
            if not (seen or piece[0]):
                halt &= np.logical_or.accumulate(piece != 0.0)[u:]
            k = int(halt.argmax())
            ok = bool(halt[k])
            if ok:
                count = u + k + 1
            bound = bounds[k] if ok else bounds[-1]
        pieces.extend(piece[:count].tolist())
        if ok:
            break
        prev_piece = piece[-1]
        if not seen:
            seen = bool(piece.any())
        m, de = math.frexp(ladder[-1])
        e += de
        j, width = stop, 16
    return math.fsum(pieces), bound, ok, len(pieces)


def _doubling_indices(count: int) -> list[int]:
    idx = []
    k = 1
    while (1 << k) - 1 < count:
        idx.append((1 << k) - 1)
        k += 1
    return idx


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
    if len(window) > 3:
        prev = aitken_delta2(PartialSumSequence(window[:-1]))
    else:
        prev = window[-1]
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
    With ``accel`` set, a sequence transform is applied to the partial
    sums whenever the raw tail fails to converge, guarded against
    transform blow-ups; this is what makes the band edge t = 2+gamma
    usable.
    """
    _validate_series_call(params, tol, n_max, accel)
    state = _scan_series5(params, tol, n_max)
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
    _validate_series_call(params, tol, n_max, accel)
    state = _scan_series6(params, tol, n_max, l_max)
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
    _validate_series_call(params, tol, n_max, accel)
    if method == "series5":
        state = _scan_series5(params, tol, n_max)
    elif method == "series6":
        state = _scan_series6(params, tol, n_max, l_max)
    else:
        raise ValueError("convergence diagnostics need a series method")
    rows = []
    for i, (term, psum, bound) in enumerate(
        zip(state.terms, state.sums, state.bounds)
    ):
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
