"""Direct quadrature of the defining integral, with z integrated exactly.

Serves as the ground truth the series arrangements are checked against.
G is (1/pi^3) times the integral of cos(lx)cos(my)cos(nz)/(t - omega)
over [0, pi]^3, with omega = gamma*cx*cy + cz*(cx + cy).  Writing
t - omega = A - B cos z with A = t - gamma*cx*cy and B = cx + cy, the z
integral has a closed form (Watson 1939; Joyce 1998):

    int_0^pi cos(nz)/(A - B cos z) dz = pi rho^n / sqrt(A^2 - B^2),
    rho = B / (A + sqrt(A^2 - B^2)),

so G = (1/pi^2) times a 2D integral over (x, y) in [0, pi]^2.  On a
tensor grid both factors of A^2 - B^2 are rank-2 products of per-axis
vectors, built from the versines v = 2 sin^2(x/2) and u = 2 cos^2(x/2):
below x = pi/2

    A - B = (s + (1+gamma) vx) + (1 + gamma cx) vy,
    A + B = (s + 4 + (gamma-1) vx) + (gamma cx - 1) vy,

with s = t - 2 - gamma, and past it the same two forms in u, with
|cx|, give A + B and A - B.  Each factor is P_x + Q_x b_y, one small
matrix product per grid block; near the points where it vanishes it is
a sum of non-negative pieces, and elsewhere no piece exceeds it more
than threefold, whatever gamma, so no factor is a difference of
cosines.

The 2D integrand is even and 2pi-periodic in x and y, so away from the
band edge the periodic trapezoid rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014).  Its rate is set by the
distance ~sqrt(2s/(1+gamma)) from the real plane to the zeros of A - B
and A + B.  The rules are nested, N doubling, and the difference of the
last two, whose nodes are shared, is the error estimate.  The rate is
known, so one grid is evaluated at the N it predicts, and every
coarser rule is read from that grid: the N/2^j rule is every 2^j-th
node of each axis.

A - B vanishes at (0, 0) and A + B at (pi, pi) when t = 2+gamma; there
the 2D integrand has an integrable 1/r point, and within
s < 0.008 (1+gamma) of it a corner path takes over.  The integrand is
symmetric under (x, y) -> (pi-x, pi-y) whenever l+m+n is even (the only
case admitted by GreenParams), so the domain is folded to x in
[0, pi/2], doubled, leaving one singular corner at the origin.  There a
tanh-sinh product rule (Takahasi & Mori, Publ. RIMS 9, 1974), whose
nodes crowd double-exponentially into the ends of each axis, converges
like exp(-c/h) in its step h despite the 1/r point.  It runs nested as
the trapezoid does, h halving, from one grid at h = 1/32 (or at its
start, if finer), and estimates its error from the last two
differences, since each halving roughly squares a DE rule's error.

The z integral F is formed on each grid without weights, in row tiles.
The weights factor per axis, w = wx wy, so with one column of Wx and of
Wy per rule, every rule's sum of w F and of |w F| is a diagonal entry of
Wx^T F Wy and of |Wx|^T |F| |Wy|.  Tiles and grids are added in a fixed
order, so a given QuadratureSpec reproduces results bit-for-bit.

What a grid needs that depends on neither t nor gamma is built once per
process, as the series' site tables are: one lru_cache record
(``_grid_tables``), keyed by the integers (rule, N, l, m, levels), holds
the per-axis tables of the grid (min(v, u), |cos x|, the x <= pi/2 mask
and 2 cos x of the rows; the columns (1, v, u, 1, cos y)) and the weight
matrices of its rules, all read-only.  The cache keeps at most 32
records, each at most ~0.35 MB (N = 2048 with eight rules).  A call
forms only its rows, from s = t - 2 - gamma and gamma, and F; nothing
keyed by t or gamma is cached, and results are those of a cold build,
bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .params import GreenParams, SeriesEvaluation, _real, _whole

_HALF = math.pi / 2.0
# rounding floor of the error estimate, relative to the sum of |w*f|
_ROUNDING = 16.0 * sys.float_info.epsilon
# The periodic trapezoid converges like exp(-N d), with d = acosh(1 + w)
# ~ sqrt(2 w) the distance from the real plane to the zeros of A - B and
# A + B, w = (t - edge)/(1 + gamma); the corner rule's cost hardly moves
# with w but grows with max(l, m).  Corner time over trapezoid time,
# each best of 7 on a 2-core x86 host, median over gamma in {0.5, 1, 2,
# 7} and the sites of a row (l, m <= 8: (0, 0, 0), (2, 1, 1), (3, 3, 2),
# (8, 0, 0)); a column of several w (0.002, 0.004, 0.006 | 0.008, 0.01,
# 0.02 | 0.05, 0.08, 0.12) gives the range of those medians:
#   w              0.002-0.006  0.008-0.02  0.03  0.05-0.12  0.15
#   l, m <= 8      0.22-0.23    0.81-0.82   1.99  1.54-2.21  3.87
#   (12|24, 0, 0)  0.22-0.23    0.80-0.81   0.70  1.54-2.16  1.54
#   (40, 0, 0)     0.79-0.81    0.80-2.87   2.46  2.41-7.82  7.57
# The crossover lies near w = 0.024 for near sites, where the
# trapezoid's first grid falls from N = 512 to 256, 0.04 for (12, 0, 0)
# and (24, 0, 0), and 0.009 for (40, 0, 0).  Below 0.008 the trapezoid
# needs N = 1024 and the corner rule wins at every site; a wider switch
# would save ~19% on sites up to (24, 0, 0) and slow (40, 0, 0) 2.9x.
_CORNER_WIDTH = 0.008
# the trapezoid doubles N up to this, and resolves sites up to a quarter of it
_MAX_TRAPEZOID = 2048
# The trapezoid evaluates its first grid at the smallest N >= its start
# with N d >= _REACH, d = acosh(1 + w).  Run from the start, the rule
# stopped above it only at N d >= 57.8 in every sweep made (gamma 1e-9
# to 1e9, odd n included): 27k points near w = 0.0256, 8000 random
# points with w in [0.02, 0.03] (least 58.3) and 5000 with w in [0.008,
# 100] (least 61.9; l, m <= 8, n <= 10).  With 56 no first grid lies
# past the stop; of the 5000 points 2791 start at it, and the grids
# evaluated fall from 20319 to 7230.
_REACH = 56.0
# F is formed in row tiles of at most this many values (128 KB), which
# keeps a call's working memory under 1 MB: one N = 2048 block took
# 17.5 MB.  Best-of times of whole calls, tiles against one block, on a
# 2-core x86 host: 225^2 corner grid 0.43 against 0.40 ms, 129^2
# trapezoid grid 0.18 against 0.17 ms, N = 2048 88 against 101 ms;
# tiles of 2^12 were 3-23% slower than 2^14, and 2^15 or 2^16 within 9%.
_TILE = 1 << 14
# the corner rule halves its step h = 1/n down to 1/_MAX_TANH_SINH, and
# resolves sites up to 4/3 of that
_MAX_TANH_SINH = 128
# the rules of _grid_tables
_TRAPEZOID, _CORNER = 0, 1


@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement cap of the corner path, and the convergence target.

    The corner path runs where t - 2 - gamma < 0.008 (1 + gamma), at
    t = 2 + gamma included; elsewhere the nested trapezoid chooses its
    own grid.  The corner rule halves its step at most
    ``corner_refinement_levels`` times; it stops sooner once its error
    estimate reaches the rounding level.  Its step starts at 1/8 or finer
    and stops at 1/_MAX_TANH_SINH = 1/128, four halvings from 1/8, so
    every ``corner_refinement_levels`` >= 4 runs one rule.
    ``target_tol``, stored as a Python float, decides ``converged``.
    ``nodes_per_axis`` and ``subdivisions_per_axis`` set nothing: they
    are kept only because ``bench/`` reads them (ROADMAP item 6).  The
    defaults reach ~1e-15 relative error over the whole admitted range,
    the band edge included.
    """

    nodes_per_axis: int = 24
    subdivisions_per_axis: int = 4
    corner_refinement_levels: int = 12
    target_tol: float = 1e-10
    _LEAST = (("nodes_per_axis", 4), ("subdivisions_per_axis", 1), ("corner_refinement_levels", 0))

    def __post_init__(self) -> None:
        for name, least in self._LEAST:
            if _whole(getattr(self, name), name) < least:
                raise ValueError(f"{name} must be at least {least}")
        tol = _real(self.target_tol, "target_tol")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError("target_tol must be positive and finite")
        object.__setattr__(self, "target_tol", tol)


# the spec of every call that passes none: frozen, so one instance serves them all
_DEFAULT_SPEC = QuadratureSpec()


def _shift(params: GreenParams) -> float:
    """s = t - 2 - gamma of the float inputs, correctly rounded, and 0.0 below the edge.

    t - band_edge would subtract the rounded 2 + gamma: at t = 2.000000001,
    gamma = 1e-9 that gives 0 for s = 8.27e-17, an error of 2.9e-9 in G.
    Where the exact s is negative, t >= band_edge only by rounding.
    """
    return max(0.0, math.fsum([params.t, -2.0, -params.gamma]))


def _axis_tables(x, y):
    """The t-free per-axis tables of the grid x by y: ``axis`` of x and ``columns`` of y.

    With v = 2 sin^2(x/2), u = 2 cos^2(x/2) and c = cos x, ``axis`` is
    (min(v, u), |c|, [v <= u], 2c, 2) and ``columns`` is (1, v, u, 1, c).
    _rows forms the rest from them.  When y is x, as on the trapezoid's
    grid, v, u and c are formed once.
    """
    v, u = _versines(x)
    c = np.cos(x)
    axis = np.empty((x.size, 5))
    np.minimum(v, u, out=axis[:, 0])
    np.abs(c, out=axis[:, 1])
    axis[:, 2] = v <= u
    np.multiply(c, 2.0, out=axis[:, 3])
    axis[:, 4] = 2.0
    columns = np.ones((y.size, 5))
    columns[:, 1], columns[:, 2], columns[:, 4] = (v, u, c) if y is x else (*_versines(y), np.cos(y))
    return axis, columns


def _rows(axis, shift: float, gamma: float):
    """Per-node rows of x whose products with ``columns`` give A - B, A + B and 2B.

    ``axis`` and ``columns`` are _axis_tables of x and y, and shift is
    s = t - 2 - gamma.  Each factor is P_x + Q_x b_y, with b = v for
    x <= pi/2 and b = u past it:

        near = (s + (1+gamma) a_x) + (1 + gamma |c_x|) b_y,
        far  = (s + 4 + (gamma-1) a_x) + (gamma |c_x| - 1) b_y,

    with a = v or u as b.  near is A - B on x <= pi/2, where it vanishes
    at the origin, and A + B past it, where it vanishes at (pi, pi); far
    is the other.  near is a sum of non-negative pieces, and where
    Q_x < 0 in far, |Q_x b_y| <= 2 against far >= s + 1, so no factor is
    formed by cancellation, whatever gamma.  On the grid

        near = rows[:, 0:3] @ columns[:, 0:3].T,
        far = rows[:, 3:6] @ columns[:, 0:3].T,
        2B = 2(c_x + c_y) = rows[:, 6:8] @ columns[:, 3:5].T.
    """
    rows = np.empty((len(axis), 8))
    # P_x of near and far in columns 0 and 3
    np.multiply(axis[:, 0:1], (1.0 + gamma, gamma - 1.0), out=rows[:, 0:4:3])
    rows[:, 0:4:3] += (shift, shift + 4.0)
    # Q_x of near and far multiplies v_y below pi/2, in columns 1 and 4,
    # and u_y past it, in columns 2 and 5; q [x <= pi/2] and
    # q - q [x <= pi/2] are exact
    q = axis[:, 1:2] * gamma + (1.0, -1.0)
    np.multiply(q, axis[:, 2:3], out=rows[:, 1:5:3])
    np.subtract(q, rows[:, 1:5:3], out=rows[:, 2:6:3])
    rows[:, 6:8] = axis[:, 3:5]
    return rows


def _versines(x):
    """(2 sin^2(x/2), 2 cos^2(x/2)): 1 - cos x and 1 + cos x, each accurate where small."""
    half = 0.5 * x
    v, u = np.sin(half), np.cos(half)
    v *= v
    u *= u
    v += v
    u += u
    return v, u


def _z_grid(params: GreenParams, rows, columns):
    """(1/pi) int_0^pi cos(nz)/(t - omega) dz over a tensor grid, in closed form.

    F = rho^n/(sqrt(A - B) sqrt(A + B)), rho = B/(A + sqrt(A^2 - B^2)),
    from the products of _rows and the ``columns`` of _axis_tables; it
    carries no quadrature weight.
    """
    near = rows[:, 0:3] @ columns[:, 0:3].T
    far = rows[:, 3:6] @ columns[:, 0:3].T
    # sqrt(near) * sqrt(far): the product overflows past t ~ 1e154
    np.sqrt(near, out=near)
    np.sqrt(far, out=far)
    if params.n == 0:
        far *= near
        return np.divide(1.0, far, out=far)
    root = near * far
    # 2(A + root) = (sqrt(near) + sqrt(far))^2, a sum of positive pieces,
    # divided out one factor at a time: its square overflows past t ~ 4e307
    near += far
    rho = rows[:, 6:8] @ columns[:, 3:5].T
    rho /= near
    rho /= near
    rho **= params.n
    rho /= root
    return rho


def _grid_sums(params: GreenParams, rows, columns, wx, wy):
    """Each rule's sum of w F and of |w F| over F on the grid ``rows`` by ``columns``.

    ``wx`` and ``wy`` are _level_weights, node by rule, so the sums are
    diag(Wx^T F Wy) and diag(|Wx|^T |F| |Wy|), returned as one list:
    every rule's signed sum, then every rule's sum of magnitudes.  F
    carries no weights and is formed in row tiles of at most _TILE
    values, each contracted as soon as it is formed.
    """
    rules, step = wx.shape[1] // 2, max(1, _TILE // len(columns))
    for lo in range(0, len(rows), step):
        f = _z_grid(params, rows[lo : lo + step], columns)
        w = wx[lo : lo + step].T
        if params.n % 2:
            # F changes sign only for odd n
            signed = w[:rules] @ f
            np.abs(f, out=f)
            part = np.vstack((signed, w[rules:] @ f))
        else:
            part = w @ f
        sums = part if lo == 0 else sums + part
    return (sums @ wy).diagonal().tolist()


def _half_grids(n: int, l: int, m: int):
    """Nodes 2 pi k/n for k = 0 .. n/2 on both axes, and their weights times cos(lx) and cos(my).

    The weight is 1 at k = 0 and k = n/2 and 2 in between.  The cosine
    takes its argument reduced mod n in integers, so cos(site x) keeps
    period n exactly: from the rounded node itself it would carry an
    error ~ site * eps that does not cancel over the grid.  Returns x,
    y (the same array) and the weights of x and of y as two rows.
    """
    k = np.arange(n // 2 + 1)
    weights = np.full(k.size, 2.0)
    weights[0] = weights[-1] = 1.0
    angle = 2.0 * math.pi / n
    x = angle * k
    return x, x, weights * np.cos(angle * (np.array([[l % n], [m % n]]) * k % n))


def _corner_grids(n: int, l: int, m: int):
    """Nodes of the tanh-sinh rule of step h = 1/n on [0, pi/2] and on [0, pi], with site factors.

    Node k of the rule on [0, end], |k| <= K = 3.5 n, is x = end (1 +
    tanh u)/2 with u = (pi/2) sinh(kh), and its weight is end pi h
    cosh(kh) e/(1+e)^2 with e = exp(-2|u|) (Takahasi & Mori, Publ. RIMS
    9, 1974).  Its distance to the nearer end, end e/(1+e), is formed
    directly and the node from that end, so nodes next to the singular
    corner keep their relative precision; the nearest lies 2.6e-23 end
    from it, so none is dropped.
    The index is k + K, so the n/2^j rule is every 2^j-th node while 2^j
    divides K.  Returns the nodes x on [0, pi/2] and y on [0, pi], and
    as two rows n times their weights times cos(lx) and cos(my).  y and
    its weights are twice x and its weights, which doubling forms
    exactly, so cos(my) = cos(2m x).
    """
    reach = 7 * n // 2
    k = np.arange(-reach, reach + 1)
    kh = k / n
    e = np.exp(-math.pi * np.abs(np.sinh(kh)))
    near = _HALF * e / (1.0 + e)
    x = np.where(k < 0, near, _HALF - near)
    weights = (_HALF * math.pi) * np.cosh(kh) * e / (1.0 + e) ** 2
    return x, 2.0 * x, np.array([[1.0], [2.0]]) * weights * np.cos(np.array([[l], [2 * m]]) * x)


def _level_weights(w, levels: int):
    """For each row of ``w``, nodes by 2 ``levels``: column j holds every 2^j-th weight, 0 elsewhere.

    Column ``levels`` + j holds the magnitudes of column j.
    """
    out = np.zeros((*w.shape, 2 * levels))
    for j in range(levels):
        out[:, :: 1 << j, j] = w[:, :: 1 << j]
    np.abs(out[..., :levels], out=out[..., levels:])
    return out


class _GridTables(NamedTuple):
    """The read-only t-free tables of one grid and its rules (``_grid_tables``)."""

    axis: np.ndarray
    columns: np.ndarray
    wx: np.ndarray
    wy: np.ndarray


@lru_cache(maxsize=32)
def _grid_tables(rule: int, n: int, l: int, m: int, levels: int) -> _GridTables:
    """The _axis_tables and the _level_weights of ``levels`` rules of grid n at site (l, m).

    ``rule`` picks the grids: _half_grids for _TRAPEZOID, _corner_grids
    for _CORNER.  Nothing here depends on t or gamma, so a sweep, a
    comparison or a repeated call reads the record its first call built.
    Every array, and every array a view is built on, is read-only and
    shared.
    """
    x, y, w = (_corner_grids if rule == _CORNER else _half_grids)(n, l, m)
    axis, columns = _axis_tables(x, y)
    weights = _level_weights(w, levels)
    for arr in (axis, columns, weights):
        arr.flags.writeable = False
    return _GridTables(axis, columns, *weights)


def _nested_product(params: GreenParams, start: int, first: int, rule: int):
    """Yield (n, I_n, I_n/2, sum of |w*f| on the scale of I_n) for n = start, 2 start, ...

    I_n is the product of two n-point rules: ``rule``'s grids
    (_half_grids or _corner_grids) give the nodes of the x and the y
    axis, and as two rows n times their weights times cos(lx) and
    cos(my).  The n/2 rule of either axis is its even-index part with
    the same scaled weights, so one grid, at n = ``first``, holds every
    rule from start/2 to first: rule first/2^j
    reads every 2^j-th node of each axis, and with column j of the
    weight matrices Wx and Wy holding its weights, every nested sum is
    diag(Wx^T F Wy) or diag(|Wx|^T |F| |Wy|).  The levels up to first
    are read from those sums; past it each level adds only its new
    nodes: odd rows by every column, then even rows by odd columns.
    Each grid's rows are formed from one shift s = t - 2 - gamma; the
    rest is read from its record (_grid_tables).
    """
    # G(l, m, n) = G(m, l, n): one record, and one result, for both orders
    l, m = max(params.l, params.m), min(params.l, params.m)
    shift, gamma = _shift(params), params.gamma
    levels = (first // start).bit_length() + 1
    grid = _grid_tables(rule, first, l, m, levels)
    sums = _grid_sums(params, _rows(grid.axis, shift, gamma), grid.columns, grid.wx, grid.wy)
    for j in range(levels - 2, -1, -1):
        n = first >> j
        yield n, sums[j] / n**2, sums[j + 1] / (n // 2) ** 2, sums[levels + j] / n**2
    total, magnitude, n = sums[0], sums[levels], first
    odd, even, every = slice(1, None, 2), slice(0, None, 2), slice(None)
    while True:
        n *= 2
        grid = _grid_tables(rule, n, l, m, 1)
        rows = _rows(grid.axis, shift, gamma)
        previous = total
        for r, c in ((odd, every), (even, odd)):
            part, part_size = _grid_sums(params, rows[r], grid.columns[c], grid.wx[r], grid.wy[c])
            total += part
            magnitude += part_size
        yield n, total / n**2, previous / (n // 2) ** 2, magnitude / n**2


def _trapezoid_run(params: GreenParams):
    """(value, error estimate, node count) of the nested trapezoid.

    I_N is the N-point periodic trapezoid rule on [0, 2pi)^2, folded by
    evenness onto the half grid theta_k = 2 pi k/N, k = 0 .. N/2, with
    weight 1 at both ends and 2 inside.  The rules start at the smallest
    power of two N >= max(32, 4 max(l, m)), so the first grid resolves
    cos(lx) and cos(my), and double until two successive rules agree to
    the rounding level of their sum, or until N reaches _MAX_TRAPEZOID.
    The one grid evaluated first is at the N the rule's rate predicts,
    the smallest power of two from the start on with N d >= _REACH, and
    every coarser rule is read from it.  A site the finest grid cannot
    resolve gets an infinite estimate: there both rules may alias
    cos(lx) alike.
    """
    resolve = 4 * max(params.l, params.m)
    start = min(_MAX_TRAPEZOID, 1 << (max(32, resolve) - 1).bit_length())
    rate = math.acosh(1.0 + _shift(params) / (1.0 + params.gamma))
    first = start
    while first < _MAX_TRAPEZOID and first * rate < _REACH:
        first *= 2
    for n, value, previous, magnitude in _nested_product(params, start, first, _TRAPEZOID):
        difference = abs(value - previous)
        if difference <= _ROUNDING * magnitude or n >= _MAX_TRAPEZOID:
            break
    estimate = max(difference, _ROUNDING * magnitude)
    return value, estimate if resolve <= _MAX_TRAPEZOID else math.inf, (n // 2 + 1) ** 2


def _use_corner(params: GreenParams) -> bool:
    return _shift(params) / (1.0 + params.gamma) < _CORNER_WIDTH


def _corner_run(params: GreenParams, halvings: int):
    """(value, error estimate, node count) of the nested tanh-sinh product rule.

    The integrand is symmetric under (x, y) -> (pi-x, pi-y) for even
    l+m+n, so the rule runs on x in [0, pi/2], y in [0, pi] with factor
    2/pi^2, leaving one singular corner at the origin.  The step h = 1/n
    starts at 1/8, or finer so that n >= 3 max(l, m)/4 and the rule of
    step 2h already resolves cos(lx) and cos(my); it halves at most
    ``halvings`` times, down to 1/_MAX_TANH_SINH.  Each halving roughly
    squares a DE rule's error, so with d_h = |I_h - I_2h| the error of
    I_h is estimated by min(d_h, d_h^2/d_2h), floored at the rounding
    level of the sum, and the rule stops when that reaches the floor.
    The model is not fed |I_8 - I_4|: the step-1/4 rule is too coarse
    for the squaring to hold (at gamma = 0.6, t - edge = 3.2e-6 it gave
    2e-15 for an error of 3e-13).  A site the finest step cannot
    resolve gets an infinite estimate.  No corner point has been seen
    to stop before n = 32 (of the 207 in tests/corner_references.json,
    134 stop at 32 and 73 at 64), so the one grid evaluated first is at
    n = 32, or at the start if that is finer, but never past the cap
    that ``halvings`` and _MAX_TANH_SINH set; every coarser rule is read
    from it.
    """
    resolve = -(-3 * max(params.l, params.m) // 4)
    start = 1 << (max(8, resolve) - 1).bit_length()
    lowest = min(start, _MAX_TANH_SINH)
    # more halvings than reach _MAX_TANH_SINH from n = 1 change nothing
    reach = min(halvings, _MAX_TANH_SINH.bit_length())
    first = min(max(lowest, 32), lowest << reach, _MAX_TANH_SINH)
    last = 0.0
    for level, (n, value, coarse, magnitude) in enumerate(
        _nested_product(params, lowest, first, _CORNER)
    ):
        difference = abs(value - coarse)
        model = min(difference, difference**2 / last) if last and n >= 32 else difference
        if model <= _ROUNDING * magnitude or level >= halvings or n >= _MAX_TANH_SINH:
            break
        last = difference
    estimate = max(model, _ROUNDING * magnitude) if start <= _MAX_TANH_SINH else math.inf
    scale = 2.0 / math.pi**2
    return scale * value, scale * estimate, (7 * n + 1) ** 2


def green_by_quadrature(
    params: GreenParams, spec: QuadratureSpec | None = None
) -> SeriesEvaluation:
    """Evaluate G by the defining integral.

    Valid for t > 2+gamma; t = 2+gamma is accepted when the corner rule
    may refine at least once (the singularity is integrable).  The
    error estimate comes from the differences between successive nested
    rules and is floored at the rounding level of the sum, so
    ``converged`` reflects self-consistency, not an a-priori bound.
    ``terms_used`` counts the 2D nodes of the finest rule.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    edge = params.band_edge
    if params.t < edge:
        raise DomainError(
            f"quadrature needs t >= 2+gamma = {edge}; got t = {params.t}"
        )
    if params.t == edge and spec.corner_refinement_levels < 1:
        raise DomainError(
            "t at the band edge requires corner_refinement_levels >= 1"
        )
    if _use_corner(params):
        value, estimate, count = _corner_run(params, spec.corner_refinement_levels)
    else:
        value, estimate, count = _trapezoid_run(params)
    return SeriesEvaluation(
        value=value,
        terms_used=count,
        abs_error_estimate=estimate,
        method="quadrature",
        converged=estimate <= spec.target_tol,
    )
