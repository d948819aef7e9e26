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
and A + B.  The rule is run on nested grids, N doubling, and the
difference of the last two rules, whose nodes are shared, is the error
estimate.

A - B vanishes at (0, 0) and A + B at (pi, pi) when t = 2+gamma; there
the 2D integrand has an integrable 1/r point, and within
s < 0.008 (1+gamma) of it a corner path takes over.  The integrand is
symmetric under (x, y) -> (pi-x, pi-y) whenever l+m+n is even (the only
case admitted by GreenParams), so the domain is folded to x in
[0, pi/2], doubled, leaving one singular corner at the origin.  There a
tanh-sinh product rule (Takahasi & Mori, Publ. RIMS 9, 1974), whose
nodes crowd double-exponentially into the ends of each axis, converges
like exp(-c/h) in its step h despite the 1/r point.  It runs nested as
the trapezoid does, h halving, and estimates its error from the last
two differences, since each halving roughly squares a DE rule's error.

The z integral F is formed on each grid block without weights.  The
weights factor per axis, w = wx wy, so a block's sum of w F and of
|w F| are the contractions wx^T F wy and |wx|^T |F| |wy|.  Blocks are
added in a fixed order, so a given QuadratureSpec reproduces results
bit-for-bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .params import GreenParams, SeriesEvaluation

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
#   l, m <= 8      0.15-0.17    0.73-0.74   1.35  1.39-1.42  2.17
#   (12|24, 0, 0)  0.13-0.14    0.61-0.63   0.62  1.30-1.39  1.36
#   (40, 0, 0)     0.80-0.82    0.80-4.63   4.71  4.57-14.2  14.0
# The crossover lies near w = 0.025 for near sites, 0.04 for (12, 0, 0)
# and (24, 0, 0), and 0.009 for (40, 0, 0).  Below 0.008 the trapezoid
# needs N = 1024 and the corner rule wins at every site; a wider switch
# would save ~30% on sites up to (24, 0, 0) and slow (40, 0, 0) 4.6x.
_CORNER_WIDTH = 0.008
# the trapezoid doubles N up to this, and resolves sites up to a quarter of it
_MAX_TRAPEZOID = 2048
# the corner rule halves its step h = 1/n down to 1/_MAX_TANH_SINH, and
# resolves sites up to 4/3 of that
_MAX_TANH_SINH = 128


@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement cap of the corner path, and the convergence target.

    The corner path runs where t - 2 - gamma < 0.008 (1 + gamma), at
    t = 2 + gamma included; elsewhere the nested trapezoid chooses its
    own grid.  The corner rule halves its step at most
    ``corner_refinement_levels`` times; it stops sooner once its error
    estimate reaches the rounding level.  ``target_tol`` decides
    ``converged``.  ``nodes_per_axis`` and ``subdivisions_per_axis``
    set nothing: they are kept only because ``bench/`` reads them
    (ROADMAP item 6).  The defaults reach ~1e-15 relative error over
    the whole admitted range, the band edge included.
    """

    nodes_per_axis: int = 24
    subdivisions_per_axis: int = 4
    corner_refinement_levels: int = 12
    target_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 4:
            raise ValueError("nodes_per_axis must be at least 4")
        if self.subdivisions_per_axis < 1:
            raise ValueError("subdivisions_per_axis must be at least 1")
        if self.corner_refinement_levels < 0:
            raise ValueError("corner_refinement_levels must be non-negative")
        if not (math.isfinite(self.target_tol) and self.target_tol > 0.0):
            raise ValueError("target_tol must be positive and finite")


def _shift(params: GreenParams) -> float:
    """s = t - 2 - gamma of the float inputs, correctly rounded, and 0.0 below the edge.

    t - band_edge would subtract the rounded 2 + gamma: at t = 2.000000001,
    gamma = 1e-9 that gives 0 for s = 8.27e-17, an error of 2.9e-9 in G.
    Where the exact s is negative, t >= band_edge only by rounding.
    """
    return max(0.0, math.fsum([params.t, -2.0, -params.gamma]))


def _axis_factors(params: GreenParams, x, y):
    """Per-axis columns whose products give A - B, A + B and 2B on the grid x by y.

    With v = 2 sin^2(x/2), u = 2 cos^2(x/2) and c = cos x, each factor
    is P_x + Q_x b_y, with b = v for x <= pi/2 and b = u past it:

        near = (s + (1+gamma) a_x) + (1 + gamma |c_x|) b_y,
        far  = (s + 4 + (gamma-1) a_x) + (gamma |c_x| - 1) b_y,

    with a = v or u as b.  near is A - B on x <= pi/2, where it vanishes
    at the origin, and A + B past it, where it vanishes at (pi, pi); far
    is the other.  near is a sum of non-negative pieces, and where
    Q_x < 0 in far, |Q_x b_y| <= 2 against far >= s + 1, so no factor is
    formed by cancellation, whatever gamma.  With ``rows`` from x and
    ``columns`` = (1, v, u, 1, c) from y, on the grid

        near = rows[:, 0:3] @ columns[:, 0:3].T,
        far = rows[:, 3:6] @ columns[:, 0:3].T,
        2B = 2(c_x + c_y) = rows[:, 6:8] @ columns[:, 3:5].T.
    """
    shift, gamma = _shift(params), params.gamma
    v, u = _versines(x)
    upper = v > u
    a, c = np.minimum(v, u), np.cos(x)
    g = gamma * np.abs(c)
    rows = np.zeros((x.size, 8))
    rows[:, 0] = shift + (1.0 + gamma) * a
    rows[:, 3] = shift + 4.0 + (gamma - 1.0) * a
    # Q_x multiplies v_y below pi/2 and u_y past it
    for column, q in ((1, g + 1.0), (4, g - 1.0)):
        np.copyto(rows[:, column], q, where=~upper)
        np.copyto(rows[:, column + 1], q, where=upper)
    rows[:, 6] = 2.0 * c
    rows[:, 7] = 2.0
    columns = np.ones((y.size, 5))
    columns[:, 1], columns[:, 2] = _versines(y)
    np.cos(y, out=columns[:, 4])
    return rows, columns


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
    from the products of ``rows`` and ``columns`` of _axis_factors; it
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


def _contract(params: GreenParams, f, wx, wy):
    """(wx^T F wy, |wx|^T |F| |wy|): the sums of wx wy F and of |wx wy F|.

    The weights factor per axis, so both sums are contractions of the
    unweighted F.  F is overwritten with |F|.
    """
    signed = float((wx @ f) @ wy)
    # F >= 0 for even n
    if params.n % 2:
        np.abs(f, out=f)
    return signed, float((np.abs(wx) @ f) @ np.abs(wy))


def _half_grid(n: int, site: int):
    """Nodes 2 pi k/n for k = 0 .. n/2, and weights times cos(site x).

    The weight is 1 at k = 0 and k = n/2 and 2 in between.  The cosine
    takes its argument reduced mod n in integers, so cos(site x) keeps
    period n exactly: from the rounded node itself it would carry an
    error ~ site * eps that does not cancel over the grid.
    """
    k = np.arange(n // 2 + 1)
    weights = np.full(k.size, 2.0)
    weights[[0, -1]] = 1.0
    angle = 2.0 * math.pi / n
    return angle * k, weights * np.cos(angle * (site % n * k % n))


def _tanh_sinh(n: int, site: int, *, end: float):
    """Nodes of the tanh-sinh rule of step h = 1/n on [0, end].

    Node k, |k| <= K = 3.5 n, is x = end (1 + tanh u)/2 with u = (pi/2)
    sinh(kh), and its weight is end pi h cosh(kh) e/(1+e)^2 with e =
    exp(-2|u|) (Takahasi & Mori, Publ. RIMS 9, 1974).  Its distance to
    the nearer end, end e/(1+e), is formed directly and the node from
    that end, so nodes next to the singular corner keep their relative
    precision; the nearest lies 2.6e-23 end from it, so none is dropped.
    The index is k + K with K even, so the n/2 rule is the even-index
    part.  Returns the nodes and n times the weights times cos(site x).
    """
    reach = 7 * n // 2
    k = np.arange(-reach, reach + 1)
    kh = k / n
    e = np.exp(-math.pi * np.abs(np.sinh(kh)))
    near = end * e / (1.0 + e)
    x = np.where(k < 0, near, end - near)
    weights = (end * math.pi) * np.cosh(kh) * e / (1.0 + e) ** 2
    return x, weights * np.cos(site * x)


def _nested_product(params: GreenParams, n: int, x_rule, y_rule):
    """Yield (n, I_n, I_n/2, sum of |w*f| on the scale of I_n) for n, 2n, 4n, ...

    I_n is the product of the n-point rules ``x_rule`` on x and
    ``y_rule`` on y, each called as rule(n, site) for its nodes and n
    times their weights times cos(site x).  The n/2 rule of either is
    the even-index part of the n rule with the same scaled weights, so
    each level evaluates each axis once and adds only its new nodes:
    odd rows by every column, then even rows by odd columns.
    """
    l, m = params.l, params.m
    odd, even, every = slice(1, None, 2), slice(0, None, 2), slice(None)
    first = True
    while True:
        (x, wx), (y, wy) = x_rule(n, l), y_rule(n, m)
        rows, columns = _axis_factors(params, x, y)
        if first:
            # the whole grid, and I_n/2 from its even-index part
            f = _z_grid(params, rows, columns)
            previous = float((wx[even] @ f[even, even]) @ wy[even])
            total, magnitude = _contract(params, f, wx, wy)
            first = False
        else:
            previous = total
            for r, c in ((odd, every), (even, odd)):
                f = _z_grid(params, rows[r], columns[c])
                signed, size = _contract(params, f, wx[r], wy[c])
                total += signed
                magnitude += size
        yield n, total / n**2, previous / (n // 2) ** 2, magnitude / n**2
        n *= 2


# the corner path's rules, on x in [0, pi/2] and y in [0, pi]
_CORNER_RULES = (partial(_tanh_sinh, end=_HALF), partial(_tanh_sinh, end=math.pi))


def _nested_trapezoid(params: GreenParams, n: int):
    """Yield (N, I_N, I_N/2, sum of |w*f| on the scale of I_N) for N = n, 2n, ...

    I_N is the N-point periodic trapezoid rule on [0, 2pi)^2, folded by
    evenness onto the half grid theta_k = 2 pi k/N, k = 0 .. N/2, with
    weight 1 at both ends and 2 inside; the N/2 grid is its even-index
    part.
    """
    return _nested_product(params, n, _half_grid, _half_grid)


def _trapezoid_run(params: GreenParams):
    """(value, error estimate, node count) of the nested trapezoid.

    Starts at the smallest power of two N >= max(32, 4 max(l, m)), so
    the first grid resolves cos(lx) and cos(my), and doubles N until two
    successive rules agree to the rounding level of their sum, or until
    N reaches _MAX_TRAPEZOID.  A site the finest grid cannot resolve
    gets an infinite estimate: there both rules may alias cos(lx) alike.
    """
    resolve = 4 * max(params.l, params.m)
    start = min(_MAX_TRAPEZOID, 1 << (max(32, resolve) - 1).bit_length())
    for n, value, previous, magnitude in _nested_trapezoid(params, start):
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
    resolve gets an infinite estimate.
    """
    resolve = -(-3 * max(params.l, params.m) // 4)
    start = 1 << (max(8, resolve) - 1).bit_length()
    last = 0.0
    for level, (n, value, coarse, magnitude) in enumerate(
        _nested_product(params, min(start, _MAX_TANH_SINH), *_CORNER_RULES)
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
        spec = QuadratureSpec()
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
