"""Direct quadrature of the defining integral, with z integrated exactly.

Serves as the ground truth the series arrangements are checked against.
G is (1/pi^3) times the integral of cos(lx)cos(my)cos(nz)/(t - omega)
over [0, pi]^3, with omega = gamma*cx*cy + cz*(cx + cy).  Writing
t - omega = A - B cos z with A = t - gamma*cx*cy and B = cx + cy, the z
integral has a closed form (Watson 1939; Joyce 1998):

    int_0^pi cos(nz)/(A - B cos z) dz = pi rho^n / sqrt(A^2 - B^2),
    rho = B / (A + sqrt(A^2 - B^2)),

so G = (1/pi^2) times a 2D integral over (x, y) in [0, pi]^2.  Both
factors of A^2 - B^2 are assembled from versines v = 2 sin^2(x/2) and
u = 2 - v, which makes every summand non-negative:

    A - B = s + gamma*q(vx, vy) + vx + vy,
    A + B = s + gamma*q(ux, uy) + ux + uy,

with s = t - 2 - gamma and q(a, b) = a + b - a*b.  Near the points where
a factor vanishes it is built from positive pieces rather than from a
difference of cosines.

The 2D integrand is even and 2pi-periodic in x and y, so away from the
band edge the periodic trapezoid rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014).  Its rate is set by the
distance ~sqrt(2s/(1+gamma)) from the real plane to the zeros of A - B
and A + B.  The rule is run on nested grids, N doubling, and the
difference of the last two rules, whose nodes are shared, is the error
estimate.

A - B vanishes at (0, 0) and A + B at (pi, pi) when t = 2+gamma; there
the 2D integrand has an integrable 1/r point, and within
s < 0.008 (1+gamma) of it a corner path takes over, built from
tensor-product Gauss-Legendre rules.  The integrand is symmetric under
(x, y) -> (pi-x, pi-y) whenever l+m+n is even (the only case admitted by
GreenParams), so the domain is folded to x in [0, pi/2], doubled,
leaving one singular corner at the origin.  That corner is covered by
geometrically shrinking dyadic shells of 3 boxes each, smooth on their
own scale, and the innermost square is split into two triangles under a
Duffy map whose Jacobian cancels the 1/r point.  Its error estimate is
the difference against a companion run at half the resolution.

Every grid block and every box contributes its signed sum and its sum of
magnitudes, added in a fixed order, so a given QuadratureSpec
reproduces results bit-for-bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import GreenParams, SeriesEvaluation

_HALF = math.pi / 2.0
_MAX_LEVELS = 60
# rounding floor of the error estimate, relative to the sum of |w*f|
_ROUNDING = 16.0 * sys.float_info.epsilon
# The periodic trapezoid converges like exp(-N d), with d = acosh(1 + w)
# ~ sqrt(2 w) the distance from the real plane to the zeros of A - B and
# A + B, w = (t - edge)/(1 + gamma).  From w = 0.008 up it stops by
# N = 512 and beats the corner path; at w = 0.007 some sites need
# N = 1024 and take 3-4x the corner path's time.
_CORNER_WIDTH = 0.008
# the trapezoid doubles N up to this, and resolves sites up to a quarter of it
_MAX_TRAPEZOID = 2048


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs of the corner path, and the convergence target.

    The Gauss-Legendre fields shape only the corner path, which runs
    where t - 2 - gamma < 0.008 (1 + gamma), at t = 2 + gamma included;
    elsewhere the nested trapezoid chooses its own grid.  Each box of
    the corner path gets ``nodes_per_axis`` Gauss-Legendre nodes on each
    of ``subdivisions_per_axis`` cells per axis; dyadic corner shells use
    half as many cells.  It runs ``corner_refinement_levels`` shells, or
    more when t is so close to the edge that the innermost square would
    reach the core of radius ~sqrt(t-2-gamma).  ``target_tol`` decides
    ``converged``.
    The defaults reach ~1e-15 relative error over the whole admitted
    range, the band edge included.
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


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _axis_rule(lo: float, hi: float, nodes: int, cells: int):
    """Composite Gauss-Legendre points and weights on [lo, hi]."""
    x, w = _gl_nodes(nodes)
    edges = np.linspace(lo, hi, cells + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def _factors(params: GreenParams, x, y):
    """(A - B, A + B) at (x, y), each a sum of non-negative terms."""
    shift, gamma = params.t - params.band_edge, params.gamma
    vx = 2.0 * np.sin(0.5 * x) ** 2
    vy = 2.0 * np.sin(0.5 * y) ** 2
    ux = 2.0 - vx
    uy = 2.0 - vy
    minus = shift + gamma * (vx + vy - vx * vy) + vx + vy
    plus = shift + gamma * (ux + uy - ux * uy) + ux + uy
    return minus, plus


def _z_integral(params: GreenParams, x, y):
    """(1/pi) int_0^pi cos(nz)/(t - omega) dz at (x, y), in closed form."""
    minus, plus = _factors(params, x, y)
    root = np.sqrt(minus) * np.sqrt(plus)  # the product overflows past t ~ 1e154
    if params.n == 0:
        return 1.0 / root
    cx, cy = np.cos(x), np.cos(y)
    rho = (cx + cy) / (params.t - params.gamma * cx * cy + root)
    return rho**params.n / root


def _piece_sums(params: GreenParams, x, y, wx, wy):
    """Per-piece (sums of w*f, sums of |w*f|) over nodes (x, y), w = wx*wy.

    Axis 0 of the broadcast node arrays indexes the pieces; axes 1 and 2
    hold each piece's nodes.
    """
    f = (wx * np.cos(params.l * x)) * (wy * np.cos(params.m * y))
    f *= _z_integral(params, x, y)
    return f.sum(axis=(1, 2)), np.abs(f).sum(axis=(1, 2))


def _boxes(px, wx, py, wy):
    """Node arrays of tensor-product boxes from per-box axis rules.

    Row k of (px, wx) and of (py, wy) is the rule of box k on x and y.
    """
    return px[:, :, None], py[:, None, :], wx[:, :, None], wy[:, None, :]


def _levels(params: GreenParams, spec: QuadratureSpec) -> int:
    """Dyadic shells for the corner path.

    Off the edge the innermost square must stay inside the core of
    radius ~sqrt(s) around the origin, where the integrand is smooth;
    at s = 0 the Duffy map handles the 1/r point at any depth.
    """
    shift = params.t - params.band_edge
    if shift <= 0.0:
        return spec.corner_refinement_levels
    core = math.ceil(math.log2(_HALF / math.sqrt(shift))) + 1
    return min(_MAX_LEVELS, max(spec.corner_refinement_levels, core))


def _corner_pieces(params: GreenParams, spec: QuadratureSpec):
    """Node arrays tiling [0, pi/2] x [0, pi], innermost last.

    One bulk box [0, pi/2] x [pi/2, pi]; then per level, in the square
    [0, 2h]^2, the boxes [h, 2h] x [0, h], [0, h] x [h, 2h] and
    [h, 2h]^2; then the innermost square as two Duffy triangles.
    """
    nodes, cells = spec.nodes_per_axis, spec.subdivisions_per_axis
    bx, bwx = _axis_rule(0.0, _HALF, nodes, cells)
    by, bwy = _axis_rule(_HALF, math.pi, nodes, cells)
    yield _boxes(bx[None], bwx[None], by[None], bwy[None])

    # level k is level 0 scaled by 2^-k, exact in floating point; one
    # level at a time keeps the temporaries small enough to stay in cache
    levels = _levels(params, spec)
    shell_cells = max(1, cells // 2)
    near, wnear = _axis_rule(0.0, 0.5 * _HALF, nodes, shell_cells)
    far, wfar = _axis_rule(0.5 * _HALF, _HALF, nodes, shell_cells)
    px, wx = np.stack([far, near, far]), np.stack([wfar, wnear, wfar])
    py, wy = np.stack([near, far, far]), np.stack([wnear, wfar, wfar])
    for k in range(levels):
        scale = 0.5**k
        yield _boxes(scale * px, scale * wx, scale * py, scale * wy)

    # x = u, y = u*w below the diagonal and its mirror above; the
    # Jacobian u cancels a 1/r point at the origin, so the mapped
    # integrand is smooth there even at the band edge
    pu, wu = _axis_rule(0.0, _HALF * 0.5**levels, nodes, 1)
    pw, ww = _axis_rule(0.0, 1.0, nodes, 1)
    u = np.broadcast_to(pu[:, None], (pu.size, pw.size))
    along = pu[:, None] * pw[None, :]
    weights = (wu * pu)[:, None] * ww[None, :]
    yield np.stack([u, along]), np.stack([along, u]), weights[None], 1.0


def _use_corner(params: GreenParams) -> bool:
    return (params.t - params.band_edge) / (1.0 + params.gamma) < _CORNER_WIDTH


def _corner_run(params: GreenParams, spec: QuadratureSpec):
    """(value, sum of |w*f| on the same scale, node count) of the corner path."""
    totals, magnitudes, count = [], [], 0
    for x, y, wx, wy in _corner_pieces(params, spec):
        total, magnitude = _piece_sums(params, x, y, wx, wy)
        totals.extend(total.tolist())
        magnitudes.extend(magnitude.tolist())
        count += np.broadcast(x, y, wx, wy).size
    # half-domain fold: the x >= pi/2 half mirrors through (pi-x, pi-y),
    # exact for even l+m+n
    scale = 2.0 / math.pi**2
    return scale * math.fsum(totals), scale * math.fsum(magnitudes), count


def _half_grid(n: int, site: int, start: int = 0, step: int = 1):
    """Nodes 2 pi k/n for k = start, start+step, .. <= n/2, and weights times cos(site x).

    The weight is 1 at k = 0 and k = n/2 and 2 in between.  The cosine
    takes its argument reduced mod n in integers, so cos(site x) keeps
    period n exactly: from the rounded node itself it would carry an
    error ~ site * eps that does not cancel over the grid.
    """
    k = np.arange(start, n // 2 + 1, step)
    weights = np.where((k == 0) | (k == n // 2), 1.0, 2.0)
    angle = 2.0 * math.pi / n
    return angle * k, weights * np.cos(angle * (site % n * k % n))


def _grid(params: GreenParams, x, wx, y, wy):
    """wx*wy times the z integral over the tensor grid x by y."""
    return (wx[:, None] * wy[None, :]) * _z_integral(params, x[:, None], y[None, :])


def _nested_trapezoid(params: GreenParams, n: int):
    """Yield (N, I_N, I_N/2, sum of |w*f| on the scale of I_N) for N = n, 2n, ...

    I_N is the N-point periodic trapezoid rule on [0, 2pi)^2, folded by
    evenness onto the half grid theta_k = 2 pi k/N, k = 0 .. N/2, with
    weight 1 at both ends and 2 inside.  The N/2 grid is the even-index
    part of the N grid, with the same weights, so I_N/2 costs nothing
    and each doubling evaluates only the new nodes: odd rows by every
    column, then even rows by odd columns.
    """
    l, m = params.l, params.m
    f = _grid(params, *_half_grid(n, l), *_half_grid(n, m))
    previous = float(f[::2, ::2].sum())
    total, magnitude = float(f.sum()), float(np.abs(f).sum())
    while True:
        yield n, total / n**2, previous / (n // 2) ** 2, magnitude / n**2
        n *= 2
        previous = total
        for f in (
            _grid(params, *_half_grid(n, l, 1, 2), *_half_grid(n, m)),
            _grid(params, *_half_grid(n, l, 0, 2), *_half_grid(n, m, 1, 2)),
        ):
            total += float(f.sum())
            magnitude += float(np.abs(f).sum())


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


def green_by_quadrature(
    params: GreenParams, spec: QuadratureSpec | None = None
) -> SeriesEvaluation:
    """Evaluate G by the defining integral.

    Valid for t > 2+gamma; t = 2+gamma is accepted when corner
    refinement is on (the singularity is integrable).  The error
    estimate is the difference between the two finest trapezoid rules,
    or on the corner path the difference against a companion run at
    half the resolution; either is floored at the rounding level of the
    sum, so ``converged`` reflects self-consistency, not an a-priori
    bound.  ``terms_used`` counts the 2D nodes of the finest rule.
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
        value, magnitude, count = _corner_run(params, spec)
        coarse_spec = QuadratureSpec(
            nodes_per_axis=max(4, spec.nodes_per_axis // 2),
            subdivisions_per_axis=max(1, spec.subdivisions_per_axis // 2),
            corner_refinement_levels=max(1, spec.corner_refinement_levels - 4),
            target_tol=spec.target_tol,
        )
        coarse, _, _ = _corner_run(params, coarse_spec)
        estimate = max(abs(value - coarse), _ROUNDING * magnitude)
    else:
        value, estimate, count = _trapezoid_run(params)
    return SeriesEvaluation(
        value=value,
        terms_used=count,
        abs_error_estimate=estimate,
        method="quadrature",
        converged=estimate <= spec.target_tol,
    )
