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
j!/(k!(j-k)!), the inner rows of one order are j! times a single
convolution of J_m[i-k]/k! with J_l[i-d]/d!, so every row of nu_i comes
from one np.convolve.  Nothing in nu_i overflows and nothing depends on
t; the i-th term is nu_i r^i / t with r = s/t, and the i-th moment is
nu_i s^i.

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
    """Per-evaluation tables: scaled factorials, site tables and the gamma ladders.

    The scaled factorials E, G (the binomials of both series) and the
    site tables come from process-wide caches; only the ladders
    (gamma/s)^k and (2/s)^j J_n[j], s = 2+gamma, are built for each
    evaluation, on series5's first term.  Nothing here depends on t, and
    nothing of size depth^2 is built.
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
        """nu_i = (1/pi^3) sum_j w_j * 2^-j sum_k C(j,k) Jl[i-j+k] Jm[i-k].

        w_j = C(i,j) (gamma/s)^(i-j) (2/s)^j Jn[j], over the rows
        j = n, n+2, ..., i (n the site index): J_j(n) vanishes for j < n
        and for odd j - n.  With u[k] = E[k] Jm[i-k] and
        v[d] = E[d] Jl[i-d], row j is G[j] (u * v)[j], and the G[j] goes
        into the weight as C(i,j) G[j] = G[i] / G[i-j].  Jm[i-k] vanishes
        unless k has the parity ku of i-m, and Jl[i-d] unless d has the
        parity kv of i-l, so u and v keep only those entries; output q of
        their convolution is row ku+kv+2q, of n's parity, and a row
        j < ku+kv is zero.  Every summand is >= 0.

        The weight multiplies the ratio G[i] / G[i-j] (up to 1e79) into
        the gamma ladder before the J_n ladder: at gamma = 1, i = 1000,
        j near 512 the two ladders alone multiply to about 1e-323, a
        subnormal.
        """
        n, l, m = self.params.n, self.params.l, self.params.m
        ku, kv = (i - m) % 2, (i - l) % 2
        j0 = max(n, ku + kv)
        if i < j0:
            return 0.0
        u = self.E[ku : i + 1 : 2] * self.Jm[i - ku :: -2]
        v = self.E[kv : i + 1 : 2] * self.Jl[i - kv :: -2]
        js = slice(j0, i + 1, 2)
        q0 = (j0 - ku - kv) // 2
        rows = np.convolve(u, v)[q0 : q0 + (i - j0) // 2 + 1]
        G = self.G
        w = G[i] / G[i - j0 :: -2] * self.gs_pows[i - j0 :: -2] * self.jn_scaled[js]
        return float(np.dot(w, rows)) / PI3

    def moment(self, i: int) -> float:
        return self.nu(i) * self.params.band_edge**i

    def term5(self, i: int) -> float:
        t = self.params.t
        return self.nu(i) * (self.params.band_edge / t) ** i / t


def _workspace(params: GreenParams, depth: int, j_depth: int | None = None) -> _Workspace:
    return _Workspace(params, depth, depth if j_depth is None else j_depth)


def moment_coefficient(i: int, params: GreenParams) -> float:
    """i-th moment of the structure function against the site cosines.

    Equals (1/pi^3) * int w^i cos(lx)cos(my)cos(nz) over [0, pi]^3, i.e.
    the coefficient of t^(-1-i) in the Green-function expansion.  For
    gamma = 1 at the origin these are the weighted closed-walk counts of
    the 12-neighbour FCC shell: 1, 0, 3/4, 3/4, ...  Values grow like
    (2+gamma)^i, so orders above int(680 / ln(2+gamma)) (618 at
    gamma = 1, always below the hard order cap) would leave the double
    range and are rejected.
    """
    if i < 0:
        raise ValueError("moment order must be non-negative")
    limit = _safe_order(params.gamma)
    if i > limit:
        raise ValueError(
            f"moment order {i} exceeds {limit}, the largest whose value "
            f"fits a double at gamma={params.gamma}"
        )
    return _workspace(params, i).moment(i)


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
