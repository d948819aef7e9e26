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
but cannot mark the result converged unless a sequence transform is
applied.

Intermediate magnitudes are kept inside the double range by folding
powers of 1/t into the term sums once the raw moments would overflow
(they grow like (2+gamma)^i); below that point terms are computed
literally as moment_coefficient(i) * t^(-1-i) so the reported series is
bit-identical to its moment reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acceleration import (
    PartialSumSequence,
    aitken_delta2,
    wynn_epsilon_with_estimate,
)
from .basic_integrals import IntegralTable, shared_table
from .combinatorics import HARD_ORDER_CAP, binomial_table
from .errors import DomainError
from .params import GreenParams, SeriesEvaluation

PI3 = math.pi**3

ACCEL_WINDOW = 64
"""Trailing-window size for the transform fallback on short runs.

Long runs are subsampled at doubling indices instead (see _transform);
windows much deeper than this only feed rounding noise into the
transform tables.
"""

_ACCEL_CHOICES = ("none", "wynn", "aitken")

_ROW_BLOCK = 16
"""Inner series6 rows formed per numpy call.

Off the band edge an inner sum typically stops after 17 to 128 values
of j, so a block of 16 forms at most 15 rows past the stop.
"""


def _j_vector(table: IntegralTable, site: int, length: int) -> np.ndarray:
    vec = np.array([table.j_value(p, site) for p in range(length)])
    vec.flags.writeable = False
    return vec


def _safe_order(gamma: float) -> int:
    """Last order whose unscaled moment stays inside the double range.

    Moments grow like (2+gamma)^i; beyond this index the unscaled double
    sum would overflow and the folded form takes over.
    """
    return int(680.0 / math.log(2.0 + gamma))


@dataclass
class _Workspace:
    """Per-evaluation tables: binomials, J vectors and power ladders."""

    params: GreenParams
    depth: int
    j_depth: int

    def __post_init__(self) -> None:
        p = self.params
        self.F = binomial_table(self.depth)
        table = shared_table(self.j_depth + max(p.l, p.m, p.n, 8) + 2)
        self.Jl = _j_vector(table, p.l, self.j_depth + 1)
        self.Jm = _j_vector(table, p.m, self.j_depth + 1)
        self.Jn = _j_vector(table, p.n, self.j_depth + 1)
        # zero-copy views: hankel[a, k] = Jl[a + k] and jm_rev[a, c] =
        # Jm[a + depth - c]; the zero padding gives series5 rows up to
        # a + k = 2 * depth, series6 has j_depth = depth + l_max entries
        padded = np.zeros(max(2 * self.depth + 2, self.Jl.size))
        padded[: self.Jl.size] = self.Jl
        self.hankel = sliding_window_view(padded, self.depth + 1)
        self.jm_rev = sliding_window_view(self.Jm, self.depth + 1)[:, ::-1]
        self.safe_order = _safe_order(p.gamma)
        # term5 reads gamma^k only up to safe_order; deeper powers overflow
        self.gamma_pows = np.power(
            float(p.gamma), np.arange(min(self.depth, self.safe_order) + 1)
        )
        ladder = np.arange(self.depth + 1)
        self.ut_pows = np.power(p.gamma / p.t, ladder)
        self.pow2neg = np.ldexp(1.0, -ladder)
        self.twot_pows = np.power(2.0 / p.t, ladder)

    def _double_sum(self, i: int, upow: np.ndarray, extra_scales=()) -> float:
        """sum_j F[i,j] upow[i-j] Jn[j] * sum_k F[j,k] Jl[i-j+k] Jm[i-k].

        Only the rows j = n, n+2, ..., i (n the site index) are formed:
        J_j(n) vanishes for j < n and for odd j - n, and those zeros are
        exact, so every skipped row would enter the outer sum as w = 0.0
        times a finite row.  Row j reads Jl[i-j+k] as row i-j of the
        Hankel view; for k > j the view reaches past Jl[i] (or into the
        zero padding), where the zero upper half of the binomial table
        annihilates it.  The formed rows land in a zeroed full-length
        vector, so each k sum and the final j sum add the same products
        in the same order as the dense (i+1)^2 form, bit for bit.
        ``extra_scales`` multiply the j rows one factor at a time, which
        lets callers stage power scalings that would under- or overflow
        if fused.
        """
        n = self.params.n
        sl = slice(0, i + 1)
        rows = np.zeros(i + 1)
        if i >= n:
            js = slice(n, i + 1, 2)
            part = self.F[js, sl] * self.hankel[i - n :: -2, sl]
            part *= self.Jm[i::-1]
            rows[js] = part.sum(axis=1)
        for scale in extra_scales:
            rows = rows * scale[sl]
        w = self.F[i, sl] * upow[i::-1] * self.Jn[sl]
        return float((w * rows).sum())

    def moment(self, i: int) -> float:
        return self._double_sum(i, self.gamma_pows) / PI3

    def term5(self, i: int) -> float:
        if i <= self.safe_order:
            return self.moment(i) * self.params.t ** (-1 - i)
        folded = self._double_sum(
            i, self.ut_pows, extra_scales=(self.pow2neg, self.twot_pows)
        )
        return folded / self.params.t / PI3


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


def outer_term_series5(i: int, params: GreenParams) -> float:
    """i-th outer term of the single expansion, without the 1/pi^3 factor."""
    return moment_coefficient(i, params) * PI3 * params.t ** (-1 - i)


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


class _Kahan:
    __slots__ = ("total", "comp")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float) -> float:
        y = x - self.comp
        s = self.total + y
        self.comp = (s - self.total) - y
        self.total = s
        return s


def _scan_series5(params: GreenParams, tol: float, n_max: int) -> _ScanState:
    ws = _workspace(params, n_max)
    ratio = params.band_edge / params.t
    geo = ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    floor_index = (params.l + params.m + params.n + 1) // 2
    state = _ScanState()
    acc = _Kahan()
    seen_nonzero = False
    running = math.inf
    for i in range(n_max):
        term = ws.term5(i)
        state.terms.append(term)
        if term != 0.0:
            seen_nonzero = True
            acc.add(term)
        state.sums.append(acc.total)
        prev = state.terms[i - 1] if i >= 1 else 0.0
        bound = geo * max(term, ratio * prev) if ratio < 1.0 else math.inf
        if seen_nonzero and i >= floor_index:
            running = min(running, bound)
        state.bounds.append(running)
        if running <= tol:
            state.stopped = True
            break
    return state


def _scan_series6(
    params: GreenParams, tol: float, n_max: int, l_max: int
) -> _ScanState:
    ws = _workspace(params, n_max, j_depth=n_max + l_max)
    t, gamma = params.t, params.gamma
    x = gamma / t
    r_out = 2.0 / (t - gamma)
    geo = r_out / (1.0 - r_out) if r_out < 1.0 else math.inf
    state = _ScanState()
    acc = _Kahan()
    seen_row = False
    running = math.inf
    for i in range(n_max):
        if r_out < 1.0:
            tol_inner = max(tol * 0.25 * (1.0 - r_out) * r_out**i, 1e-300)
        else:
            tol_inner = max(tol * 0.25 / n_max, 1e-300)
        jn_i = ws.Jn[i]
        if jn_i == 0.0:
            row_sum, row_err, row_ok = 0.0, 0.0, True
        else:
            row_sum, row_err, row_ok = _series6_row(ws, i, x, tol_inner, l_max)
        state.terms.append(row_sum)
        if row_sum != 0.0:
            seen_row = True
            acc.add(row_sum)
        state.sums.append(acc.total)
        state.inner_errors.append(row_err)
        state.inner_ok = state.inner_ok and row_ok
        prev = state.terms[i - 1] if i >= 1 else 0.0
        bound = geo * max(row_sum, r_out * prev) if r_out < 1.0 else math.inf
        if seen_row and i >= params.n:
            running = min(running, bound)
        state.bounds.append(running)
        if running <= tol * 0.5:
            state.stopped = True
            break
    return state


def _series6_row(
    ws: _Workspace, i: int, x: float, tol_inner: float, l_max: int
) -> tuple[float, float, bool]:
    """One outer row of the double series: adaptive sum over j.

    The inner products sum_k F[i,k] Jl[j+k] Jm[j+i-k] are formed for
    ``_ROW_BLOCK`` values of j at a time from the workspace's sliding
    window of Jl and reversed sliding window of Jm.  Each block row holds
    the same products, in the same order, as the 1-D sum for that j and
    is reduced along its own contiguous axis, so every row value is
    bit-identical to the one-j-at-a-time form; the stop test still runs
    j by j, so at most one block is formed past the stopping j.
    """
    params = ws.params
    base = ws.F[i, : i + 1]
    jl_windows = ws.hankel[:, : i + 1]
    jm_windows = ws.jm_rev[:, ws.depth - i :]
    jn_i = ws.Jn[i]
    scale_i = math.ldexp(1.0, -i)
    c = (2.0 / params.t) ** i  # C(i+j, j) (gamma/t)^j (2/t)^i at j = 0
    pieces: list[float] = []
    prev_piece = 0.0
    seen = False
    bound = math.inf
    ok = False
    j = 0
    while j < l_max:
        if j % _ROW_BLOCK == 0:
            stop = min(j + _ROW_BLOCK, l_max)
            block = base * jl_windows[j:stop] * jm_windows[j:stop]
            block_rows = block.sum(axis=1).tolist()
        row = block_rows[j % _ROW_BLOCK]
        piece = c * (row * scale_i) * jn_i / params.t / PI3
        pieces.append(piece)
        if piece != 0.0:
            seen = True
        ratio = x * (i + j + 2) / (j + 2)
        if ratio < 1.0:
            # binomial ratio governs the tail; the J factors vary slowly
            # and the factor 2 covers their residual growth
            bound = 2.0 * max(piece, ratio * prev_piece) * ratio / (1.0 - ratio)
            if seen and bound <= tol_inner:
                ok = True
                break
        prev_piece = piece
        c *= x * (i + j + 1) / (j + 1)
        j += 1
    return math.fsum(pieces), (bound if math.isfinite(bound) else 0.0), ok


def _doubling_indices(count: int) -> list[int]:
    idx = []
    k = 1
    while (1 << k) - 1 < count:
        idx.append((1 << k) - 1)
        k += 1
    return idx


def _transform(sums: list[float], method: str, source: str) -> tuple[float, float]:
    """Sequence transform tuned for the band-edge tail.

    At t = 2+gamma the partial sums close in like 1/sqrt(i), which the
    transforms cannot accelerate directly (error ratios tend to 1).
    Sampling at doubling indices i = 2^k - 1 turns every i^(-p-1/2) tail
    component into a geometric one in k, exactly the regime where Wynn
    and Aitken converge; away from the edge the subsampled tail decays
    even faster, so the same sampling is used whenever enough terms
    exist, with a short trailing window as the small-run fallback.
    """
    idx = _doubling_indices(len(sums))
    if len(idx) >= 4:
        window = [sums[i] for i in idx]
    else:
        window = list(sums[-ACCEL_WINDOW:])
    seq = PartialSumSequence(window, source_method=source)
    if method == "wynn":
        return wynn_epsilon_with_estimate(seq)
    value = aitken_delta2(seq)
    if len(window) > 3:
        prev = aitken_delta2(PartialSumSequence(window[:-1], source_method=source))
    else:
        prev = window[-1]
    return value, abs(value - prev)


def _finish(
    state: _ScanState,
    params: GreenParams,
    tol: float,
    accel: str,
    method: str,
) -> SeriesEvaluation:
    raw_bound = state.best_bound + math.fsum(state.inner_errors)
    raw_converged = state.stopped and state.inner_ok and raw_bound <= tol
    if accel == "none" or raw_converged or len(state.sums) < 3:
        return SeriesEvaluation(
            value=state.sums[-1],
            terms_used=len(state.terms),
            abs_error_estimate=raw_bound,
            method=method,
            accelerated="none",
            converged=raw_converged,
        )
    value, estimate = _transform(state.sums, accel, method)
    # stability guard: a transform may not wander off the raw sum scale
    if math.isfinite(state.best_bound) and abs(value - state.sums[-1]) > 10.0 * max(
        state.best_bound, 1e-300
    ):
        return SeriesEvaluation(
            value=state.sums[-1],
            terms_used=len(state.terms),
            abs_error_estimate=raw_bound,
            method=method,
            accelerated="none",
            converged=raw_converged,
        )
    return SeriesEvaluation(
        value=value,
        terms_used=len(state.terms),
        abs_error_estimate=estimate,
        method=method,
        accelerated=accel,
        converged=estimate <= tol,
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
    return _finish(state, params, tol, accel, "series5")


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
    if l_max < 1 or l_max > HARD_ORDER_CAP:
        raise ValueError(f"l_max must lie in [1, {HARD_ORDER_CAP}]")
    state = _scan_series6(params, tol, n_max, l_max)
    return _finish(state, params, tol, accel, "series6")


def convergence_rows(
    params: GreenParams,
    tol: float = 1e-10,
    n_max: int = 400,
    method: str = "series5",
    accel: str = "none",
) -> list[dict]:
    """Per-term diagnostics: term, partial sum, tail bound, transform value.

    The accelerated estimate in row i is the transform of the partial
    sums up to i over the same trailing window the evaluators use.
    """
    _validate_series_call(params, tol, n_max, accel)
    if method == "series5":
        state = _scan_series5(params, tol, n_max)
    elif method == "series6":
        state = _scan_series6(params, tol, n_max, n_max)
    else:
        raise ValueError("convergence diagnostics need a series method")
    rows = []
    for i, (term, psum, bound) in enumerate(
        zip(state.terms, state.sums, state.bounds)
    ):
        accel_value: float | None = None
        if accel != "none" and i >= 2:
            accel_value, _ = _transform(state.sums[: i + 1], accel, method)
        rows.append(
            {
                "i": i,
                "term": term,
                "partial_sum": psum,
                "tail_bound": bound if math.isfinite(bound) else None,
                "accelerated_estimate": accel_value,
            }
        )
    return rows
