import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfcc import (
    DomainError,
    GreenParams,
    QuadratureSpec,
    convergence_rows,
    evaluate_series5,
    evaluate_series6,
    green_by_quadrature,
    moment_coefficient,
)
from greenfcc import basic_integrals, green_series
from greenfcc.basic_integrals import IntegralTable
from greenfcc.green_series import (
    HARD_ORDER_CAP,
    _COL_TILE,
    _ROW_GROUP,
    _ROW_TILE,
    _Workspace,
    _depth,
    _factorial_scales,
    _finish,
    _nu_table,
    _safe_order,
    _scan,
    _series6_r,
    _series6_rows,
    _site_tables,
)
from walk_oracle import walk_moment

PI3 = math.pi**3


@lru_cache(maxsize=1)
def _float_binomials():
    """C(a, b) for 0 <= b <= a <= HARD_ORDER_CAP, each rounded once from the exact integer."""
    table = np.zeros((HARD_ORDER_CAP + 1, HARD_ORDER_CAP + 1))
    row = [1]
    for a in range(HARD_ORDER_CAP + 1):
        table[a, : a + 1] = [float(v) for v in row]
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
    return table


def _nu_workspace(params, depth, j_depth=None):
    """A workspace and its nu table of every order up to ``depth``."""
    ws = _Workspace(params, depth if j_depth is None else j_depth)
    return ws, _nu_table(ws, depth + 1)


def _terms(params, count, method="series5", **kwargs):
    """The first ``count`` terms of a scan that does not stop before them."""
    rows, _ = convergence_rows(params, tol=1e-300, n_max=count, method=method, **kwargs)
    return [row["term"] for row in rows]


def _gather_nu(ws, i):
    """nu_i from the dense (i+1)^2 Toeplitz-gather rows (reference).

    Every row is gathered, with float binomials C(j, k) rounded from the
    exact integers; the rows j = n, n+2, ..., i, the only ones J_j(n)
    does not zero, are then reduced against their weights by one dot
    product.
    """
    F, Jl, Jm = _float_binomials(), ws.Jl, ws.Jm
    sl = slice(0, i + 1)
    a = np.arange(i + 1)
    idx = np.clip(a[None, :] - a[:, None] + i, 0, i)
    rows = (F[sl, sl] * Jl[idx] * Jm[i::-1][None, :]).sum(axis=1)
    s = ws.params.band_edge
    gs_pows = np.power(ws.params.gamma / s, a)
    jn_scaled = np.power(2.0 / s, a) * ws.Jn[: i + 1]
    j = a[ws.params.n :: 2]
    w = F[i, j] * np.ldexp(1.0, -j) * gs_pows[i - j] * jn_scaled[j]
    return float(np.dot(w, rows[j])) / PI3


def _exact_nu(i, site, gamma):
    """nu_i as an exact rational, with J_p(q)/pi = C(p, (p-q)/2) / 2^p.

    With gamma = a/b and s = 2+gamma the powers of 2 and pi cancel:
    nu_i = sum_j C(i,j) a^(i-j) b^j c_n(j) sum_k C(j,k) c_l(i-j+k) c_m(i-k)
    over ((2b+a)^i 4^i), c_q(p) = C(p, (p-q)/2) for p >= q of q's parity.
    """
    a, b = Fraction(gamma).as_integer_ratio()
    l, m, n = site

    def c(p, q):
        return math.comb(p, (p - q) // 2) if p >= q and (p - q) % 2 == 0 else 0

    total = 0
    for j in range(n, i + 1, 2):
        inner = sum(math.comb(j, k) * c(i - j + k, l) * c(i - k, m) for k in range(j + 1))
        total += math.comb(i, j) * a ** (i - j) * b**j * c(j, n) * inner
    return Fraction(total, (2 * b + a) ** i * 4**i)


def _exact_series6_row(ws, i, x, l_max):
    """The sum over j < l_max of one series6 row, as an exact rational.

    Exact binomials C(i, k) and C(i+j, j) over the float inputs: the J
    vectors, x, 2/t, t and pi^3 as the code rounds them.
    """
    return sum(_exact_series6_pieces(ws, i, x, l_max), Fraction(0))


def _series6_row(ws, i, tol_inner, l_max):
    """Row i of series6 as the scan forms it, (value, error, ok), on l_max pieces.

    The row is read from column i of the R block that holds it, as
    ``_scan_series6`` reads it; rows whose J_i(n) is zero are 0.0.
    """
    if ws.Jn[i] == 0.0:
        return 0.0, 0.0, True
    c = (i - ws.params.n) // 2
    c_block = c - c % _COL_TILE
    R = _series6_r(ws, c_block, _COL_TILE, l_max)[c - c_block : c - c_block + 1]
    (row,) = _series6_rows(ws, c, [tol_inner], R)
    return row


def _series6_row_per_j(ws, i, tol_inner, l_max):
    """The one-j-at-a-time form of the series6 inner sum (reference).

    Its binomials are the code's own, E[k] E[i-k] G[i] = C(i,k) 2^-i,
    and its ladder the same product in the same order; only the inner
    sums over k are formed one j at a time.  Returns (value, bound, ok,
    number of pieces).
    """
    x = ws.params.gamma / ws.params.t
    base = ws.E[: i + 1] * ws.E[i::-1]
    c = (2.0 / ws.params.t) ** i
    pieces, prev_piece, seen, bound, ok = [], 0.0, False, math.inf, False
    for j in range(l_max):
        row = float((base * ws.Jl[j : j + i + 1] * ws.Jm[j : j + i + 1][::-1]).sum())
        piece = c * (row * ws.G[i]) * ws.Jn[i] / ws.params.t / PI3
        pieces.append(piece)
        seen = seen or piece != 0.0
        ratio = x * (i + j + 2) / (j + 2)
        if ratio < 1.0:
            bound = 2.0 * max(piece, ratio * prev_piece) * ratio / (1.0 - ratio)
            if seen and bound <= tol_inner:
                ok = True
                break
        prev_piece = piece
        c *= x * (i + j + 1) / (j + 1)
    return math.fsum(pieces), bound, ok, len(pieces)


def _exact_series6_pieces(ws, i, x, count):
    """The first ``count`` pieces of series6 row i, each an exact rational (see below)."""
    p = ws.params
    scale = Fraction(2.0 / p.t) ** i / 2**i * Fraction(ws.Jn[i]) / Fraction(p.t) / Fraction(PI3)
    pieces = []
    for j in range(count):
        inner = sum(
            math.comb(i, k) * Fraction(ws.Jl[j + k]) * Fraction(ws.Jm[j + i - k])
            for k in range(i + 1)
        )
        pieces.append(math.comb(i + j, j) * Fraction(x) ** j * inner * scale)
    return pieces


def _lgamma_series6_row(ws, i, l_max):
    """One series6 row over j < l_max, its ladder taken from math.lgamma.

    The ladder C(i+j, j) x^j (2/t)^i is exp of a sum of logarithms, so
    it has no subnormal start; the products sum_k E[k] E[i-k] Jl Jm are
    the code's own.  The logarithms reach about 1e4, so each ladder
    value carries a relative error of about 1e-12.
    """
    p = ws.params
    x = p.gamma / p.t
    base = ws.E[: i + 1] * ws.E[i::-1]
    terms = []
    for j in range(l_max):
        row = float((base * ws.Jl[j : j + i + 1] * ws.Jm[j : j + i + 1][::-1]).sum())
        log_c = (
            math.lgamma(i + j + 1) - math.lgamma(i + 1) - math.lgamma(j + 1)
            + j * math.log(x) + i * math.log(2.0 / p.t)
        )
        terms.append(math.exp(log_c) * (row * float(ws.G[i])) * float(ws.Jn[i]) / p.t / PI3)
    return math.fsum(terms)


class TestGreenParams:
    def test_parity_message(self):
        with pytest.raises(DomainError, match="l\\+m\\+n must be even"):
            GreenParams(t=4.0, l=1, m=1, n=1)

    def test_negative_site_rejected(self):
        with pytest.raises(DomainError):
            GreenParams(t=4.0, l=-2, m=0, n=0)

    def test_gamma_positive(self):
        with pytest.raises(DomainError):
            GreenParams(t=4.0, gamma=0.0)

    def test_band_edge(self):
        assert GreenParams(t=5.0, gamma=0.5).band_edge == 2.5

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"t": math.inf}, "t must be finite"),
            ({"t": math.inf, "gamma": math.inf}, "gamma must be finite"),
            ({"t": 4.0, "gamma": math.inf}, "gamma must be finite"),
        ],
    )
    def test_non_finite_rejected(self, kwargs, message):
        # t = inf used to give quadrature a "converged" 0.0 with estimate 0.0
        with pytest.raises(DomainError, match=message):
            GreenParams(**kwargs)


class TestMomentCoefficient:
    def test_trivial_moments(self):
        p = GreenParams(t=4.0, gamma=1.0)
        assert moment_coefficient(0, p) == 1.0
        assert moment_coefficient(1, p) == 0.0
        assert moment_coefficient(2, p) == pytest.approx(0.75, abs=1e-15)
        assert moment_coefficient(3, p) == pytest.approx(0.75, abs=1e-15)

    def test_against_walk_enumeration(self):
        # the walk oracle is a from-scratch route to the same numbers
        for gamma in (Fraction(1), Fraction(1, 2), Fraction(2)):
            for site in [(0, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 1)]:
                p = GreenParams(t=4.0, gamma=float(gamma), l=site[0], m=site[1], n=site[2])
                for i in range(7):
                    expected = float(walk_moment(i, site, gamma))
                    got = moment_coefficient(i, p)
                    assert got == pytest.approx(expected, abs=1e-12), (gamma, site, i)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            moment_coefficient(1001, GreenParams(t=4.0))

    def test_orders_past_double_range_rejected(self):
        # moments grow like 3^i at gamma = 1; order 618 is the last that fits
        p = GreenParams(t=4.0, gamma=1.0)
        assert math.isfinite(moment_coefficient(618, p))
        with pytest.raises(ValueError, match="exceeds 618"):
            moment_coefficient(619, p)
        with pytest.raises(ValueError):
            moment_coefficient(999, p)


class TestStridedLoops:
    """The hot loops against independent reference forms."""

    SITES = [(0, 0, 0), (2, 0, 0), (2, 1, 1), (3, 3, 2), (5, 0, 1), (1, 1, 4)]
    EPS = Fraction(2.0**-52)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 7.0])
    def test_nu_matches_exact_moments(self, gamma):
        # all summands are >= 0, so the rounding is at most a relative
        # (i+1) eps, and an exact zero must come out as 0.0
        safe = _safe_order(gamma)
        deep_orders = [safe - 1, safe, safe + 1, safe + 2]
        # the table's tiles first reach order i = 2 s2 + c + h at multiples
        # of this step past h = (l+m+n)/2
        step = math.gcd(2 * _ROW_TILE, _COL_TILE)
        for site in self.SITES:
            h = sum(site) // 2
            edges = [h + k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)]
            exact_orders = [0, 1, 2, 3, 6, 7, 40, 41, 200, 201, *edges]
            p = GreenParams(t=2.0 + gamma + 0.01, gamma=gamma, l=site[0], m=site[1], n=site[2])
            ws, nus = _nu_workspace(p, safe + 2)
            terms = _terms(p, safe + 3)
            s, r = p.band_edge, p.band_edge / p.t
            for i in exact_orders + deep_orders:
                nu = float(nus[i])
                if i in exact_orders:
                    want = _exact_nu(i, site, gamma)
                    assert abs(Fraction(nu) - want) <= (i + 1) * self.EPS * want, (site, i)
                else:
                    gather = Fraction(_gather_nu(ws, i))
                    assert abs(Fraction(nu) - gather) <= 2 * (i + 1) * self.EPS * gather, (site, i)
                assert terms[i] == nu * r**i / p.t, (site, i)
                if i <= safe:
                    assert moment_coefficient(i, p) == nu * s**i, (site, i)

    def test_factorial_scales_correctly_rounded(self):
        E, G = _factorial_scales()
        assert E.size == G.size == HARD_ORDER_CAP + 1
        for k in range(HARD_ORDER_CAP + 1):
            assert E[k] == float(Fraction(256**k, math.factorial(k))), k
            assert G[k] == float(Fraction(math.factorial(k), 2 ** (9 * k))), k
        for arr in (E, G):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 7.0])
    def test_deepest_orders(self, gamma):
        # nu_i and a series6 row at the order cap, where the scaled
        # factorials reach their extremes: finite, >= 0, exactly 0 where
        # parity zeroes them, and within 2(i+1) eps of the references
        # (an overflow would raise: RuntimeWarning is an error here).
        # Below the normal range only an absolute 2^-1022 holds: at
        # gamma = 7 the series6 row starts from (2/t)^1000, about 1e-653.
        l_max = 4
        tiny = Fraction(sys.float_info.min)
        for site in [(0, 0, 0), (24, 0, 0)]:
            p = GreenParams(t=2.0 + gamma + 0.01, gamma=gamma, l=site[0], m=site[1], n=site[2])
            ws, nus = _nu_workspace(p, HARD_ORDER_CAP, j_depth=HARD_ORDER_CAP + l_max)
            x = p.gamma / p.t
            for i in (HARD_ORDER_CAP - 1, HARD_ORDER_CAP):
                got_nu = float(nus[i])
                got_row = _series6_row(ws, i, 0.0, l_max)[0]
                want_nu = Fraction(_gather_nu(ws, i))
                want_row = _exact_series6_row(ws, i, x, l_max)
                for got, want in ((got_nu, want_nu), (got_row, want_row)):
                    assert math.isfinite(got) and got >= 0.0, (site, i)
                    assert want != 0 or got == 0.0, (site, i)
                    bound = 2 * (i + 1) * self.EPS * want + tiny
                    assert abs(Fraction(got) - want) <= bound, (site, i)

    @pytest.mark.parametrize("site", [(0, 0, 0), (2, 1, 1), (3, 3, 2)])
    def test_series6_row_matches_exact_binomials(self, site):
        # every summand is >= 0, so the inner sum rounds by at most a
        # relative (i/2 + 4) eps, its E and G roundings included; the
        # ladder C(i+j, j) x^j adds 1.5 eps a step, and pow, the last
        # products and fsum 4 eps more; an exact zero must come out as 0.0
        p = GreenParams(t=4.5, gamma=1.5, l=site[0], m=site[1], n=site[2])
        n_max, l_max = 60, 6
        ws = _Workspace(p, n_max + l_max)
        x = p.gamma / p.t
        for i in (0, 1, 2, 7, 30, 31, 59):
            got = Fraction(_series6_row(ws, i, 0.0, l_max)[0])
            want = _exact_series6_row(ws, i, x, l_max)
            assert abs(got - want) <= (i + 1 + 2 * l_max + 6) * self.EPS * want, (i, l_max)

    @pytest.mark.parametrize("site", [(0, 0, 0), (2, 1, 1), (3, 3, 2)])
    def test_series6_blocks_match_per_j_sums(self, site):
        # rows read from the R blocks against the one-j-at-a-time sums:
        # the same stop, bound and flag, and a value within the exact
        # rational bound of test_series6_row_matches_exact_binomials over
        # the pieces the row summed.  Rows 66-68 lie in the second column
        # block, l_max on either side of a tile's and a group's width;
        # tol_inner = 0 never stops early, so the bound is
        # built from the last pieces themselves.  At t = 2 gamma = 6 the
        # ratio is exactly 1 at j = i - 2, where a bound would divide by
        # zero (a RuntimeWarning is an error here).  The BLAS products sum
        # the inner sums in another order, so values and bounds agree to
        # rounding, not bit for bit.
        for t, gamma in ((4.5, 1.5), (6.0, 3.0)):
            p = GreenParams(t=t, gamma=gamma, l=site[0], m=site[1], n=site[2])
            n_max, l_max_top = 80, 60
            ws = _Workspace(p, n_max + l_max_top)
            x = p.gamma / p.t
            for i in (0, 1, 2, 4, 9, 29, 30, 31, 32, 33, 34, 35, 66, 67, 68):
                if ws.Jn[i] == 0.0:
                    continue
                exact = _exact_series6_pieces(ws, i, x, l_max_top)
                for l_max in (1, 2, 15, 16, 17, 31, 32, 33, l_max_top):
                    for tol_inner in (0.0, 1e-13):
                        value, bound, ok = _series6_row(ws, i, tol_inner, l_max)
                        want = _series6_row_per_j(ws, i, tol_inner, l_max)
                        assert ok == want[2], (t, i, l_max, tol_inner)
                        assert bound == pytest.approx(want[1], rel=1e-13), (t, i, l_max)
                        count = want[3]
                        exact_sum = sum(exact[:count], Fraction(0))
                        slack = (i + 1 + 2 * count + 6) * self.EPS * exact_sum
                        assert abs(Fraction(value) - exact_sum) <= slack, (t, i, l_max)

    def test_series6_scan_matches_per_j_rows(self, monkeypatch):
        # whole scans against scans over the one-j-at-a-time rows: every
        # distinct (t, gamma) of the bench's off-edge pool, t = 2 gamma = 6
        # where the ratio reaches exactly 1, short and open inner sums
        # (l_max 1, 17, 50) and a transform.  Every stop, and so every
        # terms_used, converged and accelerated, must match; the values
        # differ only by the rounding of the inner sums
        points = [
            (3.0, 0.5), (3.5, 0.5), (3.5, 1.0), (4.0, 1.0), (4.5, 2.0),
            (5.0, 0.5), (5.0, 2.0), (5.5, 1.0), (6.5, 2.0), (7.5, 0.5),
            (8.0, 1.0), (9.0, 2.0), (12.0, 0.5), (12.0, 1.0), (12.0, 2.0),
            (6.0, 3.0),
        ]
        kwargs = [{}, {"l_max": 1}, {"l_max": 17}, {"l_max": 50}, {"accel": "wynn"}]
        calls = []
        for t, gamma in points:
            for site in [(0, 0, 0), (2, 1, 1), (3, 3, 2)]:
                p = GreenParams(t=t, gamma=gamma, l=site[0], m=site[1], n=site[2])
                calls += [(p, kw) for kw in kwargs]
        blocked = [evaluate_series6(p, tol=1e-11, **kw) for p, kw in calls]

        def per_j_rows(ws, c0, tols, R):
            qs = range(ws.params.n + 2 * c0, ws.params.n + 2 * (c0 + len(tols)), 2)
            return [_series6_row_per_j(ws, q, tol, R.shape[1])[:3] for q, tol in zip(qs, tols)]

        monkeypatch.setattr(green_series, "_series6_rows", per_j_rows)
        per_j = [evaluate_series6(p, tol=1e-11, **kw) for p, kw in calls]
        for (p, kw), got, want in zip(calls, blocked, per_j):
            assert got.terms_used == want.terms_used, (p, kw)
            assert got.converged == want.converged, (p, kw)
            assert got.accelerated == want.accelerated, (p, kw)
            assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0), (p, kw)

    def test_series6_rows_past_the_subnormal_ladder_start(self):
        # at gamma = 7, t = 9.01 the ladder's start (2/t)^i leaves the
        # normal range near i = 471 and is 0.0 from i = 496, while the
        # rows are normal numbers near 1e-28: no row may come out 0.0,
        # and the scan may not stop on two zero terms near row 497.  From
        # row 510 the ladder over j < 1000 without its start passes 1e308,
        # so rows 520 and 600 also need the renormalised mantissa
        p = GreenParams(t=9.01, gamma=7.0)
        l_max = 1000
        ws = _Workspace(p, HARD_ORDER_CAP + l_max)
        for i in (470, 494, 496, 500, 520, 600):
            got = _series6_row(ws, i, 1e-300, l_max)[0]
            want = _lgamma_series6_row(ws, i, l_max)
            assert math.isfinite(got) and got > 0.0, i
            assert abs(got - want) <= 1e-10 * want, i
        rows, _ = convergence_rows(p, tol=1e-300, n_max=510, method="series6", l_max=l_max)
        assert len(rows) == 510
        assert all(row["term"] > 0.0 for row in rows[::2])


class TestSeries6Blocks:
    """Series6 rows read by column from the R blocks, a group at a time."""

    SITES = [(0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0)]

    def _spy_rows(self, monkeypatch) -> list:
        """Record (c0, width, per-row stops) of every group formed."""
        formed = []

        def spy(ws, c0, tols, R):
            rows = _series6_rows(ws, c0, tols, R)
            formed.append((c0, R.shape[1], [ok for _, _, ok in rows]))
            return rows

        monkeypatch.setattr(green_series, "_series6_rows", spy)
        return formed

    def _grid(self):
        for gamma in (0.5, 1.0, 2.0, 7.0):
            for offset in (0.01, 0.5, 2.0, 5.0, 20.0):
                for l, m, n in self.SITES + [(40, 0, 0), (6, 4, 2), (0, 0, 12)]:
                    yield GreenParams(t=2.0 + gamma + offset, gamma=gamma, l=l, m=m, n=n)

    def test_every_row_below_l_max_stops(self, monkeypatch):
        # a group is formed once, to the envelope width of its last row:
        # every row formed below l_max must stop inside that width
        formed = self._spy_rows(monkeypatch)
        below = 0
        for p in self._grid():
            formed.clear()
            evaluate_series6(p)
            for c0, width, oks in formed:
                if width < 400:
                    assert all(oks), (p, c0, width)
                    below += 1
        assert below > 0

    def test_cut_envelope_never_claims_convergence(self, monkeypatch):
        # an envelope cut to a quarter of its width leaves rows that have
        # not stopped; they report so, and no result that read one claims
        # convergence.  The near sites all read one; the far sites stop
        # after their first nonzero row (ROADMAP item 1), whose width is
        # set by the first p where R(p, q) can be nonzero
        formed = self._spy_rows(monkeypatch)
        envelope = green_series._envelope_count
        monkeypatch.setattr(
            green_series, "_envelope_count", lambda *args: max(1, envelope(*args) // 4)
        )
        cut = 0
        for gamma in (0.5, 2.0, 7.0):
            for offset in (0.01, 0.5, 5.0):
                for l, m, n in self.SITES:
                    p = GreenParams(t=2.0 + gamma + offset, gamma=gamma, l=l, m=m, n=n)
                    formed.clear()
                    ev = evaluate_series6(p)
                    read = [
                        ok
                        for c0, _, oks in formed
                        for c, ok in enumerate(oks, c0)
                        if n + 2 * c < ev.terms_used
                    ]
                    assert not ev.converged or all(read), p
                    if max(l, m, n) < 12:
                        assert not all(read) and not ev.converged, p
                    cut += not all(read)
        assert cut > 0

    def test_each_group_formed_once(self, monkeypatch):
        # the width covers the pieces that are 0 until p reaches the site
        # and the envelope from there on, so no group is formed twice;
        # at (24, 0, 0), gamma = 0.5, t = 7.5 the first group used to run
        # at width 19 and again at 38
        formed = self._spy_rows(monkeypatch)
        for p in self._grid():
            formed.clear()
            evaluate_series6(p)
            starts = [c0 for c0, *_ in formed]
            assert len(starts) == len(set(starts)), p

    @pytest.mark.parametrize("t, gamma, site", [(3.01, 1.0, (2, 1, 1)), (4.5, 2.0, (3, 3, 2))])
    def test_rows_past_the_first_blocks(self, t, gamma, site):
        # the scan forms row groups and R blocks as it reaches them: every
        # row whose J_i(n) is nonzero is a positive number, in the first
        # block or past it, and equals the row read alone from its block
        p = GreenParams(t=t, gamma=gamma, l=site[0], m=site[1], n=site[2])
        n_max = 3 * 2 * _COL_TILE + 8
        rows, _ = convergence_rows(p, tol=1e-300, n_max=n_max, method="series6")
        assert len(rows) == n_max
        ws = _Workspace(p, n_max + 400)
        for i, row in enumerate(rows):
            if ws.Jn[i] == 0.0:
                assert row["term"] == 0.0, i
                continue
            assert row["term"] > 0.0, i
            if (i - p.n) // 2 % _ROW_GROUP in (0, _ROW_GROUP - 1):
                alone = _series6_row(ws, i, 1e-300, 400)[0]  # the scan's tol_inner here
                assert row["term"] == pytest.approx(alone, rel=1e-14), i

    def test_deepest_call_stays_small(self):
        # one R block and one row group at a time; per-row chunks of the
        # inner sums peaked at 0.61 MB here
        p = GreenParams(t=9.01, gamma=7.0, l=2, m=1, n=1)
        evaluate_series6(p, l_max=1000)
        tracemalloc.start()
        try:
            evaluate_series6(p, l_max=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


class TestNuTable:
    """One table of nu per call, from tiled matrix products."""

    SITES = [(0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0), (1, 1, 4)]

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 7.0])
    def test_shorter_table_is_a_prefix(self, gamma):
        # no sum depends on the table's length, so eval, sweep, compare and
        # moment_coefficient read the same nu_i whatever table they build,
        # also at the orders where the tiles' first order falls
        step = math.gcd(2 * _ROW_TILE, _COL_TILE)
        for site in self.SITES:
            p = GreenParams(t=3.0 + gamma, gamma=gamma, l=site[0], m=site[1], n=site[2])
            full = _nu_table(_Workspace(p, HARD_ORDER_CAP), HARD_ORDER_CAP + 1)
            h = sum(site) // 2
            for count in (1, 2, 17, h + step - 1, h + step, h + step + 1, 145, 146, 400, 401):
                part = _nu_table(_Workspace(p, count), count)
                assert np.array_equal(part, full[:count]), (site, count)
            edges = [h + k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)]
            for i in [*edges, _safe_order(gamma)]:
                assert moment_coefficient(i, p) == full[i] * p.band_edge**i, (site, i)

    def test_order_past_the_table_raises(self, monkeypatch):
        # a depth too small for the scan must fail, not rebuild the table:
        # the rows end before n_max while the scan runs on
        p = GreenParams(t=3.2, gamma=1.0, l=2, m=1, n=1)
        ws = _Workspace(p, 300)
        assert _nu_table(ws, 40)[39] == _nu_table(ws, 301)[39]
        monkeypatch.setattr(green_series, "_depth", lambda *args: 40)
        for evaluate in (evaluate_series5, evaluate_series6):
            with pytest.raises(IndexError):
                evaluate(p, tol=1e-300, n_max=300)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 7.0])
    def test_scan_stops_inside_the_table(self, gamma):
        # the scan builds nu only to _depth; it must never read past it
        for offset in (1e-3, 0.1, 1.0, 10.0, 1e6):
            for tol in (1e-5, 1e-11, 1e-14):
                for l, m, n in [(0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0)]:
                    p = GreenParams(t=2.0 + gamma + offset, gamma=gamma, l=l, m=m, n=n)
                    ev = evaluate_series5(p, tol=tol)
                    depth = _depth(p, p.band_edge / p.t, p.t, tol, 400)
                    assert ev.terms_used <= depth, (offset, tol, l, m, n)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 7.0])
    @pytest.mark.parametrize("l_max", [17, 400])
    def test_series6_scan_stops_inside_its_depth(self, gamma, l_max):
        # series6 forms its rows only to _depth at r6 = 2/(t - gamma); at
        # t - edge = 1e6 the floor l+m+n sets that depth
        for offset in (1e-3, 0.1, 1.0, 10.0, 1e6):
            for tol in (1e-5, 1e-11, 1e-14):
                for l, m, n in [(0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0)]:
                    p = GreenParams(t=2.0 + gamma + offset, gamma=gamma, l=l, m=m, n=n)
                    ev = evaluate_series6(p, tol=tol, l_max=l_max)
                    gap = p.t - p.gamma
                    depth = _depth(p, 2.0 / gap, gap, tol / 2, 400)
                    assert ev.terms_used <= depth, (offset, tol, l, m, n)

    @pytest.mark.parametrize("t, gamma", [(3.01, 1.0), (4.5, 2.0), (6.0, 3.0), (9.01, 7.0), (12.0, 0.5)])
    def test_series6_rows_within_their_bound(self, t, gamma):
        # _depth's premise for series6: row q <= r6^q / (t - gamma)
        for l, m, n in [(0, 0, 0), (2, 1, 1), (3, 3, 2), (24, 0, 0)]:
            p = GreenParams(t=t, gamma=gamma, l=l, m=m, n=n)
            gap = p.t - p.gamma
            for q, term in enumerate(_terms(p, 120, method="series6")):
                assert term <= (2.0 / gap) ** q / gap, (l, m, n, q)

    @pytest.mark.parametrize("method", ["series5", "series6"])
    def test_terms_below_the_double_range(self, method):
        # at t = 1e300 every term of (2, 0, 0) is 0.0, so the bound never
        # starts: the scan ends unstopped at its depth instead of raising
        p = GreenParams(t=1e300, l=2)
        rows, ev = convergence_rows(p, method=method)
        assert [row["term"] for row in rows] == [0.0] * ev.terms_used
        assert ev.value == 0.0 and ev.abs_error_estimate == math.inf
        assert not ev.converged

    def test_deepest_call_stays_small(self):
        # the tiles keep every temporary near 2^16 doubles; an untiled
        # table of 1000 orders peaked at 13.7 MB
        p = GreenParams(t=3.0)
        evaluate_series5(p, n_max=1000, accel="wynn")
        tracemalloc.start()
        try:
            evaluate_series5(p, n_max=1000, accel="wynn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


class TestSiteTableCache:
    """One process-wide set of site tables serves every t and gamma."""

    VIEWS = ("Jl", "Jm", "Jn")

    def test_same_key_shares_arrays(self):
        a = _Workspace(GreenParams(t=4.0, gamma=1.0, l=2, m=1, n=1), 60)
        b = _Workspace(GreenParams(t=5.5, gamma=2.0, l=2, m=1, n=1), 60)
        for name in self.VIEWS:
            assert getattr(a, name) is getattr(b, name), name
        c = _Workspace(GreenParams(t=4.0, gamma=1.0, l=2, m=1, n=1), 90)
        assert c.Jl is not a.Jl

    def test_cached_tables_read_only(self):
        ws = _Workspace(GreenParams(t=4.0, l=3, m=3, n=2), 80)
        for name in self.VIEWS:
            arr = getattr(ws, name)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
            # every array a view is built on is read-only too
            while arr is not None:
                if isinstance(arr, np.ndarray):
                    assert not arr.flags.writeable, name
                arr = getattr(arr, "base", None)

    @pytest.mark.parametrize("site", [(2, 1, 1), (3, 1, 0), (2, 2, 0), (4, 2, 2)])
    def test_cold_and_warm_results_identical(self, site):
        p = GreenParams(t=3.4, gamma=1.3, l=site[0], m=site[1], n=site[2])
        edge = GreenParams(t=3.3, gamma=1.3, l=site[0], m=site[1], n=site[2])

        def results():
            return (
                evaluate_series5(p, tol=1e-13),
                evaluate_series5(edge, n_max=150, accel="wynn"),
                evaluate_series6(p, tol=1e-13, n_max=80, l_max=60),
            )

        _site_tables.cache_clear()
        cold = results()
        hits = _site_tables.cache_info().hits
        assert results() == cold
        assert _site_tables.cache_info().hits > hits

    def test_deep_terms_cold_and_warm(self):
        # n_max = 1000 runs past order 618, the last whose moment fits a
        # double at gamma = 1; the terms nu_i r^i / t go on regardless
        p = GreenParams(t=3.0, gamma=1.0, l=2, m=0, n=0)
        _site_tables.cache_clear()
        cold = evaluate_series5(p, n_max=1000, accel="aitken")
        assert cold.terms_used == 1000
        assert evaluate_series5(p, n_max=1000, accel="aitken") == cold

    def test_series6_past_the_order_cap(self):
        # the J vectors of series6 reach n_max + l_max = 1100, beyond the
        # hard order cap
        p = GreenParams(t=3.6, gamma=1.0, l=2, m=2, n=0)
        _site_tables.cache_clear()
        cold = evaluate_series6(p, n_max=600, l_max=500)
        assert _Workspace(p, 1100).Jl.size == 1101
        assert evaluate_series6(p, n_max=600, l_max=500) == cold
        assert cold.converged

    def test_cache_is_bounded(self):
        maxsize = _site_tables.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


class TestOuterTerm:
    """The i-th series5 term, nu_i r^i / t = moment_coefficient(i) t^(-1-i).

    nu_i is the i-th moment over (2+gamma)^i and r = (2+gamma)/t.
    """

    def test_leading_term_is_one_over_t(self):
        p = GreenParams(t=4.0)
        assert _terms(p, 1)[0] == pytest.approx(1 / 4.0, rel=1e-15)

    def test_leading_term_off_origin_vanishes(self):
        p = GreenParams(t=4.0, l=2, m=0, n=0)
        assert _terms(p, 1)[0] == 0.0

    def test_second_moment_term(self):
        p = GreenParams(t=4.0, gamma=1.0)
        want = 0.75 * 4.0 ** (-3)
        assert _terms(p, 3)[2] == pytest.approx(want, rel=1e-14)

    @given(
        st.integers(0, 12),
        st.floats(min_value=0.1, max_value=3.0),
        st.sampled_from([(0, 0, 0), (2, 0, 0), (1, 1, 0), (2, 2, 0)]),
    )
    @settings(max_examples=120, deadline=None)
    def test_terms_non_negative(self, i, gamma, site):
        p = GreenParams(t=4.0, gamma=gamma, l=site[0], m=site[1], n=site[2])
        assert moment_coefficient(i, p) >= 0.0


class TestMomentEnvelope:
    """The origin's even normalized moments bound every site's.

    With |w| <= 2+gamma and |cos| <= 1, |nu_i(site)| <= nu_(2 floor(i/2))
    at the origin, and the even origin moments never increase.  A
    certified tail bound for series5 can rest on both.
    """

    SITES = [(2, 0, 0), (2, 1, 1), (2, 2, 0), (4, 2, 0), (3, 3, 2), (12, 12, 0), (24, 0, 0), (9, 8, 1)]
    DEPTH = 400

    def _nu_table(self, gamma, site):
        p = GreenParams(t=2.0 + gamma, gamma=gamma, l=site[0], m=site[1], n=site[2])
        return _nu_workspace(p, self.DEPTH)[1]

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 7.0])
    def test_origin_bounds_every_site(self, gamma):
        even = self._nu_table(gamma, (0, 0, 0))[::2]
        assert np.all(np.diff(even) <= 0.0)
        envelope = np.repeat(even, 2)[: self.DEPTH + 1]
        for site in self.SITES:
            nu = self._nu_table(gamma, site)
            assert np.all(np.abs(nu) <= envelope), site


def _rows(terms, errors=None, oks=None):
    """Rows over fixed terms, inner errors and inner flags."""
    return zip(terms, errors or [0.0] * len(terms), oks or [True] * len(terms))


class TestZeroTermsBeforeTheSite:
    """Both series' terms are exactly 0.0 until the first walk reaches the site.

    Every summand is >= 0, so a term is 0.0 unless a walk of its order
    reaches (l, m, n).  For series5 that order is max((l+m+n)/2, l, m, n),
    at least (l+m+n+1)//2; for series6 no row before n can reach the
    site.  So the scan's first nonzero term never comes before either
    index, and it needs no floor of its own.
    """

    SITES = [(0, 0, 0), (2, 1, 1), (9, 8, 1), (12, 12, 0), (24, 0, 0)]

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 7.0])
    @pytest.mark.parametrize("site", SITES)
    def test_first_nonzero_term(self, site, gamma):
        l, m, n = site
        p = GreenParams(t=3.0 + gamma, gamma=gamma, l=l, m=m, n=n)
        first = max((l + m + n) // 2, l, m, n)
        assert first >= (l + m + n + 1) // 2
        rows, _ = convergence_rows(p, method="series5")
        terms = [row["term"] for row in rows]
        assert terms[:first] == [0.0] * first
        assert terms[first] > 0.0
        rows, _ = convergence_rows(p, method="series6")
        assert len(rows) > n
        assert [row["term"] for row in rows[:n]] == [0.0] * n


class TestScan:
    """The summation loop of both series, on synthetic rows."""

    def test_zero_terms_before_the_floor_never_stop_it(self):
        # at ratio 1/2 the bound after a zero that follows a zero is
        # 0.0, but before the first nonzero term no bound counts
        state = _scan(_rows([0.0] * 6), 0.5, 0.0, 6)
        assert not state.stopped and state.bounds == [math.inf] * 6

    def test_stops_at_the_first_bound_within_tol(self):
        terms = [2.0**-i for i in range(20)]
        state = _scan(_rows(terms), 0.5, 2.0**-5, len(terms))
        # the bound after term i is max(2^-i, 2^-1 * 2^-(i-1)) = 2^-i
        assert state.bounds == [2.0**-i for i in range(6)]
        assert state.stopped and len(state.terms) == 6
        assert state.sums[-1] == 2.0 - 2.0**-5

    def test_inner_errors_and_flags_are_combined(self):
        terms = [1.0, 0.5, 0.25]
        errors = [1e-3, 2e-3, 4e-3]
        state = _scan(_rows(terms, errors, [True, False, True]), 0.5, 0.0, 3)
        assert state.inner_errors == errors
        assert not state.inner_ok
        ev = _finish(state, 1.0, "none", "series6")
        assert ev.abs_error_estimate == state.best_bound + math.fsum(errors)
        assert not ev.converged
        state = _scan(_rows(terms, errors, [True] * 3), 0.5, 0.0, 3)
        assert state.inner_ok

    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_ratio_at_or_above_one_never_stops(self, ratio):
        terms = [1e-300 * 0.5**i for i in range(8)]
        state = _scan(_rows(terms), ratio, 1.0, len(terms))
        assert not state.stopped and len(state.terms) == 8
        assert state.bounds == [math.inf] * 8

    def test_rows_ending_early_raise(self):
        # a depth too small: the rows end before n_max, past a nonzero term
        terms = [0.0, 0.0, 1.0, 0.5]
        with pytest.raises(IndexError):
            _scan(_rows(terms), 0.5, 0.0, 10)
        assert len(_scan(_rows(terms), 0.5, 0.0, 4).terms) == 4

    def test_zero_rows_ending_early_end_unstopped(self):
        # every term underflowed to 0.0: no bound exists, and nothing raises
        state = _scan(_rows([0.0] * 4), 0.5, 1.0, 10)
        assert not state.stopped and state.sums == [0.0] * 4
        assert _finish(state, 1.0, "none", "series5").abs_error_estimate == math.inf


class TestEvaluateSeries5:
    def test_domain_below_edge(self):
        with pytest.raises(DomainError):
            evaluate_series5(GreenParams(t=2.9, gamma=1.0))

    def test_band_edge_accepted_but_unconverged(self):
        ev = evaluate_series5(GreenParams(t=3.0, gamma=1.0), n_max=50)
        assert not ev.converged
        assert ev.terms_used == 50

    def test_large_t(self):
        ev = evaluate_series5(GreenParams(t=1e6), tol=1e-9)
        assert ev.converged
        assert ev.value * 1e6 == pytest.approx(1.0, rel=1e-9)

    def test_matches_quadrature(self):
        p = GreenParams(t=4.0, gamma=1.0)
        ev = evaluate_series5(p, tol=1e-10)
        q = green_by_quadrature(p)
        assert ev.value == pytest.approx(q.value, abs=1e-8)
        assert ev.converged

    def test_moment_reconstruction_bit_for_bit(self):
        p = GreenParams(t=4.0, gamma=1.0)
        ev = evaluate_series5(p, tol=1e-10)
        total, comp = 0.0, 0.0
        for i in range(ev.terms_used):
            term = moment_coefficient(i, p) * p.t ** (-1 - i)
            if term == 0.0:
                continue
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
        assert total == ev.value

    def test_truncation_monotonicity(self):
        p = GreenParams(t=3.2, gamma=1.0)
        evs = [evaluate_series5(p, tol=1e-14, n_max=n) for n in (30, 60, 120)]
        for a, b in zip(evs, evs[1:]):
            assert b.value >= a.value
            assert b.abs_error_estimate <= a.abs_error_estimate

    def test_index_swap_symmetry(self):
        a = evaluate_series5(GreenParams(t=5.0, gamma=1.4, l=2, m=0, n=0))
        b = evaluate_series5(GreenParams(t=5.0, gamma=1.4, l=0, m=2, n=0))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_full_symmetry_at_isotropy(self):
        a = evaluate_series5(GreenParams(t=5.0, gamma=1.0, l=2, m=1, n=1))
        b = evaluate_series5(GreenParams(t=5.0, gamma=1.0, l=1, m=1, n=2))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_no_premature_stop_before_site_support(self):
        # terms vanish until 2i >= l+m+n; the stop rule must wait them out
        ev = evaluate_series5(GreenParams(t=10.0, l=6, m=0, n=0), tol=1e-10)
        assert ev.value > 0.0
        assert ev.terms_used > 3

    def test_hard_cap_refused(self):
        with pytest.raises(ValueError):
            evaluate_series5(GreenParams(t=4.0), n_max=1001)

    def test_bad_accel_rejected(self):
        with pytest.raises(ValueError):
            evaluate_series5(GreenParams(t=4.0), accel="richardson")

    def test_short_wynn_run_not_converged(self):
        # three terms at the band edge: Watson's value is 0.44822, and a
        # transform with no second column has no basis for a zero estimate
        ev = evaluate_series5(GreenParams(t=3.0, gamma=1.0), n_max=3, accel="wynn")
        assert not ev.converged
        assert ev.abs_error_estimate > 0.0

    @pytest.mark.parametrize("t, gamma", [(1992.0, 1990.0), (1e6, 100003.0)])
    def test_large_gamma_leaks_no_overflow(self, t, gamma):
        p = GreenParams(t=t, gamma=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            evs = (evaluate_series5(p), evaluate_series6(p))
        for ev in evs:
            assert math.isfinite(ev.value) and ev.value > 0.0

    def test_converged_implies_estimate_within_tol(self):
        for t in (3.5, 4.0, 6.0, 20.0):
            ev = evaluate_series5(GreenParams(t=t), tol=1e-9)
            assert ev.converged
            assert ev.abs_error_estimate <= 1e-9


class TestEvaluateSeries6:
    def test_agrees_with_series5(self):
        for t, gamma in ((3.5, 1.0), (4.0, 0.5), (5.0, 2.0), (10.0, 1.0)):
            for site in [(0, 0, 0), (2, 0, 0), (2, 1, 1)]:
                p = GreenParams(t=t, gamma=gamma, l=site[0], m=site[1], n=site[2])
                e5 = evaluate_series5(p, tol=1e-11)
                e6 = evaluate_series6(p, tol=1e-11)
                assert e6.value == pytest.approx(e5.value, abs=1e-10)
                assert abs(e6.value - e5.value) <= (
                    e5.abs_error_estimate + e6.abs_error_estimate
                )

    def test_large_t(self):
        ev = evaluate_series6(GreenParams(t=1e6), tol=1e-9)
        assert ev.converged
        assert ev.value * 1e6 == pytest.approx(1.0, rel=1e-9)

    def test_matches_quadrature_off_origin(self):
        p = GreenParams(t=5.0, gamma=1.0, l=2, m=0, n=0)
        e6 = evaluate_series6(p, tol=1e-10)
        q = green_by_quadrature(p)
        assert e6.value == pytest.approx(q.value, abs=1e-8)

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            evaluate_series6(GreenParams(t=4.0), l_max=0)

    def test_l_max_cut_reports_an_infinite_estimate(self):
        # l_max = 50 ends the inner sums while their ratio
        # x (i+j+2)/(j+2) is still above 1, so no tail bound exists; the
        # l_max = 1000 sum is larger by 4.8e-3
        p = GreenParams(t=9.01, gamma=7.0, l=2, m=1, n=1)
        ev = evaluate_series6(p, l_max=50)
        assert ev.abs_error_estimate == math.inf
        assert not ev.converged
        deep = evaluate_series6(p, l_max=1000)
        assert deep.value - ev.value > 4e-3


class TestAccelerationPipeline:
    def test_band_edge_with_wynn(self):
        target = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)
        ev = evaluate_series5(GreenParams(t=3.0, gamma=1.0), accel="wynn")
        assert ev.accelerated == "wynn"
        assert ev.value == pytest.approx(target, abs=1e-6)

    def test_transform_skipped_when_raw_converges(self):
        plain = evaluate_series5(GreenParams(t=4.0))
        accel = evaluate_series5(GreenParams(t=4.0), accel="wynn")
        assert accel.value == plain.value
        assert accel.accelerated == "none"

    def test_transformed_values_never_claim_convergence(self):
        # at t = 3.001, (2,2,0) Wynn's estimate 1.7e-8 is below tol 1e-7
        # while the true error is 1.6e-3
        ev = evaluate_series5(GreenParams(t=3.001, l=2, m=2), tol=1e-7, accel="wynn")
        assert ev.accelerated == "wynn"
        assert ev.abs_error_estimate < 1e-7
        assert not ev.converged
        for gamma in (0.5, 1.0, 2.0):
            for gap in (1e-4, 1e-3, 1e-2, 0.1):
                for l, m, n in [(0, 0, 0), (2, 0, 0), (2, 2, 0), (2, 1, 1)]:
                    p = GreenParams(t=2.0 + gamma + gap, gamma=gamma, l=l, m=m, n=n)
                    for tol in (1e-5, 1e-7, 1e-10):
                        for accel in ("wynn", "aitken"):
                            ev = evaluate_series5(p, tol=tol, accel=accel)
                            assert ev.accelerated == "none" or not ev.converged, (p, tol, accel)

    def test_guard_returns_raw_when_transform_is_wild(self):
        # short run in the mixed regime: the subsampled transform is worse
        # than the raw sum and must be rejected
        ev = evaluate_series5(GreenParams(t=3.05), n_max=200, accel="wynn")
        assert ev.accelerated == "none"
        assert not ev.converged


class TestConvergenceRows:
    def test_row_count_and_keys(self):
        rows, _ = convergence_rows(GreenParams(t=5.0), tol=1e-30, n_max=30)
        assert len(rows) == 30
        assert list(rows[0]) == [
            "i",
            "term",
            "partial_sum",
            "tail_bound",
            "accelerated_estimate",
        ]
        assert rows[0]["accelerated_estimate"] is None

    def test_partial_sums_monotone(self):
        rows, _ = convergence_rows(GreenParams(t=4.0), tol=1e-30, n_max=40)
        sums = [r["partial_sum"] for r in rows]
        assert sums == sorted(sums)

    def test_accelerated_column_present_with_wynn(self):
        rows, _ = convergence_rows(
            GreenParams(t=3.0), tol=1e-10, n_max=40, accel="wynn"
        )
        assert any(r["accelerated_estimate"] is not None for r in rows)

    def test_series6_rows_end_on_the_evaluated_sum(self):
        # both default to l_max = 400; 120 outer terms leave the sum
        # unconverged at t = 3.01, so the raw value is the last partial sum
        p = GreenParams(t=3.01, gamma=1.0, l=2, m=1, n=1)
        rows, evaluation = convergence_rows(p, n_max=120, method="series6")
        assert evaluation == evaluate_series6(p, n_max=120)
        assert rows[-1]["partial_sum"] == evaluation.value

    def test_series6_rows(self):
        rows, _ = convergence_rows(
            GreenParams(t=5.0), tol=1e-10, n_max=30, method="series6"
        )
        assert len(rows) >= 1
        total5 = evaluate_series5(GreenParams(t=5.0), tol=1e-10).value
        assert rows[-1]["partial_sum"] == pytest.approx(total5, abs=1e-8)


class TestWholeOrders:
    """An order that is not an integer is refused before any table is touched."""

    def test_bad_orders_leave_the_tables_intact(self, monkeypatch):
        # a float order once grew the process-wide J table to a float
        # max_n, and every later series call raised TypeError
        monkeypatch.setattr(basic_integrals, "_default", IntegralTable(64))
        _site_tables.cache_clear()
        p = GreenParams(4.0)
        calls = [
            lambda: evaluate_series5(p, n_max=400.0),
            lambda: evaluate_series6(p, l_max=700.0),
            lambda: convergence_rows(p, n_max=500.0),
            lambda: moment_coefficient(700.0, GreenParams(4.0, gamma=0.5)),
            lambda: evaluate_series5(p, n_max=True),
            lambda: evaluate_series6(p, l_max=True),
            lambda: moment_coefficient(True, p),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()
            assert basic_integrals.shared_table(0).max_n == 64
            assert type(basic_integrals.shared_table(0).max_n) is int
        assert evaluate_series5(p).value == 0.2694162337972194

    def test_numpy_integers_pass(self):
        p = GreenParams(4.0, l=2, m=1, n=1)
        assert evaluate_series5(p, n_max=np.int64(300)) == evaluate_series5(p, n_max=300)
        six = evaluate_series6(p, n_max=np.int32(300), l_max=np.int64(200))
        assert six == evaluate_series6(p, n_max=300, l_max=200)
        assert moment_coefficient(np.int64(7), p) == moment_coefficient(7, p)
