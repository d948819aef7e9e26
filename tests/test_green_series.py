import collections
import itertools
import math
import random
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
    _depth,
    _factorial_scales,
    _finish,
    _nu_envelope,
    _nu_table,
    _r_store,
    _row_envelope,
    _safe_order,
    _scan,
    _series6_pieces,
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


def _site(params):
    """The cached tables of the site of ``params``."""
    return _site_tables(params.l, params.m, params.n)


def _store(params):
    """The stored blocks of R of the site of ``params``."""
    return _r_store(params.l, params.m, params.n)


def _cold():
    """Empty the site records and the stores of R."""
    _site_tables.cache_clear()
    _r_store.cache_clear()


def _nu(params, depth):
    """The nu table of the site of ``params``, every order up to ``depth``."""
    return _nu_table(params, _site(params), depth + 1)


def _terms(params, count, method="series5", **kwargs):
    """The first ``count`` terms of a scan that does not stop before them."""
    rows, _ = convergence_rows(params, tol=1e-300, n_max=count, method=method, **kwargs)
    return [row["term"] for row in rows]


def _gather_nu(p, site, i):
    """nu_i from the dense (i+1)^2 Toeplitz-gather rows (reference).

    Every row is gathered, with float binomials C(j, k) rounded from the
    exact integers; the rows j = n, n+2, ..., i, the only ones J_j(n)
    does not zero, are then reduced against their weights by one dot
    product.
    """
    F, Jl, Jm = _float_binomials(), site.Jl, site.Jm
    sl = slice(0, i + 1)
    a = np.arange(i + 1)
    idx = np.clip(a[None, :] - a[:, None] + i, 0, i)
    rows = (F[sl, sl] * Jl[idx] * Jm[i::-1][None, :]).sum(axis=1)
    s = p.band_edge
    gs_pows = np.power(p.gamma / s, a)
    jn_scaled = np.power(2.0 / s, a) * site.Jn[: i + 1]
    j = a[p.n :: 2]
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


def _exact_series6_row(p, site, i, x, l_max):
    """The sum over j < l_max of one series6 row, as an exact rational.

    Exact binomials C(i, k) and C(i+j, j) over the float inputs: the J
    vectors, x, 2/t, t and pi^3 as the code rounds them.
    """
    return sum(_exact_series6_pieces(p, site, i, x, l_max), Fraction(0))


def _series6_row(p, site, i, tol_inner, l_max):
    """Row i of series6 as the scan forms it, (value, error, ok), on l_max pieces.

    The row is read from column i of the R block that holds it, as
    ``_scan_series6`` reads it; rows whose J_i(n) is zero are 0.0.
    """
    if site.Jn[i] == 0.0:
        return 0.0, 0.0, True
    c = (i - p.n) // 2
    c_block = c - c % _COL_TILE
    R = _series6_r(site, c_block, _COL_TILE, l_max)
    (total,), (bound,), (ok,) = _series6_rows(p, site, c, [tol_inner], R[c - c_block : c - c_block + 1])
    return total, bound, ok


def _series6_row_per_j(p, site, i, tol_inner, l_max):
    """The one-j-at-a-time form of the series6 inner sum (reference).

    Its binomials are the code's own, E[k] E[i-k] G[i] = C(i,k) 2^-i,
    and its ladder the same product in the same order; only the inner
    sums over k are formed one j at a time.  Returns (value, bound, ok,
    number of pieces).
    """
    x = p.gamma / p.t
    E, G = _factorial_scales()
    base = E[: i + 1] * E[i::-1]
    c = (2.0 / p.t) ** i
    pieces, prev_piece, seen, bound, ok = [], 0.0, False, math.inf, False
    for j in range(l_max):
        row = float((base * site.Jl[j : j + i + 1] * site.Jm[j : j + i + 1][::-1]).sum())
        piece = c * (row * G[i]) * site.Jn[i] / p.t / PI3
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


def _rows_by_loop(p, site, c0, tols, R):
    """Series6 rows one p at a time over the pieces ``_series6_pieces`` forms (reference).

    Each row's stop test runs in a Python loop, in the vector pass's
    operation order.  Returns per row (the pieces it summed, bound, ok).
    """
    pieces, f = _series6_pieces(p, site, c0, R)
    width = R.shape[1]
    out = []
    for row, tol in enumerate(tols):
        values, ratios = pieces[row].tolist(), f[row].tolist()
        seen, ok, bound = False, False, math.inf
        for p in range(width):
            piece, ratio = values[1 + p], ratios[1 + p]
            seen = seen or piece != 0.0
            bound = max(piece, ratio * values[p]) * 2.0 * ratio
            if ratio < 1.0:
                bound /= 1.0 - ratio
                if seen and bound <= tol:
                    ok = True
                    break
            else:
                bound = math.inf
        out.append((values[1 : p + 2], bound, ok))
    return out


def _exact_series6_pieces(p, site, i, x, count):
    """The first ``count`` pieces of series6 row i, each an exact rational (see below)."""
    scale = Fraction(2.0 / p.t) ** i / 2**i * Fraction(site.Jn[i]) / Fraction(p.t) / Fraction(PI3)
    pieces = []
    for j in range(count):
        inner = sum(
            math.comb(i, k) * Fraction(site.Jl[j + k]) * Fraction(site.Jm[j + i - k])
            for k in range(i + 1)
        )
        pieces.append(math.comb(i + j, j) * Fraction(x) ** j * inner * scale)
    return pieces


def _lgamma_series6_row(p, site, i, l_max):
    """One series6 row over j < l_max, its ladder taken from math.lgamma.

    The ladder C(i+j, j) x^j (2/t)^i is exp of a sum of logarithms, so
    it has no subnormal start; the products sum_k E[k] E[i-k] Jl Jm are
    the code's own.  The logarithms reach about 1e4, so each ladder
    value carries a relative error of about 1e-12.
    """
    x = p.gamma / p.t
    E, G = _factorial_scales()
    base = E[: i + 1] * E[i::-1]
    terms = []
    for j in range(l_max):
        row = float((base * site.Jl[j : j + i + 1] * site.Jm[j : j + i + 1][::-1]).sum())
        log_c = (
            math.lgamma(i + j + 1) - math.lgamma(i + 1) - math.lgamma(j + 1)
            + j * math.log(x) + i * math.log(2.0 / p.t)
        )
        terms.append(math.exp(log_c) * (row * float(G[i])) * float(site.Jn[i]) / p.t / PI3)
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

    def test_inputs_checked_like_the_series_orders(self):
        # a numpy integer is a site index as it is a series order, stored
        # as an int; a t or gamma that is a bool or no real number is a
        # DomainError (t = "4" was a TypeError, gamma = True was kept)
        p = GreenParams(t=4.0, l=np.int64(2), m=np.int64(0))
        assert (p.l, p.m, p.n) == (2, 0, 0)
        assert all(type(v) is int for v in (p.l, p.m, p.n))
        want = evaluate_series5(GreenParams(t=4.0, l=2))
        assert evaluate_series5(p, n_max=np.int64(400)) == want
        assert evaluate_series5(GreenParams(t=np.float64(4.0), l=2)) == want
        for kwargs in ({"t": "4"}, {"t": True}, {"t": None}, {"t": 4.0, "gamma": True}, {"t": 4.0, "gamma": "1"}):
            with pytest.raises(DomainError, match="must be a real number"):
                GreenParams(**kwargs)
        for bad in (2.0, True, "2"):
            with pytest.raises(DomainError, match="lattice index l must be an integer"):
                GreenParams(t=4.0, l=bad)


class TestRealInputs:
    """A real t, gamma or tol of any type is taken as a Python float at the boundary."""

    def test_float32_t_computed_in_doubles(self):
        # t = float32(4) ran series5 in float32: 0.26941624, estimate
        # 8.0e-11 and converged, where the true error was 9.0e-9
        p = GreenParams(t=np.float32(4), gamma=np.float32(0.5))
        assert type(p.t) is float and type(p.gamma) is float
        want = GreenParams(t=float(np.float32(4)), gamma=float(np.float32(0.5)))
        got = evaluate_series5(p)
        assert got == evaluate_series5(want)
        assert type(got.value) is float and type(got.abs_error_estimate) is float
        moment = moment_coefficient(5, p)
        assert type(moment) is float and moment == moment_coefficient(5, want)

    def test_fraction_gamma(self):
        # gamma = 1/3 as a Fraction passed validation, then series5 raised UFuncTypeError
        p = GreenParams(t=4, gamma=Fraction(1, 3))
        want = GreenParams(t=4.0, gamma=float(Fraction(1, 3)))
        assert p == want
        assert evaluate_series5(p) == evaluate_series5(want)
        assert evaluate_series6(p) == evaluate_series6(want)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"t": 10**400}, "t must be finite"), ({"t": 4.0, "gamma": 10**400}, "gamma must be finite")],
    )
    def test_int_past_the_double_range(self, kwargs, message):
        # float(10**400) raised OverflowError
        with pytest.raises(DomainError, match=message):
            GreenParams(**kwargs)

    @pytest.mark.parametrize("method", ["series5", "series6"])
    def test_numpy_tol_gives_python_results(self, method):
        # tol = float64(1e-10) made converged np.True_
        p = GreenParams(t=4.0, l=2)
        rows, got = convergence_rows(p, tol=np.float64(1e-10), method=method)
        assert type(got.converged) is bool and got.converged
        assert (rows, got) == convergence_rows(p, tol=1e-10, method=method)
        evaluate = evaluate_series5 if method == "series5" else evaluate_series6
        assert type(evaluate(p, tol=np.float64(1e-10)).converged) is bool

    @pytest.mark.parametrize("tol", [True, "1e-10", 10**400, None], ids=["bool", "str", "10**400", "None"])
    def test_tol_that_is_no_finite_real_refused(self, tol):
        # tol = True was taken as 1.0, "1e-10" raised TypeError and
        # 10**400 OverflowError
        p = GreenParams(t=4.0)
        for evaluate in (evaluate_series5, evaluate_series6, convergence_rows):
            with pytest.raises(ValueError, match="tol must be"):
                evaluate(p, tol=tol)


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
            tables, nus = _site(p), _nu(p, safe + 2)
            terms = _terms(p, safe + 3)
            s, r = p.band_edge, p.band_edge / p.t
            for i in exact_orders + deep_orders:
                nu = float(nus[i])
                if i in exact_orders:
                    want = _exact_nu(i, site, gamma)
                    assert abs(Fraction(nu) - want) <= (i + 1) * self.EPS * want, (site, i)
                else:
                    gather = Fraction(_gather_nu(p, tables, i))
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
            tables, nus = _site(p), _nu(p, HARD_ORDER_CAP)
            x = p.gamma / p.t
            for i in (HARD_ORDER_CAP - 1, HARD_ORDER_CAP):
                got_nu = float(nus[i])
                got_row = _series6_row(p, tables, i, 0.0, l_max)[0]
                want_nu = Fraction(_gather_nu(p, tables, i))
                want_row = _exact_series6_row(p, tables, i, x, l_max)
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
        l_max = 6
        tables = _site(p)
        x = p.gamma / p.t
        for i in (0, 1, 2, 7, 30, 31, 59):
            got = Fraction(_series6_row(p, tables, i, 0.0, l_max)[0])
            want = _exact_series6_row(p, tables, i, x, l_max)
            assert abs(got - want) <= (i + 1 + 2 * l_max + 6) * self.EPS * want, (i, l_max)

    @pytest.mark.parametrize("site", [(0, 0, 0), (2, 1, 1), (3, 3, 2), (40, 30, 0)])
    def test_series6_blocks_match_per_j_sums(self, site):
        # rows read from the R blocks against the one-j-at-a-time sums:
        # the same stop, bound and flag, and a value within the exact
        # rational bound of test_series6_row_matches_exact_binomials over
        # the pieces the row summed.  Rows 66-68 lie in the second column
        # block, l_max on either side of a tile's and a group's width;
        # tol_inner = 0 never stops early, so the bound is
        # built from the last pieces themselves.  At t = 2 gamma = 6 the
        # ratio is exactly 1 at j = i - 2, where a bound would divide by
        # zero (a RuntimeWarning is an error here).  At (40, 30, 0),
        # lm = (l+m-n)/2 = 35, the buffer's lead runs past _COL_TILE - 1
        # rows to reach p = 0 of column 0.  The BLAS products sum
        # the inner sums in another order, so values and bounds agree to
        # rounding, not bit for bit.
        for t, gamma in ((4.5, 1.5), (6.0, 3.0)):
            p = GreenParams(t=t, gamma=gamma, l=site[0], m=site[1], n=site[2])
            l_max_top = 60
            tables = _site(p)
            x = p.gamma / p.t
            for i in (0, 1, 2, 4, 9, 29, 30, 31, 32, 33, 34, 35, 66, 67, 68):
                if tables.Jn[i] == 0.0:
                    continue
                exact = _exact_series6_pieces(p, tables, i, x, l_max_top)
                for l_max in (1, 2, 15, 16, 17, 31, 32, 33, l_max_top):
                    for tol_inner in (0.0, 1e-13):
                        value, bound, ok = _series6_row(p, tables, i, tol_inner, l_max)
                        want = _series6_row_per_j(p, tables, i, tol_inner, l_max)
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

        def per_j_rows(params, site, c0, tols, R):
            qs = range(params.n + 2 * c0, params.n + 2 * (c0 + len(tols)), 2)
            rows = [_series6_row_per_j(params, site, q, tol, R.shape[1])[:3] for q, tol in zip(qs, tols)]
            return tuple(list(column) for column in zip(*rows))

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
        site = _site(p)
        for i in (470, 494, 496, 500, 520, 600):
            got = _series6_row(p, site, i, 1e-300, l_max)[0]
            want = _lgamma_series6_row(p, site, i, l_max)
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

        def spy(params, site, c0, tols, R):
            rows = _series6_rows(params, site, c0, tols, R)
            formed.append((c0, R.shape[1], list(rows[2])))
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
        site = _site(p)
        for i, row in enumerate(rows):
            if site.Jn[i] == 0.0:
                assert row["term"] == 0.0, i
                continue
            assert row["term"] > 0.0, i
            if (i - p.n) // 2 % _ROW_GROUP in (0, _ROW_GROUP - 1):
                alone = _series6_row(p, site, i, 1e-300, 400)[0]  # the scan's tol_inner here
                assert row["term"] == pytest.approx(alone, rel=1e-14), i

    @pytest.mark.parametrize("evaluate", [evaluate_series5, evaluate_series6])
    def test_one_workspace_per_call(self, evaluate, monkeypatch):
        # every R block of a call is formed from the views of one
        # site record, so the J and E arrays are padded once per site;
        # both series read two or more blocks here
        records = []
        r_block = green_series._r_block

        def spy(site, c0, rows):
            records.append(site)
            return r_block(site, c0, rows)

        monkeypatch.setattr(green_series, "_r_block", spy)
        evaluate(GreenParams(t=3.5, gamma=1.0, l=2, m=1, n=1), tol=1e-11)
        assert len(records) >= 2
        assert all(site is records[0] for site in records)

    def test_blocks_sized_when_the_scan_reaches_them(self, monkeypatch):
        # at depth 68 the scan stops after 62-63 terms, inside the first
        # column block (rows q < 64): series6 forms that block alone and
        # sizes only its two row groups, where it used to size the second
        # block's group too before the first row
        blocks, sized = [], []
        r_block, envelope = green_series._r_block, green_series._envelope_count

        def spy_block(site, c0, rows):
            blocks.append(c0)
            return r_block(site, c0, rows)

        def spy_envelope(params, site, q, tol_q, l_max):
            sized.append(q)
            return envelope(params, site, q, tol_q, l_max)

        monkeypatch.setattr(green_series, "_r_block", spy_block)
        monkeypatch.setattr(green_series, "_envelope_count", spy_envelope)
        p = GreenParams(t=4.0, gamma=1.0)
        gap = p.t - p.gamma
        assert _depth(p, 2.0 / gap, gap, 0.5e-14, 400, _row_envelope) == 68
        ev = evaluate_series6(p, tol=1e-14)
        assert 62 <= ev.terms_used <= 63 < 2 * _COL_TILE
        assert blocks == [0]
        assert sized == [2 * (_ROW_GROUP - 1), 2 * (2 * _ROW_GROUP - 1)]

    def test_lead_past_the_first_tile(self):
        # at (0, 200, 0) the tiles of column block 0 have an empty range
        # of e up to s2 = 32, so 2 r0 > c0 - lm = -100 and the buffer's
        # lead must reach back to p = 0; the row sums all 400 pieces
        p = GreenParams(t=4.0, l=0, m=200, n=0)
        lm = 100
        site = _site(p)
        assert green_series._tiles(site, 0, (400 + 30 - lm) // 2 + 1)[0][0] == 32
        got = _series6_row(p, site, 0, 0.0, 400)
        want = _series6_row_per_j(p, site, 0, 0.0, 400)
        assert got[0] > 0.0
        assert got[0] == pytest.approx(want[0], rel=1e-14)
        assert got[1:] == want[1:3]
        ev = evaluate_series6(p, tol=1e-11)
        assert ev.value == pytest.approx(_series6_row(p, site, 0, 1e-300, 400)[0], rel=1e-14)

    def test_j_bounded_by_b(self):
        # the envelope widths rest on J_p(k) = pi C(p, (p-k)/2) / 2^p <=
        # b(p) = sqrt(2 pi / p), that is p pi C^2 <= 2 4^p: checked in
        # integers with pi < 355/113 for every k <= p of p's parity, at
        # every p a series6 call reads (p - 1 + q < 2 HARD_ORDER_CAP)
        for p in range(1, 2 * HARD_ORDER_CAP + 1):
            limit = math.isqrt(2 * 113 * 4**p // (355 * p))  # C <= limit iff 355 p C^2 <= 226 4^p
            c = math.comb(p, p // 2)
            for j in range(p // 2, -1, -1):  # k = p - 2j
                assert c <= limit, (p, p - 2 * j)
                c = c * j // (p - j + 1)

    def _groups(self, monkeypatch):
        """(params, c0, tols, width) of every group the scan forms on the grid."""
        groups = []

        def spy(params, site, c0, tols, R):
            groups.append((params, c0, list(tols), R.shape[1]))
            return _series6_rows(params, site, c0, tols, R)

        monkeypatch.setattr(green_series, "_series6_rows", spy)
        for p in self._grid():
            evaluate_series6(p)
        monkeypatch.undo()
        return groups

    def test_row_totals_do_not_depend_on_the_width(self, monkeypatch):
        # the envelope widths may shrink without moving a result: a row
        # that stops inside width w gives the same total, bound and flag,
        # to the bit, when 17 more pieces follow it
        extra, compared = 17, 0
        for p, c0, tols, w in self._groups(monkeypatch):
            site = _site(p)
            c_block = c0 - c0 % _COL_TILE
            R = _series6_r(site, c_block, _COL_TILE, w + extra)[c0 - c_block : c0 - c_block + len(tols)]
            narrow = _series6_rows(p, site, c0, tols, R[:, :w])
            wide = _series6_rows(p, site, c0, tols, R)
            for row, (got, want) in enumerate(zip(zip(*narrow), zip(*wide))):
                if got[2]:
                    assert got == want, (p, c0, row)
                    compared += 1
        assert compared > 1000

    def test_row_totals_within_one_ulp_of_fsum(self, monkeypatch):
        # the vector pass stops every row where the per-row loop does,
        # with the same bound, and its compensated total is within one
        # ulp of the correctly rounded sum of the pieces up to the stop
        rows = 0
        for p, c0, tols, w in self._groups(monkeypatch):
            site = _site(p)
            c_block = c0 - c0 % _COL_TILE
            R = _series6_r(site, c_block, _COL_TILE, w)[c0 - c_block : c0 - c_block + len(tols)]
            got = _series6_rows(p, site, c0, tols, R)
            for row, ((total, bound, ok), (pieces, want_bound, want_ok)) in enumerate(
                zip(zip(*got), _rows_by_loop(p, site, c0, tols, R))
            ):
                fsum = math.fsum(pieces)
                assert (bound, ok) == (want_bound, want_ok), (p, c0, row)
                assert abs(total - fsum) <= math.ulp(fsum), (p, c0, row)
                rows += 1
        assert rows > 1000

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
            full = _nu(p, HARD_ORDER_CAP)
            h = sum(site) // 2
            for count in (1, 2, 17, h + step - 1, h + step, h + step + 1, 145, 146, 400, 401):
                part = _nu_table(p, _site(p), count)
                assert np.array_equal(part, full[:count]), (site, count)
            edges = [h + k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)]
            for i in [*edges, _safe_order(gamma)]:
                assert moment_coefficient(i, p) == full[i] * p.band_edge**i, (site, i)

    def test_table_built_to_the_envelope_depth(self, monkeypatch):
        # series5 reads 146 orders here; |nu_i| <= 1 sized its table at
        # 222 orders, the closed-form envelope at 165
        counts = []
        nu_table = green_series._nu_table

        def spy(params, site, count):
            counts.append(count)
            return nu_table(params, site, count)

        monkeypatch.setattr(green_series, "_nu_table", spy)
        p = GreenParams(t=4.5, gamma=2.0, l=2, m=1, n=1)
        ev = evaluate_series5(p, tol=1e-11)
        assert counts == [165]
        assert ev.terms_used == 146
        assert _depth(p, p.band_edge / p.t, p.t, 1e-11, 400, lambda params, i: 1.0) == 222

    def test_order_past_the_table_raises(self, monkeypatch):
        # a depth too small for the scan must fail, not rebuild the table:
        # the rows end before n_max while the scan runs on
        p = GreenParams(t=3.2, gamma=1.0, l=2, m=1, n=1)
        site = _site(p)
        assert _nu_table(p, site, 40)[39] == _nu_table(p, site, 301)[39]
        monkeypatch.setattr(green_series, "_depth", lambda *args: 40)
        for evaluate in (evaluate_series5, evaluate_series6):
            with pytest.raises(IndexError):
                evaluate(p, tol=1e-300, n_max=300)

    @pytest.mark.parametrize("gamma", [1e-3, 0.5, 1.0, 7.0, 30.0, 1000.0])
    def test_scan_stops_inside_the_table(self, gamma):
        # the scan builds nu only to the envelope's _depth; it must never read past it
        for offset in (1e-3, 0.1, 1.0, 10.0, 1e6):
            for tol in (1e-5, 1e-11, 1e-14):
                for l, m, n in [(0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0)]:
                    p = GreenParams(t=2.0 + gamma + offset, gamma=gamma, l=l, m=m, n=n)
                    ev = evaluate_series5(p, tol=tol)
                    depth = _depth(p, p.band_edge / p.t, p.t, tol, 400, _nu_envelope)
                    assert ev.terms_used <= depth, (offset, tol, l, m, n)

    @pytest.mark.parametrize("gamma", [1e-3, 0.5, 1.0, 7.0, 30.0, 1000.0])
    @pytest.mark.parametrize("l_max", [17, 400])
    def test_series6_scan_stops_inside_its_depth(self, gamma, l_max):
        # series6 forms its rows only to the row envelope's _depth at
        # r6 = 2/(t - gamma); at t - edge = 1e6 the floor l+m+n sets that depth
        for offset in (1e-3, 0.1, 1.0, 10.0, 1e6):
            for tol in (1e-5, 1e-11, 1e-14):
                for l, m, n in [(0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0)]:
                    p = GreenParams(t=2.0 + gamma + offset, gamma=gamma, l=l, m=m, n=n)
                    ev = evaluate_series6(p, tol=tol, l_max=l_max)
                    gap = p.t - p.gamma
                    depth = _depth(p, 2.0 / gap, gap, tol / 2, 400, _row_envelope)
                    assert ev.terms_used <= depth, (offset, tol, l, m, n)

    @pytest.mark.parametrize(
        "t, gamma",
        [(3.01, 1.0), (4.5, 2.0), (6.0, 3.0), (9.01, 7.0), (12.0, 0.5), (2.06, 0.01), (19.0, 7.0)],
    )
    def test_series6_rows_within_their_bound(self, t, gamma):
        # _depth's premise for series6: row q <= r6^q / (t - gamma), and
        # at most V_q of that (_row_envelope), also with all 1000 pieces
        for l, m, n in [(0, 0, 0), (2, 1, 1), (3, 3, 2), (24, 0, 0)]:
            p = GreenParams(t=t, gamma=gamma, l=l, m=m, n=n)
            gap = p.t - p.gamma
            for l_max in (400, 1000):
                for q, term in enumerate(_terms(p, 120, method="series6", l_max=l_max)):
                    crude = (2.0 / gap) ** q / gap
                    assert term <= crude, (l, m, n, q)
                    assert term <= crude * _row_envelope(p, q), (l, m, n, q, l_max)

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

    def test_each_block_freed_before_the_next(self):
        # a block's buffer, weights and sums go before the next block is
        # formed; kept until the loop rebound them, the peak was 596 KiB
        p = GreenParams(t=3.01, gamma=1.0, l=2, m=0, n=0)
        evaluate_series5(p, n_max=400, accel="wynn")
        tracemalloc.start()
        try:
            evaluate_series5(p, n_max=400, accel="wynn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * 1024


class TestSiteSymmetry:
    """G(l, m, n) = G(m, l, n): both orders of a site give one result, bit for bit."""

    SITES = [(2, 1, 1), (4, 2, 0), (3, 3, 2), (6, 1, 1), (5, 3, 0), (7, 2, 1)]

    @pytest.mark.parametrize("evaluate", [evaluate_series5, evaluate_series6, green_by_quadrature])
    @pytest.mark.parametrize("t, gamma", [(4.0, 1.0), (3.5, 0.5), (9.5, 7.0)])
    def test_swapped_site_same_result(self, evaluate, t, gamma):
        for l, m, n in self.SITES:
            a = evaluate(GreenParams(t=t, gamma=gamma, l=l, m=m, n=n))
            assert evaluate(GreenParams(t=t, gamma=gamma, l=m, m=l, n=n)) == a, (l, m, n)


class TestSiteTableCache:
    """One process-wide set of site tables serves every t and gamma."""

    VIEWS = ("Jl", "Jm", "Jn", "hankel", "toeplitz", "e_up", "e_down")
    PADDED = ("hankel", "toeplitz", "e_up", "e_down")

    def test_same_key_shares_arrays(self, monkeypatch):
        # series5, series6 and moment_coefficient of one site read the
        # same arrays, whatever their t, gamma and depth; another site
        # has its own
        records = []
        r_block = green_series._r_block

        def spy(site, c0, rows):
            records.append(site)
            return r_block(site, c0, rows)

        monkeypatch.setattr(green_series, "_r_block", spy)
        evaluate_series5(GreenParams(t=4.0, gamma=1.0, l=2, m=1, n=1), n_max=60)
        evaluate_series6(GreenParams(t=5.5, gamma=2.0, l=2, m=1, n=1), n_max=60, l_max=30)
        moment_coefficient(90, GreenParams(t=4.0, gamma=0.5, l=2, m=1, n=1))
        a = records[0]
        assert len(records) >= 3
        for b in records[1:]:
            for name in self.VIEWS:
                assert getattr(a, name) is getattr(b, name), name
        c = _site_tables(2, 2, 0)
        assert c.Jl is not a.Jl

    def test_one_record_per_site(self):
        # every depth of both series, the diagnostics and a loop over
        # moment orders build the site's record once between them
        p = GreenParams(t=3.5, gamma=1.0, l=2, m=1, n=1)
        _cold()
        for n_max in (400, 1000):
            evaluate_series5(p, n_max=n_max)
        for l_max in (17, 400, 1000):
            evaluate_series6(p, l_max=l_max)
        convergence_rows(p)
        for i in range(101):
            moment_coefficient(i, p)
        info = _site_tables.cache_info()
        assert info.misses == 1
        assert info.currsize == 1

    def test_cached_tables_read_only(self):
        site = _site_tables(3, 3, 2)
        for name in self.VIEWS:
            arr = getattr(site, name)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
            # every array a view is built on is read-only too
            while arr is not None:
                if isinstance(arr, np.ndarray):
                    assert not arr.flags.writeable, name
                arr = getattr(arr, "base", None)

    def test_stored_blocks_read_only(self):
        # the store of R is shared like the J views: its arrays and the
        # views series6 reads are read-only
        p = GreenParams(t=3.5, gamma=1.0, l=3, m=3, n=2)
        evaluate_series5(p)
        R = _series6_r(_site(p), 0, _COL_TILE, 50)
        blocks = _store(p).values()
        assert blocks
        for arr in [R, *(block.F for block in blocks)]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_worst_case_store_stays_bounded(self):
        # series6 at t = 2+gamma with n_max = l_max = 1000 stores the most
        # a site can hold: 16 blocks of 1031 x 32 doubles, 4.22 MB (the
        # docstring of _r_store)
        p = GreenParams(t=9.0, gamma=7.0, l=2, m=1, n=1)
        _cold()
        evaluate_series6(p, n_max=1000, l_max=1000)
        evaluate_series5(p, n_max=1000)
        stored = sum(block.F.nbytes for block in _store(p).values())
        assert 4.0e6 < stored <= 16 * 1031 * _COL_TILE * 8

    @pytest.mark.parametrize("site", [(2, 1, 1), (0, 200, 0), (4, 2, 0)])
    def test_fill_order_does_not_move_results(self, site):
        # series5, series6 and moment_coefficient read the same floats
        # whichever call filled the store first, shallow or deep
        p = GreenParams(t=3.4, gamma=1.3, l=site[0], m=site[1], n=site[2])
        h = sum(site) // 2
        orders = [h + 32 * k + d for k in (1, 2) for d in (-1, 0, 1)]
        calls = [
            lambda: evaluate_series5(p, tol=1e-13, n_max=60),
            lambda: evaluate_series5(p, tol=1e-13, n_max=400),
            lambda: evaluate_series6(p, tol=1e-13, n_max=80, l_max=60),
            lambda: evaluate_series6(p, tol=1e-13),
            lambda: [moment_coefficient(i, p) for i in orders],
        ]
        results = []
        for order in (calls, calls[::-1]):
            _cold()
            results.append([call() for call in order])
        assert results[0] == results[1][::-1]

    def test_deeper_call_forms_only_new_tiles(self, monkeypatch):
        # a deeper table copies the stored entries and forms only the
        # tiles that reach past them: far fewer products than a cold build
        p = GreenParams(t=3.0, gamma=1.0, l=2, m=0, n=0)
        products = []
        matmul = np.matmul

        def spy(*args, **kwargs):
            products.append(1)
            return matmul(*args, **kwargs)

        _cold()
        monkeypatch.setattr(np, "matmul", spy)
        cold = _nu_table(p, _site(p), 400)
        cold_products = len(products)
        _cold()
        _nu_table(p, _site(p), 390)
        products.clear()
        deep = _nu_table(p, _site(p), 400)
        monkeypatch.undo()
        assert np.array_equal(deep, cold)
        assert 0 < len(products) < cold_products // 2

    def test_padded_arrays_built_once_per_site(self, monkeypatch):
        # the zero-padded J and E arrays under the views of R belong to the
        # site's record: a second call with the same key pads nothing and
        # reads the same read-only buffers
        key = GreenParams(t=4.0, gamma=1.0, l=40, m=30, n=0)
        _cold()
        a = _site(key)
        shifted = []
        monkeypatch.setattr(green_series, "_shifted", lambda *args, **kw: shifted.append(args))
        b = _site(GreenParams(t=7.0, gamma=0.5, l=40, m=30, n=0))
        assert shifted == []
        for name in self.PADDED:
            view, other = getattr(a, name), getattr(b, name)
            assert view.base is other.base and not view.base.flags.writeable, name

    @pytest.mark.parametrize(
        "site", [(2, 1, 1), (3, 1, 0), (2, 2, 0), (4, 2, 2), (0, 0, 0), (40, 30, 0), (0, 200, 0)]
    )
    def test_cold_and_warm_results_identical(self, site):
        # the views of a cold site record and of a warm one give equal
        # results; at (40, 30, 0) and (0, 200, 0) the R buffers lead past
        # 31 zero rows
        p = GreenParams(t=3.4, gamma=1.3, l=site[0], m=site[1], n=site[2])
        edge = GreenParams(t=3.3, gamma=1.3, l=site[0], m=site[1], n=site[2])

        def results():
            return (
                evaluate_series5(p, tol=1e-13),
                evaluate_series5(edge, n_max=150, accel="wynn"),
                evaluate_series6(p, tol=1e-13, n_max=80, l_max=60),
                evaluate_series6(p, tol=1e-13),
            )

        _cold()
        cold = results()
        hits = _site_tables.cache_info().hits
        assert results() == cold
        assert _site_tables.cache_info().hits > hits

    def test_deep_terms_cold_and_warm(self):
        # n_max = 1000 runs past order 618, the last whose moment fits a
        # double at gamma = 1; the terms nu_i r^i / t go on regardless
        p = GreenParams(t=3.0, gamma=1.0, l=2, m=0, n=0)
        _cold()
        cold = evaluate_series5(p, n_max=1000, accel="aitken")
        assert cold.terms_used == 1000
        assert evaluate_series5(p, n_max=1000, accel="aitken") == cold

    def test_series6_past_the_order_cap(self):
        # the J vectors of series6 reach n_max + l_max = 1100, beyond the
        # hard order cap; every site record holds them to twice the cap
        p = GreenParams(t=3.6, gamma=1.0, l=2, m=2, n=0)
        _cold()
        cold = evaluate_series6(p, n_max=600, l_max=500)
        assert _site(p).Jl.size == 2 * HARD_ORDER_CAP + 1
        assert evaluate_series6(p, n_max=600, l_max=500) == cold
        assert cold.converged

    def test_cache_is_bounded(self):
        for cache in (_site_tables, _r_store):
            maxsize = cache.cache_info().maxsize
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
        return _nu(p, self.DEPTH)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 7.0])
    def test_origin_bounds_every_site(self, gamma):
        even = self._nu_table(gamma, (0, 0, 0))[::2]
        assert np.all(np.diff(even) <= 0.0)
        envelope = np.repeat(even, 2)[: self.DEPTH + 1]
        for site in self.SITES:
            nu = self._nu_table(gamma, site)
            assert np.all(np.abs(nu) <= envelope), site

    @pytest.mark.parametrize("gamma", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 7.0, 30.0, 100.0, 1000.0])
    def test_closed_form_bounds_every_site(self, gamma):
        # _depth's premise for series5: |nu_i| <= U_i (_nu_envelope), up
        # to the hard cap; U does not increase, and at gamma = 1 it lies
        # about 10.4 times above the origin's moments
        p = GreenParams(t=2.0 + gamma, gamma=gamma)
        envelope = np.array([_nu_envelope(p, i) for i in range(HARD_ORDER_CAP + 1)])
        assert np.all(np.diff(envelope) <= 0.0)
        sites = [(0, 0, 0), *self.SITES, (0, 0, 24), (0, 24, 0), (1, 1, 4)]
        for site in sites:
            at_site = GreenParams(t=2.0 + gamma, gamma=gamma, l=site[0], m=site[1], n=site[2])
            nu = _nu(at_site, HARD_ORDER_CAP)
            assert np.all(np.abs(nu) <= envelope), site
        if gamma == 1.0:
            origin = _nu(p, 400)
            assert np.all(np.abs(envelope[100:401:100] / origin[100:401:100] - 10.4) < 0.05)


def _chunks(terms, errors=None, oks=None, cuts=None):
    """Chunks over fixed terms, inner errors and inner flags, cut at ``cuts`` (default: in half)."""
    errors = errors or [0.0] * len(terms)
    oks = oks or [True] * len(terms)
    edges = [0, *([len(terms) // 2] if cuts is None else cuts), len(terms)]
    return [(terms[i:j], errors[i:j], oks[i:j]) for i, j in zip(edges, edges[1:])]


def _scan_by_term(rows, ratio, stop_tol, n_max):
    """The summation loop one (term, inner_error, inner_ok) row at a time (reference).

    The body of the scan before it read chunks, kept to test the chunked
    ``_scan`` against: every field of the state it returns is the one
    the chunked scan must return, bit for bit.
    """
    geo = ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    state = green_series._ScanState()
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
    """The summation loop of both series, on synthetic chunks."""

    def test_zero_terms_before_the_floor_never_stop_it(self):
        # at ratio 1/2 the bound after a zero that follows a zero is
        # 0.0, but before the first nonzero term no bound counts
        state = _scan(_chunks([0.0] * 6), 0.5, 0.0, 6)
        assert not state.stopped and state.bounds == [math.inf] * 6

    def test_stops_at_the_first_bound_within_tol(self):
        terms = [2.0**-i for i in range(20)]
        state = _scan(_chunks(terms), 0.5, 2.0**-5, len(terms))
        # the bound after term i is max(2^-i, 2^-1 * 2^-(i-1)) = 2^-i
        assert state.bounds == [2.0**-i for i in range(6)]
        assert state.stopped and len(state.terms) == 6
        assert state.sums[-1] == 2.0 - 2.0**-5

    def test_inner_errors_and_flags_are_combined(self):
        terms = [1.0, 0.5, 0.25]
        errors = [1e-3, 2e-3, 4e-3]
        state = _scan(_chunks(terms, errors, [True, False, True]), 0.5, 0.0, 3)
        assert state.inner_errors == errors
        assert not state.inner_ok
        ev = _finish(state, 1.0, "none", "series6")
        assert ev.abs_error_estimate == state.best_bound + math.fsum(errors)
        assert not ev.converged
        state = _scan(_chunks(terms, errors, [True] * 3), 0.5, 0.0, 3)
        assert state.inner_ok

    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_ratio_at_or_above_one_never_stops(self, ratio):
        terms = [1e-300 * 0.5**i for i in range(8)]
        state = _scan(_chunks(terms), ratio, 1.0, len(terms))
        assert not state.stopped and len(state.terms) == 8
        assert state.bounds == [math.inf] * 8

    def test_rows_ending_early_raise(self):
        # a depth too small: the rows end before n_max, past a nonzero term
        terms = [0.0, 0.0, 1.0, 0.5]
        with pytest.raises(IndexError):
            _scan(_chunks(terms), 0.5, 0.0, 10)
        assert len(_scan(_chunks(terms), 0.5, 0.0, 4).terms) == 4

    def test_zero_rows_ending_early_end_unstopped(self):
        # every term underflowed to 0.0: no bound exists, and nothing raises
        state = _scan(_chunks([0.0] * 4), 0.5, 1.0, 10)
        assert not state.stopped and state.sums == [0.0] * 4
        assert _finish(state, 1.0, "none", "series5").abs_error_estimate == math.inf

    def test_no_chunk_read_past_the_stop(self):
        # a stop on the last term of a chunk and one inside a chunk: the
        # scan takes the terms up to the stop and pulls no later chunk
        terms = [2.0**-i for i in range(20)]
        for cuts, chunks_read in (([3, 6, 10], 2), ([3, 5, 10], 3), ([6], 1)):
            chunks = _chunks(terms, cuts=cuts)
            pulled = []

            def feed():
                for chunk in chunks:
                    pulled.append(chunk)
                    yield chunk

            state = _scan(feed(), 0.5, 2.0**-5, len(terms))
            assert state.stopped and len(state.terms) == 6, cuts
            assert len(pulled) == chunks_read, cuts

    def test_chunks_match_the_scan_by_term(self):
        # random term lists cut into random chunks against the per-term
        # loop: every _ScanState field bit for bit, or IndexError from
        # both.  Each list is also cut at its stop, around it and at
        # n_max, and the cases must cover every path below
        rng = random.Random(20121)
        seen = collections.Counter()
        for _ in range(400):
            count = rng.randrange(1, 50)
            zeros = rng.choice([0, 0, rng.randrange(count + 1)])
            decay = rng.uniform(0.1, 1.2)
            terms = [0.0] * zeros + [
                rng.uniform(0.5, 2.0) * decay**i if rng.random() < 0.8 else 0.0
                for i in range(count - zeros)
            ]
            errors = [rng.choice([0.0, rng.uniform(0.0, 1e-3)]) for _ in terms]
            oks = [rng.random() < 0.95 for _ in terms]
            ratio = rng.choice([0.1, 0.5, 0.9, 1.0, 1.5])
            stop_tol = rng.choice([0.0, 10.0 ** rng.uniform(-12.0, 1.0)])
            n_max = rng.choice([count, rng.randrange(1, count + 1), count + rng.randrange(1, 4)])
            try:
                want = _scan_by_term(zip(terms, errors, oks), ratio, stop_tol, n_max)
            except IndexError:
                want = None
            end = len(want.terms) if want else count
            cut_sets = [
                sorted(rng.randrange(count + 1) for _ in range(rng.randrange(5))),
                [end],
                [max(end - 1, 0), min(end + 1, count)],
                [min(n_max, count)],
            ]
            for cuts in cut_sets:
                chunks = _chunks(terms, errors, oks, cuts)
                if want is None:
                    with pytest.raises(IndexError):
                        _scan(iter(chunks), ratio, stop_tol, n_max)
                    seen["raised"] += 1
                    continue
                got = _scan(iter(chunks), ratio, stop_tol, n_max)
                assert repr(vars(got)) == repr(vars(want)), (terms, ratio, stop_tol, n_max, cuts)
                edges = {0, *cuts, count}
                if want.stopped:
                    seen["stop at a chunk's end" if end in edges else "stop inside a chunk"] += 1
                elif end == n_max and end not in edges:
                    seen["n_max inside a chunk"] += 1
                elif end < n_max:
                    seen["zero terms ending early"] += 1
                seen["zeros before the first nonzero"] += want.stopped and zeros > 0
                seen["ratio >= 1"] += ratio >= 1.0
        assert len(seen) == 7 and min(seen.values()) >= 10, seen


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

    @pytest.mark.parametrize("t, tol", [(1e300, 1e10), (1e200, 1e120)])
    def test_envelope_where_t_tol_overflows(self, t, tol):
        # 2 Jn[q] / (pi t tol_q) underflows to 0.0: the envelope takes the
        # logarithms of its factors, where it raised "math domain error"
        ev = evaluate_series6(GreenParams(t=t), tol=tol)
        assert ev.converged and ev.terms_used == 1
        assert ev.value == 1.0 / t

    def test_gamma_over_t_below_the_double_range(self):
        # gamma/t = 1e-330 underflows to 0.0: both envelopes take their
        # bound without x, where the row width raised "math domain error"
        p = GreenParams(t=1e300, gamma=1e-30)
        ev = evaluate_series6(p, tol=1e-3)
        assert ev.converged and ev.terms_used == 1
        assert ev.value == 1e-300 == evaluate_series5(p, tol=1e-3).value
        assert _row_envelope(p, 5) == 1.0

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
        _cold()
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
