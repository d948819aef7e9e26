import math
import sys
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
from greenfcc.combinatorics import HARD_ORDER_CAP
from greenfcc.green_series import (
    _factorial_scales,
    _finish,
    _safe_order,
    _scan,
    _series6_row,
    _site_tables,
    _workspace,
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
    j = a[ws.params.n :: 2]
    w = F[i, j] * np.ldexp(1.0, -j) * ws.gs_pows[i - j] * ws.jn_scaled[j]
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
    p = ws.params
    total = Fraction(0)
    for j in range(l_max):
        inner = sum(
            math.comb(i, k) * Fraction(ws.Jl[j + k]) * Fraction(ws.Jm[j + i - k])
            for k in range(i + 1)
        )
        total += math.comb(i + j, j) * Fraction(x) ** j * inner
    scale = Fraction(2.0 / p.t) ** i / 2**i * Fraction(ws.Jn[i])
    return total * scale / Fraction(p.t) / Fraction(PI3)


def _series6_row_per_j(ws, i, x, tol_inner, l_max):
    """The one-j-at-a-time form of the series6 inner sum (reference).

    Its binomials are the code's own, E[k] E[i-k] G[i] = C(i,k) 2^-i, so
    the block form must match it bit for bit.
    """
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
    return math.fsum(pieces), (bound if math.isfinite(bound) else 0.0), ok


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
        exact_orders = [0, 1, 2, 3, 6, 7, 40, 41, 200, 201]
        deep_orders = [safe - 1, safe, safe + 1, safe + 2]
        for site in self.SITES:
            p = GreenParams(t=2.0 + gamma + 0.01, gamma=gamma, l=site[0], m=site[1], n=site[2])
            ws = _workspace(p, safe + 2)
            s, r = p.band_edge, p.band_edge / p.t
            for i in exact_orders + deep_orders:
                nu = ws.nu(i)
                if i in exact_orders:
                    want = _exact_nu(i, site, gamma)
                    assert abs(Fraction(nu) - want) <= (i + 1) * self.EPS * want, (site, i)
                else:
                    gather = Fraction(_gather_nu(ws, i))
                    assert abs(Fraction(nu) - gather) <= 2 * (i + 1) * self.EPS * gather, (site, i)
                assert ws.term5(i) == nu * r**i / p.t, (site, i)
                if i <= safe:
                    assert ws.moment(i) == nu * s**i, (site, i)

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
            ws = _workspace(p, HARD_ORDER_CAP, j_depth=HARD_ORDER_CAP + l_max)
            x = p.gamma / p.t
            for i in (HARD_ORDER_CAP - 1, HARD_ORDER_CAP):
                got_nu = ws.nu(i)
                got_row = _series6_row(ws, i, x, 0.0, l_max)[0]
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
        ws = _workspace(p, n_max, j_depth=n_max + l_max)
        x = p.gamma / p.t
        for i in (0, 1, 2, 7, 30, 31, 59):
            got = Fraction(_series6_row(ws, i, x, 0.0, l_max)[0])
            want = _exact_series6_row(ws, i, x, l_max)
            assert abs(got - want) <= (i + 1 + 2 * l_max + 6) * self.EPS * want, (i, l_max)

    @pytest.mark.parametrize("site", [(0, 0, 0), (2, 1, 1), (3, 3, 2)])
    def test_series6_blocks_match_per_j_sums(self, site):
        # l_max = 16, 17, 18 end the sum on j = 15, 16, 17, either side of a
        # block edge; tol_inner = 0 never stops early, so the returned bound
        # is built from the last rows themselves
        p = GreenParams(t=4.5, gamma=1.5, l=site[0], m=site[1], n=site[2])
        n_max, l_max_top = 30, 40
        ws = _workspace(p, n_max, j_depth=n_max + l_max_top)
        x = p.gamma / p.t
        for i in (0, 1, 4, 9, 29):
            for l_max in (1, 15, 16, 17, 18, 33, l_max_top):
                for tol_inner in (0.0, 1e-13):
                    got = _series6_row(ws, i, x, tol_inner, l_max)
                    want = _series6_row_per_j(ws, i, x, tol_inner, l_max)
                    assert got == want, (i, l_max, tol_inner)


class TestSiteTableCache:
    """One process-wide set of site tables serves every t and gamma."""

    VIEWS = ("Jl", "Jm", "Jn", "hankel", "jm_rev")

    def test_same_key_shares_arrays(self):
        a = _workspace(GreenParams(t=4.0, gamma=1.0, l=2, m=1, n=1), 60)
        b = _workspace(GreenParams(t=5.5, gamma=2.0, l=2, m=1, n=1), 60)
        for name in self.VIEWS:
            assert getattr(a, name) is getattr(b, name), name
        c = _workspace(GreenParams(t=4.0, gamma=1.0, l=2, m=1, n=1), 60, j_depth=90)
        assert c.Jl is not a.Jl

    def test_cached_tables_read_only(self):
        ws = _workspace(GreenParams(t=4.0, l=3, m=3, n=2), 40, j_depth=80)
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
        assert _workspace(p, 600, j_depth=1100).Jl.size == 1101
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
        assert _workspace(p, 0).term5(0) == pytest.approx(1 / 4.0, rel=1e-15)

    def test_leading_term_off_origin_vanishes(self):
        p = GreenParams(t=4.0, l=2, m=0, n=0)
        assert _workspace(p, 0).term5(0) == 0.0

    def test_second_moment_term(self):
        p = GreenParams(t=4.0, gamma=1.0)
        want = 0.75 * 4.0 ** (-3)
        assert _workspace(p, 2).term5(2) == pytest.approx(want, rel=1e-14)

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
        ws = _workspace(p, self.DEPTH)
        return np.array([ws.nu(i) for i in range(self.DEPTH + 1)])

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 7.0])
    def test_origin_bounds_every_site(self, gamma):
        even = self._nu_table(gamma, (0, 0, 0))[::2]
        assert np.all(np.diff(even) <= 0.0)
        envelope = np.repeat(even, 2)[: self.DEPTH + 1]
        for site in self.SITES:
            nu = self._nu_table(gamma, site)
            assert np.all(np.abs(nu) <= envelope), site


def _rows(terms, errors=None, oks=None):
    """A row function over fixed terms, inner errors and inner flags."""

    def row(i):
        return (
            terms[i],
            errors[i] if errors else 0.0,
            oks[i] if oks else True,
        )

    return row


class TestScan:
    """The summation loop of both series, on synthetic rows."""

    def test_zero_terms_before_the_floor_never_stop_it(self):
        # at ratio 1/2 the bound after a zero that follows a zero is 0.0
        terms = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        state = _scan(_rows(terms), 0.5, 4, 0.0, len(terms))
        assert state.bounds[:4] == [math.inf] * 4
        assert state.stopped and len(state.terms) == 5
        # before the first nonzero term no bound counts either
        state = _scan(_rows([0.0] * 6), 0.5, 0, 0.0, 6)
        assert not state.stopped and state.bounds == [math.inf] * 6

    def test_stops_at_the_first_bound_within_tol(self):
        terms = [2.0**-i for i in range(20)]
        state = _scan(_rows(terms), 0.5, 0, 2.0**-5, len(terms))
        # the bound after term i is max(2^-i, 2^-1 * 2^-(i-1)) = 2^-i
        assert state.bounds == [2.0**-i for i in range(6)]
        assert state.stopped and len(state.terms) == 6
        assert state.sums[-1] == 2.0 - 2.0**-5

    def test_inner_errors_and_flags_are_combined(self):
        terms = [1.0, 0.5, 0.25]
        errors = [1e-3, 2e-3, 4e-3]
        state = _scan(_rows(terms, errors, [True, False, True]), 0.5, 0, 0.0, 3)
        assert state.inner_errors == errors
        assert not state.inner_ok
        ev = _finish(state, 1.0, "none", "series6")
        assert ev.abs_error_estimate == state.best_bound + math.fsum(errors)
        assert not ev.converged
        state = _scan(_rows(terms, errors, [True] * 3), 0.5, 0, 0.0, 3)
        assert state.inner_ok

    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_ratio_at_or_above_one_never_stops(self, ratio):
        terms = [1e-300 * 0.5**i for i in range(8)]
        state = _scan(_rows(terms), ratio, 0, 1.0, len(terms))
        assert not state.stopped and len(state.terms) == 8
        assert state.bounds == [math.inf] * 8


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
