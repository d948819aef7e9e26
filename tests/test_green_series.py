import math
import warnings
from fractions import Fraction

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
    outer_term_series5,
)
from greenfcc.green_series import _safe_order, _series6_row, _workspace
from walk_oracle import walk_moment

PI3 = math.pi**3


def _gather_double_sum(i, F, Jl, Jm, Jn, upow, extra_scales=()):
    """The dense (i+1)^2 Toeplitz-gather form of the double sum (reference)."""
    sl = slice(0, i + 1)
    a = np.arange(i + 1)
    idx = np.clip(a[None, :] - a[:, None] + i, 0, i)
    rows = (F[sl, sl] * Jl[idx] * Jm[i::-1][None, :]).sum(axis=1)
    for scale in extra_scales:
        rows = rows * scale[sl]
    w = F[i, sl] * upow[i::-1] * Jn[sl]
    return float((w * rows).sum())


def _gather_term5(ws, i):
    if i <= ws.safe_order:
        raw = _gather_double_sum(i, ws.F, ws.Jl, ws.Jm, ws.Jn, ws.gamma_pows)
        return raw / PI3 * ws.params.t ** (-1 - i)
    scales = (ws.pow2neg, ws.twot_pows)
    raw = _gather_double_sum(i, ws.F, ws.Jl, ws.Jm, ws.Jn, ws.ut_pows, scales)
    return raw / ws.params.t / PI3


def _series6_row_per_j(ws, i, x, tol_inner, l_max):
    """The one-j-at-a-time form of the series6 inner sum (reference)."""
    base = ws.F[i, : i + 1]
    c = (2.0 / ws.params.t) ** i
    pieces, prev_piece, seen, bound, ok = [], 0.0, False, math.inf, False
    for j in range(l_max):
        row = float((base * ws.Jl[j : j + i + 1] * ws.Jm[j : j + i + 1][::-1]).sum())
        piece = c * (row * math.ldexp(1.0, -i)) * ws.Jn[i] / ws.params.t / PI3
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
    """The strided hot loops reproduce the gather forms bit for bit."""

    SITES = [(0, 0, 0), (2, 0, 0), (2, 1, 1), (3, 3, 2), (5, 0, 1), (1, 1, 4)]

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_double_sum_matches_gather(self, gamma):
        safe = _safe_order(gamma)
        orders = [0, 1, 2, 3, 6, 7, 40, 41, safe - 1, safe, safe + 1, safe + 2]
        for site in self.SITES:
            p = GreenParams(t=2.0 + gamma + 0.01, gamma=gamma, l=site[0], m=site[1], n=site[2])
            ws = _workspace(p, safe + 2)
            for i in orders:
                assert ws.term5(i) == _gather_term5(ws, i), (site, i)
                if i <= safe:
                    want = _gather_double_sum(i, ws.F, ws.Jl, ws.Jm, ws.Jn, ws.gamma_pows)
                    assert ws.moment(i) == want / PI3, (site, i)

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


class TestOuterTerm:
    def test_leading_term_is_one_over_t(self):
        p = GreenParams(t=4.0)
        assert outer_term_series5(0, p) == pytest.approx(PI3 / 4.0, rel=1e-15)

    def test_leading_term_off_origin_vanishes(self):
        p = GreenParams(t=4.0, l=2, m=0, n=0)
        assert outer_term_series5(0, p) == 0.0

    def test_second_moment_term(self):
        p = GreenParams(t=4.0, gamma=1.0)
        want = 0.75 * PI3 * 4.0 ** (-3)
        assert outer_term_series5(2, p) == pytest.approx(want, rel=1e-14)

    @given(
        st.integers(0, 12),
        st.floats(min_value=0.1, max_value=3.0),
        st.sampled_from([(0, 0, 0), (2, 0, 0), (1, 1, 0), (2, 2, 0)]),
    )
    @settings(max_examples=120, deadline=None)
    def test_terms_non_negative(self, i, gamma, site):
        p = GreenParams(t=4.0, gamma=gamma, l=site[0], m=site[1], n=site[2])
        assert outer_term_series5(i, p) >= 0.0


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
        rows = convergence_rows(GreenParams(t=5.0), tol=1e-30, n_max=30)
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
        rows = convergence_rows(GreenParams(t=4.0), tol=1e-30, n_max=40)
        sums = [r["partial_sum"] for r in rows]
        assert sums == sorted(sums)

    def test_accelerated_column_present_with_wynn(self):
        rows = convergence_rows(
            GreenParams(t=3.0), tol=1e-10, n_max=40, accel="wynn"
        )
        assert any(r["accelerated_estimate"] is not None for r in rows)

    def test_series6_rows(self):
        rows = convergence_rows(
            GreenParams(t=5.0), tol=1e-10, n_max=30, method="series6"
        )
        assert len(rows) >= 1
        total5 = evaluate_series5(GreenParams(t=5.0), tol=1e-10).value
        assert rows[-1]["partial_sum"] == pytest.approx(total5, abs=1e-8)
