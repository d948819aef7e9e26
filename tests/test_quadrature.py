import json
import math
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from greenfcc import DomainError, GreenParams, QuadratureSpec, green_by_quadrature, quadrature
from greenfcc.quadrature import (
    _CORNER,
    _ROUNDING,
    _TRAPEZOID,
    _axis_tables,
    _corner_grids,
    _half_grids,
    _nested_product,
    _rows,
    _shift,
    _z_grid,
)

WATSON_T3 = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)
# G at 207 corner-path points by an independent deep rule, keyed by
# (gamma, t, l, m, n); how they were made is in the file
CORNER_REFERENCES = {
    tuple(point[:5]): point[5]
    for point in json.loads((Path(__file__).parent / "corner_references.json").read_text())["points"]
}


def _axis_factors(params, x, y):
    """The rows of x and the columns of y whose products give A - B, A + B and 2B."""
    axis, columns = _axis_tables(x, y)
    return _rows(axis, _shift(params), params.gamma), columns


# G at four band-edge points by mpmath at two precisions, with no code of
# greenfcc; how they were made is in the file
MP_REFERENCES = json.loads((Path(__file__).parent / "mp_references.json").read_text())["points"]
# Watson's closed form 3 Gamma(1/3)^6 / (2^(14/3) pi^4) to 30 digits
WATSON_T3_DIGITS = Decimal("0.448220394388381432116385450017")


def _products(params, x, y):
    """The near and far factors and 2B over the tensor grid x by y."""
    rows, columns = _axis_factors(params, x, y)
    return rows[:, 0:3] @ columns[:, 0:3].T, rows[:, 3:6] @ columns[:, 0:3].T, rows[:, 6:8] @ columns[:, 3:5].T


def _agm(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return (a + b) / 2.0


def _origin_by_agm(t: float, gamma: float, points: int = 128) -> float:
    """G(t, 0, 0, 0; gamma) as the 1D integral left after the z and y integrals.

    G = (1/pi) int_0^pi dx / M(sqrt((t+1)^2 - (gamma-1)^2 c^2),
    sqrt((t-1)^2 - (1+gamma)^2 c^2)), c = cos x, with M the
    arithmetic-geometric mean (DLMF 19.8).  The integrand is even and
    pi-periodic, so the mean over equispaced points converges
    geometrically.  Each difference of squares is taken as a product,
    the small factor from the shift t - 2 - gamma and 1 - c = 2 sin^2(x/2).
    """
    shift = t - 2.0 - gamma
    total = []
    for k in range(points):
        x = math.pi * k / points
        c = math.cos(x)
        a2 = (t + 1.0 - (gamma - 1.0) * c) * (t + 1.0 + (gamma - 1.0) * c)
        b2 = (shift + 2.0 * (1.0 + gamma) * math.sin(x / 2.0) ** 2) * (t - 1.0 + (1.0 + gamma) * c)
        total.append(1.0 / _agm(math.sqrt(a2), math.sqrt(b2)))
    return math.fsum(total) / points


class TestIntegrand:
    def test_factors_bounded_below_by_shift(self):
        # A - B and A + B are P_x + Q_x b_y with non-negative pieces near
        # their zeros, so neither falls below s = t-2-gamma; at gamma = 5
        # Q_x < 0 is reached on [0, pi]^2, in both halves of the x axis
        rng = np.random.default_rng(7)
        x, y = (np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, size=200)]) for _ in range(2))
        cx, cy = np.cos(x)[:, None], np.cos(y)[None, :]
        lower = (x <= math.pi / 2)[:, None]
        for gamma in (0.5, 1.0, 2.0, 5.0):
            for shift in (0.0, 1e-3, 1.0):
                params = GreenParams(t=2.0 + gamma + shift, gamma=gamma)
                rows, _ = _axis_factors(params, x, y)
                assert np.any(rows[x <= math.pi / 2, 4] < 0) and np.any(rows[x > math.pi / 2, 5] < 0)
                near, far, twice_b = _products(params, x, y)
                s = params.t - params.band_edge
                assert np.all(near >= s) and np.all(far >= s)
                a, b = params.t - gamma * cx * cy, cx + cy
                minus, plus = np.where(lower, near, far), np.where(lower, far, near)
                np.testing.assert_allclose(minus, a - b, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(plus, a + b, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(twice_b, 2.0 * b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "x, y, n",
        [(0.3, 1.1, 0), (0.3, 1.1, 3), (1.4, 2.9, 2), (0.05, 0.02, 1), (2.0, 0.7, 6), (2.9, 3.1, 1)],
    )
    def test_z_closed_form_against_numeric(self, x, y, n):
        # the trapezoid rule on a full period converges geometrically for
        # this analytic periodic even integrand, and its mean over the
        # period is (1/pi) times the integral over [0, pi]
        z = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        for gamma, t in ((1.0, 3.0), (0.5, 2.6), (2.0, 6.0), (5.0, 7.5)):
            params = GreenParams(t=t, gamma=gamma, l=n % 2, n=n)  # l sets parity
            cx, cy = math.cos(x), math.cos(y)
            omega = gamma * cx * cy + np.cos(z) * (cx + cy)
            numeric = math.fsum(np.cos(n * z) / (t - omega)) / z.size
            grid = _z_grid(params, *_axis_factors(params, np.array([0.7, x]), np.array([y, 1.3])))
            assert grid.shape == (2, 2)
            assert float(grid[1, 0]) == pytest.approx(numeric, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("gamma", [0.5, 5.0])
    @pytest.mark.parametrize("site", [(2, 0, 0), (1, 0, 1), (1, 1, 2), (2, 1, 3), (4, 3, 9)])
    @pytest.mark.parametrize("rule", ["trapezoid", "corner"])
    def test_levels_are_explicit_grid_sums(self, rule, site, gamma):
        # each level's I_n, I_n/2 and magnitude, read from the one grid at
        # n = first or added block by block past it, is the plain weighted
        # sum over the whole n-point tensor grid, and over the n/2-point
        # grid for I_n/2
        params = GreenParams(t=2.0 + gamma + 0.05 * (1.0 + gamma), gamma=gamma, l=site[0], m=site[1], n=site[2])
        grids, key = (_half_grids, _TRAPEZOID) if rule == "trapezoid" else (_corner_grids, _CORNER)
        start = 32 if rule == "trapezoid" else 8

        def grid_sums(n):
            x, y, (wx, wy) = grids(n, params.l, params.m)
            terms = (wx[:, None] * wy[None, :] * _z_grid(params, *_axis_factors(params, x, y))).ravel()
            return math.fsum(terms) / n**2, math.fsum(np.abs(terms)) / n**2

        for first in (start, 2 * start, 4 * start):
            levels = _nested_product(params, start, first, key)
            for level in range(4):
                n, value, previous, magnitude = next(levels)
                assert n == start << level
                total, size = grid_sums(n)
                floor = 8 * sys.float_info.epsilon * magnitude
                assert abs(value - total) <= floor
                assert abs(previous - grid_sums(n // 2)[0]) <= floor
                assert abs(magnitude - size) <= floor


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=3)
        with pytest.raises(ValueError):
            QuadratureSpec(subdivisions_per_axis=0)
        with pytest.raises(ValueError):
            QuadratureSpec(corner_refinement_levels=-1)
        with pytest.raises(ValueError):
            QuadratureSpec(target_tol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"corner_refinement_levels": 2.5},
            {"corner_refinement_levels": "3"},
            {"corner_refinement_levels": None},
            {"corner_refinement_levels": True},
            {"nodes_per_axis": 24.0},
            {"subdivisions_per_axis": "4"},
            {"target_tol": "1e-10"},
            {"target_tol": None},
            {"target_tol": True},
            {"target_tol": 1e-10j},
        ],
    )
    def test_fields_of_the_wrong_type_rejected(self, kwargs):
        # each is a ValueError up front: levels 2.5 used to be accepted,
        # ignored off the corner and a TypeError at t = 3.001 from the
        # corner rule's shift; "3", None or a text target_tol were
        # TypeErrors from the comparisons
        with pytest.raises(ValueError, match="must be"):
            QuadratureSpec(**kwargs)

    def test_integer_like_levels_accepted(self):
        params = GreenParams(t=3.001, gamma=1.0)
        want = green_by_quadrature(params, QuadratureSpec(corner_refinement_levels=3))
        got = green_by_quadrature(params, QuadratureSpec(corner_refinement_levels=np.int64(3)))
        assert got == want

    def test_numpy_target_tol_stored_as_float(self):
        # target_tol = float64(1e-10) made converged np.True_
        spec = QuadratureSpec(target_tol=np.float64(1e-10))
        assert type(spec.target_tol) is float
        got = green_by_quadrature(GreenParams(t=4.0), spec)
        assert type(got.converged) is bool and got == green_by_quadrature(GreenParams(t=4.0))

    def test_target_tol_past_the_double_range_refused(self):
        # math.isfinite(10**400) raised OverflowError
        with pytest.raises(ValueError, match="target_tol must be positive and finite"):
            QuadratureSpec(target_tol=10**400)

    def test_huge_refinement_levels(self):
        # lowest << levels raised MemoryError at 10**18; every level that
        # reaches the finest step runs the default rule
        params = GreenParams(t=3.0, gamma=1.0)
        got = green_by_quadrature(params, QuadratureSpec(corner_refinement_levels=10**18))
        assert got == green_by_quadrature(params)

    @pytest.mark.parametrize("t", [3.001, 4.0])
    def test_default_spec_built_once(self, t, monkeypatch):
        # a call without a spec reads the module's frozen default, on the
        # corner path and off it, and gives what an explicit default gives
        params = GreenParams(t=t, gamma=1.0)
        want = green_by_quadrature(params, QuadratureSpec())

        def refuse(*args, **kwargs):
            raise AssertionError("QuadratureSpec built during a call")

        monkeypatch.setattr(quadrature, "QuadratureSpec", refuse)
        assert green_by_quadrature(params) == want
        assert quadrature._DEFAULT_SPEC == QuadratureSpec()


class TestGreenByQuadrature:
    def test_domain_error_below_band(self):
        with pytest.raises(DomainError):
            green_by_quadrature(GreenParams(t=2.5, gamma=1.0))

    def test_band_edge_needs_refinement(self):
        with pytest.raises(DomainError):
            green_by_quadrature(
                GreenParams(t=3.0, gamma=1.0),
                QuadratureSpec(corner_refinement_levels=0),
            )

    def test_band_edge_closed_form(self):
        # 3 Gamma(1/3)^6 / (2^(14/3) pi^4), the known value of the
        # isotropic integral at its band edge
        target = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)
        q = green_by_quadrature(
            GreenParams(t=3.0, gamma=1.0),
            QuadratureSpec(corner_refinement_levels=22),
        )
        assert q.value == pytest.approx(target, abs=1e-9)

    def test_refinement_doublings_shrink_differences(self):
        # the periodic trapezoid converges geometrically: each doubling
        # cuts |I_N - I_N/2| at least tenfold until it reaches the
        # rounding floor of the sum
        for t in (3.5, 5.0):
            differences = []
            for n, value, previous, magnitude in _nested_product(GreenParams(t=t), 8, 8, _TRAPEZOID):
                differences.append(abs(value - previous))
                if differences[-1] <= _ROUNDING * magnitude or n >= 256:
                    break
            assert differences[-1] <= _ROUNDING * magnitude
            assert len(differences) >= 3
            for coarse, fine in zip(differences, differences[1:]):
                assert fine <= coarse / 10.0

    def test_positive_at_origin(self):
        q = green_by_quadrature(GreenParams(t=5.0, gamma=1.0))
        assert q.value > 0.0

    def test_lm_swap_any_gamma(self):
        a = green_by_quadrature(GreenParams(t=6.0, gamma=1.6, l=2, m=0, n=0))
        b = green_by_quadrature(GreenParams(t=6.0, gamma=1.6, l=0, m=2, n=0))
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_full_permutation_at_isotropy(self):
        a = green_by_quadrature(GreenParams(t=5.0, gamma=1.0, l=2, m=0, n=0))
        b = green_by_quadrature(GreenParams(t=5.0, gamma=1.0, l=0, m=0, n=2))
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_large_t_relative_accuracy(self):
        q = green_by_quadrature(GreenParams(t=1e6, gamma=1.0))
        assert q.value * 1e6 == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("site", [(2, 0, 0), (1, 0, 1)])
    def test_largest_t_raises_no_overflow(self, site):
        # every RuntimeWarning is an error here; the factors, their roots
        # and rho's denominator stay finite up to the largest floats
        q = green_by_quadrature(GreenParams(t=1.7e308, l=site[0], m=site[1], n=site[2]))
        assert abs(q.value) <= q.abs_error_estimate

    def test_deterministic_reruns(self):
        spec = QuadratureSpec()
        params = GreenParams(t=3.2, gamma=1.0, l=1, m=1, n=0)
        first = green_by_quadrature(params, spec)
        second = green_by_quadrature(params, spec)
        assert first.value == second.value
        assert first.terms_used == second.terms_used

    def test_error_estimate_covers_truth(self):
        # w = (t - edge)/(1 + gamma) = 0.0056 is on the corner path, where
        # corner_refinement_levels caps the halvings of the step: 0 keeps
        # the first grid, whose estimate is |I_h - I_2h|, and 1 adds one
        # halving, estimated by the d^2/d model
        params = GreenParams(t=2.81, gamma=0.8)
        fine = green_by_quadrature(params)
        for levels in (0, 1):
            coarse = green_by_quadrature(
                params, QuadratureSpec(corner_refinement_levels=levels)
            )
            assert coarse.terms_used < fine.terms_used
            assert abs(coarse.value - fine.value) <= 10 * max(
                coarse.abs_error_estimate, 1e-15
            )

    def test_nested_estimate_covers_truth(self):
        # every unconverged trapezoid level's |I_N - I_N/2| bounds the
        # error of I_N against the level that reached the rounding floor
        levels = []
        for n, value, previous, magnitude in _nested_product(GreenParams(t=4.0, gamma=0.8), 8, 8, _TRAPEZOID):
            levels.append((value, abs(value - previous)))
            if levels[-1][1] <= _ROUNDING * magnitude:
                break
        converged = levels[-1][0]
        assert len(levels) >= 3
        assert levels[0][0] != converged
        for value, difference in levels[:-1]:
            assert abs(value - converged) <= difference

    def test_node_count_reported(self):
        # trapezoid: the (N/2 + 1)^2 nodes of the final half grid, N = 64
        q = green_by_quadrature(GreenParams(t=5.0))
        assert q.terms_used == (64 // 2 + 1) ** 2
        assert q.method == "quadrature"
        # corner path: the tanh-sinh product rule of step h = 1/32, whose
        # nodes |k| h <= 3.5 number 7/h + 1 on each axis
        q = green_by_quadrature(GreenParams(t=3.01))
        assert q.terms_used == (7 * 32 + 1) ** 2

    def test_estimate_floored_at_rounding_level(self):
        # the fine and coarse runs can agree to the last bit; the estimate
        # must still cover the rounding of the sum itself
        for params in (
            GreenParams(t=4.2, gamma=2.0, l=3, m=3, n=2),
            GreenParams(t=3.0, gamma=1.0),
            GreenParams(t=4.5, gamma=2.0),
        ):
            q = green_by_quadrature(params)
            assert q.abs_error_estimate > 0.0
            assert q.abs_error_estimate <= 1e-14


# points on both paths, w = (t - edge)/(1 + gamma) from the edge up
FIRST_GRID_POINTS = [
    GreenParams(t=2.0 + gamma + w * (1.0 + gamma), gamma=gamma, l=site[0], m=site[1], n=site[2])
    for gamma in (0.5, 1.0, 7.0)
    for w in (0.0, 1e-6, 0.004, 0.01, 0.03, 0.1, 1.0, 10.0)
    for site in ((0, 0, 0), (2, 1, 1), (4, 2, 0), (8, 0, 0))
]


def _from_start(monkeypatch, firsts=None):
    """Make each run evaluate its first grid at the start, recording the first it chose in ``firsts``."""
    nested_product = quadrature._nested_product

    def at_start(params, start, first, rule):
        if firsts is not None:
            firsts[params] = first
        return nested_product(params, start, start, rule)

    monkeypatch.setattr(quadrature, "_nested_product", at_start)


class TestFirstGrid:
    """The one grid evaluated first saves levels; it moves no result and adds no nodes."""

    def test_first_grid_moves_no_result(self, monkeypatch):
        chosen = [green_by_quadrature(params) for params in FIRST_GRID_POINTS]
        _from_start(monkeypatch)
        for params, q in zip(FIRST_GRID_POINTS, chosen):
            reference = green_by_quadrature(params)
            assert (q.terms_used, q.converged) == (reference.terms_used, reference.converged), params
            assert abs(q.value - reference.value) <= max(q.abs_error_estimate, reference.abs_error_estimate)

    def test_first_grid_is_no_finer_than_the_stop(self, monkeypatch):
        # the first grid is at most the finest grid the rules reach from
        # the start, so it adds no node
        firsts = {}
        _from_start(monkeypatch, firsts)
        for params in FIRST_GRID_POINTS:
            side = math.isqrt(green_by_quadrature(params).terms_used)
            stop = (side - 1) // 7 if quadrature._use_corner(params) else 2 * (side - 1)
            assert firsts[params] <= stop, params

    @pytest.mark.parametrize("halvings", [0, 1])
    def test_capped_corner_evaluates_no_finer_grid(self, monkeypatch, halvings):
        corner_grids, seen = quadrature._corner_grids, []

        def spy(n, l, m):
            seen.append(n)
            return corner_grids(n, l, m)

        monkeypatch.setattr(quadrature, "_corner_grids", spy)
        spec = QuadratureSpec(corner_refinement_levels=halvings)
        # the step starts at 1/8, or at 1/32 for (24, 0, 0)
        for site, start in (((0, 0, 0), 8), ((2, 1, 1), 8), ((24, 0, 0), 32)):
            # a cached record would hide the grids the call reads
            quadrature._grid_tables.cache_clear()
            seen.clear()
            green_by_quadrature(GreenParams(t=2.81, gamma=0.8, l=site[0], m=site[1], n=site[2]), spec)
            assert seen and max(seen) <= start << halvings, site

    @pytest.mark.parametrize(
        "params",
        # the trapezoid at N = 2048, and the corner rule at h = 1/64
        [GreenParams(t=1010.008, gamma=1000.0, n=20), GreenParams(t=3.0, l=2, m=1, n=1)],
    )
    def test_working_memory_is_bounded(self, params):
        # F is formed in row tiles: one block of the N = 2048 grid alone
        # holds 8.4 MB
        tracemalloc.start()
        try:
            green_by_quadrature(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestGridCache:
    """One process-wide record of each grid's t-free tables serves every t and gamma."""

    # a trapezoid point whose first grid is N = 32 and whose stop is N = 64,
    # the same keys at another t and gamma, a corner point and one at t =
    # 2+gamma exactly
    DOUBLING = GreenParams(t=10.0, gamma=2.0, l=2, m=2, n=0)
    SAME_KEYS = GreenParams(t=12.0, gamma=2.5, l=2, m=2, n=0)
    CORNER = GreenParams(t=2.81, gamma=0.8, l=2, m=1, n=1)
    EDGE = GreenParams(t=3.0, gamma=1.0, l=2, m=1, n=1)

    @staticmethod
    def _records(monkeypatch, params):
        """The (key, record) pairs a call to green_by_quadrature at ``params`` reads."""
        grid_tables, read = quadrature._grid_tables, []

        def spy(*key):
            read.append((key, grid_tables(*key)))
            return read[-1][1]

        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_grid_tables", spy)
            green_by_quadrature(params)
        return read

    def test_same_key_shares_arrays(self, monkeypatch):
        a = self._records(monkeypatch, self.DOUBLING)
        b = self._records(monkeypatch, self.SAME_KEYS)
        # the first grid and one doubling level, keyed (rule, N, l, m, levels)
        assert [key for key, _ in a] == [(_TRAPEZOID, 32, 2, 2, 2), (_TRAPEZOID, 64, 2, 2, 1)]
        assert [key for key, _ in b] == [key for key, _ in a]
        for (key, record), (_, other) in zip(a, b):
            assert all(isinstance(k, int) for k in key)
            for name in record._fields:
                assert getattr(record, name) is getattr(other, name), (key, name)

    def test_cached_tables_read_only(self, monkeypatch):
        for params in (self.DOUBLING, self.CORNER):
            for key, record in self._records(monkeypatch, params):
                for name, arr in zip(record._fields, record):
                    with pytest.raises(ValueError):
                        arr[(0,) * arr.ndim] = 1.0
                    # every array a view is built on is read-only too
                    while arr is not None:
                        assert not arr.flags.writeable, (key, name)
                        arr = arr.base

    @pytest.mark.parametrize("params", [DOUBLING, CORNER])
    def test_warm_call_builds_no_grid(self, monkeypatch, params):
        # after one call, a call at the same keys builds no grid: not the
        # first one, and for the trapezoid point not its doubling level
        green_by_quadrature(params)
        built = []
        for name in ("_half_grids", "_corner_grids"):
            grids = getattr(quadrature, name)
            monkeypatch.setattr(quadrature, name, lambda *args, grids=grids: built.append(args) or grids(*args))
        assert len(self._records(monkeypatch, params)) == (2 if params is self.DOUBLING else 1)
        assert built == []
        # cleared, the same call builds every grid it reads again
        quadrature._grid_tables.cache_clear()
        green_by_quadrature(params)
        assert [n for n, _, _ in built] == ([32, 64] if params is self.DOUBLING else [32])

    def test_cold_and_warm_results_identical(self):
        # warm, SAME_KEYS reads both records DOUBLING built, and EDGE the
        # first grid CORNER built, each at another t and gamma
        points = (self.DOUBLING, self.SAME_KEYS, self.CORNER, self.EDGE)
        cold = []
        for params in points:
            quadrature._grid_tables.cache_clear()
            cold.append(repr(green_by_quadrature(params)))
        quadrature._grid_tables.cache_clear()
        warm = [repr(green_by_quadrature(params)) for params in points]
        assert quadrature._grid_tables.cache_info().hits == 3
        assert warm == cold

    def test_largest_records_are_small(self):
        # the trapezoid's first grid is N = 512, with the rules N = 16 ..
        # 512 read from it, and it doubles to N = 1024 and 2048: what the
        # call leaves allocated is those three records
        params = GreenParams(t=1010.008, gamma=1000.0, n=20)
        quadrature._grid_tables.cache_clear()
        tracemalloc.start()
        try:
            green_by_quadrature(params)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert quadrature._grid_tables.cache_info().currsize == 3
        assert kept <= 2**19


def _lattice_residual(t: float, gamma: float, site, spec: QuadratureSpec) -> float:
    """(t - w)G at ``site`` minus the Kronecker delta, G by quadrature."""
    cache: dict = {}

    def g(l, m, n):
        key = tuple(sorted((abs(l), abs(m)))) + (abs(n),)
        if key not in cache:
            params = GreenParams(t=t, gamma=gamma, l=key[0], m=key[1], n=key[2])
            cache[key] = green_by_quadrature(params, spec).value
        return cache[key]

    l, m, n = site
    pm = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    total = t * g(l, m, n)
    total -= gamma / 4 * math.fsum(g(l + a, m + b, n) for a, b in pm)
    total -= 0.25 * math.fsum(g(l, m + a, n + b) for a, b in pm)
    total -= 0.25 * math.fsum(g(l + a, m, n + b) for a, b in pm)
    return total - (1.0 if site == (0, 0, 0) else 0.0)


class TestReferences:
    """Checks against exact values that need no series and no deep run."""

    def test_watson_origin_at_band_edge(self):
        q = green_by_quadrature(GreenParams(t=3.0, gamma=1.0))
        err = abs(q.value - WATSON_T3)
        assert q.converged
        assert err <= q.abs_error_estimate
        assert err <= 1e-14

    def test_neighbour_at_band_edge(self):
        # the lattice equation at the origin, 3 G000 - 3 G110 = 1 at t = 3
        q = green_by_quadrature(GreenParams(t=3.0, gamma=1.0, l=1, m=1, n=0))
        err = abs(q.value - (WATSON_T3 - 1.0 / 3.0))
        assert q.converged
        assert err <= q.abs_error_estimate
        assert err <= 1e-14

    @pytest.mark.parametrize(
        "t, gamma",
        [(4.0, 1.0), (3.5, 1.0), (3.1, 1.0), (3.02, 1.0), (2.6, 0.5), (6.0, 2.0), (12.0, 0.5), (1e6, 100003.0)],
    )
    def test_origin_against_agm(self, t, gamma):
        # a 1D oracle that shares no code with the 2D rule
        q = green_by_quadrature(GreenParams(t=t, gamma=gamma))
        assert q.value == pytest.approx(_origin_by_agm(t, gamma), rel=2e-15)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("shift", [1e-15, 1e-12, 1e-9, 1e-6])
    def test_near_edge_window(self, gamma, shift):
        # the nodes next to the corner must resolve the core of radius ~sqrt(s)
        params = GreenParams(t=2.0 + gamma + shift, gamma=gamma, l=2, m=1, n=1)
        q = green_by_quadrature(params)
        err = abs(q.value - CORNER_REFERENCES[(gamma, params.t, 2, 1, 1)])
        assert err <= 1e-12
        assert err <= q.abs_error_estimate
        assert q.converged

    @pytest.mark.parametrize(
        "t, gamma, reference",
        # 40-digit mpmath values of the 1D AGM form of G at the origin,
        # taken at the exact binary values of t and gamma
        [
            (2.000000001, 1e-9, 0.69660196152641020496),
            (2.000001, 1e-9, 0.6962836761998532191),
            (2.0000001, 3e-8, 0.69651772569186797844),
        ],
    )
    def test_shift_of_the_float_inputs(self, t, gamma, reference):
        # 2 + gamma is not a float here: t - fl(2 + gamma) moved the edge
        # by up to 8e-17 and the value by up to 2.9e-9
        q = green_by_quadrature(GreenParams(t=t, gamma=gamma))
        assert q.converged
        assert abs(q.value - reference) <= q.abs_error_estimate

    def test_shift_below_the_edge_by_rounding(self):
        # t >= fl(2 + gamma), but t - 2 - gamma = -1e-17 exactly: the
        # shift is taken as 0, not fed to a square root
        params = GreenParams(t=2.000000001, gamma=1.0000000927403717e-09)
        assert math.fsum([params.t, -2.0, -params.gamma]) < 0.0 <= params.t - params.band_edge
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = green_by_quadrature(params)
        assert q.converged and math.isfinite(q.value)

    def test_corner_grid_against_deep_references(self):
        # every corner-path point of the reference file: up to the exact
        # edge, and to sites whose cosines the first grid must resolve
        for (gamma, t, l, m, n), reference in CORNER_REFERENCES.items():
            params = GreenParams(t=t, gamma=gamma, l=l, m=m, n=n)
            assert quadrature._use_corner(params)
            q = green_by_quadrature(params)
            assert q.converged, (gamma, t, l, m, n)
            assert abs(q.value - reference) <= q.abs_error_estimate, (gamma, t, l, m, n)

    @pytest.mark.parametrize("point", MP_REFERENCES, ids=lambda point: f"{point['t']}-{point['gamma']}-{point['lmn']}")
    def test_against_mp_references(self, point):
        # an oracle that shares no code with the product: the error is
        # within the product's estimate plus the spread of the reference's
        # two precisions, taken exactly in decimal
        l, m, n = point["lmn"]
        q = green_by_quadrature(GreenParams(t=point["t"], gamma=point["gamma"], l=l, m=m, n=n))
        with localcontext() as context:
            context.prec = 50
            error = abs(Decimal(q.value) - Decimal(point["value"]))
            assert error <= Decimal(q.abs_error_estimate) + Decimal(point["spread"])

    def test_mp_reference_at_origin_is_watson(self):
        (point,) = [p for p in MP_REFERENCES if (p["t"], p["gamma"], p["lmn"]) == (3.0, 1.0, [0, 0, 0])]
        assert abs(Decimal(point["value"]) - WATSON_T3_DIGITS) <= Decimal("1e-19")

    # at gamma = 1, t = 3.015 takes the corner path and 3.016 the
    # trapezoid: one on each side of the switch
    @pytest.mark.parametrize("t", [3.0, 3.001, 3.015, 3.016, 3.03, 4.2, 10.0])
    def test_lattice_equation(self, t):
        spec = QuadratureSpec()
        for site in ((0, 0, 0), (2, 1, 1), (2, 2, 0)):
            assert abs(_lattice_residual(t, 1.0, site, spec)) <= 1e-13, site

    @pytest.mark.parametrize(
        "site, reference",
        # the full series5 sum at tol 1e-300, n_max 1000, whose terms are
        # all non-negative
        [((12, 0, 0), 1.0104433939668701e-07), ((24, 0, 0), 4.905725479875256e-13)],
    )
    def test_far_axis_sites(self, site, reference):
        q = green_by_quadrature(GreenParams(t=4.0, gamma=1.0, l=site[0], m=site[1], n=site[2]))
        assert q.converged
        assert abs(q.value - reference) <= q.abs_error_estimate


class TestSwitch:
    """The trapezoid and the corner path agree where the switch may sit."""

    @pytest.mark.parametrize("site", [(0, 0, 0), (2, 1, 1), (3, 3, 2)])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("shift", [0.03, 0.05, 0.1])
    def test_trapezoid_matches_corner_path(self, monkeypatch, shift, gamma, site):
        params = GreenParams(t=2.0 + gamma + shift, gamma=gamma, l=site[0], m=site[1], n=site[2])
        monkeypatch.setattr(quadrature, "_CORNER_WIDTH", 0.0)
        trapezoid = green_by_quadrature(params)
        monkeypatch.setattr(quadrature, "_CORNER_WIDTH", math.inf)
        corner = green_by_quadrature(params)
        assert trapezoid.terms_used != corner.terms_used
        difference = abs(trapezoid.value - corner.value)
        assert difference <= 1e-15
        assert difference <= trapezoid.abs_error_estimate + corner.abs_error_estimate

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 7.0])
    def test_trapezoid_stops_by_512_at_the_switch(self, gamma):
        # from the switch up the trapezoid needs N <= 512; a little below
        # it N = 1024 is needed, which takes 4-7x the corner path's time
        width = quadrature._CORNER_WIDTH * (1.0 + 1e-12)
        for site in ((0, 0, 0), (2, 1, 1), (3, 3, 2), (8, 0, 0)):
            params = GreenParams(t=2.0 + gamma + width * (1.0 + gamma), gamma=gamma, l=site[0], m=site[1], n=site[2])
            q = green_by_quadrature(params)
            assert q.converged
            assert q.terms_used in [(n // 2 + 1) ** 2 for n in (32, 64, 128, 256, 512)]

    def test_below_the_switch_trapezoid_needs_1024(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_CORNER_WIDTH", 0.0)
        q = green_by_quadrature(GreenParams(t=3.014, gamma=1.0, l=3, m=3, n=2))
        assert q.terms_used == (1024 // 2 + 1) ** 2

    def test_site_factor_exactly_periodic(self):
        # cos(l x) on the grid depends on l mod N only, bit for bit, so
        # rounding of the nodes cannot break the rule's periodicity
        nodes, _, (weights, _) = _half_grids(64, 3, 0)
        for site in (67, 3 + 64 * 10**6):
            shifted_nodes, _, shifted = _half_grids(64, site, site)
            assert np.array_equal(shifted_nodes, nodes)
            assert np.array_equal(shifted[0], weights)
            assert np.array_equal(shifted[1], weights)

    def test_site_beyond_finest_grid_not_converged(self):
        # N = 2048 aliases cos(2048 x) to 1 on both nested grids alike
        q = green_by_quadrature(GreenParams(t=4.0, l=2048))
        assert q.abs_error_estimate == math.inf
        assert not q.converged
