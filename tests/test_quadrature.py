import math

import numpy as np
import pytest

from greenfcc import DomainError, GreenParams, QuadratureSpec, green_by_quadrature, quadrature
from greenfcc.quadrature import (
    _ROUNDING,
    _factors,
    _half_grid,
    _nested_trapezoid,
    _z_integral,
)

WATSON_T3 = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)


class TestIntegrand:
    def test_factors_bounded_below_by_shift(self):
        # A - B and A + B are sums of non-negative terms plus s = t-2-gamma
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0.0, math.pi, size=(2, 4000))
        for gamma in (0.5, 1.0, 2.0, 5.0):
            for shift in (0.0, 1e-3, 1.0):
                params = GreenParams(t=2.0 + gamma + shift, gamma=gamma)
                minus, plus = _factors(params, x, y)
                s = params.t - params.band_edge
                assert np.all(minus >= s) and np.all(plus >= s)
                cx, cy = np.cos(x), np.cos(y)
                a, b = params.t - gamma * cx * cy, cx + cy
                np.testing.assert_allclose(minus, a - b, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(plus, a + b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "x, y, n",
        [(0.3, 1.1, 0), (0.3, 1.1, 3), (1.4, 2.9, 2), (0.05, 0.02, 1), (2.0, 0.7, 6)],
    )
    def test_z_closed_form_against_numeric(self, x, y, n):
        # the trapezoid rule on a full period converges geometrically for
        # this analytic periodic even integrand, and its mean over the
        # period is (1/pi) times the integral over [0, pi]
        z = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        for gamma, t in ((1.0, 3.0), (0.5, 2.6), (2.0, 6.0)):
            params = GreenParams(t=t, gamma=gamma, l=n % 2, n=n)  # l sets parity
            cx, cy = math.cos(x), math.cos(y)
            omega = gamma * cx * cy + np.cos(z) * (cx + cy)
            numeric = math.fsum(np.cos(n * z) / (t - omega)) / z.size
            closed = float(_z_integral(params, np.array(x), np.array(y)))
            assert closed == pytest.approx(numeric, rel=1e-12, abs=1e-16)


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
            for n, value, previous, magnitude in _nested_trapezoid(GreenParams(t=t), 8):
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

    def test_deterministic_reruns(self):
        spec = QuadratureSpec()
        params = GreenParams(t=3.2, gamma=1.0, l=1, m=1, n=0)
        first = green_by_quadrature(params, spec)
        second = green_by_quadrature(params, spec)
        assert first.value == second.value
        assert first.terms_used == second.terms_used

    def test_error_estimate_covers_truth(self):
        # w = (t - edge)/(1 + gamma) = 0.0056 is on the corner path, where
        # the Gauss-Legendre fields set the resolution
        params = GreenParams(t=2.81, gamma=0.8)
        coarse = green_by_quadrature(
            params, QuadratureSpec(nodes_per_axis=8, subdivisions_per_axis=1)
        )
        fine = green_by_quadrature(params)
        assert coarse.terms_used < fine.terms_used
        assert abs(coarse.value - fine.value) <= 10 * max(
            coarse.abs_error_estimate, 1e-15
        )

    def test_nested_estimate_covers_truth(self):
        # every unconverged trapezoid level's |I_N - I_N/2| bounds the
        # error of I_N against the level that reached the rounding floor
        levels = []
        for n, value, previous, magnitude in _nested_trapezoid(GreenParams(t=4.0, gamma=0.8), 8):
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
        # corner path: bulk box, 3 boxes per level on half the cells, and
        # the two Duffy triangles of the innermost square
        levels = QuadratureSpec().corner_refinement_levels
        q = green_by_quadrature(GreenParams(t=3.01))
        assert q.terms_used == 96**2 + 3 * levels * 48**2 + 2 * 24**2

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

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("shift", [1e-15, 1e-12, 1e-9, 1e-6])
    def test_near_edge_window(self, gamma, shift):
        # the innermost box must not straddle the core of radius ~sqrt(s)
        params = GreenParams(t=2.0 + gamma + shift, gamma=gamma, l=2, m=1, n=1)
        q = green_by_quadrature(params)
        deep = green_by_quadrature(params, QuadratureSpec(corner_refinement_levels=40))
        err = abs(q.value - deep.value)
        assert err <= 1e-12
        assert err <= q.abs_error_estimate
        assert q.converged

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
        # from the switch up the trapezoid needs N <= 512, where it beats
        # the corner path; a little below it N = 1024 is needed, which
        # takes 3-4x the corner path's time
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
        nodes, weights = _half_grid(64, 3)
        for site in (67, 3 + 64 * 10**6):
            shifted_nodes, shifted = _half_grid(64, site)
            assert np.array_equal(shifted_nodes, nodes)
            assert np.array_equal(shifted, weights)

    def test_site_beyond_finest_grid_not_converged(self):
        # N = 2048 aliases cos(2048 x) to 1 on both nested grids alike
        q = green_by_quadrature(GreenParams(t=4.0, l=2048))
        assert q.abs_error_estimate == math.inf
        assert not q.converged
