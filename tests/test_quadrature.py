import math

import numpy as np
import pytest

from greenfcc import DomainError, GreenParams, QuadratureSpec, green_by_quadrature
from greenfcc.quadrature import _factors, _z_integral

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
        # with corner assistance off, halving the mesh twice must show
        # clear decay of successive differences for t >= 3.5
        for t in (3.5, 5.0):
            params = GreenParams(t=t, gamma=1.0)
            values = [
                green_by_quadrature(
                    params,
                    QuadratureSpec(
                        nodes_per_axis=nodes,
                        subdivisions_per_axis=cells,
                        corner_refinement_levels=0,
                    ),
                ).value
                for nodes, cells in ((6, 1), (12, 2), (24, 4))
            ]
            d1 = abs(values[1] - values[0])
            d2 = abs(values[2] - values[1])
            assert d2 <= max(d1 / 10.0, 5e-15)

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
        params = GreenParams(t=4.0, gamma=0.8)
        coarse = green_by_quadrature(
            params, QuadratureSpec(nodes_per_axis=8, subdivisions_per_axis=1)
        )
        fine = green_by_quadrature(params)
        assert abs(coarse.value - fine.value) <= 10 * max(
            coarse.abs_error_estimate, 1e-15
        )

    def test_node_count_reported(self):
        q = green_by_quadrature(
            GreenParams(t=5.0), QuadratureSpec(nodes_per_axis=8, subdivisions_per_axis=2)
        )
        assert q.terms_used == (8 * 2) ** 2
        assert q.method == "quadrature"
        # corner path: bulk box, 3 boxes per level on half the cells, and
        # the two Duffy triangles of the innermost square
        levels = QuadratureSpec().corner_refinement_levels
        q = green_by_quadrature(GreenParams(t=3.5))
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

    @pytest.mark.parametrize("t", [3.0, 3.001, 4.2, 10.0])
    def test_lattice_equation(self, t):
        spec = QuadratureSpec()
        for site in ((0, 0, 0), (2, 1, 1), (2, 2, 0)):
            assert abs(_lattice_residual(t, 1.0, site, spec)) <= 1e-13, site
