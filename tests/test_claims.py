"""Every ``converged`` claim of every route, checked against a reference or none.

The far-site audit compares both series with the quadrature at 1469
sites; the lattice equation (t - w) G = delta checks each route against
its own values at the 12 neighbours of a site, with no reference at all.
"""

import math
import sys
from pathlib import Path

import pytest

from greenfcc import GreenParams, evaluate_series5, evaluate_series6, green_by_quadrature

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import claims_audit  # noqa: E402

ROUTES = {
    "series5": evaluate_series5,
    "series6": evaluate_series6,
    "quadrature": green_by_quadrature,
}
EPS = 2.0**-52


def lattice_residual(route, t, gamma, site, values):
    """The lattice equation at ``site`` by ``route``: (residual, bound, every value converged).

    residual = t G(s) - (gamma/4) sum G(l+-1, m+-1, n) - (1/4) sum G(l,
    m+-1, n+-1) - (1/4) sum G(l+-1, m, n+-1) - delta_(s,0), the step
    weights of the walk oracle.  G is even in each index, so every
    neighbour is evaluated at |l|, |m|, |n|.  If every value lies within
    its estimate e, |residual| <= t e(s) + sum w e(neighbour) + the
    rounding of the sum, taken as 16 eps sum |w G|.  ``values`` caches
    the evaluations by site.
    """
    l, m, n = site
    stencil = [(t, site)]
    for a in (1, -1):
        for b in (1, -1):
            stencil += [(-gamma / 4, (l + a, m + b, n)), (-0.25, (l, m + a, n + b))]
            stencil.append((-0.25, (l + a, m, n + b)))
    parts = [-1.0 if site == (0, 0, 0) else 0.0]
    bound, converged = 0.0, True
    for w, point in stencil:
        key = tuple(abs(k) for k in point)
        if key not in values:
            values[key] = route(GreenParams(t=t, gamma=gamma, l=key[0], m=key[1], n=key[2]))
        ev = values[key]
        parts.append(w * ev.value)
        bound += abs(w) * ev.abs_error_estimate
        converged = converged and ev.converged
    rounding = 16 * EPS * math.fsum(abs(x) for x in parts)
    return math.fsum(parts), bound + rounding, converged


def test_far_site_audit_finds_no_under_claim():
    # the 1469 far sites of the audit script at t = 4, gamma = 1, tol
    # 1e-10, against the quadrature: once 256 (series5) and 246
    # (series6) claims lay outside their estimates, at far sites where
    # the terms rise long after the first nonzero one
    counts, lines = claims_audit.audit(4.0, claims_audit.far_sites())
    for route in ("series5", "series6"):
        assert counts[route]["claims"] > 0, lines
        assert counts[route]["under"] == 0, lines


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("t, gamma", [(3.5, 1.0), (12.0, 7.0)])
def test_lattice_equation_holds_within_the_estimates(route, t, gamma):
    # a residual beyond the summed estimates proves a false claim in the
    # stencil; the series once exceeded them by up to 1.7e4 at (9, 9, 0)
    values = {}
    shell = [(0, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 1), (3, 3, 2), (6, 4, 2), (9, 9, 0), (12, 12, 0), (24, 0, 0)]
    for site in shell:
        residual, bound, converged = lattice_residual(ROUTES[route], t, gamma, site, values)
        assert converged, site
        assert abs(residual) <= bound, (site, residual, bound)
