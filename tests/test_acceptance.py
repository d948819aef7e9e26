"""Acceptance gate: the end-to-end numerical claims this package stands on.

Each test covers one claim and reports a single PASS/FAIL line through the
terminal summary (see conftest.py), so a plain ``pytest -v`` run shows the
whole checklist at a glance.  Tolerances here are contractual: do not loosen
them to make a red line green.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_LINES
from greenfcc import (
    GreenParams,
    QuadratureSpec,
    evaluate_series5,
    evaluate_series6,
    green_by_quadrature,
    j_integral,
    moment_coefficient,
)
from walk_oracle import walk_moment

CMD = [sys.executable, "-m", "greenfcc"]

GRID_T = (3.5, 4.0, 5.0, 10.0)
GRID_GAMMA = (0.5, 1.0, 2.0)
GRID_SITES = ((0, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 0))


def check(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{num}] {name}: {status}  ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid_results():
    """Every admissible (t, gamma, site) point evaluated three ways.

    Points with t <= 2+gamma sit on or inside the spectral band and are
    excluded, which leaves 50 of the 60 nominal combinations.
    """
    start = time.perf_counter()
    rows = []
    for t, gamma in itertools.product(GRID_T, GRID_GAMMA):
        if t <= 2.0 + gamma:
            continue
        for l, m, n in GRID_SITES:
            p = GreenParams(t=t, gamma=gamma, l=l, m=m, n=n)
            e5 = evaluate_series5(p, tol=1e-11)
            e6 = evaluate_series6(p, tol=1e-11)
            q = green_by_quadrature(p)
            rows.append((p, e5, e6, q))
    return rows, time.perf_counter() - start


def test_series_matches_quadrature_on_grid(grid_results):
    rows, elapsed = grid_results
    worst = max(abs(e5.value - q.value) for _, e5, _, q in rows)
    all_converged = all(e5.converged and q.converged for _, e5, _, q in rows)
    check(
        1,
        "series5 vs quadrature on the 50-point grid",
        len(rows) == 50 and worst <= 1e-8 and all_converged and elapsed < 60.0,
        f"{len(rows)} points, max |diff| = {worst:.2e} (<= 1e-8), {elapsed:.1f} s",
    )


def test_series_routes_agree_on_grid(grid_results):
    rows, _ = grid_results
    worst = max(abs(e5.value - e6.value) for _, e5, e6, _ in rows)
    check(
        2,
        "series5 vs series6 cross-agreement",
        worst <= 1e-10,
        f"max |diff| = {worst:.2e} (<= 1e-10)",
    )


def test_j_integral_against_quadrature_and_closed_form():
    from scipy.integrate import quad

    worst_quad = 0.0
    worst_closed = 0.0
    for n in range(21):
        for k in range(21):
            value = j_integral(n, k)
            oracle, _ = quad(
                lambda x: math.cos(k * x) * math.cos(x) ** n,
                0.0,
                math.pi,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            worst_quad = max(worst_quad, abs(value - oracle))
            if k <= n and (k + n) % 2 == 0:
                closed = math.pi * math.comb(n, (n - k) // 2) / 2.0**n
                worst_closed = max(worst_closed, abs(value - closed))
    check(
        3,
        "j_integral vs adaptive quadrature and closed form (n,k <= 20)",
        worst_quad <= 1e-12 and worst_closed <= 1e-12,
        f"max |vs quad| = {worst_quad:.2e}, max |vs closed form| = {worst_closed:.2e}",
    )


def test_j_integral_selection_rules():
    bad = [
        (n, k)
        for n in range(41)
        for k in range(41)
        if (k > n or (k + n) % 2 == 1) and j_integral(n, k) != 0.0
    ]
    check(
        4,
        "j_integral exact zeros for k > n or k+n odd (n,k <= 40)",
        not bad,
        f"{len(bad)} nonzero violations" if bad else "all excluded pairs exactly 0",
    )


def test_moments_match_walk_counts():
    p = GreenParams(t=4.0, gamma=1.0)
    worst = max(
        abs(moment_coefficient(i, p) - float(walk_moment(i, gamma=Fraction(1))))
        for i in range(7)
    )
    named = (
        moment_coefficient(0, p),
        moment_coefficient(1, p),
        moment_coefficient(2, p),
        moment_coefficient(3, p),
    )
    named_ok = all(
        abs(got - want) <= 1e-12 for got, want in zip(named, (1.0, 0.0, 0.75, 0.75))
    )
    check(
        5,
        "moment coefficients vs brute-force walk enumeration (i <= 6)",
        worst <= 1e-12 and named_ok,
        f"max |diff| = {worst:.2e}; mu0..mu3 = {named[0]:g}, {named[1]:g}, "
        f"{named[2]:g}, {named[3]:g}",
    )


def test_band_edge_finiteness():
    # every corner_refinement_levels >= 4 runs one rule, its step capped at
    # 1/128, so levels 12 and 22 gave the same number; level 1 stops at
    # h = 1/16 (12,769 nodes) and the default at h = 1/64 (201,601 nodes)
    p = GreenParams(t=3.0, gamma=1.0)
    watson = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)
    shallow = green_by_quadrature(p, QuadratureSpec(corner_refinement_levels=1))
    deep = green_by_quadrature(p)
    quad_gap = abs(shallow.value - deep.value)
    watson_gap = abs(deep.value - watson)
    accel = evaluate_series5(p, n_max=400, accel="wynn")
    series_gap = abs(accel.value - deep.value)
    check(
        6,
        "band edge t = 3: refined quadrature stable and on Watson's value, accelerated series agrees",
        quad_gap <= 1e-7 and watson_gap <= 1e-7 and series_gap <= 1e-5,
        f"level-1 vs default quadrature |diff| = {quad_gap:.2e} (<= 1e-7), "
        f"default quadrature vs Watson |diff| = {watson_gap:.2e} (<= 1e-7), "
        f"wynn series vs default quadrature |diff| = {series_gap:.2e} (<= 1e-5)",
    )


def test_term_ratio_settles_by_term_25():
    r = subprocess.run(
        CMD + ["convergence", "--t", "5", "--gamma", "1", "--n-max", "40",
               "--tol", "1e-30"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    rows = [json.loads(line) for line in r.stdout.splitlines() if line]
    terms = [row["term"] for row in rows]
    ratios = {
        i: terms[i + 1] / terms[i]
        for i in range(1, len(terms) - 1)
        if terms[i] != 0.0
    }
    # The raw ratio approaches the rate only like 0.6 * (1 - 3/(2i)): the
    # structure function peaks quadratically at its maximum 2+gamma, so
    # mu_i ~ C (2+gamma)^i i^(-3/2).  The Domb-Sykes intercept
    # L_i = i r_i - (i-1) r_{i-1} extrapolates r_i linearly in 1/i to
    # i -> infinity, cancelling the 1/i term and leaving O(1/i^2); it is
    # the limiting ratio that this check measures.
    intercepts = {
        i: i * ratios[i] - (i - 1) * ratios[i - 1]
        for i in range(25, len(terms) - 1)
        if i in ratios and i - 1 in ratios
    }
    off = {i: lim for i, lim in intercepts.items() if abs(lim - 0.6) > 0.02}
    check(
        7,
        "term ratios at (t=5, gamma=1) settle to 0.6 +/- 0.02 by term 25",
        len(rows) == 40 and intercepts and not off,
        f"at term 25 raw ratio = {ratios.get(25, float('nan')):.4f}, "
        f"Domb-Sykes intercept = {intercepts.get(25, float('nan')):.4f}; "
        f"{len(off)}/{len(intercepts)} intercepts in terms "
        f"25..{len(terms) - 2} outside the band",
    )


def test_large_t_asymptote():
    p = GreenParams(t=1e6, gamma=1.0)
    scaled5 = evaluate_series5(p).value * p.t
    scaled6 = evaluate_series6(p).value * p.t
    ok = abs(scaled5 - 1.0) <= 1e-9 and abs(scaled6 - 1.0) <= 1e-9
    check(
        8,
        "t * G(t,0,0,0) -> 1 at t = 1e6 for both series",
        ok,
        f"series5: |t*G - 1| = {abs(scaled5 - 1.0):.2e}, "
        f"series6: |t*G - 1| = {abs(scaled6 - 1.0):.2e}",
    )


def test_cli_byte_determinism():
    def run(*args):
        return subprocess.run(
            CMD + list(args), capture_output=True, text=True, timeout=120
        ).stdout

    variants = [
        ("sweep", "--t", "3.5:5:0.5", "--method", "series5,series6",
         "--format", "csv"),
        ("convergence", "--t", "3", "--n-max", "80", "--accel", "wynn"),
        ("compare", "--t", "4", "--method", "series5,series6,quadrature"),
    ]
    stable = all(run(*args) == run(*args) for args in variants)

    # eval reports a measured wall time, so compare it field by field
    a, b = (json.loads(run("eval", "--t", "3.5")) for _ in range(2))
    a.pop("wall_time_ms"), b.pop("wall_time_ms")
    check(
        9,
        "repeated identical CLI runs are byte-identical",
        stable and a == b,
        "sweep/convergence/compare byte-stable; eval stable apart from wall time",
    )
