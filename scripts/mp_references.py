"""Reference values of G near the band edge from mpmath, sharing no code with greenfcc.

Usage: python3 scripts/mp_references.py [--out tests/mp_references.json]

Needs mpmath, which greenfcc does not: the tests read the JSON this
writes and import nothing new.  Nothing from src/ is imported.

G(t, l, m, n; gamma) = (1/pi^2) int int_[0,pi]^2 cos(lx) cos(my)
rho^n / d dx dy, the z integral taken in closed form (Watson 1939), with

    A = t - gamma cx cy,  B = cx + cy,  d = sqrt((A - B)(A + B)),
    rho = B / (A + d).

A - B and A + B are formed from versines, so that neither is a
difference of nearly equal numbers where it vanishes: with v = 2
sin^2(x/2), u = 2 cos^2(x/2) and w = t - 2 - gamma,

    A - B = w + gamma (vx + vy - vx vy) + vx + vy,

and A + B is the same expression in u.  At the band edge (w = 0) A - B
vanishes at (0, 0) and A + B at (pi, pi), each like r^2, so the
integrand has a 1/r point there.  [0, pi]^2 is split at pi/2 into four
squares.  On the two that hold a singular corner, the Duffy maps (x, y)
= (s, s q) and (s q, s) from the corner, Jacobian s, cancel the 1/r
point; each point of the square near (pi, pi) is given by its offsets
from pi, whose versines are formed directly, so nodes next to that
corner keep their relative precision.  The other two squares take a
plain product tanh-sinh rule.

Each point is integrated at mp.dps = 30 and at 40 (tanh-sinh, maxdegree
8).  The two must agree far below 1e-17 (the script stops if they
differ by more than 1e-20); the dps-40 value is the reference and
their difference its spread.  Watson's closed form at t = 3, gamma = 1,
the origin, 3 Gamma(1/3)^6 / (2^(14/3) pi^4), is written next to the
values as a check.  On a 2-core x86 host the four points take ~5 min.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
# (t, gamma, (l, m, n)): the band edge at two gammas, and one point next to it
POINTS = (
    (3.0, 1.0, (0, 0, 0)),
    (3.0, 1.0, (2, 1, 1)),
    (3.001, 1.0, (2, 2, 0)),
    (2.5, 0.5, (2, 1, 1)),
)
PRECISIONS = (30, 40)
MAX_DEGREE = 8
AGREE = mp.mpf("1e-20")


def _axis(offset, far: bool, site: int):
    """(v, u, cos x, cos(site x)) at x = offset, or at x = pi - offset if ``far``."""
    half = offset / 2
    v, u = 2 * mp.sin(half) ** 2, 2 * mp.cos(half) ** 2
    c, wave = mp.cos(offset), mp.cos(site * offset)
    if far:
        return u, v, -c, (-1) ** site * wave
    return v, u, c, wave


def _integrand(t, gamma, site, x, y, far_x: bool, far_y: bool):
    """cos(lx) cos(my) rho^n / d at the point given by offsets x, y (see _axis)."""
    l, m, n = site
    vx, ux, cx, wx = _axis(x, far_x, l)
    vy, uy, cy, wy = _axis(y, far_y, m)
    shift = t - 2 - gamma
    minus = shift + gamma * (vx + vy - vx * vy) + vx + vy
    plus = shift + gamma * (ux + uy - ux * uy) + ux + uy
    d = mp.sqrt(minus) * mp.sqrt(plus)
    a, b = t - gamma * cx * cy, cx + cy
    return wx * wy * (b / (a + d)) ** n / d


def _square(f, duffy: bool):
    """(integral, error) of f over the square [0, pi/2]^2, by Duffy maps from (0, 0) or by product."""
    half = mp.pi / 2
    if not duffy:
        return mp.quad(f, [0, half], [0, half], maxdegree=MAX_DEGREE, error=True)
    return mp.quad(
        lambda s, q: s * (f(s, s * q) + f(s * q, s)), [0, half], [0, 1], maxdegree=MAX_DEGREE, error=True
    )


def reference(t: float, gamma: float, site, dps: int):
    """(G, error estimate) at one precision: the sum over the four squares."""
    with mp.workdps(dps):
        t, gamma = mp.mpf(t), mp.mpf(gamma)
        total, error = mp.mpf(0), mp.mpf(0)
        # each square's offsets run from the corner nearest its x and y ends:
        # (0, 0) and (pi, pi) hold the singular corners
        for far_x, far_y in ((False, False), (True, True), (False, True), (True, False)):
            value, err = _square(
                lambda x, y: _integrand(t, gamma, site, x, y, far_x, far_y), duffy=far_x == far_y
            )
            total += value
            error += err
        return total / mp.pi**2, error / mp.pi**2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "mp_references.json")
    args = ap.parse_args(argv)
    points = []
    for t, gamma, site in POINTS:
        start = time.perf_counter()
        (low, low_error), (high, high_error) = (reference(t, gamma, site, dps) for dps in PRECISIONS)
        spread = abs(high - low)
        seconds = time.perf_counter() - start
        print(f"t={t} gamma={gamma} site={site}: {mp.nstr(high, 25)} spread {mp.nstr(spread, 3)} "
              f"quad error {mp.nstr(high_error, 3)} in {seconds:.0f} s", flush=True)
        if spread > AGREE:
            raise SystemExit(f"dps {PRECISIONS} disagree by {mp.nstr(spread, 3)} at {t, gamma, site}")
        points.append({
            "t": t, "gamma": gamma, "lmn": list(site),
            "value": mp.nstr(high, 30, strip_zeros=False),
            "spread": float(spread),
            "quad_error": float(high_error),
        })
    with mp.workdps(max(PRECISIONS)):
        watson = 3 * mp.gamma(mp.mpf(1) / 3) ** 6 / (2 ** (mp.mpf(14) / 3) * mp.pi**4)
    record = {
        "about": "G by mpmath, made by scripts/mp_references.py; value at dps "
        f"{max(PRECISIONS)}, spread = |value at dps {PRECISIONS[0]} - value|",
        "watson_t3": mp.nstr(watson, 30, strip_zeros=False),
        "points": points,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
