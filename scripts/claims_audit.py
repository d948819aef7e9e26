"""Count false and missed ``converged`` claims of every route at the far sites.

Usage: python3 scripts/claims_audit.py [--reference quadrature|series5]

At gamma = 1 and each t in ``T_VALUES`` it evaluates every site with
l >= m >= n, l <= ``L_MAX`` and l+m+n even (1469 sites) by each route
at its defaults (tol 1e-10).  The reference is, by default, the
quadrature at its defaults, whose error (~1e-17 absolute) is far below
tol and which makes no false claim on this set; its own estimate is
added to each route's.  ``--reference series5`` takes the full series5
sum (tol 1e-300, n_max 1000) instead, with no estimate of its own:
every term is >= 0, so it keeps relative digits where G is
exponentially small.  Only that reference audits the quadrature too.
On a 2-core x86 host the audit takes ~10 s against the quadrature and
~70 s against series5, with the same series counts.

Per (route, t) it prints one line:

* claims: results with ``converged`` true;
* under: claims whose error |value - reference| exceeds their
  ``abs_error_estimate`` plus the reference's;
* false: under-claims whose error also exceeds tol;
* missed: unconverged results whose error is within tol;
* the worst false claim (largest error) and the worst missed claim
  (smallest error), each with its site, value, estimate and error.

It exits 1 if any route under-claims at any t, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from greenfcc import GreenParams, evaluate_series5, evaluate_series6, green_by_quadrature  # noqa: E402

TOL = 1e-10
T_VALUES = (3.5, 4.0, 6.0)
L_MAX = 24
ROUTES = {
    "series5": evaluate_series5,
    "series6": evaluate_series6,
    "quadrature": green_by_quadrature,
}


def far_sites() -> list[tuple[int, int, int]]:
    return [
        (l, m, n)
        for l in range(L_MAX + 1)
        for m in range(l + 1)
        for n in range(m + 1)
        if (l + m + n) % 2 == 0
    ]


def _case(case) -> str:
    if case is None:
        return "none"
    site, ev, err = case
    return (
        f"({site[0]},{site[1]},{site[2]}) value {ev.value:.4g} "
        f"estimate {ev.abs_error_estimate:.3g} error {err:.3g}"
    )


def _reference(name: str, params: GreenParams) -> tuple[float, float]:
    """The reference value at ``params`` and its own error estimate."""
    if name == "series5":
        return evaluate_series5(params, tol=1e-300, n_max=1000).value, 0.0
    ev = green_by_quadrature(params)
    return ev.value, ev.abs_error_estimate


def audit(t: float, sites, reference_name: str = "quadrature") -> tuple[dict, list[str]]:
    """The counts per route at ``t`` over ``sites``, and the lines that print them."""
    routes = dict(ROUTES)
    if reference_name == "quadrature":
        del routes["quadrature"]
    counts = {name: {"claims": 0, "false": 0, "under": 0, "missed": 0} for name in routes}
    worst_false = dict.fromkeys(routes)
    worst_missed = dict.fromkeys(routes)
    for site in sites:
        params = GreenParams(t=t, gamma=1.0, l=site[0], m=site[1], n=site[2])
        reference, reference_estimate = _reference(reference_name, params)
        for name, route in routes.items():
            ev = route(params)
            err = abs(ev.value - reference)
            c = counts[name]
            if ev.converged:
                c["claims"] += 1
                if err > ev.abs_error_estimate + reference_estimate:
                    c["under"] += 1
                    if err > TOL:
                        c["false"] += 1
                        if worst_false[name] is None or err > worst_false[name][2]:
                            worst_false[name] = (site, ev, err)
            elif err <= TOL:
                c["missed"] += 1
                if worst_missed[name] is None or err < worst_missed[name][2]:
                    worst_missed[name] = (site, ev, err)
    lines = []
    for name in routes:
        c = counts[name]
        lines.append(
            f"{name} t={t:g}: claims {c['claims']}/{len(sites)}, false {c['false']}, "
            f"under {c['under']}, missed {c['missed']}; "
            f"worst false {_case(worst_false[name])}; worst missed {_case(worst_missed[name])}"
        )
    return counts, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reference", choices=("quadrature", "series5"), default="quadrature")
    args = ap.parse_args(argv)
    sites = far_sites()
    under = 0
    for t in T_VALUES:
        start = time.perf_counter()
        counts, lines = audit(t, sites, args.reference)
        for line in lines:
            print(line)
        print(f"t={t:g}: {len(sites)} sites in {time.perf_counter() - start:.0f} s", flush=True)
        under += sum(c["under"] for c in counts.values())
    return 1 if under else 0


if __name__ == "__main__":
    raise SystemExit(main())
