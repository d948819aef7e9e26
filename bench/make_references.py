"""Build bench/references.json: the point pools of every workload and a
reference value, with its uncertainty, for every pooled point.

Reference routes, in order of preference:

* t = 3, gamma = 1 at the origin: Watson's closed form
  3 Gamma(1/3)^6 / (2^(14/3) pi^4) (Watson 1939, Quart. J. Math. 10, 266).
* Off the edge, where series5 converges at tol 1e-13 within 1000 terms:
  the deep 3D quadrature (corner_refinement_levels=22) is the value and
  its distance to series5 at tol 1e-13 is the uncertainty.
* Near the edge: the deep quadrature, with the larger of its
  depth-to-depth difference (levels 22 vs 20) and its resolution
  difference (24 vs 32 nodes per axis at level 22) as the uncertainty.

Every uncertainty is floored at 4 ulp of the value.  A point whose
uncertainty exceeds 1/100 of the accuracy target of any workload that
uses it is not admitted, and the script fails.

Usage: python3 bench/make_references.py   (about two minutes)
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from greenfcc import (  # noqa: E402
    GreenParams,
    QuadratureSpec,
    evaluate_series5,
    green_by_quadrature,
)

WATSON_T3 = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)

OFFEDGE_SITES = [(0, 0, 0), (2, 0, 0), (2, 1, 1), (4, 2, 0), (3, 3, 2)]
BAND_EDGE_SITES = [(0, 0, 0), (2, 0, 0), (2, 2, 0)]
BAND_EDGE_OFFSETS = [0.0, 1e-3, 1e-2, 3e-2, 0.1]
QUAD_NEAR = [  # (gamma, site, t - edge), all on the corner path
    (1.0, (0, 0, 0), 0.01),
    (1.0, (2, 0, 0), 0.1),
    (2.0, (3, 3, 2), 0.2),
    (0.5, (2, 1, 1), 0.3),
    (2.0, (0, 0, 0), 0.5),
    (1.0, (2, 2, 0), 0.7),
    (0.5, (0, 0, 0), 0.9),
]
QUAD_FAR = [  # single-box path
    (2.0, (0, 0, 0), 1.0),
    (1.0, (0, 0, 0), 1.5),
    (1.0, (2, 1, 1), 2.0),
    (0.5, (4, 2, 0), 3.0),
    (2.0, (2, 2, 0), 6.0),
    (0.5, (2, 0, 0), 8.0),
]


def _point(t, gamma, site):
    return {"t": float(t), "gamma": float(gamma), "lmn": list(site)}


def pools() -> dict:
    offedge = []
    for gamma in (0.5, 1.0, 2.0):
        edge = 2.0 + gamma
        for t in (edge + 0.5, edge + 1.0, edge + 2.5, edge + 5.0, 12.0):
            for site in OFFEDGE_SITES:
                for route in ("series5", "series6"):
                    offedge.append(
                        {"route": route, **_point(t, gamma, site), "kwargs": {"tol": 1e-11}}
                    )
    band_edge = [
        {
            "route": "series5",
            **_point(3.0 + off, 1.0, site),
            "kwargs": {"accel": "wynn", "n_max": 400},
        }
        for site in BAND_EDGE_SITES
        for off in BAND_EDGE_OFFSETS
    ]
    band_edge.append(
        {"route": "series5", **_point(3.0, 1.0, (0, 0, 0)), "kwargs": {"accel": "wynn", "n_max": 1000}}
    )
    quadrature = [
        {"route": "quadrature", **_point(2.0 + g + off, g, site), "kwargs": {}}
        for g, site, off in QUAD_NEAR + QUAD_FAR
    ]
    cli = [
        {"argv": ["eval", "--t", "4"], "target": 1e-9},
        {"argv": ["eval", "--t", "3", "--accel", "wynn", "--lmn", "2", "0", "0"], "target": 1e-7},
        {
            "argv": ["sweep", "--t", "3.5:5:0.5", "--lmn", "2", "1", "1", "--method", "series5,series6"],
            "target": 1e-9,
        },
        {
            "argv": ["compare", "--t", "3.5", "--lmn", "2", "0", "0", "--method", "series5,quadrature"],
            "target": 1e-9,
        },
    ]
    # the points the CLI commands above evaluate, each with its command's target
    cli_points = [
        {**_point(4.0, 1.0, (0, 0, 0)), "target": 1e-9},
        {**_point(3.0, 1.0, (2, 0, 0)), "target": 1e-7},
        *({**_point(t, 1.0, (2, 1, 1)), "target": 1e-9} for t in (3.5, 4.0, 4.5, 5.0)),
        {**_point(3.5, 1.0, (2, 0, 0)), "target": 1e-9},
    ]
    # pass_s: seconds one pass over the pool takes on the 2-vCPU machine the
    # pools were tuned on; a run makes round(seconds / pass_s) passes.  The
    # cli pool is not a timed workload: traced runs start each of its
    # commands once to measure the cli layer.
    return {
        "offedge_sweep": {"target": 1e-10, "pass_s": 1.0, "ops": offedge},
        "band_edge": {"target": 1e-7, "pass_s": 6.0, "ops": band_edge},
        "quadrature_oracle": {"target": 1e-9, "pass_s": 1.15, "ops": quadrature},
        "cli": {"ops": cli, "points": cli_points},
    }


def point_key(t: float, gamma: float, lmn) -> str:
    l, m, n = lmn
    return f"{float(t)!r}|{float(gamma)!r}|{l},{m},{n}"


def reference(t: float, gamma: float, lmn) -> dict:
    params = GreenParams(t=t, gamma=gamma, l=lmn[0], m=lmn[1], n=lmn[2])
    deep = green_by_quadrature(params, QuadratureSpec(corner_refinement_levels=22)).value
    if t == 3.0 and gamma == 1.0 and tuple(lmn) == (0, 0, 0):
        value, unc, source = WATSON_T3, 0.0, "watson_closed_form"
        checks = {"quadrature22": deep}
    else:
        series = evaluate_series5(params, tol=1e-13, n_max=1000)
        if series.converged:
            value, unc, source = deep, abs(deep - series.value), "quadrature22+series5"
            checks = {"series5_tol1e-13": series.value}
        else:
            q20 = green_by_quadrature(params, QuadratureSpec(corner_refinement_levels=20)).value
            q32 = green_by_quadrature(
                params, QuadratureSpec(nodes_per_axis=32, corner_refinement_levels=22)
            ).value
            value, unc, source = deep, max(abs(deep - q20), abs(deep - q32)), "quadrature22_depth"
            checks = {"quadrature20": q20, "quadrature22_n32": q32}
    unc = max(unc, 4.0 * math.ulp(value))
    return {
        "t": float(t),
        "gamma": float(gamma),
        "lmn": list(lmn),
        "value": value,
        "uncertainty": unc,
        "source": source,
        "checks": checks,
    }


def main() -> int:
    workloads = pools()
    needed: dict[str, float] = {}  # key -> tightest target that uses it
    for spec in workloads.values():
        for p in spec.get("points", spec["ops"]):
            key = point_key(p["t"], p["gamma"], p["lmn"])
            target = p.get("target", spec.get("target"))
            needed[key] = min(needed.get(key, math.inf), target)
    refs = {}
    bad = []
    for key, target in sorted(needed.items()):
        t, gamma, lmn = key.split("|")
        ref = reference(float(t), float(gamma), [int(v) for v in lmn.split(",")])
        refs[key] = ref
        print(f"{key:<28} {ref['value']:.16g}  unc {ref['uncertainty']:.1e}  {ref['source']}", flush=True)
        if not ref["uncertainty"] <= target / 100.0:
            bad.append(key)
    if bad:
        print(f"not admitted (uncertainty above target/100): {bad}", file=sys.stderr)
        return 1
    out = {"workloads": workloads, "references": refs}
    (HERE / "references.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
