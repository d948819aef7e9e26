"""Behavior of the evaluator as t walks down onto the band edge 2+gamma.

Three routes are compared at each t: the raw truncated series, the
Wynn-accelerated series, and the quadrature (taken as the reference).  Away from the edge all three agree and acceleration changes
nothing; at the edge the raw series is still centuries away at 400 terms
while the accelerated value lands within ~1e-8.

Usage: python3 scripts/band_edge_study.py [--gamma G]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from greenfcc import GreenParams, evaluate_series5, green_by_quadrature  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--n-max", type=int, default=400)
    args = ap.parse_args()

    edge = 2.0 + args.gamma
    offsets = [1.0, 0.3, 0.1, 0.03, 0.01, 0.0]

    print(f"{'t':>10}  {'reference':>18}  {'raw err':>10}  {'raw n':>6}  "
          f"{'wynn err':>10}  {'wynn says':>10}")
    for off in offsets:
        t = edge + off
        params = GreenParams(t=t, gamma=args.gamma)
        ref = green_by_quadrature(params).value
        raw = evaluate_series5(params, n_max=args.n_max)
        acc = evaluate_series5(params, n_max=args.n_max, accel="wynn")
        print(
            f"{t:>10.5g}  {ref:>18.12f}  {abs(raw.value - ref):>10.2e}  "
            f"{raw.terms_used:>6}  {abs(acc.value - ref):>10.2e}  "
            f"{acc.abs_error_estimate:>10.2e}"
        )

    if args.gamma == 1.0:
        import math

        closed = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)
        ref = green_by_quadrature(GreenParams(t=3.0)).value
        print()
        print(f"edge value, quadrature      : {ref:.15f}")
        print(f"edge value, gamma-function  : {closed:.15f}")
        print(f"difference                  : {abs(ref - closed):.2e}")


if __name__ == "__main__":
    main()
