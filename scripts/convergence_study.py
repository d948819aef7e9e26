"""How fast do the series terms actually decay, and from which index?

The truncation policy assumes the tail is eventually geometric with ratio
(2+gamma)/t.  This script prints the measured term ratios for a few t so
the approach to that rate is visible: the ratio creeps up from below and
the gap closes only algebraically (roughly like 1 - 3/(2i)).  The scan's
tail bound, geo * max(term, rate * previous term) with geo =
rate/(1 - rate), carries no safety factor: it trusts the rate from the
first nonzero term on, so it is not a sound bound (README, ROADMAP
item 1).

Usage: python3 scripts/convergence_study.py [--gamma G] [--n-max N]
"""

import argparse

from greenfcc import GreenParams, convergence_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--t", type=float, nargs="*", default=[3.5, 4.0, 5.0, 8.0])
    ap.add_argument("--n-max", type=int, default=120)
    ap.add_argument("--probe", type=int, nargs="*", default=[10, 25, 50, 100])
    args = ap.parse_args()

    header = ["t", "rate (2+g)/t"] + [f"ratio@{i}" for i in args.probe]
    print("  ".join(f"{h:>12}" for h in header))
    for t in args.t:
        params = GreenParams(t=t, gamma=args.gamma)
        rows, _ = convergence_rows(params, tol=1e-300, n_max=args.n_max)
        terms = [r["term"] for r in rows]
        rate = (2.0 + args.gamma) / t
        cells = [f"{t:>12g}", f"{rate:>12.6f}"]
        for i in args.probe:
            if i + 1 < len(terms) and terms[i] != 0.0:
                cells.append(f"{terms[i + 1] / terms[i]:>12.6f}")
            else:
                cells.append(f"{'-':>12}")
        print("  ".join(cells))

    print()
    print("deficit 1 - ratio/rate at t = %g (expect ~ 3/(2i)):" % args.t[0])
    params = GreenParams(t=args.t[0], gamma=args.gamma)
    rows, _ = convergence_rows(params, tol=1e-300, n_max=args.n_max)
    terms = [r["term"] for r in rows]
    rate = (2.0 + args.gamma) / args.t[0]
    for i in args.probe:
        if i + 1 < len(terms) and terms[i] != 0.0:
            deficit = 1.0 - terms[i + 1] / terms[i] / rate
            print(f"  i = {i:>4}: deficit = {deficit:.4f}, 1.5/i = {1.5 / i:.4f}")


if __name__ == "__main__":
    main()
