"""Check that the working tree's src/ gives the same results as a git revision's.

Usage: python3 scripts/same_results.py REV

REV's src/ is exported with ``git archive`` into a temporary directory,
which writes nothing into .git.  Each tree then runs, in a child process
of its own:

* every pooled operation of the offedge_sweep, band_edge and
  quadrature_oracle workloads in bench/references.json, recording
  value, error estimate, terms used, converged and accelerated;
* ``moment_coefficient`` at gamma 0.5, 1 and 7 on the sites (0, 0, 0),
  (2, 1, 1), (12, 12, 0), (24, 0, 0) and (1, 1, 4), at the orders
  h + 32k - 1, h + 32k and h + 32k + 1 for k = 1, 2, 3, h = (l+m+n)/2,
  where the nu table's tiles begin, and at the largest order it accepts;
* the README's command-line examples, a few commands that cover what
  those miss (series6 with a transform, ``convergence`` on series6 with
  aitken and with inner sums that reach ``--l-max``, a far site, series5
  at the hard order cap, series6 rows up to order 593, series6 at
  t = 2 gamma where the inner ratio is exactly 1, ``convergence`` on
  series6 with inner sums of up to 179 terms that end on the tail test,
  series6 inner sums cut at ``--l-max`` 50 at t = 9.01, gamma = 7, a
  Wynn value at t = 3.001 within ``--tol`` 1e-7, the quadrature at the
  far axis site (12, 0, 0), the corner quadrature at (24, 0, 0) on the
  band edge and at (40, 0, 0) next to it, the quadrature at an odd
  n >= 3, at t = 2+gamma exactly with gamma = 1e9 and with
  gamma = 1e-9, at t = 1e300, series5 at the far site
  (24, 0, 0) with ``--tol`` 1e-13, series5 at t = 1e6, gamma = 100003, ``convergence``
  on a short series5 scan, series6 at the far site (24, 0, 0), series6
  inner sums of up to 1000 terms at t = 9.01, gamma = 7, series5 and
  series6 at the site (0, 0, 2000) past the series depth, series6 at
  t = 4.5, gamma = 2 to tol 1e-14, at gamma = 30 and at gamma = 1e6,
  ``convergence`` on series6 with ``--l-max`` 17, the quadrature at
  gamma = 3e-8 next to the edge and at a t that passes fl(2 + gamma)
  only by rounding, the trapezoid at N = 1024 with an odd n and at
  N = 2048, two trapezoid points whose stop is decided at the rounding
  floor of the sum, and the error
  paths of an unknown method, ``compare`` with one method, ``compare``
  at t = nan and ``convergence`` on the quadrature) and the commands of the
  cli pool in bench/references.json, each in a fresh temporary working
  directory, recording the exit code, stdout with ``wall_time_ms``
  stripped, stderr, and any file the command wrote.

Floats are compared through their repr, so "same" means bit-identical.
Every difference is printed with each float it moved and that float's
relative change, followed by one line that sizes them: the largest
relative change of any float, and the number of results whose other
fields changed (terms used, converged, accelerated, exit code, or any
output that is not a float).  The exit code is 1 if there is a
difference and 0 if there is none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCES = ROOT / "bench" / "references.json"
WORKLOADS = ("offedge_sweep", "band_edge", "quadrature_oracle")
ROUTES = {
    "series5": "evaluate_series5",
    "series6": "evaluate_series6",
    "quadrature": "green_by_quadrature",
}
MOMENT_GAMMAS = (0.5, 1.0, 7.0)
MOMENT_SITES = ((0, 0, 0), (2, 1, 1), (12, 12, 0), (24, 0, 0), (1, 1, 4))
# the nu table's tiles first reach order 2 s2 + c + h at multiples of 32 past h
MOMENT_TILE_STEP = 32
README_COMMANDS = (
    ["eval", "--t", "4", "--gamma", "1", "--lmn", "0", "0", "0"],
    ["sweep", "--t", "3.5:10:0.5", "--gamma", "1", "--format", "csv", "--out", "sweep.csv"],
    ["compare", "--t", "4", "--method", "series5,series6,quadrature"],
    ["convergence", "--t", "3", "--n-max", "200", "--accel", "wynn"],
)
EXTRA_COMMANDS = (
    ["convergence", "--t", "3.2", "--lmn", "2", "1", "1", "--method", "series6",
     "--accel", "aitken", "--n-max", "120"],
    # inner sums still open at j = 120: the rows must end on eval's value
    ["convergence", "--t", "3.01", "--lmn", "2", "1", "1", "--method", "series6", "--n-max", "120"],
    ["eval", "--t", "3.001", "--lmn", "2", "2", "0", "--method", "series6", "--accel", "wynn"],
    ["sweep", "--t", "3:3.5:0.1", "--method", "series5,series6", "--accel", "aitken"],
    # a far site whose terms rise before they decay: the scan stops too early
    ["eval", "--t", "4", "--lmn", "12", "12", "0"],
    # the tail bound meets tol while the inner sums stop at l_max: exit 2 as eval
    ["convergence", "--t", "3.5", "--lmn", "2", "1", "1", "--method", "series6", "--l-max", "20"],
    # the deepest series5 path, up to the hard order cap
    ["eval", "--t", "3", "--n-max", "1000", "--accel", "wynn"],
    # series6 rows up to order 593, where C(i, i//2) reaches 1e177
    ["eval", "--t", "3.01", "--lmn", "2", "1", "1", "--method", "series6", "--n-max", "1000",
     "--l-max", "200", "--accel", "wynn"],
    # t = 2 gamma: the inner ratio gamma (i+j+2) / (t (j+2)) is exactly 1 at j = i - 2
    ["eval", "--t", "6", "--gamma", "3", "--lmn", "2", "1", "1", "--method", "series6"],
    # inner sums that stop on their own after up to 179 terms, over several chunks
    ["convergence", "--t", "4.5", "--gamma", "2", "--lmn", "2", "1", "1", "--method", "series6",
     "--tol", "1e-13"],
    # inner sums cut at l_max before their ratio falls below 1: no tail bound exists
    ["eval", "--t", "9.01", "--gamma", "7", "--lmn", "2", "1", "1", "--method", "series6",
     "--l-max", "50"],
    # a Wynn estimate of 1.7e-8 within tol, where the true error is 1.6e-3
    ["eval", "--t", "3.001", "--lmn", "2", "2", "0", "--accel", "wynn", "--tol", "1e-7"],
    # a far axis site that the quadrature grid must resolve
    ["eval", "--t", "4", "--lmn", "12", "0", "0", "--method", "quadrature"],
    # far axis sites on the corner path, at and next to the band edge
    ["eval", "--t", "3", "--lmn", "24", "0", "0", "--method", "quadrature"],
    ["eval", "--t", "3.01", "--lmn", "40", "0", "0", "--method", "quadrature"],
    # an odd n >= 3, whose integrand changes sign
    ["eval", "--t", "4.03", "--gamma", "2", "--lmn", "5", "4", "9", "--method", "quadrature"],
    # t = 2+gamma exactly, at gamma = 1e9 and at gamma = 1e-9
    ["eval", "--t", "1000000002", "--gamma", "1e9", "--method", "quadrature"],
    ["eval", "--t", "2.000000001", "--gamma", "1e-9", "--method", "quadrature"],
    # t = 1e300: the product of the two factors would overflow
    ["eval", "--t", "1e300", "--lmn", "2", "0", "0", "--method", "quadrature"],
    # series5 terms that rise for a long stretch before they decay, to a tight tol
    ["eval", "--t", "4", "--lmn", "24", "0", "0", "--tol", "1e-13"],
    # t = 1e6 with gamma = 100003: r = 0.1 and gamma/s near 1, a table of a few orders
    ["eval", "--t", "1e6", "--gamma", "100003"],
    # every series5 term of a short scan, read from one nu table
    ["convergence", "--t", "6", "--n-max", "40"],
    # series6 stops on the first nonzero row at a far site, whose value is far too small
    ["eval", "--t", "4", "--lmn", "24", "0", "0", "--method", "series6"],
    # series6 rows to j = 1000 at gamma = 7, whose ladders pass 1e308
    ["eval", "--t", "9.01", "--gamma", "7", "--lmn", "2", "1", "1", "--method", "series6",
     "--l-max", "1000"],
    # a site past the series depth: every J_p(2000) read is a selection-rule zero
    ["eval", "--t", "4", "--lmn", "0", "0", "2000"],
    ["eval", "--t", "4", "--lmn", "0", "0", "2000", "--method", "series6"],
    # series6 rows read from the second column block on, to a tight tol
    ["eval", "--t", "4.5", "--gamma", "2", "--lmn", "3", "3", "2", "--method", "series6",
     "--tol", "1e-14"],
    # series6 at large gamma, where x = gamma/t is near 1 and the rows are wide
    ["eval", "--t", "32.5", "--gamma", "30", "--lmn", "2", "1", "1", "--method", "series6"],
    # series6 at t - edge = 0.5 with gamma = 1e6: the depth's floor l+m+n
    ["eval", "--t", "1000002.5", "--gamma", "1e6", "--method", "series6"],
    # every row of a series6 scan whose groups are cut at l_max 17
    ["convergence", "--t", "3.5", "--gamma", "0.5", "--lmn", "4", "2", "0", "--method", "series6",
     "--l-max", "17"],
    # the quadrature where 2 + gamma is not a float, and where t - 2 - gamma
    # of the float inputs is -1e-17 though t >= fl(2 + gamma)
    ["eval", "--t", "2.0000001", "--gamma", "3e-8", "--method", "quadrature"],
    ["eval", "--t", "2.000000001", "--gamma", "1.0000000927403717e-09", "--method", "quadrature"],
    # the trapezoid at N = 1024 with an odd n, and at N = 2048
    ["eval", "--t", "3.016", "--lmn", "5", "4", "9", "--method", "quadrature"],
    ["eval", "--t", "1010.008", "--gamma", "1000", "--lmn", "0", "0", "20", "--method", "quadrature"],
    # trapezoid stops decided at the rounding floor of the sum
    ["eval", "--t", "4.995226466775371", "--gamma", "0.1", "--method", "quadrature"],
    ["eval", "--t", "2.5515612150592935", "--gamma", "0.5", "--lmn", "0", "0", "8", "--method", "quadrature"],
    # error paths
    ["eval", "--t", "4", "--lmn", "1", "0", "0", "--method", "bogus"],
    ["compare", "--t", "4", "--method", "series5"],
    ["compare", "--t", "nan", "--method", "series5,series6"],
    ["convergence", "--t", "4", "--method", "quadrature"],
)


def _strip_wall_time(stdout: str) -> list[str]:
    lines = []
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(record, dict):
            record.pop("wall_time_ms", None)
        lines.append(json.dumps(record))
    return lines


def _run_cli(src: Path, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "greenfcc", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=600, check=False,
        )
        files = {p.name: p.read_text() for p in sorted(Path(cwd).iterdir())}
    return {
        "exit": proc.returncode,
        "stdout": _strip_wall_time(proc.stdout),
        "stderr": proc.stderr,
        "files": files,
    }


def collect(src: Path) -> dict[str, str]:
    """Every result of the tree at ``src``, keyed by a readable label."""
    sys.path.insert(0, str(src))
    import greenfcc

    if Path(greenfcc.__file__).resolve().parent != src.resolve() / "greenfcc":
        raise ImportError(f"greenfcc imported from {greenfcc.__file__}, not {src}")
    data = json.loads(REFERENCES.read_text())
    results = {}
    for workload in WORKLOADS:
        for idx, op in enumerate(data["workloads"][workload]["ops"]):
            if op["route"] not in ROUTES:
                continue
            l, m, n = op["lmn"]
            params = greenfcc.GreenParams(t=op["t"], gamma=op["gamma"], l=l, m=m, n=n)
            try:
                ev = getattr(greenfcc, ROUTES[op["route"]])(params, **op["kwargs"])
                got = [ev.value, ev.abs_error_estimate, ev.terms_used, ev.converged, ev.accelerated]
            except Exception as exc:  # a raised error is a result to compare too
                got = {"raised": repr(exc)}
            label = f"{workload}[{idx}] {op['route']} t={op['t']!r} gamma={op['gamma']!r} lmn={op['lmn']} {op['kwargs']}"
            results[label] = json.dumps(got)
    for gamma in MOMENT_GAMMAS:
        largest = int(680.0 / math.log(2.0 + gamma))  # moment_coefficient's limit
        for l, m, n in MOMENT_SITES:
            h = (l + m + n) // 2
            edges = [h + k * MOMENT_TILE_STEP + d for k in (1, 2, 3) for d in (-1, 0, 1)]
            params = greenfcc.GreenParams(t=3.0 + gamma, gamma=gamma, l=l, m=m, n=n)
            for i in [*edges, largest]:
                try:
                    got = greenfcc.moment_coefficient(i, params)
                except Exception as exc:
                    got = {"raised": repr(exc)}
                results[f"moment_coefficient({i}) gamma={gamma!r} lmn={[l, m, n]}"] = json.dumps(got)
    commands = [
        *README_COMMANDS,
        *EXTRA_COMMANDS,
        *(op["argv"] for op in data["workloads"]["cli"]["ops"]),
    ]
    for argv in commands:
        results["greenfcc " + " ".join(argv)] = json.dumps(_run_cli(src, argv))
    return results


def _leaves(value) -> list:
    """The scalars of a result, with every float-valued piece of text as a float.

    JSON text is decoded, other text is split into lines, and a line
    that is not JSON into CSV cells; a cell that reads as a float (and
    not as an integer) becomes one.
    """
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in [key, *_leaves(value[key])]]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    if isinstance(value, str):
        try:
            decoded = json.loads(value)
        except ValueError:
            decoded = value
        if decoded != value:
            return _leaves(decoded)
        for sep in ("\n", ","):
            if sep in value:
                return [leaf for part in value.split(sep) for leaf in _leaves(part)]
        try:
            int(value)
        except ValueError:
            try:
                return [float(value)]
            except ValueError:
                pass
    return [value]


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def _changes(old: str | None, new: str | None) -> tuple[list[tuple[float, float]], bool]:
    """The float pairs that differ between two results, and whether anything else does.

    Anything else is a missing result, another shape, or a changed
    integer, flag or piece of text; another shape moves no float pair.
    """
    if old is None or new is None:
        return [], True
    a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    if len(a) != len(b):
        return [], True
    moved, other = [], False
    for x, y in zip(a, b):
        if type(x) is float and type(y) is float:
            if x != y:
                moved.append((x, y))
        elif type(x) is not type(y) or x != y:
            other = True
    return moved, other


def _collect_in_child(src: Path) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", str(src)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"collecting results of {src} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    ap.add_argument("--collect", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(Path(args.collect))))
        return 0
    if not args.rev:
        ap.error("a git revision is required")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.rev, "src"],
            capture_output=True, check=True,
        )
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        old = _collect_in_child(Path(tmp) / "src")
    new = _collect_in_child(ROOT / "src")
    differ = other = 0
    worst, worst_label = 0.0, None
    for label in sorted(old.keys() | new.keys()):
        if old.get(label) != new.get(label):
            differ += 1
            print(f"DIFF {label}\n  {args.rev}: {old.get(label)}\n  tree: {new.get(label)}")
            moved, changed = _changes(old.get(label), new.get(label))
            other += changed
            for x, y in moved:
                print(f"  float {x!r} -> {y!r}, relative change {_relative(x, y):.3g}")
                if _relative(x, y) > worst:
                    worst, worst_label = _relative(x, y), label
    print(
        f"largest relative float change {worst:.3g}"
        + (f" ({worst_label})" if worst_label else "")
        + f"; {other} results changed other than in floats"
    )
    print(f"{len(old.keys() | new.keys())} results compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
