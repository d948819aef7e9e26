"""Count the minor page faults per pooled operation of a bench workload in two trees.

Usage: python3 scripts/heap_faults.py REV [--workload W]

REV's src/ is exported with ``git archive`` (as scripts/same_results.py
does), which writes nothing into .git.  The working tree and REV then
each run in a child process of their own, with bench/run.py's thread
pinning set before numpy loads, and import greenfcc from their own
src/.  A child calls every operation of workload W (default
band_edge) in bench/references.json once to warm up, then makes
PASSES passes over the pool, each in a shuffled order drawn as a bench
pass draws it, and counts the minor page faults (``ru_minflt`` of
getrusage) of those passes.  Results are not checked:
scripts/same_results.py compares them.

Printed per tree: the faults per operation.  A fault is a page the
process touched for the first time, typically heap that glibc handed
back to the kernel and then grew again; a series path whose arrays fit
the heap it keeps faults little.  Counts vary by a few faults per
operation from run to run.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402  (sets the thread pinning before numpy loads)

h = bench.h
PASSES = 5
SEED = 0


def count(src: Path, workload: str) -> float:
    """Minor faults per operation of PASSES shuffled passes, after one warm-up call each."""
    sys.path.insert(0, str(src))
    import greenfcc

    if Path(greenfcc.__file__).resolve().parent != src.resolve() / "greenfcc":
        raise ImportError(f"greenfcc imported from {greenfcc.__file__}, not {src}")
    ops = h.load_pool(workload)[0]
    calls = []
    for op in ops:
        l, m, n = op["lmn"]
        params = greenfcc.GreenParams(t=op["t"], gamma=op["gamma"], l=l, m=m, n=n)
        fn = getattr(greenfcc, bench.ROUTES[op["route"]])
        calls.append(lambda fn=fn, params=params, kwargs=op["kwargs"]: fn(params, **kwargs))
    for call in calls:
        call()
    rng = random.Random(SEED)
    order = [idx for _ in range(PASSES) for idx in h.op_order(ops, rng)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for idx in order:
        calls[idx]()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(order)


def _count_in_child(src: Path, workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--count", str(src), "--workload", workload],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"counting the faults of {src} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    ap.add_argument("--workload", default="band_edge", choices=h.WORKLOADS)
    ap.add_argument("--count", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.count:
        print(json.dumps(count(Path(args.count), args.workload)))
        return 0
    if not args.rev:
        ap.error("a git revision is required")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.rev, "src"],
            capture_output=True, check=True,
        )
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        old = _count_in_child(Path(tmp) / "src", args.workload)
    new = _count_in_child(ROOT / "src", args.workload)
    print(f"{args.workload}: minor page faults per operation, {PASSES} shuffled passes after one warm-up call each")
    print(f"{args.rev:<12} {old:8.1f}")
    print(f"{'tree':<12} {new:8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
