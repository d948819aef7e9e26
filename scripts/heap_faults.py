"""Count the minor page faults per pooled operation of a bench workload in two trees.

Usage: python3 scripts/heap_faults.py REV [--workload W]

REV's src/ is exported with ``git archive``, which writes nothing into
.git, and runs first; then a fresh copy of the working tree's src/
replaces it at the same path and runs.  So both trees run from one
path, and an A/A run compares code, not the heap layout that the path
alone can move.  Each runs in a child process of its own, with
bench/run.py's thread pinning set before numpy loads.  A child calls
every operation of workload W (default band_edge) in
bench/references.json once to warm up, then makes PASSES passes over
the pool, each in a shuffled order drawn as a bench pass draws it, and
counts the minor page faults (``ru_minflt`` of getrusage) of those
passes.  Results are not checked: scripts/same_results.py compares
them.

Printed per tree: the faults per operation and the child's peak
resident set (``ru_maxrss``) in MB, the figure bench/run.py reports as
``peak_rss_mb``, here after the warm-up and the passes.  A fault is a
page the process touched for the first time, typically heap that glibc
handed back to the kernel and then grew again; a series path whose
arrays fit the heap it keeps faults little.  Counts vary by a few
faults per operation from run to run.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import tempfile
from pathlib import Path

import _trees

h = _trees.h
PASSES = 5
SEED = 0


def count(src: Path, workload: str) -> tuple[float, float]:
    """Minor faults per operation of PASSES shuffled passes, after one warm-up call each, and the peak RSS in MB."""
    ops = h.load_pool(workload)[0]
    calls = _trees.pool_calls(_trees.import_tree(src), ops)
    for call in calls:
        call()
    rng = random.Random(SEED)
    order = [idx for _ in range(PASSES) for idx in h.op_order(ops, rng)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for idx in order:
        calls[idx]()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return (usage.ru_minflt - before) / len(order), usage.ru_maxrss / 1024.0


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
        src = _trees.export(args.rev, Path(tmp))
        old = _trees.run_child(__file__, "--count", src, "--workload", args.workload)
        shutil.rmtree(src)
        # sources only, as the export holds
        shutil.copytree(_trees.ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        new = _trees.run_child(__file__, "--count", src, "--workload", args.workload)
    print(f"{args.workload}: minor page faults per operation, {PASSES} shuffled passes after one warm-up call each; peak RSS")
    for name, (faults, rss) in ((args.rev, old), ("tree", new)):
        print(f"{name:<12} {faults:8.1f} {rss:8.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
