"""Time every pooled operation of a bench workload in two trees, in one process.

Usage: python3 scripts/ab_ops.py REV [--workload W] [--rounds N]

REV's src/ is exported with ``git archive``, which writes nothing into
.git, and its greenfcc imported under the package name
``greenfcc_base``; the working tree's src/greenfcc is imported as
``greenfcc``.  Both load into this process after bench/run.py has set
its thread pinning, so neither numpy sees more than one BLAS thread.

Every operation of workload W (default offedge_sweep) in
bench/references.json, which is only read, is called once on each
tree to fill its caches.  Then N rounds (default 20) each visit the
pool in a shuffled order, as a bench pass does, and time every
operation on both trees, the first of the two alternating from one
operation to the next and from round to round; each side takes the
best of 5 calls, and the process stays on the fastest CPU as the
bench's client does.  Results are not checked: scripts/same_results.py
compares them.

Printed per operation: each tree's median over the rounds in
microseconds, their ratio (tree / REV) and the rounds the tree won.
Then each tree's pool metrics, derived as bench/run.py derives them:
every sample replaced by its operation's best (``best_of_passes``),
the median of those (latency_p50), ``tail`` of them (latency_tail, the
best of the slowest operation once N >= 11) and their sum per round.
In two trees with the same code the ratios measure the noise.
"""

from __future__ import annotations

import argparse
import random
import statistics
import tempfile
import time
from pathlib import Path

import _trees

h = _trees.h
BEST_OF = 5


def best_of(call) -> float:
    best = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def label(op: dict) -> str:
    return f"{op['route']} t={op['t']:g} gamma={op['gamma']:g} ({','.join(map(str, op['lmn']))})"


def pool_line(name: str, base: float, tree: float) -> str:
    return f"{name:<34} {base * 1e3:>10.4f} ms {tree * 1e3:>10.4f} ms  ratio {tree / base:.3f}"


def compare(base_calls: list, tree_calls: list, ops: list[dict], rounds: int) -> None:
    for a, b in zip(base_calls, tree_calls):
        a(), b()
    chooser = h.CpuChooser()
    rng = random.Random(0)
    orders: list[list[int]] = []
    latencies: tuple[list[float], list[float]] = ([], [])
    flip = 0
    for _ in range(rounds):
        orders.append(h.op_order(ops, rng))
        for idx in orders[-1]:
            chooser.maybe_move()
            sides = ((0, base_calls[idx]), (1, tree_calls[idx]))
            for side, call in sides[::-1] if flip else sides:
                latencies[side].append(best_of(call))
            flip ^= 1
        flip ^= 1
    times: list[tuple[list[float], list[float]]] = [([], []) for _ in ops]
    for side, side_latencies in enumerate(latencies):
        for idx, latency in zip((idx for order in orders for idx in order), side_latencies):
            times[idx][side].append(latency)
    print(f"{'operation':<40} {'REV us':>9} {'tree us':>9} {'ratio':>7}  won")
    for op, (base, tree) in zip(ops, times):
        base_med, tree_med = statistics.median(base), statistics.median(tree)
        won = sum(y < x for x, y in zip(base, tree))
        print(
            f"{label(op):<40} {base_med * 1e6:>9.1f} {tree_med * 1e6:>9.1f} "
            f"{tree_med / base_med:>7.3f}  {won}/{rounds}"
        )
    base, tree = (h.best_of_passes(side_latencies, orders) for side_latencies in latencies)
    print(f"{'pool, as bench/run.py derives it':<34} {'REV':>13} {'tree':>13}")
    print(pool_line("latency_p50", statistics.median(base), statistics.median(tree)))
    print(pool_line("latency_tail", h.tail(base)[0], h.tail(tree)[0]))
    print(pool_line("sum of one round", sum(base) / rounds, sum(tree) / rounds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to time the working tree against")
    ap.add_argument("--workload", default="offedge_sweep", choices=h.WORKLOADS)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    ops = h.load_pool(args.workload)[0]
    with tempfile.TemporaryDirectory() as tmp:
        base = _trees.import_tree(_trees.export(args.rev, Path(tmp)), "greenfcc_base")
        tree = _trees.import_tree(_trees.ROOT / "src")
        print(f"{args.workload}: {len(ops)} ops, {args.rounds} rounds, best of {BEST_OF}; REV = {args.rev}")
        compare(_trees.pool_calls(base, ops), _trees.pool_calls(tree, ops), ops, args.rounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
