"""greenfcc benchmark: one closed-loop client, one workload per run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: offedge_sweep, band_edge, quadrature_oracle, each one call
into the public API per operation.  The seed orders the workload's
stored point pool; every timed pass covers the whole pool once, and a
run makes as many passes as fit in ``--seconds`` at the pool's nominal
pass time (at least three).  Every result is checked against
bench/references.json.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run and
the tracing overhead, plus the cli layer measured on fresh
``greenfcc`` processes.  The line before it records the environment.
A readable report goes to stderr.  See bench/README.md.
"""

from __future__ import annotations

import os

# pinned before anything can import numpy; children inherit it
THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import harness as h  # noqa: E402
from tracer import Tracer, resolve  # noqa: E402

SETUP_SAMPLES = (11, 3)  # setups per run, this process's included: setup under 1 s, above it
MIN_PASSES = 3  # every operation gets a best of at least three
TRACE_PREFIX = "BENCH_TRACE "
ROUTES = {
    "series5": "evaluate_series5",
    "series6": "evaluate_series6",
    "quadrature": "green_by_quadrature",
}
SPAN_METRICS = (  # spans reported as <name>.calls and <name>.ms
    "combinatorics.binomial_table",
    "basic_integrals.shared_table",
    "basic_integrals.j_value",
    "green_series.evaluate_series5",
    "green_series.evaluate_series6",
    "acceleration.wynn",
    "acceleration.aitken",
    "quadrature.green_by_quadrature",
)
EVALUATORS = ("green_series.evaluate_series5", "green_series.evaluate_series6")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(h.SRC)
    return env


def import_greenfcc():
    """Import the package from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(h.SRC))
    import greenfcc

    if Path(greenfcc.__file__).resolve().parent != h.SRC / "greenfcc":
        raise ImportError(f"greenfcc imported from {greenfcc.__file__}, not {h.SRC}")
    return greenfcc


def table_state() -> dict:
    """Size of the shared J table, read through the public shared_table()."""
    found = resolve("basic_integrals", "shared_table")
    if found is None:
        return {}
    table = found[2](0)
    state = {}
    if hasattr(table, "max_n"):
        state["basic_integrals.table_max_n"] = table.max_n
    if hasattr(table, "l_cache"):
        state["basic_integrals.l_cache_entries"] = len(table.l_cache)
    return state


def binomial_misses():
    found = resolve("combinatorics", "binomial_table")
    info = getattr(found[2], "cache_info", None) if found else None
    return None if info is None else info().misses


class Library:
    """Operations that are one call into the public API."""

    def __init__(self, g, ops: list[dict], refs: dict, target: float):
        self.g, self.ops, self.refs, self.target = g, ops, refs, target
        self.params = [
            g.GreenParams(t=op["t"], gamma=op["gamma"], l=op["lmn"][0], m=op["lmn"][1], n=op["lmn"][2])
            for op in ops
        ]

    def warm_up(self) -> None:
        """One call per distinct configuration, at its largest pooled t.

        That call builds the tables of the configuration's full depth
        (binomials, J vectors, Gauss-Legendre nodes) and runs the
        allocator up to the largest arrays, at the lowest cost the pool
        allows.
        """
        chosen: dict[str, int] = {}
        for idx, op in enumerate(self.ops):
            key = json.dumps([op["route"], op["kwargs"], op["lmn"]], sort_keys=True)
            if key not in chosen or op["t"] > self.ops[chosen[key]]["t"]:
                chosen[key] = idx
        for idx in chosen.values():
            self.call(idx)

    def call(self, idx: int) -> tuple[float, h.Outcome]:
        op = self.ops[idx]
        # looked up on every call, so that the tracer's wrappers apply
        fn = getattr(self.g, ROUTES[op["route"]])
        start = time.perf_counter()
        try:
            result = fn(self.params[idx], **op["kwargs"])
        except Exception as exc:  # an operation that raises is a counted failure
            return time.perf_counter() - start, h.Outcome().fail(f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        return elapsed, h.judge_library(result, op, self.refs, self.target)


def timed_passes(runner: Library, orders: list[list[int]], chooser: h.CpuChooser, after_pass=None):
    """Run the given passes; returns the latencies and outcomes.

    ``after_pass(p)`` is called, outside any timing, after pass p (1-based).
    """
    latencies, outcomes = [], []
    for p, order in enumerate(orders, 1):
        for idx in order:
            chooser.maybe_move()
            elapsed, outcome = runner.call(idx)
            latencies.append(elapsed)
            outcomes.append(outcome)
        if after_pass:
            after_pass(p)
    return latencies, outcomes


def seeded_orders(ops: list[dict], seed: int, seconds: float, pass_s: float) -> list[list[int]]:
    """The pass orders of a run: round(seconds / pass_s) passes, at least MIN_PASSES.

    A fixed number of passes, rather than passes until a deadline, keeps
    the sample count, and with it the rank the tail is read at, the same
    however fast the machine happens to be.
    """
    rng = random.Random(seed)
    return [h.op_order(ops, rng) for _ in range(max(MIN_PASSES, round(seconds / pass_s)))]


class SetupSampler:
    """Setup times of fresh processes, import plus warm-up, each measured inside.

    ``first`` is this process's own setup time, the first sample.  The
    other samples are taken between timed passes, spread evenly over the
    run, so that their median does not rest on one stretch of time on a
    machine whose speed drifts.
    """

    def __init__(self, workload: str, seed: int, chooser: h.CpuChooser, first: float, passes: int):
        self.argv = [__file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
        self.chooser = chooser
        self.samples = [first]
        self.due = [0] * (passes + 1)  # children to start after each pass
        children = SETUP_SAMPLES[first > 1.0] - 1
        for i in range(1, children + 1):
            self.due[math.ceil(i * passes / children)] += 1

    def __call__(self, p: int) -> None:
        for _ in range(self.due[p]):
            self.chooser.maybe_move()
            proc = h.run_cli(self.argv, child_env())
            if proc.returncode != 0:
                raise RuntimeError(f"setup sample failed: {proc.stderr.strip()[-500:]}")
            self.samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def cli_layer(chooser: h.CpuChooser):
    """Start every command of the cli pool once, traced, in a fresh greenfcc process.

    Returns the children's merged ``cli.main`` span, the medians of their
    import times (greenfcc, numpy) in ms, and the checked outcomes.
    """
    ops, refs, _, _ = h.load_pool(h.CLI_POOL)
    main, absent = [0, 0, 0], False
    import_ms, numpy_ms, outcomes = [], [], []
    for op in ops:
        chooser.maybe_move()
        try:
            proc = h.run_cli([str(h.BENCH / "cli_child.py"), "--", *op["argv"]], child_env())
        except subprocess.TimeoutExpired:
            outcomes.append(h.Outcome().fail("timed out"))
            continue
        outcomes.append(h.judge_cli(proc.returncode, proc.stdout, op, refs))
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_PREFIX)]
        if not lines:
            continue
        child = json.loads(lines[-1][len(TRACE_PREFIX):])
        import_ms.append(child["import_ms"])
        numpy_ms.append(child["numpy_import_ms"])
        absent |= "cli.main" in child["absent"]
        main = [a + b for a, b in zip(main, child["stats"].get("cli.main", (0, 0, 0)))]
    imports = (statistics.median(import_ms), statistics.median(numpy_ms)) if import_ms else None
    return (None if absent else main), imports, outcomes


def environment(args, chooser: h.CpuChooser) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_pinning": THREAD_PINNING,
        "cpus": chooser.cpus,
        "cpu_policy": f"fastest probe, re-checked every {h.CpuChooser.INTERVAL_S} s",
        "clients": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(samples, outcomes, setups, rss_mb) -> tuple[dict, dict]:
    ok = sum(o.ok for o in outcomes)
    digits = [o.digits for o in outcomes]
    tail_value, tail_pct = h.tail(samples)
    metrics = {
        "latency_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "evals_per_s": (ok / sum(samples), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_share": (ok / len(outcomes), "share"),
        "digits_p50": (statistics.median(digits), "digits"),
        "digits_min": (min(digits), "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{tail_pct:.1f} of {len(samples)} samples",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, notes


def coarse_nodes(spec, fine: int) -> tuple[int, bool]:
    """(nodes of the half-resolution companion run, corner path taken).

    Mirrors how green_by_quadrature derives its companion spec; the
    corner path is recognised from the fine node count.
    """
    single = (spec.nodes_per_axis * spec.subdivisions_per_axis) ** 3
    corner = fine != single
    nodes = max(4, spec.nodes_per_axis // 2)
    cells = max(1, spec.subdivisions_per_axis // 2)
    if not corner:
        return (nodes * cells) ** 3, False
    levels = max(1, spec.corner_refinement_levels - 4)
    shell = max(1, cells // 2)
    return 3 * (nodes * cells) ** 3 + (7 * levels + 1) * (nodes * shell) ** 3, True


def per_layer(g, stats, absent, extra, outcomes, passes, plain, traced, cli, misses):
    """Per-layer metrics of the traced phase, per pass over the pool.

    ``cli`` is what cli_layer() returned; its times are per pass over the
    cli pool, one process per command.
    """
    metrics: dict[str, tuple[float, str]] = {}
    main, imports, _ = cli
    if imports is not None:
        metrics["cli.import_ms"] = (imports[0], "ms")
        metrics["cli.numpy_import_ms"] = (imports[1], "ms")
    if main is not None:
        _, total, callee = main
        metrics["cli.main_ms"] = (total / 1e6, "ms")
        metrics["cli.main_self_ms"] = ((total - callee) / 1e6, "ms")
    for name in SPAN_METRICS:
        if name in absent:
            continue
        calls, total, _ = stats.get(name, (0, 0, 0))
        metrics[f"{name}.calls"] = (calls / passes, "count")
        metrics[f"{name}.ms"] = (total / 1e6 / passes, "ms")
    if misses is not None:
        metrics["combinatorics.binomial_table.misses"] = (misses / passes, "count")
    for key, value in extra.items():
        metrics[key] = (value, "count")
    present = [n for n in EVALUATORS if n not in absent]
    if present:
        self_ns = sum(stats.get(n, (0, 0, 0))[1] - stats.get(n, (0, 0, 0))[2] for n in present)
        metrics["green_series.self_ms"] = (self_ns / 1e6 / passes, "ms")

    evals = [e for o in outcomes for e in o.evals]
    series = [e for e in evals if e.method in ("series5", "series6")]
    terms = sum(e.terms for e in series)
    madds = sum(e.terms * (e.terms + 1) * (2 * e.terms + 1) // 6 for e in series)
    metrics["green_series.terms_total"] = (terms / passes, "count.computed")
    metrics["green_series.double_sum_madds"] = (madds / passes, "count.computed")
    metrics["green_series.converged_share"] = (
        sum(e.converged for e in series) / len(series) if series else 0.0,
        "share",
    )
    asked = [e for e in evals if e.accel_requested]
    rejected = sum(e.accelerated == "none" and not e.converged for e in asked)
    metrics["acceleration.guard_reject_share"] = (rejected / len(asked) if asked else 0.0, "share")

    quad = [e for e in evals if e.method == "quadrature"]
    spec = g.QuadratureSpec()
    nodes, corner = 0, 0
    for e in quad:
        companion, on_corner = coarse_nodes(spec, e.terms)
        nodes += e.terms + companion
        corner += on_corner
    metrics["quadrature.nodes_total"] = (nodes / passes, "count.computed")
    quad_ms = metrics.get("quadrature.green_by_quadrature.ms", (0.0, "ms"))[0]
    metrics["quadrature.nodes_per_s"] = (nodes / passes / (quad_ms / 1e3) if quad_ms else 0.0, "1/s")
    metrics["quadrature.corner_share"] = (corner / len(quad) if quad else 0.0, "share")

    overhead_s = (sum(traced) - sum(plain)) / len(traced)
    metrics["trace.overhead_ms"] = (overhead_s * 1e3, "ms")
    metrics["trace.overhead_share"] = (overhead_s / (sum(plain) / len(plain)), "share")
    return metrics


def run_traced(g, runner, ops, pass_s, args, chooser):
    """Untraced then traced passes over the same orders; per-layer metrics."""
    orders = seeded_orders(ops, args.seed, args.seconds / 2.0, pass_s)
    plain_lat, plain_out = timed_passes(runner, orders, chooser)
    before = binomial_misses()
    with Tracer() as tracer:
        traced_lat, traced_out = timed_passes(runner, orders, chooser)
    after = binomial_misses()
    absent = set(tracer.absent)
    cli = cli_layer(chooser)
    # the traced phase repeats the untraced passes exactly, so latencies pair up
    metrics = per_layer(
        g,
        tracer.stats,
        absent,
        table_state(),
        traced_out,
        len(orders),
        h.best_of_passes(plain_lat, orders),
        h.best_of_passes(traced_lat, orders),
        cli,
        None if before is None else after - before,
    )
    if cli[0] is None:
        absent.add("cli.main")
    outcomes = plain_out + traced_out + cli[2]
    notes = {k: "computed, repeats exactly" for k, (_, unit) in metrics.items() if unit == "count.computed"}
    if absent:
        notes["absent"] = ", ".join(sorted(absent))
    return metrics, notes, outcomes, {"passes": len(orders), "ops_per_pass": len(ops)}


def report(workload: str, metrics: dict, notes: dict, outcomes) -> None:
    print(f"== {workload}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<42} {value:>16.6g} {unit:<15} {note}", file=sys.stderr)
    if "absent" in notes:
        print(f"  absent trace targets: {notes['absent']}", file=sys.stderr)
    misses = sorted({o.note for o in outcomes if not o.ok})
    for note in misses:
        print(f"  not ok: {note}", file=sys.stderr)


def run_workload(args) -> int:
    chooser = h.CpuChooser()
    chooser.maybe_move()
    start = time.perf_counter()
    try:
        g = import_greenfcc()
        ops, refs, target, pass_s = h.load_pool(args.workload)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    runner = Library(g, ops, refs, target)
    runner.warm_up()
    setup = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    if args.trace:
        metrics, notes, outcomes, detail = run_traced(g, runner, ops, pass_s, args, chooser)
    else:
        orders = seeded_orders(ops, args.seed, args.seconds, pass_s)
        setups = SetupSampler(args.workload, args.seed, chooser, setup, len(orders))
        latencies, outcomes = timed_passes(runner, orders, chooser, setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end(h.best_of_passes(latencies, orders), outcomes, setups.samples, rss_mb)
        detail = {"passes": len(orders), "ops_per_pass": len(ops), "timed_op_s": sum(latencies)}

    failed = sum(o.hard for o in outcomes)
    detail["cpu_moves"] = chooser.moves
    record = {"environment": environment(args, chooser), **detail, "notes": notes}
    print(json.dumps(record))
    report(args.workload, metrics, notes, outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in h.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=h.ROOT, check=False, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workload": workload, **result}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="greenfcc benchmark")
    ap.add_argument("--workload", required=True, choices=(*h.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
