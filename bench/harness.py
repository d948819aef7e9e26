"""Workload pools, the checks applied to every result, and the statistics.

Nothing here imports numpy or greenfcc, so the benchmark can time the
package import itself.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"

WORKLOADS = ("offedge_sweep", "band_edge", "quadrature_oracle")
CLI_POOL = "cli"  # commands the traced runs start to measure the cli layer
CLI_TIMEOUT_S = 120.0
METHODS = ("series5", "series6", "quadrature")


def point_key(t: float, gamma: float, lmn) -> str:
    l, m, n = lmn
    return f"{float(t)!r}|{float(gamma)!r}|{int(l)},{int(m)},{int(n)}"


def load_pool(workload: str) -> tuple[list[dict], dict[str, dict], float | None, float | None]:
    """(ops, references by point key, accuracy target, nominal seconds per pass).

    Fails when a pooled point has no reference: the benchmark never
    times a point it cannot check.
    """
    data = json.loads(REFERENCES.read_text())
    spec = data["workloads"][workload]
    refs = data["references"]
    for p in spec.get("points", spec["ops"]):
        key = point_key(p["t"], p["gamma"], p["lmn"])
        if key not in refs:
            raise ValueError(f"{workload}: pooled point {key} has no reference")
    return spec["ops"], refs, spec.get("target"), spec.get("pass_s")


def op_order(ops: list[dict], rng: random.Random) -> list[int]:
    """One pass over the whole pool in an order drawn from ``rng``.

    Ops are shuffled within each route and the routes are interleaved,
    so series5 and series6 alternate on the off-edge sweep.  Every pass
    covers the pool exactly once, which keeps the mix of ops, and with
    it every median, the same from seed to seed.
    """
    groups: dict[str, list[int]] = {}
    for idx, op in enumerate(ops):
        groups.setdefault(op.get("route", "cli"), []).append(idx)
    for members in groups.values():
        rng.shuffle(members)
    order = []
    for rank in range(max(len(m) for m in groups.values())):
        order.extend(m[rank] for m in groups.values() if rank < len(m))
    return order


@dataclass
class Eval:
    """One evaluation inside an operation, as the per-layer counts need it."""

    method: str
    terms: int
    converged: bool
    accel_requested: bool = False
    accelerated: str = "none"


@dataclass
class Outcome:
    """The checked result of one operation.

    ``hard`` marks a failure of the operation itself: it raised,
    crashed, returned a non-finite value, or claimed convergence with a
    true error above its own estimate plus the reference uncertainty.
    ``ok`` additionally requires every value to meet the accuracy target.
    """

    ok: bool = True
    hard: bool = False
    err: float = 0.0
    digits: float = math.inf
    evals: list[Eval] = field(default_factory=list)
    note: str = ""

    def fail(self, note: str) -> "Outcome":
        self.ok, self.hard, self.err, self.digits = False, True, math.inf, 0.0
        self.note = self.note or note
        return self

    def judge(self, value, converged: bool, estimate, ref: dict, target: float) -> None:
        """Fold one returned value into the outcome."""
        if value is None or not math.isfinite(value):
            self.fail("non-finite value")
            return
        err = abs(value - ref["value"])
        scale = abs(ref["value"])
        cap = -math.log10(ref["uncertainty"] / scale)
        digits = cap if err == 0.0 else max(0.0, min(cap, -math.log10(err / scale)))
        self.err = max(self.err, err)
        self.digits = min(self.digits, digits)
        if converged and not err <= (estimate or 0.0) + ref["uncertainty"]:
            self.fail("converged=True with error above its estimate")
        elif err > target:
            self.ok = False
            self.note = self.note or f"error {err:.1e} above target {target:.0e}"


def judge_library(result, op: dict, refs: dict, target: float) -> Outcome:
    out = Outcome()
    ref = refs[point_key(op["t"], op["gamma"], op["lmn"])]
    out.judge(result.value, result.converged, result.abs_error_estimate, ref, target)
    out.evals.append(
        Eval(
            result.method,
            result.terms_used,
            result.converged,
            op["kwargs"].get("accel", "none") != "none",
            result.accelerated,
        )
    )
    return out


def _cli_values(record: dict):
    """(method, value, converged, estimate, terms, accelerated) per value in a record."""
    if "method" in record and record["method"] in METHODS:
        yield (
            record["method"],
            record.get("value"),
            record.get("converged"),
            record.get("abs_error_estimate", record.get("error")),
            record.get("terms_used", record.get("terms")),
            record.get("accel", "none"),
        )
        return
    for method in METHODS:
        if f"value_{method}" in record:
            yield (
                method,
                record[f"value_{method}"],
                record[f"converged_{method}"],
                record[f"error_{method}"],
                record[f"terms_{method}"],
                "none",
            )


def judge_cli(returncode: int, stdout: str, op: dict, refs: dict) -> Outcome:
    """Check one greenfcc process.  Exit 2 (not converged) is not a failure."""
    out = Outcome()
    if returncode not in (0, 2):
        return out.fail(f"exit code {returncode}")
    argv = op["argv"]
    accel_requested = "--accel" in argv and argv[argv.index("--accel") + 1] != "none"
    seen = 0
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return out.fail("unparseable output")
    for record in records:
        for method, value, converged, estimate, terms, accelerated in _cli_values(record):
            ref = refs.get(point_key(record["t"], record["gamma"], (record["l"], record["m"], record["n"])))
            if ref is None:
                return out.fail("output point has no reference")
            seen += 1
            out.judge(value, bool(converged), estimate, ref, op["target"])
            out.evals.append(Eval(method, int(terms or 0), bool(converged), accel_requested, accelerated))
    if not seen:
        return out.fail("no values in output")
    return out


def run_cli(args: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run one child Python process from the checkout root and wait for it."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        check=False,
    )


def best_of_passes(latencies: list[float], orders: list[list[int]]) -> list[float]:
    """Each sample replaced by the fastest wall time of the same operation in the run.

    The machine's speed drifts by up to 2x over seconds (other tenants
    share its cores), and a run is too short to average that out; the
    best of an operation's repetitions is what the code costs when
    nothing interferes.  Every pass repeats every operation, so the
    samples keep the pool's mix.
    """
    ops = [idx for order in orders for idx in order]
    best: dict[int, float] = {}
    for idx, latency in zip(ops, latencies):
        best[idx] = min(latency, best.get(idx, math.inf))
    return [best[idx] for idx in ops]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    That is the 11th largest sample; with fewer than 11 samples the
    largest one is reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    return time.perf_counter() - start


class CpuChooser:
    """Keeps this process on whichever allowed CPU runs a fixed probe fastest.

    The CPUs of a small shared machine slow down independently of each
    other, often by 1.5x for tens of seconds, when other tenants load
    them.  Re-checking at most every INTERVAL_S seconds, between
    operations and outside their timing, moves the client off a CPU
    that has slowed down.  Child processes inherit the choice.
    """

    INTERVAL_S = 0.25
    MAX_CPUS = 4  # probing costs about 3 ms per candidate CPU

    def __init__(self) -> None:
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        self.cpus = sorted(allowed)[: self.MAX_CPUS]
        self.last = -math.inf
        self.moves = 0
        self.current = None

    def maybe_move(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < self.INTERVAL_S:
            return
        speeds = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds[cpu] = min(_probe(), _probe())
            best = min(speeds, key=speeds.get)
            os.sched_setaffinity(0, {best})
        except OSError:  # affinity is not ours to change here: stop choosing
            self.cpus = []
            return
        self.moves += best != self.current
        self.current = best
        self.last = time.perf_counter()
