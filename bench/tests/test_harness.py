"""Self-tests of the benchmark's own logic.

Run with: python3 -m pytest bench/tests -q
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness as h  # noqa: E402
import tracer  # noqa: E402

WATSON_T3 = 3 * math.gamma(1 / 3) ** 6 / (2 ** (14 / 3) * math.pi**4)


def _first_op(workload):
    ops, refs, target, _ = h.load_pool(workload)
    op = ops[0]
    return op, refs, target, refs[h.point_key(op["t"], op["gamma"], op["lmn"])]


def _result(value, converged, estimate, op):
    return SimpleNamespace(
        value=value,
        converged=converged,
        abs_error_estimate=estimate,
        method=op["route"],
        terms_used=10,
        accelerated="none",
    )


def test_seed_fixes_the_point_sequence():
    ops, _, _, _ = h.load_pool("offedge_sweep")

    def passes(seed):
        rng = random.Random(seed)
        return [h.op_order(ops, rng) for _ in range(3)]

    assert passes(7) == passes(7)
    assert passes(7) != passes(8)
    for order in passes(7):
        assert sorted(order) == list(range(len(ops)))
        routes = [ops[i]["route"] for i in order]
        assert routes[0::2] == ["series5"] * (len(ops) // 2)
        assert routes[1::2] == ["series6"] * (len(ops) // 2)


def test_every_pooled_point_has_an_admitted_reference():
    data = json.loads(h.REFERENCES.read_text())
    for workload in (*h.WORKLOADS, h.CLI_POOL):
        ops, refs, target, _ = h.load_pool(workload)
        spec = data["workloads"][workload]
        for p in spec.get("points", ops):
            ref = refs[h.point_key(p["t"], p["gamma"], p["lmn"])]
            assert ref["uncertainty"] <= p.get("target", target) / 100.0


def test_wrong_value_counts_as_failed():
    op, refs, target, ref = _first_op("offedge_sweep")
    assert h.judge_library(_result(ref["value"], True, 1e-12, op), op, refs, target).ok
    wrong = h.judge_library(_result(ref["value"] + 100 * target, False, 1.0, op), op, refs, target)
    assert not wrong.ok
    non_finite = h.judge_library(_result(math.nan, False, 1.0, op), op, refs, target)
    assert non_finite.hard and not non_finite.ok


def test_converged_with_error_above_estimate_is_failed():
    op, refs, target, ref = _first_op("offedge_sweep")
    # inside the accuracy target, but the claimed estimate is too small
    claim = _result(ref["value"] + target / 2, True, target / 100, op)
    outcome = h.judge_library(claim, op, refs, target)
    assert outcome.hard and not outcome.ok
    honest = _result(ref["value"] + target / 2, True, target, op)
    assert h.judge_library(honest, op, refs, target).ok


def _eval_line(value, converged):
    record = {
        "t": 4.0, "gamma": 1.0, "l": 0, "m": 0, "n": 0, "method": "series5", "accel": "none",
        "value": value, "abs_error_estimate": 1e-11, "terms_used": 55, "converged": converged,
        "wall_time_ms": 1.0,
    }
    return json.dumps(record) + "\n"


def test_cli_exit_2_is_not_failed():
    ops, refs, _, _ = h.load_pool(h.CLI_POOL)
    op = next(o for o in ops if o["argv"] == ["eval", "--t", "4"])
    ref = refs[h.point_key(4.0, 1.0, (0, 0, 0))]["value"]
    assert h.judge_cli(2, _eval_line(ref, False), op, refs).ok
    assert h.judge_cli(1, "", op, refs).hard
    assert h.judge_cli(0, "", op, refs).hard


def test_cli_exit_2_from_a_real_process():
    _, refs, _, _ = h.load_pool(h.CLI_POOL)
    op = {"argv": ["eval", "--t", "4", "--tol", "1e-20", "--n-max", "100"], "target": 1e-9}
    env = dict(os.environ, PYTHONPATH=str(h.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "greenfcc", *op["argv"]],
        cwd=h.ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2
    outcome = h.judge_cli(proc.returncode, proc.stdout, op, refs)
    assert outcome.ok and not outcome.hard


def test_t3_reference_matches_watson():
    refs = json.loads(h.REFERENCES.read_text())["references"]
    assert abs(refs[h.point_key(3.0, 1.0, (0, 0, 0))]["value"] - WATSON_T3) <= 1e-12


def test_tail_and_best_of_passes():
    assert h.tail([float(v) for v in range(1, 31)]) == (20.0, pytest.approx(100 * 20 / 30))
    assert h.tail([1.0, 2.0]) == (2.0, 100.0)
    orders = [[0, 1], [1, 0]]
    assert h.best_of_passes([5.0, 2.0, 3.0, 1.0], orders) == [1.0, 2.0, 2.0, 1.0]


def test_missing_trace_target_is_absent(monkeypatch):
    import greenfcc

    monkeypatch.setattr(
        tracer, "TARGETS", tracer.TARGETS + (("gone.fn", "basic_integrals", "no_such_function"),)
    )
    original = greenfcc.evaluate_series5
    with tracer.Tracer() as tr:
        assert greenfcc.evaluate_series5 is not original
        greenfcc.evaluate_series5(greenfcc.GreenParams(t=6.0))
    assert greenfcc.evaluate_series5 is original
    assert tr.absent == ["gone.fn"]
    assert tr.stats["green_series.evaluate_series5"][0] == 1
    assert tr.stats["basic_integrals.j_value"][0] > 0
