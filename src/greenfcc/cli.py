"""Command-line front end.

Four subcommands cover the common workflows::

    greenfcc eval --t 4 --gamma 1 --lmn 0 0 0 --method series5
    greenfcc sweep --t 3.5:10:0.5 --lmn 2 0 0 --format csv
    greenfcc compare --t 4 --method series5,series6,quadrature
    greenfcc convergence --t 5 --n-max 30 --accel wynn

Output is JSON-lines (one object per line, keys in schema order) or CSV
with a header row.  Identical invocations produce byte-identical output;
the only intentionally varying field is ``wall_time_ms``, which appears
in ``eval`` records alone.  Exit codes: 0 converged, 2 finished without
meeting the tolerance, 1 domain or usage error or an unwritable output.

A config file given with --config holds ``key = value`` lines using the
long flag names (``n-max`` or ``n_max`` both work); flags on the command
line override it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

from .errors import DomainError
from .green_series import (
    _ACCEL_CHOICES,
    HARD_ORDER_CAP,
    convergence_rows,
    evaluate_series5,
    evaluate_series6,
)
from .params import GreenParams, SeriesEvaluation
from .quadrature import QuadratureSpec, green_by_quadrature

_METHODS = ("series5", "series6", "quadrature")
# the most points one A:B:STEP range may expand to
MAX_RANGE_POINTS = 10**6
_CONFIG_KEYS = (
    "t",
    "gamma",
    "lmn",
    "method",
    "accel",
    "tol",
    "n_max",
    "l_max",
    "format",
    "out",
)


def _config_tokens(path: str) -> list[str]:
    """Turn a key=value file into the equivalent flag tokens."""
    tokens: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        tokens.append("--" + key.replace("_", "-"))
        tokens.extend(value.split())
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in right after the subcommand.

    Later tokens win in argparse, so explicit flags override the file.
    """
    path = None
    for idx, tok in enumerate(argv):
        if tok == "--config" and idx + 1 < len(argv):
            path = argv[idx + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    return argv[:1] + _config_tokens(path) + argv[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenfcc",
        description="FCC lattice Green function: series evaluation and quadrature cross-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "eval": "evaluate G at one parameter point",
        "sweep": "evaluate G over a t/gamma grid (ranges as A:B:STEP)",
        "compare": "run several methods at one point and report differences",
        "convergence": "emit per-term series diagnostics",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--t", required=True, help="t value, or A:B:STEP range in sweep")
        sp.add_argument("--gamma", default="1", help="anisotropy, or range in sweep")
        sp.add_argument(
            "--lmn",
            nargs=3,
            type=int,
            default=[0, 0, 0],
            metavar=("L", "M", "N"),
            help="lattice site indices (l+m+n even)",
        )
        sp.add_argument(
            "--method",
            default="series5,series6" if name == "compare" else "series5",
            help="series5 | series6 | quadrature; comma-separated list in sweep/compare",
        )
        sp.add_argument("--accel", choices=_ACCEL_CHOICES, default="none")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--n-max", dest="n_max", type=int, default=400)
        sp.add_argument("--l-max", dest="l_max", type=int, default=400)
        sp.add_argument(
            "--format",
            dest="output_format",
            choices=["json", "csv"],
            default="json",
        )
        sp.add_argument("--out", default=None, help="write output to this file instead of stdout")
        sp.add_argument("--config", default=None, help="key = value defaults file")
    return parser


def _single_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a single number here (A:B:STEP ranges apply to sweep only)"
        ) from None


def _parse_range(text: str, name: str) -> list[float]:
    if ":" not in text:
        value = _single_float(text, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        return [value]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} range must be A:B:STEP")
    start, stop, step = (_single_float(p, name) for p in parts)
    if step == 0.0 or not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{name} range needs a finite non-zero step")
    # the last index, as a float: infinite when stop - start or the
    # quotient overflows, so it is bounded before it becomes an int
    last = (stop - start) / step + 1e-9
    if last < 0:
        raise ValueError(f"{name} range {text!r} is empty")
    if not last < MAX_RANGE_POINTS:
        raise ValueError(f"{name} range {text!r} has more than {MAX_RANGE_POINTS} points")
    return [start + k * step for k in range(math.floor(last) + 1)]


def _method_list(text: str, allow_many: bool) -> list[str]:
    methods = [part.strip() for part in text.split(",") if part.strip()]
    if not methods:
        raise ValueError("no method given")
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate methods requested")
    if not allow_many and len(methods) != 1:
        raise ValueError("this command takes exactly one method")
    return methods


def _check_orders(args) -> None:
    """Refuse an --n-max or --l-max outside [1, HARD_ORDER_CAP], whatever the method."""
    for flag, value in (("--n-max", args.n_max), ("--l-max", args.l_max)):
        if not 1 <= value <= HARD_ORDER_CAP:
            raise ValueError(f"{flag} must lie in [1, {HARD_ORDER_CAP}]; got {value}")


def _dispatch(method: str, params: GreenParams, args) -> SeriesEvaluation:
    if method == "series5":
        return evaluate_series5(params, tol=args.tol, n_max=args.n_max, accel=args.accel)
    if method == "series6":
        return evaluate_series6(
            params, tol=args.tol, n_max=args.n_max, l_max=args.l_max, accel=args.accel
        )
    return green_by_quadrature(params, QuadratureSpec(target_tol=args.tol))


def _record(params: GreenParams, method: str, ev: SeriesEvaluation) -> dict:
    """One result as eval and compare report it, keys in schema order."""
    return {
        **asdict(params),
        "method": method,
        "accel": ev.accelerated,
        "value": ev.value,
        "abs_error_estimate": ev.abs_error_estimate,
        "terms_used": ev.terms_used,
        "converged": ev.converged,
    }


def cmd_eval(args) -> tuple[list[dict], bool, list[str]]:
    t = _single_float(args.t, "t")
    gamma = _single_float(args.gamma, "gamma")
    method = _method_list(args.method, allow_many=False)[0]
    params = GreenParams(t, gamma, *args.lmn)
    start = time.perf_counter()
    ev = _dispatch(method, params, args)
    wall_ms = (time.perf_counter() - start) * 1e3
    record = {**_record(params, method, ev), "wall_time_ms": round(wall_ms, 3)}
    return [record], ev.converged, list(record)


def cmd_sweep(args) -> tuple[list[dict], bool, list[str]]:
    ts = _parse_range(args.t, "t")
    gammas = _parse_range(args.gamma, "gamma")
    methods = _method_list(args.method, allow_many=True)
    l, m, n = args.lmn
    wide = len(methods) > 1
    fields = ["t", "gamma", "l", "m", "n"]
    if wide:
        for meth in methods:
            fields += [f"value_{meth}", f"error_{meth}", f"terms_{meth}", f"converged_{meth}"]
    else:
        fields += ["method", "value", "error", "terms", "converged"]
    records = []
    all_converged = True
    for t in ts:
        for gamma in gammas:
            row: dict = {"t": t, "gamma": gamma, "l": l, "m": m, "n": n}
            if not wide:
                row["method"] = methods[0]
            for meth in methods:
                suffix = f"_{meth}" if wide else ""
                try:
                    params = GreenParams(t=t, gamma=gamma, l=l, m=m, n=n)
                    ev = _dispatch(meth, params, args)
                except DomainError as exc:
                    # per-point domain failures stay in-row; the sweep goes on
                    row[f"value{suffix}"] = None
                    row[f"error{suffix}"] = str(exc)
                    row[f"terms{suffix}"] = 0
                    row[f"converged{suffix}"] = False
                    all_converged = False
                    continue
                row[f"value{suffix}"] = ev.value
                row[f"error{suffix}"] = ev.abs_error_estimate
                row[f"terms{suffix}"] = ev.terms_used
                row[f"converged{suffix}"] = ev.converged
                all_converged = all_converged and ev.converged
            records.append(row)
    return records, all_converged, fields


def cmd_compare(args) -> tuple[list[dict], bool, list[str]]:
    t = _single_float(args.t, "t")
    gamma = _single_float(args.gamma, "gamma")
    methods = _method_list(args.method, allow_many=True)
    if len(methods) < 2:
        raise ValueError("compare needs at least two methods")
    params = GreenParams(t, gamma, *args.lmn)
    results = {meth: _dispatch(meth, params, args) for meth in methods}
    records = [_record(params, meth, ev) for meth, ev in results.items()]
    for a, b in combinations(methods, 2):
        ea, eb = results[a], results[b]
        records.append(
            {
                **_record(params, f"diff:{a}-{b}", ea),
                "accel": args.accel,
                "value": ea.value - eb.value,
                "abs_error_estimate": ea.abs_error_estimate + eb.abs_error_estimate,
                "terms_used": None,
                "converged": ea.converged and eb.converged,
            }
        )
    return records, all(ev.converged for ev in results.values()), list(records[0])


def cmd_convergence(args) -> tuple[list[dict], bool, list[str]]:
    t = _single_float(args.t, "t")
    gamma = _single_float(args.gamma, "gamma")
    method = _method_list(args.method, allow_many=False)[0]
    if method == "quadrature":
        raise ValueError("convergence diagnostics need a series method")
    params = GreenParams(t, gamma, *args.lmn)
    rows, evaluation = convergence_rows(
        params,
        tol=args.tol,
        n_max=args.n_max,
        method=method,
        accel=args.accel,
        l_max=args.l_max,
    )
    fields = ["i", "term", "partial_sum", "tail_bound", "accelerated_estimate"]
    return rows, evaluation.converged, fields


_HANDLERS = {
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "convergence": cmd_convergence,
}


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        return ""
    return str(value)


def _render(records: list[dict], fields: list[str], output_format: str) -> str:
    if output_format == "json":
        lines = [
            json.dumps({key: _json_safe(rec.get(key)) for key in fields})
            for rec in records
        ]
        return "".join(line + "\n" for line in lines)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for rec in records:
        writer.writerow([_csv_cell(rec.get(key)) for key in fields])
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inject_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # "finished but not converged", so fold parse failures into 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        _check_orders(args)
        records, converged, fields = _HANDLERS[args.command](args)
        text = _render(records, fields, args.output_format)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if converged else 2


if __name__ == "__main__":
    raise SystemExit(main())
