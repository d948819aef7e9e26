"""Call tracing of greenfcc's layers from outside the package.

The tracer replaces a fixed list of public functions and methods with
wrappers that time every call.  Spans are aggregated in memory per name
(calls, total time, time spent in traced callees), which gives each
layer's busy time and self time without storing millions of spans.
A target the package no longer has is recorded as absent, and the
metrics that depend on it are left out instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module under greenfcc, attribute path)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("combinatorics.binomial_table", "combinatorics", "binomial_table"),
    ("basic_integrals.shared_table", "basic_integrals", "shared_table"),
    ("basic_integrals.j_value", "basic_integrals", "IntegralTable.j_value"),
    ("green_series.evaluate_series5", "green_series", "evaluate_series5"),
    ("green_series.evaluate_series6", "green_series", "evaluate_series6"),
    ("acceleration.wynn", "acceleration", "wynn_epsilon_with_estimate"),
    ("acceleration.aitken", "acceleration", "aitken_delta2"),
    ("quadrature.green_by_quadrature", "quadrature", "green_by_quadrature"),
)


def resolve(module: str, path: str):
    """(owner, attribute name, object) for greenfcc.<module>.<path>, or None."""
    try:
        owner = importlib.import_module(f"greenfcc.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    obj = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    """Installs timing wrappers; use as a context manager.

    ``stats[name]`` is ``[calls, total_ns, callee_ns]``: callee time is
    the part of the span covered by directly nested traced spans, so
    self time is ``total_ns - callee_ns``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        record = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, module, path in TARGETS:
            found = resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, orig = found
            self.originals[name] = orig
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # from-imports bind the same object under other modules' names
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "greenfcc" or mod_name.startswith("greenfcc."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
