"""What the benchmark under bench/ reads of the package.

bench/tracer.py resolves a fixed list of functions and methods, and
bench/run.py reads the shared J table's size, the binomial table's
cache and three QuadratureSpec fields.  A name the package drops there
makes a traced benchmark run malformed, so these checks fail first.
bench/tracer.py is read as text and executed in a module of its own,
which writes nothing under bench/.
"""

import types
from pathlib import Path

import pytest

from greenfcc import QuadratureSpec
from greenfcc.basic_integrals import shared_table
from greenfcc.combinatorics import binomial_table

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves(tracer):
    assert tracer.TARGETS
    for name, module, path in tracer.TARGETS:
        assert tracer.resolve(module, path) is not None, name


def test_quadrature_spec_fields():
    # bench/run.py::coarse_nodes reads these; bench/make_references.py
    # passes nodes_per_axis=32
    spec = QuadratureSpec()
    for field in ("nodes_per_axis", "subdivisions_per_axis", "corner_refinement_levels"):
        assert isinstance(getattr(spec, field), int), field
    assert QuadratureSpec(nodes_per_axis=32).nodes_per_axis == 32


def test_shared_table_state():
    table = shared_table(0)
    assert isinstance(table.max_n, int)
    assert isinstance(table.l_cache, dict)


def test_binomial_table_cache_info():
    assert callable(binomial_table.cache_info)
    assert binomial_table.cache_info().maxsize > 0
