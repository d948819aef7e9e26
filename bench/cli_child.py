"""One greenfcc CLI process under the benchmark's tracer.

Usage:
    python3 bench/cli_child.py -- <greenfcc arguments>

Times ``import numpy`` and then ``import greenfcc.cli`` from a fresh
interpreter, runs ``greenfcc.cli.main`` with the layer wrappers
installed, and writes one ``BENCH_TRACE {json}`` line as the last line
of stderr.  Stdout and the exit code are the CLI's own.
"""

import json
import sys
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import greenfcc.cli  # noqa: E402

import_done = time.perf_counter()

from run import TRACE_PREFIX  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    argv = sys.argv[sys.argv.index("--") + 1:]
    with Tracer() as tracer:
        code = greenfcc.cli.main(argv)
    sys.stdout.flush()
    report = {
        "import_ms": (import_done - start) * 1e3,
        "numpy_import_ms": (numpy_done - start) * 1e3,
        "stats": tracer.stats,
        "absent": tracer.absent,
    }
    print(TRACE_PREFIX + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
