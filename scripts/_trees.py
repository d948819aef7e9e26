"""How the scripts that compare the working tree with a git revision reach a tree.

Not a script: scripts/same_results.py, ab_ops.py and heap_faults.py
import it.  Importing it sets bench/run.py's thread pinning before
numpy loads, and bench/harness.py and bench/run.py are only read.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402  (sets the thread pinning before numpy loads)

h = bench.h


def export(rev: str, dest: Path) -> Path:
    """REV's src/, written into ``dest`` by ``git archive``, which writes nothing into .git."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return Path(dest) / "src"


def import_tree(src: Path, name: str = "greenfcc"):
    """The greenfcc package under ``src`` imported as ``name``; its imports are relative."""
    package = Path(src) / "greenfcc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_child(script: str, mode: str, src: Path, *args: str):
    """What ``script`` prints as JSON in its hidden ``mode`` on ``src``, run as a child process."""
    proc = subprocess.run(
        [sys.executable, script, mode, str(src), *args],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(script).name} {mode} {src} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def pool_calls(g, ops: list[dict]) -> list:
    """One argument-free call per pooled operation, into the public API of package ``g``."""
    out = []
    for op in ops:
        l, m, n = op["lmn"]
        params = g.GreenParams(t=op["t"], gamma=op["gamma"], l=l, m=m, n=n)
        fn = getattr(g, bench.ROUTES[op["route"]])
        out.append(lambda fn=fn, params=params, kwargs=op["kwargs"]: fn(params, **kwargs))
    return out
