"""Every script under scripts/ starts from a clean checkout, without PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# a name that starts with "_" is a module the scripts import, not a script
NAMES = sorted(p.name for p in SCRIPTS.glob("*.py") if not p.name.startswith("_"))


@pytest.mark.parametrize("name", NAMES)
def test_help_without_pythonpath(name, tmp_path):
    if name == "mp_references.py":  # needs the optional extra "oracle" (pyproject.toml)
        pytest.importorskip("mpmath")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_loader_imports_an_export_under_a_second_name(tmp_path):
    # HEAD's src/, exported and imported as greenfcc_head next to the
    # checkout's greenfcc, loads from the export: no path check is needed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = (
        "import sys, _trees\n"
        "src = _trees.export('HEAD', sys.argv[1])\n"
        "head = _trees.import_tree(src, 'greenfcc_head')\n"
        "tree = _trees.import_tree(_trees.ROOT / 'src')\n"
        "print(src.resolve())\n"
        "print(head.__file__)\n"
        "print(tree.__file__)\n"
        "print(len(_trees.pool_calls(head, _trees.h.load_pool('band_edge')[0])))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        cwd=SCRIPTS, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    src, head, tree, calls = done.stdout.splitlines()
    assert Path(head).resolve() == Path(src) / "greenfcc" / "__init__.py"
    assert Path(tree).resolve() == SCRIPTS.parent / "src" / "greenfcc" / "__init__.py"
    assert int(calls) > 0


def test_ab_ops_cold_round(tmp_path):
    # one round of band_edge with every site record emptied before each
    # timed call: the cold path is paired, and the pool lines print
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_ops.py"), "HEAD", "--workload", "band_edge", "--rounds", "1", "--cold"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert ", cold; REV = HEAD" in done.stdout
    for name in ("latency_p50", "latency_tail", "sum of one round"):
        assert name in done.stdout
