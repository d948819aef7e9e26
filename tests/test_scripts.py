"""Every script under scripts/ starts from a clean checkout, without PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# mp_references.py needs mpmath, which the package does not declare
NAMES = sorted(p.name for p in SCRIPTS.glob("*.py") if p.name != "mp_references.py")


@pytest.mark.parametrize("name", NAMES)
def test_help_without_pythonpath(name, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
