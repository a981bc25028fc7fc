"""The narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(
    p.name for p in (ROOT / "demos").glob("[0-9]*.py")))
def test_demo_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
