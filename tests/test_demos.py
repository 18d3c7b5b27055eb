"""The scripts in demos/ run to the end, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    # rfw from this checkout's src/, no bytecode written, and the working
    # directory a scratch one, so that a run leaves nothing behind
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if script == "certify_constants.py":
        assert "riemannian at 10*alpha" in proc.stdout
        assert "FAIL (as expected)" in proc.stdout

