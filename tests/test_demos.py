"""Each script in demos/ runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("script", [
    "cbsm_capacity.py",
    "gbsm_angular_spread.py",
    "vr_visibility.py",
    pytest.param("xl_sinr.py", marks=pytest.mark.slow),
])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
