"""The benchmark's tracer contract, checked on every test run.

``bench/tracer.py`` wraps chansim functions by name and ``bench/checks.py``
derives from each config how often every traced layer must be entered.
This runs the bench worker with tracing on a few tiny configs and requires
the traced call counts to equal the derived ones, so a renamed traced
function or a changed call count fails here, not only in ``bench/run.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

DOCS = {
    "shadowed": """model = gaussian_ula_shadowed
metric = capacity_ub
trials = 2
geometry.m = 16
model.sigma_phi_deg = 15.0
sweep.param = sigma_shad
sweep.grid = 0.0,2.0
""",
    "uncorrelated": """model = uncorrelated
metric = capacity_ub
trials = 2
geometry.m = 16
model.sigma_shad = 2.0
sweep.param = m
sweep.grid = 8,16
""",
    "exponential": """model = exponential
metric = capacity_ub
trials = 1
sweep.param = rho
sweep.grid = 0.0,0.5
""",
    "onering_cond": """model = onering_ula
metric = condition_number
trials = 1
geometry.m = 16
sweep.param = delta
sweep.grid = 5.0,10.0
""",
    "onering_upa": """model = onering_upa
metric = capacity_ub
trials = 1
sweep.param = m
sweep.grid = 16
""",
    "gaussian_ula": """model = gaussian_ula
metric = capacity_ub
trials = 2
geometry.m = 16
sweep.param = m
sweep.grid = 16
""",
    "gaussian_ula_closed": """model = gaussian_ula_closed
metric = capacity_ub
trials = 2
geometry.m = 16
sweep.param = m
sweep.grid = 16
""",
    "exponential_shadow": """model = exponential_shadow
metric = capacity_ub
trials = 2
geometry.m = 16
model.sigma_shad = 2.0
sweep.param = m
sweep.grid = 16
""",
    "gaussian_upa": """model = gaussian_upa
metric = capacity_ub
trials = 2
geometry.m = 16
sweep.param = m
sweep.grid = 16
""",
    "xl": """model = xl
metric = sinr
trials = 1
geometry.m = 16
snr_db = 10.0
sweep.param = num_users
sweep.grid = 1,2
curve.param = correlation
curve.grid = uncorrelated,onering
""",
}


@pytest.fixture(scope="module")
def bench_modules():
    # imported read-only: no bytecode is written into bench/
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import tracer
        yield checks, tracer
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


def test_traced_call_counts_match_the_configs(tmp_path, bench_modules):
    checks, tracer = bench_modules
    paths = []
    for name, text in DOCS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths.append(str(path))
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--out", str(out),
                           "--trace", *paths],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert checks.check_calls(list(DOCS.values()), report["layers"]) == []
    # every traced layer is entered, so none of them is checked vacuously
    assert set(report["layers"]) == set(tracer.LAYERS)
