"""Every preset's CSV and manifest, trimmed, against a committed fixture.

The trimmed configs and the fixture come from
``fixtures/make_preset_golden.py``; see its docstring for when to
regenerate.

The manifest, the CSV header and the grid columns must match byte for
byte.  The statistics columns are floating-point results whose last
printed digits depend on the BLAS build and its thread count (under
``OPENBLAS_NUM_THREADS=1`` they differ from the fixture by up to about
4e-11 relative), so they are compared to ``RTOL`` of the row's largest
statistic.  A change to how the random stream is consumed moves them by
far more than that.  ``condition_number`` values are the eigensolver's
noise floor at every preset point (ROADMAP item 5) and change by tens of
percent with the thread count, so those rows are only checked to be in
that regime.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chansim.presets import preset_names
from chansim.runner import emit_csv, run_experiment

FIXTURES = Path(__file__).parent / "fixtures"
_spec = importlib.util.spec_from_file_location(
    "make_preset_golden", FIXTURES / "make_preset_golden.py")
make_preset_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_preset_golden)

GOLDEN = json.loads((FIXTURES / "preset_golden.json").read_text(encoding="utf-8"))
STATS = ("mean", "stderr", "min", "max")
RTOL = 1e-9
NOISE_FLOOR_KAPPA = 1e15


def _check_csv(lines, expected, noise_floor):
    assert len(lines) == len(expected), "row count"
    assert lines[0] == expected[0], "header"
    n_grid = len(expected[0].split(",")) - len(STATS)
    for row, want in zip(lines[1:], expected[1:]):
        got, want = row.split(","), want.split(",")
        assert got[:n_grid] == want[:n_grid], f"grid columns of {row!r}"
        got, want = [float(v) for v in got[n_grid:]], [float(v) for v in want[n_grid:]]
        if noise_floor:
            mean, _, lo, hi = got
            assert min(mean, lo, hi) > NOISE_FLOOR_KAPPA, row
            continue
        scale = max(abs(v) for v in want)
        assert all(abs(g - w) <= RTOL * scale for g, w in zip(got, want)), \
            f"{row!r} != {','.join(map(repr, want))}"


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(preset_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_output_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    emit_csv(run_experiment(make_preset_golden.trimmed(name)), path)
    manifest = "".join(line + "\n" for line in GOLDEN[name]["manifest"])
    assert Path(f"{path}.manifest").read_bytes() == manifest.encode("utf-8")
    csv = path.read_bytes().decode("utf-8")
    assert csv.endswith("\n")
    _check_csv(csv.splitlines(), GOLDEN[name]["csv"],
               "metric = condition_number" in GOLDEN[name]["manifest"])


def test_preset_bytes_writes_csv_manifest_and_preset_text(tmp_path):
    script = FIXTURES / "preset_bytes.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "out"), "fig5a"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == \
        ["fig5a.csv", "fig5a.csv.manifest", "fig5a.preset"]
    want = tmp_path / "want.csv"
    emit_csv(run_experiment(make_preset_golden.trimmed("fig5a", 3, (3, 3, 3, 3))), want)
    assert (out / "fig5a.csv").read_bytes() == want.read_bytes()
    assert (out / "fig5a.csv.manifest").read_bytes() == Path(f"{want}.manifest").read_bytes()
    cli = subprocess.run([sys.executable, "-m", "chansim.cli", "preset", "fig5a"],
                         capture_output=True)
    assert (out / "fig5a.preset").read_bytes() == cli.stdout
