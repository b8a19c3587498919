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

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chansim import linalg
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


def test_preset_bytes_default_run_reaches_the_banded_log_det(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(FIXTURES))
    preset_bytes = importlib.import_module("preset_bytes")
    out = tmp_path / "out"
    preset_bytes.main(out, [])
    assert len(list(out.iterdir())) == 3 * len(preset_names()) + 6
    assert "curve.grid = uncorrelated,exponential,onering\n" in \
        (out / "fig15c-kinds.csv.manifest").read_text("utf-8")
    want = tmp_path / "wide.csv"
    emit_csv(run_experiment(preset_bytes.wide_config()), want)
    assert (out / "fig12d-wide.csv").read_bytes() == want.read_bytes()
    assert "sweep.grid = 6.5,10.0\n" in (out / "fig12d-wide.csv.manifest").read_text("utf-8")
    bands, factor = [], linalg._cholesky_diagonal

    def spy(a, scale, shift, kd=None):
        bands.append(kd)
        return factor(a, scale, shift, kd)

    monkeypatch.setattr(linalg, "_cholesky_diagonal", spy)
    want = tmp_path / "band.csv"
    emit_csv(run_experiment(preset_bytes.band_config()), want)
    assert (out / "fig12c-band.csv").read_bytes() == want.read_bytes()
    assert (out / "fig12c-band.csv.manifest").read_bytes() == Path(f"{want}.manifest").read_bytes()
    # At phi = 0 the guard and the value factor the kd = 45 band: 4 points, 2 trials each.
    # At phi = 90 deg the real form is dense.
    assert bands.count(45) == 16 and set(bands) == {45, None}


def test_preset_bytes_compare_lists_changed_cells(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for d in (before, after):
        d.mkdir()
        (d / "same.preset").write_text("x\n")
    (before / "a.csv").write_text("m,mean,stderr,min,max\n20,100,0.5,99,101\n60,200,0,200,200\n")
    (after / "a.csv").write_text("m,mean,stderr,min,max\n20,100,0.6,99,101\n60,200.02,0,200,200\n")
    (before / "a.csv.manifest").write_text("m = 20\n")
    (after / "a.csv.manifest").write_text("m = 60\n")
    (before / "gone.csv").write_text("m\n")
    proc = subprocess.run([sys.executable, str(FIXTURES / "preset_bytes.py"), "--compare",
                           str(before), str(after)], capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "a.csv: 2 changed cells; mean 1 worst 0.0001, stderr 1 worst 0.2",
        "a.csv.manifest: differs",
        f"gone.csv: only in {before}",
        "3 of 4 files differ",
    ]
    same = subprocess.run([sys.executable, str(FIXTURES / "preset_bytes.py"), "--compare",
                           str(before), str(before)], capture_output=True, text=True)
    assert (same.returncode, same.stdout) == (0, "0 of 4 files differ\n")


def test_preset_times_scales_a_full_grid_run_to_the_trial_count():
    proc = subprocess.run([sys.executable, str(FIXTURES / "preset_times.py"), "vr_hist", "fig9b"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["trial_counts"] == [1, 8] and list(report["presets"]) == ["vr_hist", "fig9b"]
    vr, fig9b = report["presets"]["vr_hist"], report["presets"]["fig9b"]
    assert (vr["points"], vr["trials"], vr["timed_trials"]) == (1, 10000, [1, 8])
    assert (fig9b["points"], fig9b["trials"], fig9b["timed_trials"]) == (3, 1, [1, 1])
    # A per-trial slope from the two counts, plus the low count's time once.
    (lo, hi), (s_lo, s_hi) = vr["timed_trials"], vr["seconds"]
    assert vr["per_trial_s"] == pytest.approx(max(s_hi - s_lo, 0.0) / (hi - lo), rel=1e-3,
                                              abs=1e-8)
    assert vr["estimated_s"] == pytest.approx(s_lo + vr["per_trial_s"] * (10000 - lo),
                                              rel=1e-3, abs=5e-3)
    # One trial runs once: no slope, and its time is the estimate.
    assert fig9b["seconds"][0] == fig9b["seconds"][1] and fig9b["per_trial_s"] == 0.0
    assert fig9b["estimated_s"] == pytest.approx(fig9b["seconds"][0], abs=5e-4)
    assert report["total_estimated_s"] == pytest.approx(
        vr["estimated_s"] + fig9b["estimated_s"], abs=1e-3)
    bad = subprocess.run([sys.executable, str(FIXTURES / "preset_times.py"), "fig99"],
                         capture_output=True, text=True)
    assert bad.returncode == 1 and "unknown preset(s): fig99" in bad.stderr
