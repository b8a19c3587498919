"""Write every preset's output bytes, trimmed, to one directory.

For each preset NAME the script writes three files to OUTDIR:

- ``NAME.csv`` and ``NAME.csv.manifest``: what ``emit_csv`` writes for the
  preset at no more than 3 trials and the first 3 values of every grid;
- ``NAME.preset``: the text that ``chansim preset NAME`` prints.

The 30 presets give 90 files.  Without names the script also writes two
CSVs, each with its manifest, for paths that no trimmed preset reaches:

- ``fig12c-band.csv``: fig12c at M in {140, 380}, phi in {0, 90} deg and
  sigma_shad in {0, 2} dB, 2 trials.  At phi = 0 there the real form is
  zero beyond lag kd = 45 <= M/2 - 16, so its log-det takes the banded
  factorization, which the trimmed grid (M <= 60) never reaches.
- ``fig15c-kinds.csv``: fig15c at K in {1, 5} for each XL cluster
  correlation (uncorrelated, exponential, onering), 2 trials.  No preset
  runs the exponential kind.

Run it on two checkouts, at the same BLAS thread setting, and compare the
directories to see which bytes a change moves.  Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/preset_bytes.py OUTDIR [PRESET ...]
    PYTHONPATH=src python3 tests/fixtures/preset_bytes.py --compare BEFORE AFTER

Without names, every preset is written.  ``--compare`` prints one line per
file that differs, missing files included.  For a CSV the line gives the
number of changed cells and, per column, how many changed and the worst
relative change |after - before| / |before|, so mean and stderr columns
read apart.  It exits 1 when any file differs.
"""

import csv
import dataclasses
import sys
from pathlib import Path

from make_preset_golden import trimmed

from chansim import cli, xlmimo
from chansim.presets import preset, preset_names
from chansim.runner import emit_csv, run_experiment

MAX_TRIALS = 3
GRID_VALUES = (3, 3, 3, 3)
BAND_GRIDS = ((140.0, 380.0), (0.0, 90.0), (0.0, 2.0))   # fig12c's m, phi and sigma_shad
KINDS_GRIDS = ((1.0, 5.0), xlmimo.CLUSTER_CORRELATIONS)    # fig15c's num_users and correlation


def _regridded(name, grids):
    """Preset ``name`` at 2 trials, its sweep and curves taking ``grids`` in order."""
    cfg = preset(name)
    sweep, *curves = (dataclasses.replace(s, grid=grid)
                      for s, grid in zip((cfg.sweep,) + cfg.curves, grids))
    return dataclasses.replace(cfg, trials=2, sweep=sweep, curves=tuple(curves))


def band_config():
    """fig12c on BAND_GRIDS at 2 trials: the points whose log-det factors a band."""
    return _regridded("fig12c", BAND_GRIDS)


def kinds_config():
    """fig15c on KINDS_GRIDS at 2 trials: every XL cluster correlation kind."""
    return _regridded("fig15c", KINDS_GRIDS)


def main(outdir, names):
    unknown = sorted(set(names) - set(preset_names()))
    if unknown:
        sys.exit(f"unknown preset(s): {', '.join(unknown)}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = 0
    if not names:
        emit_csv(run_experiment(band_config()), out / "fig12c-band.csv")
        emit_csv(run_experiment(kinds_config()), out / "fig15c-kinds.csv")
        files = 4
    names = sorted(set(names)) or preset_names()
    for name in names:
        emit_csv(run_experiment(trimmed(name, MAX_TRIALS, GRID_VALUES)), out / f"{name}.csv")
        cli.main(["preset", name, "--out", str(out / f"{name}.preset")])
    print(f"wrote {files + 3 * len(names)} files to {out}")


def _relative_change(before: str, after: str) -> float:
    try:
        b, a = float(before), float(after)
    except ValueError:
        return float("inf")
    return abs(a - b) / abs(b) if b else float("inf")


def csv_changes(before: str, after: str) -> str:
    """Changed cells of two CSV texts: a count, then per column its count and worst change."""
    rows_b, rows_a = list(csv.reader(before.splitlines())), list(csv.reader(after.splitlines()))
    if rows_b[:1] != rows_a[:1] or len(rows_b) != len(rows_a):
        return "header or row count differs"
    worst = {}
    for row_b, row_a in zip(rows_b[1:], rows_a[1:]):
        for col, b, a in zip(rows_b[0], row_b, row_a):
            if b != a:
                count, rel = worst.get(col, (0, 0.0))
                worst[col] = count + 1, max(rel, _relative_change(b, a))
    cells = sum(count for count, _ in worst.values())
    return f"{cells} changed cells; " + ", ".join(
        f"{col} {worst[col][0]} worst {worst[col][1]:.2g}" for col in rows_b[0] if col in worst)


def compare(before, after) -> int:
    """Print one line per file that differs between two output directories; 1 if any does."""
    before, after = Path(before), Path(after)
    names = sorted({p.name for p in before.iterdir()} | {p.name for p in after.iterdir()})
    changed = 0
    for name in names:
        b, a = before / name, after / name
        if not (b.exists() and a.exists()):
            print(f"{name}: only in {b.parent if b.exists() else a.parent}")
        elif b.read_bytes() == a.read_bytes():
            continue
        elif name.endswith(".csv"):
            print(f"{name}: {csv_changes(b.read_text('utf-8'), a.read_text('utf-8'))}")
        else:
            print(f"{name}: differs")
        changed += 1
    print(f"{changed} of {len(names)} files differ")
    return int(changed > 0)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) < 2 or sys.argv[1].startswith("--"):
        sys.exit(f"usage: {sys.argv[0]} OUTDIR [PRESET ...] | --compare BEFORE AFTER")
    main(sys.argv[1], sys.argv[2:])
