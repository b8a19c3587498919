"""Write every preset's output bytes, trimmed, to one directory.

For each preset NAME the script writes three files to OUTDIR:

- ``NAME.csv`` and ``NAME.csv.manifest``: what ``emit_csv`` writes for the
  preset at no more than 3 trials and the first 3 values of every grid;
- ``NAME.preset``: the text that ``chansim preset NAME`` prints.

The 30 presets give 90 files.  Run it on two checkouts, at the same BLAS
thread setting, and compare the directories (``diff -r``) to see which
bytes a change moves.  Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/preset_bytes.py OUTDIR [PRESET ...]

Without names, every preset is written.
"""

import sys
from pathlib import Path

from make_preset_golden import trimmed

from chansim import cli
from chansim.presets import preset_names
from chansim.runner import emit_csv, run_experiment

MAX_TRIALS = 3
GRID_VALUES = (3, 3, 3, 3)


def main(outdir, names):
    unknown = sorted(set(names) - set(preset_names()))
    if unknown:
        sys.exit(f"unknown preset(s): {', '.join(unknown)}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    names = sorted(set(names)) or preset_names()
    for name in names:
        emit_csv(run_experiment(trimmed(name, MAX_TRIALS, GRID_VALUES)), out / f"{name}.csv")
        cli.main(["preset", name, "--out", str(out / f"{name}.preset")])
    print(f"wrote {3 * len(names)} files to {out}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR [PRESET ...]")
    main(sys.argv[1], sys.argv[2:])
