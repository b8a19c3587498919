"""Regenerate preset_golden.json: the CSV and manifest of every preset, trimmed.

Each preset runs at no more than 2 trials, on the first two values of its
sweep grid and of its first curve grid and the first value of any other
curve grid.  The fixture holds the bytes that ``run_experiment`` and
``emit_csv`` produce for these configs, so a change to a model, a metric,
the output format or the consumption of the random stream shows up as a
diff of this file.  ``tests/test_golden.py`` compares the manifest, the
header and the grid columns exactly and the statistics to a relative
tolerance, because their last digits depend on the BLAS build and its
thread count.  Regenerate only for such a deliberate change, and say
why in the change's notes.  Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/make_preset_golden.py [PRESET ...]

Named presets have only their entries rewritten; every other entry keeps
its bytes.  Without names, every entry is rewritten.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from chansim.presets import preset, preset_names
from chansim.runner import emit_csv, run_experiment

FIXTURE = Path(__file__).with_name("preset_golden.json")
MAX_TRIALS = 2
# Grid values kept: the sweep's, then the first, second and third curve's.
GRID_VALUES = (2, 2, 1, 1)


def trimmed(name: str, max_trials: int = MAX_TRIALS, grid_values=GRID_VALUES):
    """The preset's config at no more than ``max_trials`` trials and short grids.

    The sweep grid keeps its first ``grid_values[0]`` values and the i-th
    curve grid its first ``grid_values[i]``.  The defaults give the
    fixture's configs.
    """
    cfg = preset(name)
    sweep, *curves = (dataclasses.replace(s, grid=s.grid[:n])
                      for s, n in zip((cfg.sweep,) + cfg.curves, grid_values))
    return dataclasses.replace(cfg, trials=min(cfg.trials, max_trials), sweep=sweep,
                               curves=tuple(curves))


def render(name: str, directory) -> dict:
    """CSV and manifest lines that ``emit_csv`` writes for the trimmed preset."""
    path = Path(directory) / f"{name}.csv"
    emit_csv(run_experiment(trimmed(name)), path)
    manifest = Path(f"{path}.manifest")
    return {"csv": path.read_bytes().decode("utf-8").splitlines(),
            "manifest": manifest.read_bytes().decode("utf-8").splitlines()}


def main(names):
    unknown = sorted(set(names) - set(preset_names()))
    if unknown:
        sys.exit(f"unknown preset(s): {', '.join(unknown)}")
    out = json.loads(FIXTURE.read_text(encoding="utf-8")) if names else {}
    names = sorted(set(names)) or preset_names()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out[name] = render(name, tmp)
    FIXTURE.write_text(json.dumps(dict(sorted(out.items())), indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(names)} presets to {FIXTURE}")


if __name__ == "__main__":
    main(sys.argv[1:])
