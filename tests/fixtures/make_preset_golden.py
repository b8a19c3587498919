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


def trimmed(name: str):
    """The preset's config at the fixture's trial count and grids."""
    cfg = preset(name)
    curves = tuple(dataclasses.replace(c, grid=c.grid[:2 if i == 0 else 1])
                   for i, c in enumerate(cfg.curves))
    return dataclasses.replace(
        cfg, trials=min(cfg.trials, MAX_TRIALS),
        sweep=dataclasses.replace(cfg.sweep, grid=cfg.sweep.grid[:2]), curves=curves)


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
