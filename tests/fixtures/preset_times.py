"""Estimate each preset's wall time on its full grid, and print one JSON object.

Each preset NAME runs every point of its full grid at min(trials, 2)
trials and ``workers = 1``, and its wall time is scaled by
trials / min(trials, 2) to the preset's own trial count.  The presets run
one after another in one process, in the order given (default: every
preset, sorted), so a later preset may find a Gauss-Legendre rule already
cached.  A one-point sweep runs first, untimed, so that no preset pays
the process's one-time set-up (about 15 ms), which the scaling would
multiply.  Per-point costs are scaled with the trials, so a preset of
many cheap trials reads high.  Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/preset_times.py [PRESET ...]

The object holds, per preset, its grid points, its trial count, the
trials timed, the seconds measured and the estimate; then the total
estimate and the numpy version and core count.
"""

import dataclasses
import json
import os
import sys
import time

import numpy as np

from chansim.config import ExperimentConfig, SweepSpec
from chansim.presets import preset, preset_names
from chansim.runner import run_experiment

MAX_TRIALS = 2


def time_preset(name: str) -> dict:
    """Run the preset's full grid at no more than ``MAX_TRIALS`` trials and time it."""
    cfg = preset(name)
    timed = min(cfg.trials, MAX_TRIALS)
    start = time.perf_counter()
    result = run_experiment(dataclasses.replace(cfg, trials=timed, workers=1))
    seconds = time.perf_counter() - start
    return {"points": len(result.rows), "trials": cfg.trials, "timed_trials": timed,
            "seconds": round(seconds, 6), "estimated_s": round(seconds * cfg.trials / timed, 3)}


def main(names) -> dict:
    unknown = sorted(set(names) - set(preset_names()))
    if unknown:
        sys.exit(f"unknown preset(s): {', '.join(unknown)}")
    run_experiment(ExperimentConfig(model="exponential", metric="capacity_ub", m=2, trials=1,
                                    sweep=SweepSpec("rho", (0.5,))))
    presets = {name: time_preset(name) for name in names or sorted(preset_names())}
    return {"max_trials": MAX_TRIALS, "presets": presets,
            "total_estimated_s": round(sum(p["estimated_s"] for p in presets.values()), 3),
            "numpy": np.__version__, "cores": os.cpu_count()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), indent=1))
