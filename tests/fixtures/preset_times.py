"""Estimate each preset's wall time on its full grid, and print one JSON object.

Each preset NAME runs every point of its full grid at two trial counts,
min(trials, 1) and min(trials, 8), with ``workers = 1``.  The difference
of the two times gives the per-trial slope; the rest of the low count's
time is the fixed per-point cost, which is not scaled.  The estimate is
the low count's time plus the slope times the trials left:

    estimated_s = seconds[0] + per_trial_s * (trials - timed_trials[0])

A preset of one trial runs once, and its time is the estimate.  A preset
of more trials first runs once at the low count, untimed, so that the
slope does not take in the preset's first-call costs (imports).  The
presets run one after another in one process, in the order given
(default: every preset, sorted).  A one-point sweep runs first, untimed, so
that no preset pays the process's one-time set-up (about 15 ms).  Run
from the repository root:

    PYTHONPATH=src python3 tests/fixtures/preset_times.py [PRESET ...]

The object holds, per preset, its grid points, its trial count, the two
trial counts timed, the seconds measured at each, the per-trial slope
and the estimate; then the total estimate and the numpy version and
core count.
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

TRIAL_COUNTS = (1, 8)


def _timed_run(cfg, trials: int):
    start = time.perf_counter()
    result = run_experiment(dataclasses.replace(cfg, trials=trials, workers=1))
    return time.perf_counter() - start, len(result.rows)


def time_preset(name: str) -> dict:
    """Run the preset's full grid at both ``TRIAL_COUNTS`` (capped at its trials) and time it."""
    cfg = preset(name)
    lo, hi = (min(cfg.trials, n) for n in TRIAL_COUNTS)
    if hi > lo:
        _timed_run(cfg, lo)
    first, points = _timed_run(cfg, lo)
    second = _timed_run(cfg, hi)[0] if hi > lo else first
    seconds = [round(first, 6), round(second, 6)]
    # Timing noise can make the high count read faster; a slope is never negative.
    slope = max(seconds[1] - seconds[0], 0.0) / (hi - lo) if hi > lo else 0.0
    return {"points": points, "trials": cfg.trials, "timed_trials": [lo, hi],
            "seconds": seconds, "per_trial_s": slope,
            "estimated_s": round(seconds[0] + slope * (cfg.trials - lo), 3)}


def main(names) -> dict:
    unknown = sorted(set(names) - set(preset_names()))
    if unknown:
        sys.exit(f"unknown preset(s): {', '.join(unknown)}")
    run_experiment(ExperimentConfig(model="exponential", metric="capacity_ub", m=2, trials=1,
                                    sweep=SweepSpec("rho", (0.5,))))
    presets = {name: time_preset(name) for name in names or sorted(preset_names())}
    return {"trial_counts": list(TRIAL_COUNTS), "presets": presets,
            "total_estimated_s": round(sum(p["estimated_s"] for p in presets.values()), 3),
            "numpy": np.__version__, "cores": os.cpu_count()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), indent=1))
