"""Monte Carlo sweep execution and CSV/manifest output.

A run iterates the cartesian product of the sweep grid and any curve
grids.  Each point executes ``trials`` independent realizations whose
random streams derive only from (seed, point index, trial index), and
each point runs with numpy's BLAS on one thread, so the output is
byte-identical regardless of worker count, scheduling or BLAS threading.
Each point also reads subnormal floats as zero (:func:`linalg.flush_subnormals`).
The first point also keeps the process's freed heap mapped (:func:`_retain_heap`).
What one trial computes is looked up in :mod:`chansim.registry`.
"""

from __future__ import annotations

import ctypes
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, metrics, xlmimo
from .config import ExperimentConfig, apply_point, config_to_text
from .errors import ChansimError, ConfigError, IoError
from .registry import METRICS, xl_scenario


@dataclass(frozen=True)
class RunResult:
    """Aggregated sweep output: column names, data rows, and the config."""

    columns: tuple
    rows: tuple
    config: ExperimentConfig


def trial_value(cfg: ExperimentConfig, rng: np.random.Generator,
                scenario: xlmimo.XlScenario | None = None) -> float:
    """One Monte Carlo realization of the configured metric.

    ``scenario`` carries pre-drawn XL geometry when freeze_geometry is on;
    everything else ignores it.
    """
    return METRICS[cfg.metric].trial(cfg, rng, scenario)


# glibc mallopt pairs: M_MMAP_THRESHOLD at 32 MiB, glibc's 64-bit cap on its dynamic value, and
# M_TRIM_THRESHOLD at twice that, glibc's own rule.  Either one set alone stops glibc's
# dynamic adjustment and faults more, not less.
_HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20))


@lru_cache(maxsize=1)
def _mallopt():
    """The C library's ``mallopt(param, value)``, or None where it has none."""
    try:
        return getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return None


@lru_cache(maxsize=1)
def _retain_heap():
    """Keep freed trial arrays mapped; for good, as glibc cannot restore its thresholds."""
    mallopt = _mallopt()
    if mallopt is not None:
        for param, value in _HEAP_POLICY:
            mallopt(param, value)


def _run_point(args):
    cfg, index, assignment = args
    _retain_heap()
    vals = np.empty(cfg.trials)
    try:
        with linalg.one_blas_thread(), linalg.flush_subnormals():
            scenario = None
            if cfg.freeze_geometry and METRICS[cfg.metric].scenario:
                scenario = xl_scenario(cfg, np.random.default_rng([cfg.seed, index]))
            for t in range(cfg.trials):
                rng = np.random.default_rng([cfg.seed, index, t])
                vals[t] = trial_value(cfg, rng, scenario)
    except ChansimError as e:
        raise type(e)(f"sweep point {assignment}: {e}") from e
    mean, se = metrics.mean_with_stderr(vals)
    return index, (mean, se, float(vals.min()), float(vals.max()))


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute all sweep points and aggregate per-point trial statistics."""
    specs = (cfg.sweep,) + cfg.curves
    names = [s.param for s in specs]
    assignments = [dict(zip(names, combo))
                   for combo in itertools.product(*(s.grid for s in specs))]
    # Build every point's config first, so a bad grid value fails before any trial runs.
    tasks = []
    for i, a in enumerate(assignments):
        try:
            tasks.append((apply_point(cfg, a), i, a))
        except ConfigError as e:
            raise ConfigError(f"sweep point {a}: {e}") from e
    if cfg.workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~15 ms, so only when used
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            stats = dict(pool.map(_run_point, tasks))
    else:
        stats = dict(_run_point(task) for task in tasks)
    columns = tuple(names + ["mean", "stderr", "min", "max"])
    rows = tuple(
        tuple(a[n] for n in names) + stats[i]
        for i, a in enumerate(assignments)
    )
    return RunResult(columns=columns, rows=rows, config=cfg)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def format_csv(result: RunResult) -> str:
    """The result as CSV text with 12 significant digits: header, then one row per point."""
    lines = [",".join(result.columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in result.rows)
    return "\n".join(lines) + "\n"


def emit_csv(result: RunResult, path) -> str:
    """Write the result as CSV plus a config manifest sidecar.

    The CSV is :func:`format_csv`'s text; the manifest (``<path>.manifest``)
    is a config document that parses back to the run's configuration.
    """
    text = format_csv(result)
    manifest_path = str(path) + ".manifest"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(config_to_text(result.config))
    except OSError as e:
        raise IoError(f"cannot write output: {e}") from e
    return text
