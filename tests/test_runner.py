import ctypes
import dataclasses
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from chansim import cli, linalg, runner, xlmimo
from chansim.config import ExperimentConfig, SweepSpec, parse_config
from chansim.errors import IoError, RankDeficient
from chansim.gbsm import UlaGeometry, gaussian_ula_closed
from chansim.presets import preset
from chansim.registry import METRICS, MODELS, build_correlation
from chansim.runner import RunResult, emit_csv, format_csv, run_experiment, trial_value
from chansim.metrics import capacity_ub, db_to_linear

SMALL = """
model = exponential
metric = capacity_ub
trials = 1
geometry.m = 20
sweep.param = rho
sweep.grid = 0,0.5,1
"""


def test_deterministic_metric_zero_stderr():
    res = run_experiment(parse_config(SMALL))
    assert all(row[2] == 0.0 for row in res.rows)


def test_one_row_per_point():
    res = run_experiment(parse_config(SMALL))
    assert res.columns == ("rho", "mean", "stderr", "min", "max")
    assert len(res.rows) == 3


def test_same_seed_identical_output(tmp_path):
    cfg = dataclasses.replace(parse_config(SMALL), seed=7, trials=4,
                              model="uncorrelated", sigma_shad=3.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), p1)
    emit_csv(run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_count_independence(tmp_path):
    base = parse_config(SMALL)
    cfg1 = dataclasses.replace(base, model="uncorrelated", sweep=base.sweep,
                               trials=10, workers=1,
                               curves=(SweepSpec("sigma_shad", (2.0, 4.0)),))
    cfg3 = dataclasses.replace(cfg1, workers=3)
    p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    emit_csv(run_experiment(cfg1), p1)
    emit_csv(run_experiment(cfg3), p3)
    assert p1.read_bytes() == p3.read_bytes()


# Correlated draws through registry._channels, which no preset reaches: the exponential
# model is a real input rooted by eigh, the 10 deg one-ring one is rooted at its pivoted
# Cholesky rank (about 30 of 100).
CORRELATED_DRAWS = {
    "exponential": dict(model="exponential", rho=0.5),
    "onering_ula": dict(model="onering_ula", delta_deg=10.0),
}


@pytest.mark.parametrize("name", sorted(CORRELATED_DRAWS))
def test_correlated_draws_have_the_trace_of_their_correlation(name):
    # At snr_db = -40, log2(1 + (eta/M)|h|^2) = (eta/M)|h|^2 / ln2 up to a relative term of
    # about (eta/M)|h|^2 / 2 = 5e-5 beta, so mean * ln2 * M / eta estimates E|h|^2 = tr R =
    # M beta.  Under CN(0, R), |h|^2 has variance tr R^2 = ||R||_F^2.
    cfg = ExperimentConfig(metric="ergodic_capacity", snr_db=-40.0, m=100, trials=400,
                           sweep=SweepSpec("beta", (1.0, 2.5)), **CORRELATED_DRAWS[name])
    result = run_experiment(cfg)
    eta = db_to_linear(cfg.snr_db)
    for row in result.rows:
        r = build_correlation(dataclasses.replace(cfg, beta=row[0]), np.random.default_rng(0))
        trace, stderr = np.trace(r).real, np.linalg.norm(r) / np.sqrt(cfg.trials)
        assert trace == pytest.approx(cfg.m * row[0], rel=1e-12)
        assert abs(row[1] * np.log(2.0) * cfg.m / eta - trace) <= 4 * stderr + 1e-3 * trace
    assert format_csv(run_experiment(dataclasses.replace(cfg, workers=2))) == format_csv(result)


# Near-rank-deficient one-ring matrices: multi-threaded and single-threaded
# eigensolvers give log-dets that differ in the 11th digit.
ONERING = """
model = onering_ula
metric = capacity_ub
trials = 1
geometry.m = 100
sweep.param = delta
sweep.grid = 0,5,10
curve.param = phi
curve.grid = 0,90
"""


def test_csv_independent_of_blas_threads_and_workers(tmp_path):
    csvs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        for workers in (1, 2):
            cfg, out = tmp_path / f"{threads}-{workers}.cfg", tmp_path / f"{threads}-{workers}.csv"
            cfg.write_text(ONERING + f"workers = {workers}\n")
            subprocess.run([sys.executable, "-m", "chansim.cli", "run", "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, timeout=120)
            csvs[threads, workers] = out.read_bytes()
    assert [k for k in csvs if csvs[k] != csvs[None, 1]] == []


# glibc's malloc.h: M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1.
HEAP_POLICY = [(-3, 32 << 20), (-1, 64 << 20)]


def test_retain_heap_sets_both_thresholds_once_per_process(monkeypatch):
    calls = []
    monkeypatch.setattr(runner, "_mallopt",
                        lambda: lambda param, value: calls.append((param, value)))
    runner._retain_heap.cache_clear()
    try:
        run_experiment(parse_config(SMALL.replace("0,0.5,1", "0,0.5")))
    finally:
        runner._retain_heap.cache_clear()
    assert calls == HEAP_POLICY


def test_sweep_without_mallopt_gives_same_rows(monkeypatch):
    cfg = dataclasses.replace(parse_config(SMALL), model="uncorrelated", sigma_shad=3.0,
                              trials=3)
    expected = run_experiment(cfg).rows
    monkeypatch.setattr(runner, "_mallopt", lambda: None)
    runner._retain_heap.cache_clear()
    try:
        assert run_experiment(cfg).rows == expected
    finally:
        runner._retain_heap.cache_clear()


def test_mallopt_found_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap policy applies only to glibc")
    assert runner._mallopt() is not None


# Freed arrays above the default 128 KiB mmap threshold: M x M complex at M = 200,
# and XL one-ring per-cluster matrices at M = 100.
HEAP_CONFIGS = {
    "xl_onering": """
model = xl
metric = sinr
trials = 2
xl.correlation = onering
sweep.param = num_users
sweep.grid = 1,5
""",
    "shadowed": """
model = gaussian_ula_shadowed
metric = capacity_ub
trials = 3
geometry.m = 200
model.sigma_shad = 4
sweep.param = m
sweep.grid = 100,200
""",
}
# Runs ``chansim run``; with "off" first, the heap policy finds no mallopt.
RUN_WITH_HEAP = ("import sys; from chansim import cli, runner\n"
                 "if sys.argv[1] == 'off': runner._mallopt = lambda: None\n"
                 "sys.exit(cli.main(sys.argv[2:]))")


@pytest.mark.parametrize("name", sorted(HEAP_CONFIGS))
def test_csv_independent_of_heap_policy(tmp_path, name):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(HEAP_CONFIGS[name])
    csvs = []
    for heap in ("on", "off"):
        out = tmp_path / f"{heap}.csv"
        subprocess.run([sys.executable, "-c", RUN_WITH_HEAP, heap, "run", "--config", str(cfg),
                        "--out", str(out)], check=True, timeout=120)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


# At broadside the Gaussian kernel decays through the subnormal range.
BROADSIDE = """
model = gaussian_ula_shadowed
metric = capacity_ub
trials = 3
geometry.m = 100
model.phi_deg = 0
model.sigma_phi_deg = 15
model.sigma_shad = 4
sweep.param = m
sweep.grid = 100,220
"""


def _mxcsr():
    env = (ctypes.c_uint32 * 8)()
    linalg._fenv()[0](env)
    return env[-1]


def test_sweep_points_flush_subnormals_and_restore(monkeypatch):
    if linalg._fenv() is None:
        pytest.skip("the FP policy applies only to glibc on x86-64")
    # The six low MXCSR bits are exception flags, which the program may raise in between.
    before = _mxcsr() & ~0x3F
    seen = []
    monkeypatch.setattr(runner, "trial_value",
                        lambda cfg, rng, scenario=None: seen.append(_mxcsr()) or 0.0)
    run_experiment(parse_config(SMALL))
    assert len(seen) == 3
    assert all(v & linalg._FTZ_DAZ == linalg._FTZ_DAZ for v in seen)
    assert _mxcsr() & ~0x3F == before
    assert np.finfo(float).tiny / 4 > 0.0


def test_sweep_without_fenv_gives_same_rows(monkeypatch):
    cfg = parse_config(BROADSIDE)
    expected = run_experiment(cfg).rows
    monkeypatch.setattr(linalg, "_fenv", lambda: None)
    assert run_experiment(cfg).rows == expected
    assert np.finfo(float).tiny / 4 > 0.0


# Runs ``chansim run``; with "off" first, the FP policy finds no fegetenv.
RUN_WITH_FP = ("import sys; from chansim import cli, linalg\n"
               "if sys.argv[1] == 'off': linalg._fenv = lambda: None\n"
               "sys.exit(cli.main(sys.argv[2:]))")


def test_csv_independent_of_fp_policy(tmp_path):
    kernel = gaussian_ula_closed(UlaGeometry(m=100), phi=0.0, sigma_phi=np.radians(15.0))
    assert np.sum((kernel.real != 0) & (np.abs(kernel.real) < np.finfo(float).tiny)) > 0
    cfg = tmp_path / "x.cfg"
    cfg.write_text(BROADSIDE)
    csvs = []
    for fp in ("on", "off"):
        out = tmp_path / f"{fp}.csv"
        subprocess.run([sys.executable, "-c", RUN_WITH_FP, fp, "run", "--config", str(cfg),
                        "--out", str(out)], check=True, timeout=120)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_csv_layout(tmp_path):
    res = run_experiment(parse_config(SMALL))
    out = tmp_path / "out.csv"
    text = emit_csv(res, out)
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + 3 points
    assert lines[0] == "rho,mean,stderr,min,max"
    assert out.read_text(encoding="utf-8") == text


def test_manifest_roundtrip(tmp_path):
    cfg = parse_config(SMALL)
    out = tmp_path / "out.csv"
    emit_csv(run_experiment(cfg), out)
    manifest = (tmp_path / "out.csv.manifest").read_text(encoding="utf-8")
    assert parse_config(manifest) == cfg


def test_twelve_significant_digits(tmp_path):
    res = run_experiment(parse_config(SMALL))
    text = emit_csv(res, tmp_path / "x.csv")
    mean_field = text.strip().split("\n")[1].split(",")[1]
    assert len(mean_field.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_unwritable_path():
    res = run_experiment(parse_config(SMALL))
    with pytest.raises(IoError):
        emit_csv(res, "/nonexistent-dir/out.csv")


def test_model_error_carries_point_context():
    # ZF with K > M must surface as a model error naming the sweep point
    text = """
model = xl
metric = sinr
trials = 1
geometry.m = 10
xl.precoder = zf
sweep.param = num_users
sweep.grid = 20
"""
    with pytest.raises(RankDeficient, match="num_users"):
        run_experiment(parse_config(text))


BAD_LAST_POINT = {
    "sigma_shad": (SMALL.replace("exponential", "uncorrelated")
                   .replace("param = rho", "param = sigma_shad").replace("0,0.5,1", "2,-1"),
                   "sweep point {'sigma_shad': -1}", "model.sigma_shad"),
    # a planar model without geometry.m_h/m_v needs a square m
    "planar_m": (SMALL.replace("exponential", "onering_upa").replace("= 20", "= 16")
                 .replace("param = rho", "param = m").replace("0,0.5,1", "16,50"),
                 "sweep point {'m': 50}", "square m"),
    "svd_index": (SMALL.replace("capacity_ub", "svd_spectrum\nmodel.svd_index = 30")
                  .replace("= 20", "= 100").replace("param = rho", "param = m")
                  .replace("0,0.5,1", "100,20"),
                  "sweep point {'m': 20}", "model.svd_index"),
}


@pytest.mark.parametrize("case", sorted(BAD_LAST_POINT))
def test_bad_grid_value_fails_before_any_trial(monkeypatch, tmp_path, capsys, case):
    # the bad value sits at the last point; no point may run before it is rejected
    text, point, named = BAD_LAST_POINT[case]
    calls = []
    trial = runner.trial_value

    def counting(*args, **kwargs):
        calls.append(1)
        return trial(*args, **kwargs)

    monkeypatch.setattr(runner, "trial_value", counting)
    path = tmp_path / "c.txt"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert point in err and named in err
    assert calls == []


# A base value that no sweep point uses, beside the same config with a valid base value.
UNUSED_BASE_VALUE = {
    "rho": (SMALL.replace("0,0.5,1", "0,0.5") + "model.rho = 3\n",
            SMALL.replace("0,0.5,1", "0,0.5")),
    "planar_m": (SMALL.replace("exponential", "onering_upa").replace("= 20", "= 10")
                 .replace("param = rho", "param = m").replace("0,0.5,1", "16,64"),
                 SMALL.replace("exponential", "onering_upa").replace("= 20", "= 16")
                 .replace("param = rho", "param = m").replace("0,0.5,1", "16,64")),
    "svd_index": (SMALL.replace("capacity_ub", "svd_spectrum\nmodel.svd_index = 30")
                  .replace("param = rho", "param = m").replace("0,0.5,1", "40,64"),
                  SMALL.replace("capacity_ub", "svd_spectrum\nmodel.svd_index = 30")
                  .replace("= 20", "= 40").replace("param = rho", "param = m")
                  .replace("0,0.5,1", "40,64")),
}


@pytest.mark.parametrize("case", sorted(UNUSED_BASE_VALUE))
def test_swept_field_is_checked_only_at_its_grid_values(tmp_path, case):
    text, valid = UNUSED_BASE_VALUE[case]
    path, out = tmp_path / "c.txt", tmp_path / "o.csv"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text() == format_csv(run_experiment(parse_config(valid)))
    manifest = (tmp_path / "o.csv.manifest").read_text(encoding="utf-8")
    assert parse_config(manifest) == parse_config(text)


def test_build_correlation_models():
    rng = np.random.default_rng(0)
    for model, entry in MODELS.items():
        if entry.build is None:
            continue
        # m = 16: a planar model needs a square m when geometry.m_h/m_v are unset
        cfg = parse_config(SMALL.replace("exponential", model, 1).replace("= 20", "= 16"))
        cfg = dataclasses.replace(cfg, m=16, sigma_shad=2.0)
        r = build_correlation(cfg, rng)
        assert r.shape == (16, 16)
        assert np.abs(r - np.asarray(r).conj().T).max() <= 1e-12 * np.abs(r).max()


def test_one_trial_of_every_model_metric_pair():
    pairs = [(model, metric) for model in MODELS for metric in METRICS
             if MODELS[model].family == METRICS[metric].family]
    assert len(pairs) == 10 * 5 + 2
    for model, metric in pairs:
        cfg = ExperimentConfig(model=model, metric=metric, m=16, sigma_shad=2.0,
                               num_users=4, sweep=SweepSpec("m", (16,)))
        value = trial_value(cfg, np.random.default_rng(0))
        assert isinstance(value, float) and not np.isnan(value), (model, metric)


@pytest.mark.parametrize("freeze, draws_per_point", [(1, 1), (0, 3)])
def test_freeze_geometry_scenario_draws(monkeypatch, freeze, draws_per_point):
    # one scenario per point when frozen, one per trial otherwise
    calls = []
    build = xlmimo.build_scenario

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(xlmimo, "build_scenario", counting)
    cfg = ExperimentConfig(model="xl", metric="sinr", m=16, trials=3,
                           freeze_geometry=freeze, sweep=SweepSpec("num_users", (1, 2)))
    run_experiment(cfg)
    assert len(calls) == 2 * draws_per_point


def test_build_correlation_upa_square_m():
    rng = np.random.default_rng(1)
    cfg = parse_config(SMALL.replace("exponential", "onering_upa", 1).replace("= 20", "= 16"))
    cfg = dataclasses.replace(cfg, m=16, delta_deg=10.0, delta_theta_deg=5.0)
    r = build_correlation(cfg, rng)
    assert r.shape == (16, 16)


def test_fig5a_monotone_in_m():
    cfg = preset("fig5a")
    small = dataclasses.replace(
        cfg, sweep=SweepSpec("m", (20.0, 100.0, 200.0, 400.0)),
        curves=(SweepSpec("rho", (0.0, 0.6)),))
    res = run_experiment(small)
    eta = db_to_linear(cfg.snr_db)
    assert eta == 1e6
    for rho in (0.0, 0.6):
        caps = [row[2] for row in res.rows if row[1] == rho]
        assert np.all(np.diff(caps) > 0)


def test_run_result_finite():
    res = run_experiment(parse_config(SMALL))
    for row in res.rows:
        assert all(np.isfinite(v) for v in row[1:])
    assert isinstance(res, RunResult)


def test_planar_capacity_sized_by_the_array():
    # a 4 x 8 array has M = 32 antennas, whatever geometry.m says
    base = parse_config(SMALL.replace("exponential", "onering_upa")
                        + "geometry.m_h = 4\ngeometry.m_v = 8\n")
    bounds, ergodic = set(), set()
    for m in (7, 32, 100):
        cfg = dataclasses.replace(base, m=m)
        bounds.add(trial_value(cfg, np.random.default_rng(0)))
        cfg = dataclasses.replace(cfg, metric="ergodic_capacity")
        ergodic.add(trial_value(cfg, np.random.default_rng(0)))
    assert len(bounds) == 1 and len(ergodic) == 1
    r = build_correlation(base, np.random.default_rng(0))
    assert r.shape == (32, 32)
    assert bounds == {capacity_ub(r, db_to_linear(base.snr_db))}
