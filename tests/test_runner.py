import dataclasses

import numpy as np
import pytest

from chansim import cli, runner, xlmimo
from chansim.config import ExperimentConfig, SweepSpec, parse_config
from chansim.errors import IoError, RankDeficient
from chansim.presets import preset
from chansim.registry import METRICS, MODELS, build_correlation
from chansim.runner import RunResult, emit_csv, run_experiment, trial_value
from chansim.metrics import db_to_linear

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


def test_bad_grid_value_fails_before_any_trial(monkeypatch, tmp_path, capsys):
    # the bad value sits at the last point; no point may run before it is rejected
    calls = []
    trial = runner.trial_value

    def counting(*args, **kwargs):
        calls.append(1)
        return trial(*args, **kwargs)

    monkeypatch.setattr(runner, "trial_value", counting)
    path = tmp_path / "c.txt"
    path.write_text(SMALL.replace("exponential", "uncorrelated")
                    .replace("param = rho", "param = sigma_shad")
                    .replace("0,0.5,1", "2,-1"))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "sweep point {'sigma_shad': -1}" in err and "model.sigma_shad" in err
    assert calls == []


def test_build_correlation_models():
    rng = np.random.default_rng(0)
    for model, entry in MODELS.items():
        if entry.build is None:
            continue
        cfg = parse_config(SMALL.replace("exponential", model, 1))
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
    cfg = parse_config(SMALL.replace("exponential", "onering_upa", 1))
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
