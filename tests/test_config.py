import dataclasses

import pytest

from chansim.config import (ExperimentConfig, SweepSpec, apply_point,
                            config_to_text, parse_config, parse_grid)
from chansim.errors import ConfigError

MINIMAL = """
model = exponential
metric = capacity_ub
sweep.param = rho
sweep.grid = 0:0.2:1
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.m == 100
    assert cfg.snr_db == 60.0
    assert cfg.trials == 300
    assert cfg.sweep.grid == pytest.approx((0.0, 0.2, 0.4, 0.6, 0.8, 1.0))


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(MINIMAL + "frobnicate = 1\n")


def test_unknown_metric_named():
    with pytest.raises(ConfigError, match="throughput"):
        parse_config(MINIMAL.replace("capacity_ub", "throughput"))


def test_unknown_model():
    with pytest.raises(ConfigError, match="rician"):
        parse_config(MINIMAL.replace("exponential", "rician"))


def test_empty_grid_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("0:0.2:1", ""))


def test_incompatible_metric_model():
    with pytest.raises(ConfigError, match="sinr"):
        parse_config(MINIMAL.replace("capacity_ub", "sinr"))


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="model"):
        parse_config("metric = capacity_ub\nsweep.param = rho\nsweep.grid = 0,1\n")
    with pytest.raises(ConfigError, match="sweep"):
        parse_config("model = exponential\nmetric = capacity_ub\n")


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "model = exponential\n")


def test_grid_comma_list():
    assert parse_grid("1, 2.5, 4") == (1, 2.5, 4)
    assert parse_grid("uncorrelated,onering") == ("uncorrelated", "onering")


def test_grid_range_inclusive():
    assert parse_grid("0:0.5:2") == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert parse_grid("20:20:400")[-1] == 400.0


def test_grid_bad_range():
    with pytest.raises(ConfigError):
        parse_grid("0:0.5")
    with pytest.raises(ConfigError):
        parse_grid("0:-1:5")
    with pytest.raises(ConfigError):
        parse_grid("a:b:c")


@pytest.mark.parametrize("line, key", [
    ("snr_db = nan", "'snr_db'"),
    ("model.rho = -inf", "'model.rho'"),
    ("xl.total_power = 1e400", "'xl.total_power'"),
    ("sweep.grid = 0,nan", "'sweep.grid'"),
    ("sweep.grid = 0,inf", "'sweep.grid'"),
    ("sweep.grid = 0:nan:1", "'sweep.grid'"),
    ("sweep.grid = 0:0.5:inf", "'sweep.grid'"),
    ("sweep.grid = -inf:1:0", "'sweep.grid'"),
])
def test_non_finite_numbers_rejected(line, key):
    if line.startswith("sweep.grid"):
        doc = MINIMAL.replace("sweep.grid = 0:0.2:1", line)
    else:
        doc = MINIMAL + line + "\n"
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\n" + MINIMAL + "trials = 5  # inline\n")
    assert cfg.trials == 5


def test_roundtrip_minimal():
    cfg = parse_config(MINIMAL)
    assert parse_config(config_to_text(cfg)) == cfg


def test_roundtrip_with_curves_and_xl():
    text = """
model = xl
metric = sinr
snr_db = 10
xl.scheme = scheme2
xl.precoder = zf
xl.freeze_geometry = 1
sweep.param = num_users
sweep.grid = 1,5,10,20
curve.param = correlation
curve.grid = uncorrelated,onering
"""
    cfg = parse_config(text)
    assert cfg.xl_scheme == "scheme2"
    assert cfg.curves[0].grid == ("uncorrelated", "onering")
    assert parse_config(config_to_text(cfg)) == cfg


def test_invalid_sweep_param():
    with pytest.raises(ConfigError, match="bananas"):
        parse_config(MINIMAL.replace("sweep.param = rho", "sweep.param = bananas"))


def test_non_numeric_grid_of_numeric_param_rejected():
    with pytest.raises(ConfigError, match="'rho'.*'low'"):
        parse_config(MINIMAL.replace("0:0.2:1", "low,high"))
    with pytest.raises(ConfigError, match="'m'.*'abc'"):
        parse_config(MINIMAL.replace("sweep.param = rho", "sweep.param = m")
                     .replace("0:0.2:1", "8,abc"))


def test_shadowing_and_scatterer_bounds():
    with pytest.raises(ConfigError, match="model.sigma_shad"):
        parse_config(MINIMAL + "model.sigma_shad = -1\n")
    with pytest.raises(ConfigError, match="model.num_scatterers"):
        parse_config(MINIMAL + "model.num_scatterers = 0\n")


def test_trials_bounds():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "trials = 0\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config(MINIMAL + "trials = 1.5\n")


def test_apply_point_int_coercion():
    cfg = parse_config(MINIMAL)
    out = apply_point(cfg, {"m": 40.0, "rho": 0.3})
    assert out.m == 40 and isinstance(out.m, int)
    assert out.rho == 0.3


# list grids of m and num_users are cases of tests/test_cli.py::test_invalid_value_exit_2
@pytest.mark.parametrize("param, grid", [("m", "10:0.5:12"), ("vr_antennas", "33,33.5")])
def test_fractional_grid_of_integer_param_rejected(param, grid):
    text = MINIMAL.replace("sweep.param = rho", f"sweep.param = {param}")
    with pytest.raises(ConfigError, match=f"'{param}' expects integers"):
        parse_config(text.replace("0:0.2:1", grid))


# the other new range rules are cases of tests/test_cli.py::test_invalid_value_exit_2
@pytest.mark.parametrize("line", ["model.rho = -0.1", "geometry.m_v = -1",
                                  "model.svd_index = -1"])
def test_model_values_out_of_range_rejected(line):
    # beta is swept, so each line sets a field whose base value is used
    with pytest.raises(ConfigError, match=line.split(" = ")[0]):
        parse_config(MINIMAL.replace("param = rho", "param = beta") + line + "\n")


@pytest.mark.parametrize("model, lines, m", [
    ("exponential", "geometry.m = 20\ngeometry.m_h = 4\ngeometry.m_v = 4\n", 20),
    ("onering_upa", "geometry.m = 36\n", 36),
    ("onering_upa", "geometry.m = 7\ngeometry.m_h = 4\ngeometry.m_v = 5\n", 20),
], ids=["linear_ignores_m_h", "planar_square_m", "planar_m_h_m_v"])
def test_svd_index_below_the_antenna_count(model, lines, m):
    # a linear model reads geometry.m; a planar one M_H * M_V once both are set
    text = MINIMAL.replace("exponential", model).replace("capacity_ub", "svd_spectrum") + lines
    assert parse_config(text + f"model.svd_index = {m - 1}\n").svd_index == m - 1
    with pytest.raises(ConfigError, match=f"model.svd_index must be < M = {m}"):
        parse_config(text + f"model.svd_index = {m}\n")


def test_planar_model_needs_a_square_m():
    text = MINIMAL.replace("exponential", "gaussian_upa") + "geometry.m = 20\n"
    with pytest.raises(ConfigError, match="square m, got m=20"):
        parse_config(text)
    assert parse_config(text + "geometry.m_h = 4\ngeometry.m_v = 5\n").m_h == 4


def test_apply_point_string_value():
    cfg = ExperimentConfig(model="xl", metric="sinr",
                           sweep=SweepSpec("num_users", (5.0,)))
    out = apply_point(cfg, {"correlation": "onering"})
    assert out.xl_correlation == "onering"


def test_config_is_frozen():
    cfg = parse_config(MINIMAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 7
