import subprocess
import sys

import pytest

CONFIG = """
model = exponential
metric = capacity_ub
trials = 1
geometry.m = 10
sweep.param = rho
sweep.grid = 0,0.5
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "chansim.cli", *args],
                          capture_output=True, text=True)


def test_list_presets():
    proc = run_cli("list-presets")
    assert proc.returncode == 0
    names = proc.stdout.split()
    assert "fig5a" in names and "fig15d" in names and "vr_hist" in names


def test_preset_to_stdout():
    proc = run_cli("preset", "fig5b")
    assert proc.returncode == 0
    assert "model = exponential" in proc.stdout


def test_preset_to_file(tmp_path):
    out = tmp_path / "cfg.txt"
    proc = run_cli("preset", "corrcoef", "--out", str(out))
    assert proc.returncode == 0
    assert "metric = corr_coeff" in out.read_text()


def test_unknown_preset_exit_2():
    proc = run_cli("preset", "nope")
    assert proc.returncode == 2
    assert "nope" in proc.stderr


def test_run_to_csv(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(CONFIG)
    out = tmp_path / "o.csv"
    proc = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "rho,mean,stderr,min,max"
    assert len(lines) == 3
    assert (tmp_path / "o.csv.manifest").exists()


def test_run_stdout_and_overrides(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(CONFIG.replace("trials = 1", "trials = 5"))
    proc = run_cli("run", "--config", str(cfg), "--seed", "3", "--trials", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("rho,")


def test_run_stdout_equals_out_file(tmp_path):
    cfg = tmp_path / "c.txt"
    # random draws, so the mean/stderr/min/max columns carry 12-digit values
    text = CONFIG.replace("model = exponential", "model = uncorrelated")
    cfg.write_text(text.replace("trials = 1", "trials = 3") + "model.sigma_shad = 3\n")
    out = tmp_path / "o.csv"
    to_file = run_cli("run", "--config", str(cfg), "--out", str(out))
    to_stdout = subprocess.run([sys.executable, "-m", "chansim.cli", "run",
                                "--config", str(cfg)], capture_output=True)
    assert to_file.returncode == 0 and to_stdout.returncode == 0
    assert to_stdout.stdout == out.read_bytes()


def test_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(CONFIG + "bogus_key = 1\n")
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 2
    assert "bogus_key" in proc.stderr


SHADOWED = """
model = gaussian_ula_shadowed
metric = capacity_ub
trials = 1
geometry.m = 8
sweep.param = m
sweep.grid = 8
"""


XL = """
model = xl
metric = sinr
trials = 1
geometry.m = 10
sweep.param = d1
sweep.grid = 35
"""


@pytest.mark.parametrize("text, named, args", [
    (CONFIG.replace("0,0.5", "low,high"), "'rho'", ()),
    (CONFIG.replace("param = rho", "param = m").replace("0,0.5", "8,abc"), "'m'", ()),
    (SHADOWED + "model.num_scatterers = 0\n", "model.num_scatterers", ()),
    (SHADOWED + "model.sigma_shad = -1\n", "model.sigma_shad", ()),
    (CONFIG + "seed = -5\n", "seed", ()),
    (CONFIG, "seed", ("--seed", "-1")),
    (XL + "xl.users = 0\n", "xl.users", ()),
    (XL.replace("param = d1", "param = num_users").replace("= 35", "= 2,0"),
     "{'num_users': 0}: xl.users", ()),
    (XL + "xl.total_power = -1\n", "xl.total_power", ()),
], ids=["rho_grid", "m_grid", "num_scatterers", "sigma_shad", "seed", "seed_option",
        "users", "num_users_grid", "total_power"])
def test_invalid_value_exit_2(tmp_path, text, named, args):
    cfg = tmp_path / "c.txt"
    cfg.write_text(text)
    proc = run_cli("run", "--config", str(cfg), *args)
    assert proc.returncode == 2
    assert named in proc.stderr and "Traceback" not in proc.stderr


def test_missing_config_exit_4():
    proc = run_cli("run", "--config", "/no/such/file")
    assert proc.returncode == 4


def test_model_error_exit_3(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("""
model = xl
metric = sinr
trials = 1
geometry.m = 10
xl.precoder = zf
sweep.param = num_users
sweep.grid = 20
""")
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 3


def test_unwritable_output_exit_4(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(CONFIG)
    proc = run_cli("run", "--config", str(cfg), "--out", "/no-dir/x.csv")
    assert proc.returncode == 4
