import subprocess
import sys

import pytest

from chansim import cli, runner

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


AT_M16 = """
metric = capacity_ub
trials = 1
geometry.m = 16
sweep.param = m
sweep.grid = 16
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
    (CONFIG.replace("geometry.m = 10", "geometry.m = 0"), "geometry.m", ()),
    (CONFIG.replace("param = rho", "param = m").replace("0,0.5", "16,0"),
     "{'m': 0}: geometry.m", ()),
    (CONFIG + "geometry.d_h = -0.5\n", "geometry.d_h", ()),
    (CONFIG + "geometry.d_v = -0.5\n", "geometry.d_v", ()),
    (XL + "xl.clusters_per_user = 0\n", "xl.clusters_per_user", ()),
    (XL.replace("sinr", "vr_stats") + "xl.vr_antennas = 0\n", "xl.vr_antennas", ()),
    (XL + "xl.r_min = 0\n", "xl.r_min", ()),
    (XL + "xl.r_min = 20\n", "xl.r_max", ()),
    (XL + "xl.p0 = 2\n", "xl.p0", ()),
    (XL.replace("sinr", "vr_stats") + "xl.p0 = 1.2\nxl.p1 = -0.2\n", "xl.p0", ()),
    (XL + "xl.p0 = 0.5\n", "xl.p0 + xl.p1", ()),
    (XL + "xl.p1 = 0.950012\n", "xl.p0 + xl.p1", ()),
    (XL + "xl.p1 = 0.949988\n", "xl.p0 + xl.p1", ()),
    (XL + "xl.c = -1\n", "xl.c", ()),
    (XL + "xl.d2 = 0\n", "xl.d2", ()),
    (CONFIG + "snr_db = nan\n", "'snr_db'", ()),
    (XL + "xl.total_power = inf\n", "'xl.total_power'", ()),
    (CONFIG.replace("0,0.5", "0:nan:1"), "'sweep.grid'", ()),
    (CONFIG.replace("0,0.5", "0:0.5:inf"), "'sweep.grid'", ()),
    (CONFIG.replace("0,0.5", "0,inf"), "'sweep.grid'", ()),
    ("model = exponential" + AT_M16 + "model.rho = 1.5\n", "model.rho", ()),
    ("model = exponential" + AT_M16 + "model.beta = -1\n", "model.beta", ()),
    ("model = onering_ula" + AT_M16 + "model.delta_deg = -5\n", "model.delta_deg", ()),
    ("model = gaussian_ula" + AT_M16 + "model.sigma_phi_deg = -1\n",
     "model.sigma_phi_deg", ()),
    ("model = onering_upa" + AT_M16 + "model.delta_theta_deg = -1\n",
     "model.delta_theta_deg", ()),
    ("model = gaussian_upa" + AT_M16 + "model.sigma_theta_deg = -1\n",
     "model.sigma_theta_deg", ()),
    ("model = onering_upa" + AT_M16 + "geometry.m_h = -3\n", "geometry.m_h", ()),
    ("model = onering_upa" + AT_M16 + "model.delta_deg = 0\n", "model.delta_deg", ()),
    ("model = onering_upa" + AT_M16 + "model.delta_theta_deg = 0\n",
     "model.delta_theta_deg", ()),
    ("model = gaussian_upa" + AT_M16 + "model.sigma_phi_deg = 0\n",
     "model.sigma_phi_deg", ()),
    ("model = gaussian_upa" + AT_M16 + "model.sigma_theta_deg = 0\n",
     "model.sigma_theta_deg", ()),
    ("model = onering_upa" + AT_M16.replace("param = m", "param = delta")
     .replace("grid = 16", "grid = 10,0"), "{'delta': 0}: model.delta_deg", ()),
    ("model = onering_upa" + AT_M16.replace("param = m", "param = delta_theta")
     .replace("grid = 16", "grid = 10,0"), "{'delta_theta': 0}: model.delta_theta_deg", ()),
    ("model = gaussian_upa" + AT_M16.replace("param = m", "param = sigma_phi")
     .replace("grid = 16", "grid = 10,0"), "{'sigma_phi': 0}: model.sigma_phi_deg", ()),
    ("model = gaussian_upa" + AT_M16.replace("param = m", "param = sigma_theta")
     .replace("grid = 16", "grid = 10,0"), "{'sigma_theta': 0}: model.sigma_theta_deg", ()),
    (XL + "xl.freeze_geometry = 5\n", "xl.freeze_geometry", ()),
    (XL + "model.rho = 3\n", "model.rho", ()),
    (CONFIG.replace("param = rho", "param = m").replace("0,0.5", "10.5,11.5,16.7"),
     "'m' expects integers", ()),
    (XL.replace("param = d1", "param = num_users").replace("= 35", "= 1.5,2.5"),
     "'num_users' expects integers", ()),
    (CONFIG.replace("param = rho", "param = m").replace("0,0.5", "4,8")
     + "curve.param = m\ncurve.grid = 16\n", "parameters must differ, got m, m", ()),
], ids=["rho_grid", "m_grid", "num_scatterers", "sigma_shad", "seed", "seed_option",
        "users", "num_users_grid", "total_power", "m", "m_grid_zero", "d_h", "d_v",
        "clusters_per_user", "vr_antennas", "r_min", "r_max", "p0", "p0_p1_outside",
        "p0_p1_sum", "p0_p1_sum_above_tolerance", "p0_p1_sum_below_tolerance",
        "c", "d2", "snr_nan", "total_power_inf", "range_nan", "range_inf",
        "list_inf", "rho", "beta", "delta", "sigma_phi", "delta_theta", "sigma_theta",
        "m_h", "upa_delta_zero", "upa_delta_theta_zero", "upa_sigma_phi_zero",
        "upa_sigma_theta_zero", "upa_delta_grid_zero", "upa_delta_theta_grid_zero",
        "upa_sigma_phi_grid_zero", "upa_sigma_theta_grid_zero", "freeze_geometry", "xl_rho",
        "m_grid_fraction", "num_users_grid_fraction", "curve_repeats_sweep"])
def test_invalid_value_exit_2(tmp_path, text, named, args):
    cfg = tmp_path / "c.txt"
    cfg.write_text(text)
    proc = run_cli("run", "--config", str(cfg), *args)
    assert proc.returncode == 2
    assert named in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("p1", ["0.950008", "0.949992"], ids=["above", "below"])
def test_p0_p1_sum_within_tolerance_runs(tmp_path, p1):
    # np.isclose's default decision: |p0 + p1 - 1| <= 1e-8 + 1e-5 passes;
    # the rows 1.2e-5 off in test_invalid_value_exit_2 fail.
    cfg = tmp_path / "c.txt"
    cfg.write_text(XL + f"xl.p1 = {p1}\n")
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr


def test_bad_m_grid_fails_before_any_trial(monkeypatch, tmp_path, capsys):
    calls = []
    trial = runner.trial_value

    def counting(*args, **kwargs):
        calls.append(1)
        return trial(*args, **kwargs)

    monkeypatch.setattr(runner, "trial_value", counting)
    cfg = tmp_path / "c.txt"
    cfg.write_text(CONFIG.replace("param = rho", "param = m").replace("0,0.5", "16,0"))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "{'m': 0}: geometry.m must be >= 1" in capsys.readouterr().err
    assert calls == []


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


def test_run_one_antenna_xl(tmp_path, capsys):
    # a one-antenna array has zero length; every visibility region covers it.
    # Seeds 2, 3, 4, 6 and 7 draw a trial whose one antenna is obstructed for
    # both clusters: that user's channel is zero and scores SINR 0.
    for precoder in ("cb", "zf"):
        cfg = tmp_path / f"{precoder}.txt"
        cfg.write_text(f"""
model = xl
metric = sinr
trials = 3
geometry.m = 1
xl.precoder = {precoder}
sweep.param = num_users
sweep.grid = 1
""")
        for seed in (1, 2, 3, 4, 6, 7):
            assert cli.main(["run", "--config", str(cfg), "--seed", str(seed)]) == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert lines[0].startswith("num_users,") and len(lines) == 2


def test_unwritable_output_exit_4(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(CONFIG)
    proc = run_cli("run", "--config", str(cfg), "--out", "/no-dir/x.csv")
    assert proc.returncode == 4


def test_import_loads_no_scipy():
    # scipy's import time and its separately bundled BLAS would land on every run
    code = ("import sys, chansim.cli, chansim.runner; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
