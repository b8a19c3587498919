"""The benchmark's workloads: chansim config documents and what they imply.

Each workload is a list of sweeps.  A sweep is a config document written
out here in full, so that the benchmark's inputs stay fixed when the
program's presets change; the documents below equal the figure presets
of the same name except for the trial count, the seed and, where noted,
the grid.  ``expected_calls`` derives from a document how many times a
traced sweep of it calls each layer.

This module imports nothing from chansim: the benchmark's parent process
uses it to generate the inputs and to check the outputs, apart from the
program.
"""

from __future__ import annotations

import itertools

M_GRID = ",".join(f"{m}.0" for m in range(20, 401, 40))     # 20, 60, ..., 380
UPA_M_GRID = "16.0,64.0,100.0"

# Trials per XL point.  The fig15 rows at K = 1 are too few for a
# standard-error check, so the K = 1 comparison has its own sweeps.
XL_TRIALS = 2
XL_K1_TRIALS = 64
# Trials per fig12c point.
ULA_TRIALS = 2

_FIG15 = """model = xl
metric = sinr
trials = {trials}
seed = {seed}
snr_db = 10.0
{extra}sweep.param = num_users
sweep.grid = {users}
curve.param = correlation
curve.grid = uncorrelated,onering
"""


def _fig15(extra: str, trials: int, users: str = "1.0,5.0,10.0,20.0") -> str:
    return _FIG15.replace("{extra}", extra).replace("{users}", users) \
        .replace("{trials}", str(trials))


_TEMPLATES = {
    "xl_sinr": [
        ("fig15a", _fig15("", XL_TRIALS)),
        ("fig15b", _fig15("xl.precoder = zf\n", XL_TRIALS)),
        ("fig15c", _fig15("xl.scheme = scheme2\n", XL_TRIALS)),
        ("fig15d", _fig15("xl.scheme = scheme2\nxl.precoder = zf\n", XL_TRIALS)),
        ("fig15a_k1", _fig15("", XL_K1_TRIALS, users="1.0")),
        ("fig15c_k1", _fig15("xl.scheme = scheme2\n", XL_K1_TRIALS, users="1.0")),
    ],
    "ula_capacity": [
        ("fig12c", f"""model = gaussian_ula_shadowed
metric = capacity_ub
trials = {ULA_TRIALS}
seed = {{seed}}
model.sigma_phi_deg = 15.0
sweep.param = m
sweep.grid = {M_GRID}
curve.param = phi
curve.grid = 0.0,90.0
curve2.param = sigma_shad
curve2.grid = 0.0,2.0,4.0
"""),
        ("fig5a", f"""model = exponential
metric = capacity_ub
trials = 1
seed = {{seed}}
sweep.param = m
sweep.grid = {M_GRID}
curve.param = rho
curve.grid = 0.0,0.2,0.4,0.6,0.8,1.0
"""),
        ("fig10c", f"""model = onering_ula
metric = capacity_ub
trials = 1
seed = {{seed}}
sweep.param = m
sweep.grid = {M_GRID}
curve.param = phi
curve.grid = 0.0,90.0
curve2.param = delta
curve2.grid = 10.0,30.0
"""),
        ("fig9a", """model = onering_ula
metric = condition_number
trials = 1
seed = {seed}
sweep.param = delta
sweep.grid = """ + ",".join(f"{d}.0" for d in range(1, 51)) + "\n"),
    ],
    "upa_capacity": [
        ("fig13b", f"""model = onering_upa
metric = capacity_ub
trials = 1
seed = {{seed}}
model.delta_deg = 30.0
sweep.param = m
sweep.grid = {UPA_M_GRID}
curve.param = phi
curve.grid = 0.0,90.0
curve2.param = theta_el
curve2.grid = 0.0,90.0
curve3.param = delta_theta
curve3.grid = 15.0,30.0
"""),
        ("fig14a", f"""model = gaussian_upa
metric = capacity_ub
trials = 1
seed = {{seed}}
model.sigma_phi_deg = 30.0
sweep.param = m
sweep.grid = {UPA_M_GRID}
curve.param = phi
curve.grid = 0.0,90.0
curve2.param = theta_el
curve2.grid = 0.0,90.0
curve3.param = sigma_theta
curve3.grid = 15.0,30.0
"""),
    ],
}

WORKLOADS = tuple(_TEMPLATES)


def configs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(name, config document) for each sweep of a workload, seeded."""
    return [(name, text.replace("{seed}", str(seed)))
            for name, text in _TEMPLATES[workload]]


def parse(text: str) -> dict:
    """The key = value pairs of a config document, as strings."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def points(doc: dict) -> list[dict]:
    """The sweep points of a parsed document, in the runner's row order."""
    params, grids = [], []
    for head in ("sweep", "curve", "curve2", "curve3"):
        if f"{head}.param" in doc:
            params.append(doc[f"{head}.param"])
            grids.append(doc[f"{head}.grid"].split(","))
    return [dict(zip(params, combo)) for combo in itertools.product(*grids)]


# Layer of each correlation model's builder.
_MODEL_LAYER = {
    "exponential": "cbsm.build",
    "exponential_shadow": "cbsm.build",
    "uncorrelated": "cbsm.build",
    "onering_ula": "gbsm.ula_quadrature",
    "gaussian_ula": "gbsm.ula_quadrature",
    "gaussian_ula_closed": "gbsm.ula_kernel",
    "gaussian_ula_shadowed": "gbsm.ula_kernel",
    "onering_upa": "gbsm.upa_quadrature",
    "gaussian_upa": "gbsm.upa_quadrature",
}


def expected_calls(text: str) -> dict[str, int]:
    """Calls per layer that one sweep of the document makes.

    Covers the models and metrics the workloads use: capacity_ub and
    condition_number on correlation models, and sinr on the XL model with
    uncorrelated or one-ring clusters.
    """
    doc = parse(text)
    trials = int(doc["trials"])
    clusters = int(doc.get("xl.clusters_per_user", "2"))
    calls: dict[str, int] = {}

    def add(layer, n):
        calls[layer] = calls.get(layer, 0) + n

    add("config.parse", 1)
    add("runner", 1)
    add("runner.emit_csv", 1)
    for point in points(doc):
        add("runner.trial", trials)
        add("metrics", 1)                      # mean_with_stderr per point
        if doc["model"] == "xl":
            users = int(float(point.get("num_users", doc.get("xl.users", "10"))))
            corr = point.get("correlation", doc.get("xl.correlation", "uncorrelated"))
            add("xlmimo.scenario", trials)
            add("xlmimo.assemble", trials)
            add("xlmimo.cluster_corr", trials * users * clusters)
            add("precoding", 2 * trials)       # precoder, then column scaling
            add("metrics", trials)             # sinr_per_user
            if corr == "onering":
                add("gbsm.ula_quadrature", trials * users * clusters)
                add("linalg.sqrt", trials * users * clusters)
            continue
        add(_MODEL_LAYER[doc["model"]], trials)
        if doc["metric"] == "capacity_ub":
            add("metrics", trials)
            add("linalg.eigvals", trials)
        elif doc["metric"] == "condition_number":
            add("linalg.cond", trials)
        else:
            raise ValueError(f"no call model for metric {doc['metric']!r}")
    return calls
