"""Output checks, computed apart from the program.

Each check returns a list of failure messages; an empty list passes.
The references are closed forms, the committed capacity fixture, and
properties the method must have.  Tolerances sit near float error.
"""

from __future__ import annotations

import math

import workloads

EPS = 2.0 ** -52
ETA_60DB = 1e6            # snr_db = 60, the default of the capacity configs
FIXTURE_RTOL = 1e-9       # the acceptance suite's tolerance on the fixture
# Each of the M eigenvalues is off by about eps * lambda_max <= eps * M
# (tr R = M).  Scaled by eta/M in log2(1 + (eta/M) lambda) and summed over
# M terms, that is up to EIG_NOISE * eta * M * eps bits.  Measured: at
# most 0.37 eta M eps for rho = 1, M <= 400.
EIG_NOISE = 4.0
CSV_RTOL = 1e-11          # the CSV keeps 12 significant digits
# At K = 1 the two precoders differ by rounding only: measured at most
# 1.1e-15 relative over 150 seeds.  The stderr of two near-equal trials
# cancels, so its difference is measured against the mean.
CB_ZF_RTOL = 1e-14
SE_LIMIT = 4.0            # combined standard errors


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _records(columns, rows):
    return [dict(zip(columns, row)) for row in rows]


def _stats(rec):
    return rec["mean"], rec["min"], rec["max"]


def check_csv(doc_text, columns, rows, csv_text, manifest_text):
    """The CSV holds the rows, in grid order, and the manifest the config."""
    errors = []
    doc = workloads.parse(doc_text)
    pts = workloads.points(doc)
    lines = csv_text.splitlines()
    if lines[0].split(",") != columns:
        errors.append(f"CSV header {lines[0]!r} is not {columns}")
    if len(lines) - 1 != len(rows) or len(rows) != len(pts):
        errors.append(f"{len(lines) - 1} CSV rows, {len(rows)} result rows, "
                      f"{len(pts)} grid points")
        return errors
    for line, row, point in zip(lines[1:], rows, pts):
        cells = line.split(",")
        for cell, value in zip(cells, row):
            if isinstance(value, str):
                ok = cell == value
            else:
                parsed = float(cell)
                ok = parsed == value or _close(parsed, value, CSV_RTOL)
            if not ok:
                errors.append(f"CSV cell {cell!r} does not hold {value!r}")
        for cell, want in zip(cells, point.values()):
            try:
                ok = float(cell) == float(want)
            except ValueError:
                ok = cell == want
            if not ok:
                errors.append(f"CSV row {line!r} is not grid point {point}")
    manifest = workloads.parse(manifest_text)
    for key, value in doc.items():
        got = manifest.get(key)
        if got is None and key == "seed" and int(value) == 0:
            continue            # the default seed may be left out
        if got is None or _values(got) != _values(value):
            errors.append(f"manifest has {key} = {got!r}, config has {value!r}")
    return errors


def _values(text):
    out = []
    for part in text.split(","):
        try:
            out.append(float(part))
        except ValueError:
            out.append(part.strip())
    return out


def check_rows(columns, rows):
    """In every row min <= mean <= max and stderr >= 0."""
    errors = []
    for rec in _records(columns, rows):
        mean, lo, hi = _stats(rec)
        tol = 8 * EPS * max(abs(lo), abs(hi))
        if not (lo - tol <= mean <= hi + tol) or not rec["stderr"] >= 0:
            errors.append(f"row {rec}: need min <= mean <= max and stderr >= 0")
    return errors


def _eig_atol(m, eta):
    return EIG_NOISE * eta * m * EPS


def _capacity_bounds(rec, eta):
    """log2(1+eta) <= log2 det(I + eta/M R) <= M log2(1+eta/M) when tr R = M."""
    m = float(rec["m"])
    lo, hi = math.log2(1.0 + eta), m * math.log2(1.0 + eta / m)
    tol = _eig_atol(m, eta)
    bad = [v for v in _stats(rec) if not lo - tol <= v <= hi + tol]
    return [f"row {rec}: outside [{lo}, {hi}]"] if bad else []


def check_ula(results, fixture):
    """fig5a, fig10c and fig12c capacities; fig9a condition numbers."""
    errors = []
    eta = ETA_60DB
    fig5a = _records(*results["fig5a"])
    for rec in fig5a:
        errors += _capacity_bounds(rec, eta)
        m, rho = float(rec["m"]), float(rec["rho"])
        exact = {0.0: m * math.log2(1.0 + eta / m), 1.0: math.log2(1.0 + eta)}.get(rho)
        if exact is not None and not abs(rec["mean"] - exact) <= _eig_atol(m, eta):
            errors.append(f"fig5a M={m:g} rho={rho:g}: {rec['mean']!r}, exact {exact!r}")
        if m == fixture["m"]:
            ref = fixture["exponential_capacity"][fixture["exponential_rho"].index(rho)]
            if not _close(rec["mean"], ref, FIXTURE_RTOL):
                errors.append(f"fig5a M=100 rho={rho:g}: {rec['mean']!r}, fixture {ref!r}")
    fig10c = _records(*results["fig10c"])
    for rec in fig10c:
        errors += _capacity_bounds(rec, eta)
        if float(rec["m"]) == fixture["m"] and \
                float(rec["delta"]) == fixture["onering_delta_deg"]:
            ref = fixture["onering_capacity"][
                fixture["onering_phi_deg"].index(float(rec["phi"]))]
            if not _close(rec["mean"], ref, FIXTURE_RTOL):
                errors.append(f"fig10c M=100 phi={rec['phi']}: {rec['mean']!r}, "
                              f"fixture {ref!r}")
    for rec in _records(*results["fig12c"]):
        if float(rec["sigma_shad"]) == 0.0:     # no shadowing: unit diagonal
            errors += _capacity_bounds(rec, eta)
    for rec in _records(*results["fig9a"]):
        if not min(_stats(rec)) >= 1.0:
            errors.append(f"fig9a row {rec}: condition number below 1")
    return errors


def check_upa(results):
    """Planar capacities: every correlation matrix has a unit diagonal."""
    errors = []
    for name in ("fig13b", "fig14a"):
        for rec in _records(*results[name]):
            errors += _capacity_bounds(rec, ETA_60DB)
    return errors


def check_xl(results):
    """Positive finite SINR; CB = ZF at K = 1; equal K = 1 means under CB."""
    errors = []
    for name, (columns, rows) in results.items():
        for rec in _records(columns, rows):
            if not all(math.isfinite(v) and v > 0 for v in _stats(rec)):
                errors.append(f"{name} row {rec}: SINR not finite and positive")
    for cb, zf in (("fig15a", "fig15b"), ("fig15c", "fig15d")):
        k1 = [(a, b) for a, b in zip(_records(*results[cb]), _records(*results[zf]))
              if float(a["num_users"]) == 1.0]
        for a, b in k1:
            for key in ("mean", "stderr", "min", "max"):
                ref = max(abs(a["mean" if key == "stderr" else key]),
                          abs(b["mean" if key == "stderr" else key]))
                if not abs(a[key] - b[key]) <= CB_ZF_RTOL * ref:
                    errors.append(f"K=1 {cb} vs {zf} {a['correlation']} {key}: "
                                  f"{a[key]!r} vs {b[key]!r}")
    for name in ("fig15a_k1", "fig15c_k1"):
        by_corr = {rec["correlation"]: rec for rec in _records(*results[name])}
        unc, one = by_corr["uncorrelated"], by_corr["onering"]
        z = (unc["mean"] - one["mean"]) / math.hypot(unc["stderr"], one["stderr"])
        if not abs(z) <= SE_LIMIT:
            errors.append(f"{name}: uncorrelated and one-ring K=1 means differ by "
                          f"{z:.2f} combined standard errors")
    return errors


def check_calls(doc_texts, layers):
    """Traced call counts equal those the configs imply."""
    expected: dict[str, int] = {}
    for text in doc_texts:
        for layer, n in workloads.expected_calls(text).items():
            expected[layer] = expected.get(layer, 0) + n
    errors = []
    for layer in sorted(set(expected) | set(layers)):
        got = layers.get(layer, {}).get("calls", 0)
        if got != expected.get(layer, 0):
            errors.append(f"trace: {layer} called {got} times, "
                          f"configs imply {expected.get(layer, 0)}")
    return errors
