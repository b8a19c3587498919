"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Each criterion is checked at its stated tolerance against an independent
oracle (closed form, dense trapezoid, Monte Carlo, or the committed
fixture in tests/fixtures/capacity_oracle.json).  Run with -s to see the
per-criterion lines as they complete.
"""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from chansim import cbsm, gbsm, linalg, metrics, precoding, xlmimo
from chansim.errors import ChansimError
from chansim.gbsm import QuadratureConfig, UlaGeometry, UpaGeometry
from chansim.presets import preset
from chansim.runner import emit_csv, run_experiment

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "capacity_oracle.json").read_text())

ETA_60DB = 1e6


def _check(num, desc, ok, detail=""):
    line = "criterion %02d %s  %s" % (num, "PASS" if ok else "FAIL", desc)
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_shadowing_amplitude():
    rng = np.random.default_rng(0)
    amp1 = float(np.mean(10.0 ** (cbsm.draw_shadowing(10**6, 1.0, rng) / 10.0)))
    amp10 = float(np.mean(10.0 ** (cbsm.draw_shadowing(10**6, 10.0, rng) / 10.0)))
    closed1 = np.exp((1.0 * np.log(10) / 10) ** 2 / 2)
    closed10 = np.exp((10.0 * np.log(10) / 10) ** 2 / 2)
    ok = (abs(amp1 - 1.03) <= 0.02 and abs(amp10 - 14.2) <= 0.5
          and abs(amp1 - closed1) <= 0.02 and abs(amp10 - closed10) <= 0.5)
    _check(1, "shadow amplitude 1.03+-0.02 / 14.2+-0.5 over 1e6 draws", ok,
           "got %.4f and %.3f (closed form %.4f / %.3f)"
           % (amp1, amp10, closed1, closed10))


def test_criterion_02_capacity_anchors():
    worst = 0.0
    for m in (2, 100, 400):
        c_eye = metrics.capacity_ub(np.eye(m), ETA_60DB)
        ref_eye = m * np.log2(1 + ETA_60DB / m)
        c_ones = metrics.capacity_ub(np.ones((m, m)), ETA_60DB)
        ref_ones = np.log2(1 + ETA_60DB)
        worst = max(worst, abs(c_eye - ref_eye) / ref_eye,
                    abs(c_ones - ref_ones) / ref_ones)
    _check(2, "identity / all-ones capacity anchors exact to 1e-9 relative",
           worst <= 1e-9, "worst relative error %.2e" % worst)


def test_criterion_03_exponential_monotonicity():
    caps = []
    for rho in FIXTURE["exponential_rho"]:
        r = cbsm.exponential_correlation(100, rho)
        caps.append(metrics.capacity_ub(r, ETA_60DB))
    rel = max(abs(c - ref) / max(ref, 1.0)
              for c, ref in zip(caps, FIXTURE["exponential_capacity"]))
    decreasing = all(a > b for a, b in zip(caps, caps[1:]))
    drop_tail = caps[3] - caps[5]   # rho 0.6 -> 1.0
    drop_head = caps[0] - caps[3]   # rho 0.0 -> 0.6
    ok = rel <= 1e-9 and decreasing and drop_tail > drop_head
    _check(3, "exponential C_ub strictly decreasing in rho, steep beyond 0.6,"
              " matches committed oracle", ok,
           "fixture error %.2e, drops %.1f vs %.1f bits" % (rel, drop_tail, drop_head))


def _trapz_ula(kind, diffs, phi, width, d_h, linearized=False):
    """Dense 1e6-point trapezoid oracle for a ULA correlation row.

    With ``linearized`` the phase uses sin(phi) + x cos(phi) in place of
    sin(phi + x): the small-angle integrand behind the closed-form
    Gaussian correlation.
    """
    if kind == "onering":
        x = np.linspace(-width, width, 1_000_001)
        pdf = np.ones_like(x)
    else:
        x = np.linspace(-6 * width, 6 * width, 1_000_001)
        pdf = np.exp(-x**2 / (2 * width**2))
    norm = np.trapezoid(pdf, x)
    sin_arrival = (np.sin(phi) + x * np.cos(phi) if linearized
                   else np.sin(phi + x))
    out = []
    for diff in diffs:
        vals = np.exp(2j * np.pi * d_h * diff * sin_arrival) * pdf
        out.append(np.trapezoid(vals, x) / norm)
    return np.array(out)


def _trapz_upa(kind, geom, phi, theta, w_az, w_el, n=1001):
    """Dense 2-D trapezoid oracle (about 1e6 points) for a small UPA."""
    if kind == "onering":
        d_az = np.linspace(-w_az, w_az, n)
        d_el = np.linspace(-w_el, w_el, n)
        pdf = np.ones((n, n))
    else:
        d_az = np.linspace(-6 * w_az, 6 * w_az, n)
        d_el = np.linspace(-6 * w_el, 6 * w_el, n)
        pdf = (np.exp(-d_az**2 / (2 * w_az**2))[:, None]
               * np.exp(-d_el**2 / (2 * w_el**2))[None, :])
    az, el = np.meshgrid(phi + d_az, theta + d_el, indexing="ij")
    norm = np.trapezoid(np.trapezoid(pdf, d_el, axis=1), d_az)
    m = geom.m
    r = np.zeros((m, m), dtype=complex)
    for mi in range(m):
        py_m, pz_m = gbsm.upa_antenna_index(geom, mi + 1)
        for ni in range(m):
            py_n, pz_n = gbsm.upa_antenna_index(geom, ni + 1)
            kern = np.exp(2j * np.pi * geom.d_v * (pz_m - pz_n) * np.sin(el)
                          + 2j * np.pi * geom.d_h * (py_m - py_n)
                          * np.cos(el) * np.sin(az))
            r[mi, ni] = np.trapezoid(np.trapezoid(kern * pdf, d_el, axis=1),
                                     d_az) / norm
    return r


def test_criterion_04_quadrature_vs_trapezoid():
    worst = 0.0
    geom = UlaGeometry(m=4)
    diffs = np.arange(4)[:, None] - np.arange(4)[None, :]

    phi, delta = 0.4, np.radians(20)
    r = gbsm.onering_ula(geom, phi=phi, delta_phi=delta)
    row = _trapz_ula("onering", np.arange(-3, 4), phi, delta, geom.d_h)
    oracle = row[diffs + 3]
    worst = max(worst, np.abs(r - oracle).max())

    phi, sigma = np.pi / 6, np.radians(10)
    r = gbsm.gaussian_ula_numeric(geom, phi=phi, sigma_phi=sigma)
    row = _trapz_ula("gaussian", np.arange(-3, 4), phi, sigma, geom.d_h)
    oracle = row[diffs + 3]
    worst = max(worst, np.abs(r - oracle).max())

    upa = UpaGeometry(m_h=2, m_v=2)
    phi, theta, delta_phi, delta_theta = 0.3, 0.1, np.radians(20), np.radians(10)
    r = gbsm.onering_upa(upa, phi=phi, theta=theta, delta_phi=delta_phi,
                         delta_theta=delta_theta)
    # the uniform window has nonzero endpoints, so the 2-D trapezoid
    # converges only at O(h^2); a denser grid keeps the oracle below the
    # 1e-7 tolerance (the Gaussian window decays and needs no refinement)
    oracle = _trapz_upa("onering", upa, phi, theta, delta_phi, delta_theta, n=4001)
    worst = max(worst, np.abs(r - oracle).max())

    sigma_phi, sigma_theta = np.radians(10), np.radians(5)
    r = gbsm.gaussian_upa(upa, phi=phi, theta=theta, sigma_phi=sigma_phi,
                          sigma_theta=sigma_theta)
    oracle = _trapz_upa("gaussian", upa, phi, theta, sigma_phi, sigma_theta)
    worst = max(worst, np.abs(r - oracle).max())

    _check(4, "all four GBSM builders match 1e6-point trapezoid to 1e-7",
           worst <= 1e-7, "worst entry error %.2e" % worst)


def test_criterion_05_closed_vs_numeric_gaussian():
    # The closed form is the small-angle linearization sin(phi + x) ~
    # sin(phi) + x cos(phi) of the exact integral, so it misses the exact
    # correlation by about 4% here; the former 1% limit was never
    # attainable.  Both builders are instead checked against their own
    # trapezoid oracles: the closed-minus-numeric difference must equal the
    # linearized-minus-exact difference to the 1e-7 of criterion 04.  See
    # "Decisions ledger" in README.md.
    geom = UlaGeometry(m=100)
    phi, sigma = np.pi / 6, np.radians(10)
    r_num = gbsm.gaussian_ula_numeric(geom, phi=phi, sigma_phi=sigma,
                                      quad=QuadratureConfig(nodes_per_dim=401))
    r_closed = gbsm.gaussian_ula_closed(geom, phi=phi, sigma_phi=sigma)
    lags = np.arange(geom.m)
    row_exact = _trapz_ula("gaussian", lags, phi, sigma, geom.d_h)
    row_lin = _trapz_ula("gaussian", lags, phi, sigma, geom.d_h, linearized=True)
    r_exact = scipy.linalg.toeplitz(row_exact, row_exact.conj())
    r_lin = scipy.linalg.toeplitz(row_lin, row_lin.conj())
    worst = np.abs((r_closed - r_num) - (r_lin - r_exact)).max()
    gap = np.abs(r_closed - r_num).max() / np.abs(r_num).max()
    _check(5, "closed-form minus numeric Gaussian equals linearized minus"
              " exact trapezoid to 1e-7 at sigma=10deg", worst <= 1e-7,
           "worst entry error %.2e, linearization gap %.4f" % (worst, gap))


def test_criterion_06_condition_number_trend():
    # Known red: the true smallest singular value underflows double
    # precision at every tested spread, so the computed kappa is
    # eigensolver noise and its ordering is not stable: the verdict
    # depends on BLAS threading.  See "Decisions ledger" in README.md.
    geom = UlaGeometry(m=100)
    kappas = []
    for delta in (5.0, 15.0, 45.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = gbsm.onering_ula(geom, phi=np.radians(30), delta_phi=np.radians(delta))
        kappas.append(linalg.condition_number(r))
    ok = kappas[0] > kappas[1] > kappas[2]
    _check(6, "one-ring condition number strictly decreasing in spread", ok,
           "kappa = %.3g / %.3g / %.3g" % tuple(kappas))


def test_criterion_07_aoa_dependence():
    geom = UlaGeometry(m=100)
    delta = np.radians(FIXTURE["onering_delta_deg"])
    caps = []
    for phi_deg in FIXTURE["onering_phi_deg"]:
        r = gbsm.onering_ula(geom, phi=np.radians(phi_deg), delta_phi=delta)
        caps.append(metrics.capacity_ub(r, ETA_60DB))
    rel = max(abs(c - ref) / ref
              for c, ref in zip(caps, FIXTURE["onering_capacity"]))
    ratio = caps[0] / caps[1]
    ok = rel <= 1e-9 and ratio >= 2.0
    _check(7, "one-ring capacity at phi=0 at least 2x that at phi=90", ok,
           "ratio %.2f, fixture error %.2e" % (ratio, rel))


def _random_correlation(kind, rng):
    """One correlation matrix with parameters drawn from the table ranges."""
    if kind == "exponential":
        m = int(rng.integers(2, 401))
        rho = float(rng.uniform(0, 1))
        return cbsm.exponential_correlation(m, rho)
    if kind == "exponential_shadow":
        m = int(rng.integers(2, 401))
        rho = float(rng.uniform(0, 1))
        theta = float(rng.uniform(0, 2 * np.pi))
        beta = float(rng.uniform(0.25, 4.0))
        sigma = float(rng.uniform(0, 6))
        return cbsm.exponential_with_shadowing(
            cbsm.draw_shadowing(m, sigma, rng), rho, theta, beta)
    if kind == "uncorrelated":
        m = int(rng.integers(2, 401))
        sigma = float(rng.uniform(0, 6))
        return cbsm.uncorrelated_with_shadowing(
            float(rng.uniform(0.25, 4.0)), cbsm.draw_shadowing(m, sigma, rng))

    if kind in ("onering_ula", "gaussian_ula", "gaussian_ula_shadowed"):
        geom = UlaGeometry(m=int(rng.integers(2, 65)),
                           d_h=float(rng.uniform(0.05, 10.0)))
        phi = float(rng.uniform(0, 2 * np.pi))
        if kind == "onering_ula":
            width = float(np.radians(rng.uniform(1, 50)))
            spread = width
        else:
            width = float(np.radians(rng.uniform(1, 15)))
            spread = 6 * width
        beta = float(rng.uniform(0.25, 4.0))
        nodes = min(4001, max(201, int(np.ceil(4 * spread * geom.d_h * geom.m)) + 1))
        quad = QuadratureConfig(nodes_per_dim=nodes)
        if kind == "onering_ula":
            return gbsm.onering_ula(geom, phi=phi, delta_phi=width, beta=beta, quad=quad)
        if kind == "gaussian_ula":
            return gbsm.gaussian_ula_numeric(geom, phi=phi, sigma_phi=width, beta=beta,
                                             quad=quad)
        # the shadowed model reads the scatterer angles in place of phi
        f = cbsm.draw_shadowing(geom.m, float(rng.uniform(0, 4)), rng)
        phis = gbsm.draw_scatterer_angles(int(rng.integers(1, 5)), rng)
        return gbsm.gaussian_ula_shadowed(geom, f, phis, sigma_phi=width, beta=beta)

    geom = UpaGeometry(m_h=int(rng.integers(2, 9)), m_v=int(rng.integers(2, 9)),
                       d_h=float(rng.uniform(0.1, 1.0)),
                       d_v=float(rng.uniform(0.1, 1.0)))
    phi = float(rng.uniform(0, 2 * np.pi))
    theta = float(rng.uniform(-np.pi / 2, np.pi / 2))
    if kind == "onering_upa":
        delta_phi = float(np.radians(rng.uniform(1, 40)))
        delta_theta = float(np.radians(rng.uniform(1, 30)))
        beta = float(rng.uniform(0.25, 4.0))
        return gbsm.onering_upa(geom, phi=phi, theta=theta, delta_phi=delta_phi,
                                delta_theta=delta_theta, beta=beta)
    sigma_phi = float(np.radians(rng.uniform(1, 30)))
    sigma_theta = float(np.radians(rng.uniform(1, 30)))
    beta = float(rng.uniform(0.25, 4.0))
    return gbsm.gaussian_upa(geom, phi=phi, theta=theta, sigma_phi=sigma_phi,
                             sigma_theta=sigma_theta, beta=beta)


def test_criterion_08_psd_hermitian_suite():
    kinds = ("exponential", "exponential_shadow", "uncorrelated",
             "onering_ula", "gaussian_ula", "gaussian_ula_shadowed",
             "onering_upa", "gaussian_upa")
    rng = np.random.default_rng(8)
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(200):
            r = _random_correlation(kinds[i % len(kinds)], rng)
            try:
                linalg.check_hermitian(r)
                linalg.psd_eigvals(r)
            except ChansimError:
                failures += 1
    _check(8, "200-point randomized Hermitian/PSD suite over the table ranges",
           failures == 0, "%d of 200 matrices failed" % failures)


def test_criterion_09_zf_contract():
    rng = np.random.default_rng(9)
    worst_resid = 0.0
    worst_interf = 0.0
    for k in (1, 10, 50):
        h = linalg.complex_gaussian((100, k), rng)
        w = precoding.zf_precoder(h)
        worst_resid = max(worst_resid,
                          np.abs(h.conj().T @ w - np.eye(k)).max())
        w = precoding.normalize_columns(w, np.full(k, 1.0 / k))
        cross = np.abs(h.conj().T @ w) ** 2
        signal = np.diag(cross).copy()
        np.fill_diagonal(cross, 0.0)
        worst_interf = max(worst_interf, float((cross.max(axis=1) / signal).max()))
    ok = worst_resid <= 1e-9 and worst_interf <= 1e-12
    _check(9, "ZF residual <= 1e-9 and post-normalization interference"
              " <= 1e-12 relative", ok,
           "residual %.2e, interference %.2e" % (worst_resid, worst_interf))


def _fig15_table():
    """Mean/stderr per (scheme, precoder, K, correlation) from the presets."""
    table = {}
    for name, scheme, prec in (("fig15a", 1, "cb"), ("fig15b", 1, "zf"),
                               ("fig15c", 2, "cb"), ("fig15d", 2, "zf")):
        res = run_experiment(preset(name))
        for k, corr, mean, stderr, *_ in res.rows:
            table[(scheme, prec, int(k), corr)] = (mean, stderr)
    return table


@pytest.mark.slow
def test_criterion_10_xl_sinr_orderings():
    t = _fig15_table()

    def margin(a, b):
        (ma, sa), (mb, sb) = t[a], t[b]
        return (ma - mb) - 2.0 * np.hypot(sa, sb)

    ok = True
    detail = []
    # (a) uncorrelated >= one-ring, both schemes and precoders.  At K=1 the
    # means coincide exactly under CB (equal channel-power traces), so only
    # non-violation is checkable there; the margin applies at K >= 5.
    for scheme in (1, 2):
        for prec in ("cb", "zf"):
            for k in (1, 5, 10, 20):
                m = margin((scheme, prec, k, "uncorrelated"),
                           (scheme, prec, k, "onering"))
                ok &= m > 0 if k > 1 else t[(scheme, prec, 1, "uncorrelated")][0] \
                    >= t[(scheme, prec, 1, "onering")][0] - 2.0 * np.hypot(
                        t[(scheme, prec, 1, "uncorrelated")][1],
                        t[(scheme, prec, 1, "onering")][1])
    detail.append("unc-vs-onering ok=%s" % ok)
    # (b) ZF >= CB at K = 10.
    for scheme in (1, 2):
        for corr in ("uncorrelated", "onering"):
            m = margin((scheme, "zf", 10, corr), (scheme, "cb", 10, corr))
            ok &= m > 0
    detail.append("zf-vs-cb@10 min margin %.3f"
                  % min(margin((s, "zf", 10, c), (s, "cb", 10, c))
                        for s in (1, 2) for c in ("uncorrelated", "onering")))
    # (c) scheme 2 one-ring >= scheme 1 one-ring.
    for prec in ("cb", "zf"):
        for k in (1, 5, 10, 20):
            ok &= margin((2, prec, k, "onering"), (1, prec, k, "onering")) > 0
    detail.append("scheme2-vs-scheme1 checked")
    _check(10, "XL-MIMO SINR orderings with margins beyond 2 combined"
               " standard errors", bool(ok), "; ".join(detail))


def _vr_chain_exact(m, p0, p1, c):
    """Mean visible fraction and P(all visible) of the visibility chain.

    Exact forward recursion over the states "visible" (index 0) and
    "obstructed for k antennas in a row" (index k).  The first antenna is
    visible with probability 1/2.  After a visible antenna the next is
    visible with probability p1; after the k-th obstructed antenna in a
    row, with probability min(1, p0 + (k - 1) c).
    """
    leave = np.minimum(1.0, p0 + c * np.arange(m))   # leave[k - 1]: state k
    dist = np.zeros(m + 1)
    dist[:2] = 0.5
    p_all = dist[0]   # mass of the paths visible at every antenna so far
    visible = [dist[0]]
    for _ in range(m - 1):
        nxt = np.zeros(m + 1)
        nxt[0] = dist[0] * p1 + dist[1:] @ leave
        nxt[1] = dist[0] * p0
        nxt[2:] = dist[1:-1] * (1.0 - leave[:-1])
        dist = nxt
        p_all *= p1
        visible.append(dist[0])
    return float(np.mean(visible)), float(p_all)


def test_criterion_11_vr_statistics():
    # The former limits (fraction >= 0.80, P(all) >= 0.2) are unattainable:
    # P(all 33 visible) <= p1^32 = 0.194 whatever the first state.  The
    # Monte Carlo estimates are instead checked against the exact values of
    # the documented chain, within 4 standard errors.  See "Decisions
    # ledger" in README.md.
    rng = np.random.default_rng(11)
    fractions = np.empty(10**4)
    all_visible = np.empty(10**4)
    for i in range(10**4):
        mask = xlmimo.vr_mask_chain(33, 0.05, 0.95, 0.05, rng)
        fractions[i] = mask.mean()
        all_visible[i] = mask.all()
    frac, frac_se = metrics.mean_with_stderr(fractions)
    p_all, p_all_se = metrics.mean_with_stderr(all_visible)
    exact_frac, exact_p_all = _vr_chain_exact(33, 0.05, 0.95, 0.05)
    z_frac = (frac - exact_frac) / frac_se
    z_all = (p_all - exact_p_all) / p_all_se
    ok = abs(z_frac) <= 4.0 and abs(z_all) <= 4.0
    _check(11, "VR mean visible fraction and P(all visible) within 4"
               " standard errors of the exact chain recursion", ok,
           "fraction %.4f vs %.4f (%+.1f se), P(all) %.4f vs %.4f (%+.1f se)"
           % (frac, exact_frac, z_frac, p_all, exact_p_all, z_all))


def test_criterion_12_correlation_decay():
    rng = np.random.default_rng(12)
    means = []
    for m in (10, 50, 100):
        h = linalg.complex_gaussian((m, 2000), rng)
        vals = [metrics.correlation_coefficient(h[:, 2 * i], h[:, 2 * i + 1])
                for i in range(1000)]
        means.append(float(np.mean(vals)))
    ok = means[0] > means[1] > means[2]
    _check(12, "mean channel correlation strictly decreasing in M", ok,
           "nu = %.3f / %.3f / %.3f" % tuple(means))


def test_criterion_13_jensen_bound():
    rng = np.random.default_rng(13)
    m, draws = 16, 10**4
    ok = True
    details = []
    r_exp = cbsm.exponential_correlation(m, 0.5)
    r_ring = gbsm.onering_ula(UlaGeometry(m=m), phi=np.radians(30),
                              delta_phi=np.radians(10))
    for name, r in (("exponential", r_exp), ("onering", r_ring)):
        s = linalg.psd_sqrt(r)
        caps = [metrics.capacity_single(linalg.sample_correlated(s, rng), ETA_60DB)
                for _ in range(draws)]
        mean, stderr = metrics.mean_with_stderr(caps)
        ub = metrics.capacity_ub(r, ETA_60DB)
        ok &= mean <= ub + 2 * stderr
        details.append("%s %.2f <= %.2f" % (name, mean, ub + 2 * stderr))
    _check(13, "ergodic capacity below Jensen bound plus 2 standard errors",
           ok, "; ".join(details))


def test_criterion_14_determinism(tmp_path):
    cfg = preset("fig5b")
    texts = []
    for i, c in enumerate((cfg, cfg, dataclasses.replace(cfg, workers=3))):
        texts.append(emit_csv(run_experiment(c), tmp_path / ("run%d.csv" % i)))
    ok = texts[0] == texts[1] == texts[2]
    _check(14, "preset rerun and worker-count change give byte-identical CSV",
           ok)
