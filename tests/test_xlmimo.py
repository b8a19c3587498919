import dataclasses

import numpy as np
import pytest

from chansim import xlmimo
from chansim.config import ExperimentConfig, SweepSpec
from chansim.errors import InvalidParam
from chansim.gbsm import UlaGeometry
from chansim.metrics import sinr_per_user
from chansim.precoding import cb_precoder, normalize_columns, zf_precoder
from chansim.registry import METRICS, xl_sinr_noise_power
from chansim.xlmimo import (L0_DB, NORMALIZATION, Cluster, antenna_positions,
                            assemble_channel_matrix, build_scenario,
                            cluster_channel, cluster_correlation_matrix,
                            pathloss_per_antenna, place_clusters, position_vr,
                            rayleigh_distance, sums_to_one, user_channel,
                            vr_mask_chain)


def xl_geometry(m=100):
    return UlaGeometry(m=m, d_h=5.0)


def test_rayleigh_distance_values():
    assert np.isclose(rayleigh_distance(1.0, 0.125), 16.0)
    assert np.isclose(rayleigh_distance(61.875, 0.125), 61256.25)
    assert np.isclose(rayleigh_distance(3.0, 2 * 9.0), 1.0)
    with pytest.raises(InvalidParam):
        rayleigh_distance(-1.0, 0.125)


def test_antenna_positions_centered():
    pos = antenna_positions(xl_geometry())
    assert np.isclose(pos.mean(), 0.0)
    assert np.isclose(pos[1] - pos[0], 0.625)
    assert np.isclose(pos[-1] - pos[0], 61.875)


def test_place_clusters_scheme1_distance():
    rng = np.random.default_rng(0)
    placed = place_clusters("scheme1", 5, 2, (5.0, 10.0), rng, 61.875, d1=35.0)
    assert sum(len(row) for row in placed) == 10
    for row in placed:
        for center, radius in row:
            assert np.isclose(np.linalg.norm(center), 35.0, atol=1e-9)
            assert 5.0 <= radius <= 10.0


def test_place_clusters_scheme2_line():
    rng = np.random.default_rng(1)
    placed = place_clusters("scheme2", 3, 2, (5.0, 10.0), rng, 61.875, d2=20.0)
    for row in placed:
        for center, _ in row:
            assert center[1] == 20.0
            assert abs(center[0]) <= 61.875 / 2


def test_vr_mask_chain_all_visible_when_p0_zero():
    rng = np.random.default_rng(2)
    # force the initial state visible by retrying until it is
    for seed in range(50):
        mask = vr_mask_chain(20, 0.0, 1.0, 0.05, np.random.default_rng(seed))
        if mask[0] == 1:
            assert np.all(mask == 1)
            break
    else:
        raise AssertionError("no visible initial state in 50 seeds")


def test_vr_mask_chain_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidParam):
        vr_mask_chain(10, 0.3, 0.3, 0.05, rng)
    for p1 in (0.95 + 1.2e-5, 0.95 - 1.2e-5, np.nan):
        with pytest.raises(InvalidParam, match="p0 \\+ p1 must equal 1"):
            vr_mask_chain(10, 0.05, p1, 0.05, rng)
    for p1 in (0.95 + 0.8e-5, 0.95 - 0.8e-5):
        assert vr_mask_chain(10, 0.05, p1, 0.05, rng).shape == (10,)
    with pytest.raises(InvalidParam):
        vr_mask_chain(10, 0.05, 0.95, 1.5, rng)
    with pytest.raises(InvalidParam):
        vr_mask_chain(0, 0.05, 0.95, 0.05, rng)


def test_sums_to_one_takes_the_isclose_decision():
    tol = 1e-8 + 1e-5
    values = [1.0, 1.0 + tol, 1.0 - tol, np.nextafter(1.0 + tol, 2.0),
              np.nextafter(1.0 - tol, 0.0), 1.0 + 1.2e-5, 1.0 - 0.8e-5, 0.6, np.nan, np.inf]
    for s in values:
        for p0 in (0.0, 0.05, 0.5):
            assert sums_to_one(p0, s - p0) == np.isclose(p0 + (s - p0), 1.0)


def test_vr_mask_binary():
    rng = np.random.default_rng(4)
    mask = vr_mask_chain(200, 0.05, 0.95, 0.05, rng)
    assert set(np.unique(mask)) <= {0, 1}


def _all_clusters(scen):
    return [cl for per_user in scen.clusters for cl in per_user]


def test_build_scenario_vr_span_size():
    rng = np.random.default_rng(5)
    scen = build_scenario("scheme1", 3, 2, rng, m=100, r_bounds=(5.0, 5.0))
    # L_VR = 10, L_BS = 61.875 -> M_VR = ceil(100 * 10 / 61.875) = 17
    clusters = _all_clusters(scen)
    assert len(clusters) == 6
    assert all(cl.radius == 5.0 for cl in clusters)
    assert all(len(cl.vr_mask) == 17 for cl in clusters)


def test_build_scenario_vr_truncated_to_m():
    rng = np.random.default_rng(6)
    scen = build_scenario("scheme2", 3, 2, rng, m=10, r_bounds=(50.0, 50.0))
    # L_VR = 100 spans far more than the L_BS = 5.625 array: M_VR = 178 -> 10
    assert all(len(cl.vr_mask) == 10 and cl.vr_lo == 0 for cl in _all_clusters(scen))


def test_build_scenario_one_antenna():
    # a one-antenna array has length L_BS = 0, which any VR covers
    rng = np.random.default_rng(20)
    scen = build_scenario("scheme1", 2, 2, rng, m=1)
    assert all(len(cl.vr_mask) == 1 and cl.vr_lo == 0 for cl in _all_clusters(scen))
    assert assemble_channel_matrix(scen, rng).shape == (1, 2)


def test_position_vr_centered():
    geom = xl_geometry()
    lo = position_vr(np.array([0.0, 40.0]), 17, geom)
    # cluster opposite the array center: span covers antennas 42..58 (1-based)
    assert lo == 41
    assert lo + 17 - 1 == 57  # 0-based inclusive end


def test_position_vr_clipped_at_edges():
    geom = xl_geometry()
    lo = position_vr(np.array([-1000.0, 40.0]), 17, geom)
    assert lo == 0
    hi = position_vr(np.array([1000.0, 40.0]), 17, geom)
    assert hi == 100 - 17


def test_position_vr_full_span():
    geom = xl_geometry()
    assert position_vr(np.array([3.0, 40.0]), 100, geom) == 0


def make_cluster(center, m_vr, mask=None, geom=None):
    geom = geom or xl_geometry()
    mask = np.ones(m_vr, dtype=np.int8) if mask is None else mask
    lo = position_vr(np.asarray(center, dtype=float), m_vr, geom)
    return Cluster(center=np.asarray(center, dtype=float), radius=m_vr / 4,
                   vr_mask=mask, vr_lo=lo)


def test_pathloss_reference_distance():
    # a cluster-antenna-user path of exactly d0 inside the VR gives L = L0
    geom = UlaGeometry(m=1, d_h=5.0)
    cluster = Cluster(center=np.array([0.0, 0.5]), radius=1.0,
                      vr_mask=np.ones(1, dtype=np.int8), vr_lo=0)
    amp = pathloss_per_antenna(cluster, np.array([0.0, 1.0]), geom)
    expected = np.sqrt(10.0 ** (L0_DB / 10.0) * NORMALIZATION)
    assert np.isclose(amp[0], expected)


def test_pathloss_doubling_distance():
    # alpha = 3: doubling d drops the loss by 10 * 3 * log10(2) = 9.03 dB
    geom = UlaGeometry(m=1, d_h=5.0)
    amps = []
    for d in (2.0, 4.0):
        cluster = Cluster(center=np.array([0.0, 1.0]), radius=1.0,
                          vr_mask=np.ones(1, dtype=np.int8), vr_lo=0)
        amp = pathloss_per_antenna(cluster, np.array([0.0, 1.0 + d - 1.0]), geom)
        amps.append(amp[0])
    drop_db = 20.0 * np.log10(amps[0] / amps[1])
    assert np.isclose(drop_db, 10.0 * 3.0 * np.log10(2.0), atol=1e-9)


def test_pathloss_obstructed_antennas_zero():
    geom = xl_geometry()
    mask = np.ones(17, dtype=np.int8)
    mask[3] = 0
    cluster = make_cluster([0.0, 20.0], 17, mask=mask)
    amp = pathloss_per_antenna(cluster, np.array([0.0, 40.0]), geom)
    assert amp[cluster.vr_lo + 3] == 0.0
    visible = np.delete(np.arange(cluster.vr_lo, cluster.vr_lo + 17), 3)
    assert np.all(amp[visible] > 0)


def test_pathloss_out_of_vr_weaker():
    geom = xl_geometry()
    cluster = make_cluster([0.0, 20.0], 17)
    amp = pathloss_per_antenna(cluster, np.array([0.0, 40.0]), geom)
    inside = amp[cluster.vr_span].min()
    outside = amp[[0, 99]].max()
    assert outside < inside


def test_pathloss_monotone_in_distance():
    geom = xl_geometry()
    cluster = make_cluster([0.0, 20.0], 100)
    amp = pathloss_per_antenna(cluster, np.array([0.0, 40.0]), geom)
    pos = antenna_positions(geom)
    d = np.hypot(pos - 0.0, 20.0)
    order = np.argsort(d)
    assert np.all(np.diff(amp[order]) <= 1e-12)


def test_cluster_channel_zero_beta():
    rng = np.random.default_rng(7)
    assert np.all(cluster_channel(np.zeros(8), None, rng) == 0)


@pytest.mark.slow
def test_cluster_channel_variance():
    rng = np.random.default_rng(8)
    b = 2.5
    draws = np.array([cluster_channel(np.full(4, b), np.eye(4), rng)
                      for _ in range(100_000)])
    var = draws.var(axis=0)
    assert np.all(np.abs(var - b**2) < 0.05 * b**2)


@pytest.mark.slow
def test_cluster_channel_covariance_oracle():
    rng = np.random.default_rng(9)
    from chansim.cbsm import exponential_correlation
    r = exponential_correlation(8, 0.6)
    beta = np.linspace(0.5, 2.0, 8)
    draws = np.array([cluster_channel(beta, r, rng) for _ in range(100_000)])
    cov = (draws[:, :, None] * draws[:, None, :].conj()).mean(axis=0)
    target = np.diag(beta) @ r @ np.diag(beta)
    err = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert err < 0.1


def test_user_channel_single_cluster():
    rng1 = np.random.default_rng(10)
    rng2 = np.random.default_rng(10)
    scen = build_scenario("scheme1", 1, 1, np.random.default_rng(11))
    h = user_channel(scen, 0, rng1)
    cluster = scen.clusters[0][0]
    beta = pathloss_per_antenna(cluster, scen.users[0], scen.geometry)
    ref = cluster_channel(beta, None, rng2)
    assert np.allclose(h, ref)


def test_user_channel_variance_doubles_with_identical_clusters():
    rng = np.random.default_rng(12)
    scen = build_scenario("scheme1", 1, 1, np.random.default_rng(13))
    cluster = scen.clusters[0][0]
    scen.clusters[0] = [cluster, cluster]
    one = build_scenario("scheme1", 1, 1, np.random.default_rng(13))
    n = 20_000
    v2 = np.var([user_channel(scen, 0, rng)[50] for _ in range(n)])
    v1 = np.var([user_channel(one, 0, rng)[50] for _ in range(n)])
    assert abs(v2 / v1 - 2.0) < 0.15


def test_fully_obstructed_user_zero():
    scen = build_scenario("scheme1", 1, 1, np.random.default_rng(14))
    cluster = scen.clusters[0][0]
    scen.clusters[0] = [Cluster(center=cluster.center, radius=cluster.radius,
                                vr_mask=np.zeros(100, dtype=np.int8), vr_lo=0)]
    h = user_channel(scen, 0, np.random.default_rng(15))
    assert np.all(h == 0)


def test_assemble_shapes():
    rng = np.random.default_rng(16)
    scen = build_scenario("scheme2", 10, 2, rng)
    h = assemble_channel_matrix(scen, rng)
    assert h.shape == (100, 10)
    scen1 = build_scenario("scheme1", 1, 2, rng)
    h1 = assemble_channel_matrix(scen1, rng)
    assert h1.shape == (100, 1)


def test_disjoint_vr_support(monkeypatch):
    # two users, each one cluster, VRs at opposite array ends, no leakage
    scen = build_scenario("scheme2", 2, 1, np.random.default_rng(17))
    geom = scen.geometry
    left = make_cluster([-28.0, 20.0], 10, geom=geom)
    right = make_cluster([28.0, 20.0], 10, geom=geom)
    scen.clusters = [[left], [right]]
    monkeypatch.setattr(xlmimo, "ALPHA_NVR", np.inf)
    h = assemble_channel_matrix(scen, np.random.default_rng(18))
    s0 = set(np.flatnonzero(np.abs(h[:, 0])))
    s1 = set(np.flatnonzero(np.abs(h[:, 1])))
    assert s0 and s1 and not (s0 & s1)


def test_cluster_correlation_kinds():
    rng = np.random.default_rng(19)
    for kind in ("uncorrelated", "exponential", "onering"):
        scen = build_scenario("scheme1", 1, 1, rng, correlation=kind)
        r = cluster_correlation_matrix(scen, scen.clusters[0][0])
        if kind == "uncorrelated":
            assert r is None
        else:
            assert r.shape == (100, 100)
            assert np.abs(r - r.conj().T).max() <= 1e-12 * np.abs(r).max()


def test_scheme_validation():
    rng = np.random.default_rng(21)
    with pytest.raises(InvalidParam, match="unknown cluster scheme"):
        build_scenario("scheme3", 1, 1, rng)
    with pytest.raises(InvalidParam, match="cluster distances must be > 0"):
        build_scenario("scheme1", 1, 1, rng, d1=-5.0)
    with pytest.raises(InvalidParam, match="unknown correlation kind"):
        build_scenario("scheme1", 1, 1, rng, correlation="gaussian")


@pytest.mark.parametrize("precoder", ["cb", "zf"])
def test_sinr_scores_obstructed_user_zero(monkeypatch, precoder):
    # user 1's channel is all zero: it gets no precoder column and SINR 0,
    # and the others keep the per-user power total_power / K
    rng = np.random.default_rng(5)
    h = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    h[:, 1] = 0.0
    monkeypatch.setattr(xlmimo, "assemble_channel_matrix", lambda scen, rng: h)
    cfg = ExperimentConfig(model="xl", metric="sinr", sweep=SweepSpec("num_users", (3,)),
                           m=8, num_users=3, total_power=3.0, precoder=precoder)
    live = h[:, [0, 2]]
    w = cb_precoder(live) if precoder == "cb" else zf_precoder(live)
    w = normalize_columns(w, np.full(2, 1.0))
    want = sinr_per_user(live, w, xl_sinr_noise_power(cfg)).sum() / 3
    got = METRICS["sinr"].trial(cfg, np.random.default_rng(0), object())
    assert got == pytest.approx(want, rel=1e-14)


# Exact-moment oracle.  For a fixed scenario, user k's channel is CN(0, C_k)
# with C_k = sum_c diag(a_c) R_c diag(a_c): a_c the cluster's path-loss
# amplitudes, R_c its correlation matrix (I when uncorrelated).  Users draw
# independently, so E[h_k^H h_j] = 0 and E|h_k^H h_j|^2 = tr(C_k C_j).  With
# one user, both precoders scale h to column norm p, so SINR = p^2 ||h||^2 / sigma^2.
ORACLE_DRAWS = 3000
ORACLE_Z = 4.0
ORACLE_SEEDS = {"uncorrelated": 31, "exponential": 32, "onering": 33}


def _user_covariance(scen, k):
    m = scen.geometry.m
    cov = np.zeros((m, m), dtype=complex)
    for cluster in scen.clusters[k]:
        a = pathloss_per_antenna(cluster, scen.users[k], scen.geometry)
        r = cluster_correlation_matrix(scen, cluster)
        cov += a[:, None] * (np.eye(m) if r is None else r) * a[None, :]
    return cov


def _z(samples, expected):
    """Distance of the sample mean from ``expected`` in standard errors."""
    return (samples.mean() - expected) / (samples.std(ddof=1) / np.sqrt(samples.size))


def moment_z_scores(kind, seed):
    """z-scores of each moment of the K = 2, two-cluster, M = 32 scheme-1 scenario."""
    scen = build_scenario("scheme1", 2, 2, np.random.default_rng(30), m=32,
                          correlation=kind)
    c0, c1 = _user_covariance(scen, 0), _user_covariance(scen, 1)
    rng = np.random.default_rng(seed)
    h = np.array([assemble_channel_matrix(scen, rng) for _ in range(ORACLE_DRAWS)])
    energy = (np.abs(h) ** 2).sum(axis=1)                   # ||h_k||^2, shape (draws, 2)
    cross = (h[:, :, 0].conj() * h[:, :, 1]).sum(axis=1)    # h_0^H h_1
    z = {"energy_0": _z(energy[:, 0], np.trace(c0).real),
         "energy_1": _z(energy[:, 1], np.trace(c1).real),
         "cross_re": _z(cross.real, 0.0), "cross_im": _z(cross.imag, 0.0),
         "cross_sq": _z(np.abs(cross) ** 2, np.trace(c0 @ c1).real)}
    one_user = dataclasses.replace(scen, users=scen.users[:1], clusters=scen.clusters[:1])
    for precoder in ("cb", "zf"):
        cfg = ExperimentConfig(model="xl", metric="sinr", sweep=SweepSpec("num_users", (1,)),
                               m=32, num_users=1, total_power=2.0, precoder=precoder,
                               xl_correlation=kind)
        sinr = np.array([METRICS["sinr"].trial(cfg, rng, one_user)
                         for _ in range(ORACLE_DRAWS)])
        expected = cfg.total_power**2 * np.trace(c0).real / xl_sinr_noise_power(cfg)
        z[f"sinr_{precoder}"] = _z(sinr, expected)
    return z


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.slow) if kind in ("exponential", "onering") else kind
    for kind in sorted(ORACLE_SEEDS)])
def test_channel_moments_match_covariance(kind):
    z = moment_z_scores(kind, ORACLE_SEEDS[kind])
    assert all(abs(v) < ORACLE_Z for v in z.values()), z
