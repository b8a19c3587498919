import dataclasses
import warnings

import numpy as np
import pytest

from chansim import xlmimo
from chansim.cbsm import exponential_correlation
from chansim.config import ExperimentConfig, SweepSpec
from chansim.errors import InvalidParam
from chansim.gbsm import UlaGeometry, onering_ula
from chansim.linalg import complex_gaussian, psd_sqrt
from chansim.metrics import sinr_per_user
from chansim.precoding import cb_precoder, normalize_columns, zf_precoder
from chansim.registry import METRICS, xl_sinr_noise_power
from chansim.xlmimo import (ALPHA_VR, CLUSTER_CORR_QUADRATURE, CLUSTER_CORRELATIONS,
                            CLUSTER_SCHEMES, D0, L0_DB, NORMALIZATION, SCHEME1_ARC,
                            XlScenario, antenna_positions, assemble_channel_matrix,
                            build_scenario, cluster_correlation_matrix,
                            pathloss, place_clusters, position_vr, rayleigh_distance,
                            sums_to_one, vr_mask_chain)


def xl_geometry(m=100):
    return UlaGeometry(m=m, d_h=5.0)


def scenario_of(clusters, geom=None, users=None, correlation="uncorrelated",
                rho=0.5, delta=np.radians(10.0)):
    """An XlScenario holding per-user lists of (center, vr_lo, vr_mask) clusters.

    Users default to 40 m out on broadside, as ``build_scenario`` places them.
    """
    geom = geom or xl_geometry()
    shape = (len(clusters), len(clusters[0]))
    centers = np.zeros(shape + (2,))
    vr = np.zeros(shape + (geom.m,), dtype=np.int8)
    vr_center = np.zeros(shape, dtype=int)
    for k, c in np.ndindex(shape):
        center, lo, mask = clusters[k][c]
        centers[k, c] = center
        vr[k, c, lo:lo + len(mask)] = np.where(mask == 1, 1, -1)
        vr_center[k, c] = lo + len(mask) // 2
    users = np.tile([0.0, 40.0], (shape[0], 1)) if users is None else np.asarray(users, float)
    return XlScenario(geometry=geom, users=users, centers=centers, vr=vr, vr_center=vr_center,
                      correlation=correlation, rho=rho, delta=delta)


def _spans(scen):
    """First antenna and length of every cluster's VR span, each (K, C)."""
    inside = scen.vr != 0
    return inside.argmax(axis=-1), inside.sum(axis=-1)


# Reference copy of the per-cluster path that the scenario arrays replaced:
# placement by one scalar draw per value, one (center, vr_lo, vr_mask) triple
# per cluster with its span placed by the scalar rule, path loss per cluster,
# and a user's channel as a loop over its clusters, each drawing its own
# fading.  The array path must equal it bit for bit, stream included.

def ref_place_clusters(scheme, num_users, clusters_per_user, r_bounds, rng, array_length,
                       d1=35.0, d2=20.0):
    out = []
    for _ in range(num_users):
        per_user = []
        for _ in range(clusters_per_user):
            if scheme == "scheme1":
                az = rng.uniform(*SCHEME1_ARC)
                center = np.array([d1 * np.sin(az), d1 * np.cos(az)])
            else:
                x = rng.uniform(-array_length / 2.0, array_length / 2.0)
                center = np.array([x, d2])
            per_user.append((center, rng.uniform(*r_bounds)))
        out.append(per_user)
    return out


def ref_vr_length(radius, m):
    l_bs = (m - 1) * 5.0 * 0.125
    return m if 2.0 * radius >= l_bs else int(np.ceil(m * 2.0 * radius / l_bs))


def ref_position_vr(center, m_vr, geom):
    positions = antenna_positions(geom)
    nearest = int(np.argmin(np.abs(positions - center[0])))
    lo = nearest - (m_vr - 1) // 2
    return max(0, min(lo, geom.m - m_vr))


def ref_clusters(scheme, num_users, clusters_per_user, rng, m=100, r_bounds=(5.0, 10.0),
                 p0=0.05, p1=0.95, c=0.05):
    """Per user, a list of (center, vr_lo, vr_mask), drawn as build_scenario draws them."""
    geom = xl_geometry(m)
    l_bs = (m - 1) * 5.0 * 0.125
    out = []
    for per_user in ref_place_clusters(scheme, num_users, clusters_per_user, r_bounds, rng,
                                       l_bs):
        row = []
        for center, radius in per_user:
            m_vr = ref_vr_length(radius, m)
            mask = vr_mask_chain(m_vr, p0, p1, c, rng)
            row.append((center, ref_position_vr(center, m_vr, geom), mask))
        out.append(row)
    return out


def ref_pathloss_per_antenna(cluster, user, geom):
    center, lo, mask = cluster
    positions = antenna_positions(geom)
    cx, cy = center
    d = np.hypot(positions - cx, cy) + np.hypot(cx - user[0], cy - user[1])
    if np.any(d < D0):
        warnings.warn("link distance below reference distance, clamping", stacklevel=2)
        d = np.maximum(d, D0)
    alpha = np.full(geom.m, xlmimo.ALPHA_NVR)
    alpha[lo:lo + len(mask)] = ALPHA_VR
    loss_db = L0_DB - 10.0 * alpha * np.log10(d / D0)
    amp = np.sqrt(10.0 ** (loss_db / 10.0) * NORMALIZATION)
    obstructed = np.zeros(geom.m, dtype=bool)
    obstructed[lo:lo + len(mask)] = mask == 0
    amp[obstructed] = 0.0
    return amp


def ref_correlation(scen, cluster):
    center, lo, mask = cluster
    m = scen.geometry.m
    if scen.correlation == "uncorrelated":
        return None
    if scen.correlation == "exponential":
        return exponential_correlation(m, scen.rho)
    vr_center = antenna_positions(scen.geometry)[lo + len(mask) // 2]
    phi = np.arctan2(center[0] - vr_center, center[1])
    return onering_ula(UlaGeometry(m=m, d_h=0.5), phi=phi, delta_phi=scen.delta,
                       quad=CLUSTER_CORR_QUADRATURE)


def ref_pathloss(scen, clusters):
    return np.array([[ref_pathloss_per_antenna(cl, scen.users[k], scen.geometry) for cl in row]
                     for k, row in enumerate(clusters)])


def ref_cluster_channel(beta, r, rng):
    z = complex_gaussian(len(beta), rng)
    if r is None:
        return beta * z
    return beta * (psd_sqrt(r) @ z)


def ref_user_channel(scen, clusters, k, rng):
    h = np.zeros(scen.geometry.m, dtype=complex)
    for cluster in clusters[k]:
        beta = ref_pathloss_per_antenna(cluster, scen.users[k], scen.geometry)
        h += ref_cluster_channel(beta, ref_correlation(scen, cluster), rng)
    return h


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("kind", CLUSTER_CORRELATIONS)
@pytest.mark.parametrize("scheme", CLUSTER_SCHEMES)
def test_array_path_equals_the_per_cluster_path(scheme, kind, k):
    seed = 100 + k
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    centers, radii = place_clusters(scheme, k, 2, (5.0, 10.0), rng, 61.875)
    placed = ref_place_clusters(scheme, k, 2, (5.0, 10.0), ref_rng, 61.875)
    assert np.array_equal(centers, [[center for center, _ in row] for row in placed])
    assert np.array_equal(radii, [[radius for _, radius in row] for row in placed])
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    scen = build_scenario(scheme, k, 2, rng, correlation=kind)
    clusters = ref_clusters(scheme, k, 2, ref_rng)
    ref = scenario_of(clusters, correlation=kind)
    for field in ("users", "centers", "vr", "vr_center"):
        assert np.array_equal(getattr(scen, field), getattr(ref, field)), field
    assert scen.vr.dtype == np.int8
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    assert np.array_equal(pathloss(scen), ref_pathloss(scen, clusters))
    h = assemble_channel_matrix(scen, rng)
    ref_h = np.column_stack([ref_user_channel(scen, clusters, j, ref_rng) for j in range(k)])
    assert np.array_equal(h, ref_h)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_obstructed_cluster_and_short_link_match_the_per_cluster_path():
    # user 0 sits 0.3 m from both its clusters, so links near them are shorter
    # than D0 and clamp; its first cluster is obstructed on every antenna
    geom = UlaGeometry(m=4, d_h=5.0)
    near = np.array([0.2, 0.1])
    clusters = [[(near, 0, np.zeros(4, dtype=np.int8)), (near, 1, np.array([1, 0], np.int8))],
                [make_cluster([-1.0, 20.0], 2, geom=geom),
                 make_cluster([1.0, 20.0], 3, geom=geom)]]
    scen = scenario_of(clusters, geom=geom, users=[[0.2, 0.4], [0.0, 40.0]])
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        ref_amp = ref_pathloss(scen, clusters)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        amp = pathloss(scen)
    # the per-cluster path warned once per short cluster; the arrays warn once per trial
    assert len(ref_caught) == 2
    assert [str(w.message) for w in caught] == \
        ["link distance below reference distance, clamping"]
    assert np.array_equal(amp, ref_amp)
    assert np.all(amp[0, 0] == 0.0) and amp[0, 1, 2] == 0.0 and amp[0, 1, 1] > 0.0
    # the clamped antenna reads the amplitude at D0 inside the VR
    at_d0 = np.sqrt(10.0 ** (L0_DB / 10.0) * NORMALIZATION)
    assert amp[0, 1, 1] == pytest.approx(at_d0, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = assemble_channel_matrix(scen, np.random.default_rng(40))
        ref_rng = np.random.default_rng(40)
        ref_h = np.column_stack([ref_user_channel(scen, clusters, j, ref_rng) for j in range(2)])
    assert np.array_equal(h, ref_h)


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


def test_antenna_positions_are_computed_once_per_geometry_and_read_only():
    pos = antenna_positions(xl_geometry())
    # an equal geometry, as each scenario builds its own, gets the same array
    assert antenna_positions(UlaGeometry(m=100, d_h=5.0)) is pos
    assert antenna_positions(xl_geometry(m=99)) is not pos
    assert np.array_equal(pos, (np.arange(100) - 49.5) * (5.0 * 0.125))
    with pytest.raises(ValueError):
        pos[0] = 0.0


def test_place_clusters_scheme1_distance():
    rng = np.random.default_rng(0)
    centers, radii = place_clusters("scheme1", 5, 2, (5.0, 10.0), rng, 61.875, d1=35.0)
    assert centers.shape == (5, 2, 2) and radii.shape == (5, 2)
    assert np.allclose(np.linalg.norm(centers, axis=-1), 35.0, rtol=0, atol=1e-9)
    assert np.all((5.0 <= radii) & (radii <= 10.0))


def test_place_clusters_scheme2_line():
    rng = np.random.default_rng(1)
    centers, _ = place_clusters("scheme2", 3, 2, (5.0, 10.0), rng, 61.875, d2=20.0)
    assert centers.shape == (3, 2, 2)
    assert np.all(centers[..., 1] == 20.0)
    assert np.all(np.abs(centers[..., 0]) <= 61.875 / 2)


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


def test_build_scenario_vr_span_size():
    scen = build_scenario("scheme1", 3, 2, np.random.default_rng(5), m=100,
                          r_bounds=(5.0, 5.0))
    _, radii = place_clusters("scheme1", 3, 2, (5.0, 5.0), np.random.default_rng(5), 61.875)
    assert np.all(radii == 5.0)
    # L_VR = 10, L_BS = 61.875 -> M_VR = ceil(100 * 10 / 61.875) = 17
    lo, length = _spans(scen)
    assert scen.vr.shape == (3, 2, 100)
    assert np.all(length == 17)
    assert np.array_equal(scen.vr_center, lo + 8)
    # each span is one run of visible (1) and obstructed (-1) antennas
    assert all(np.all(scen.vr[k, c, lo[k, c]:lo[k, c] + 17] != 0) for k, c in np.ndindex(3, 2))


def test_build_scenario_vr_truncated_to_m():
    rng = np.random.default_rng(6)
    scen = build_scenario("scheme2", 3, 2, rng, m=10, r_bounds=(50.0, 50.0))
    # L_VR = 100 spans far more than the L_BS = 5.625 array: M_VR = 178 -> 10
    lo, length = _spans(scen)
    assert np.all(length == 10) and np.all(lo == 0)


def test_build_scenario_one_antenna():
    # a one-antenna array has length L_BS = 0, which any VR covers; no span
    # length divides by it, so nothing warns
    rng = np.random.default_rng(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scen = build_scenario("scheme1", 2, 2, rng, m=1)
    lo, length = _spans(scen)
    assert np.all(length == 1) and np.all(lo == 0)
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


@pytest.mark.parametrize("scheme", CLUSTER_SCHEMES)
def test_position_vr_arrays_equal_the_scalar_rule(scheme):
    geom = xl_geometry()
    centers, radii = place_clusters(scheme, 20, 2, (0.5, 40.0), np.random.default_rng(22),
                                    61.875)
    m_vr = np.array([[ref_vr_length(r, 100) for r in row] for row in radii])
    # and spans of 1, 17 and 100 antennas for clusters beyond both array edges,
    # on both edge antennas and halfway between two antennas
    xs = (-1000.0, -30.9375, 0.3125, 30.9375, 1000.0)
    edge_centers = np.array([[[x, 20.0] for x in xs]] * 3)
    edge_m_vr = np.array([[1], [17], [100]]).repeat(len(xs), axis=1)
    for where, length in ((centers, m_vr), (edge_centers, edge_m_vr)):
        lo = position_vr(where, length, geom)
        ref = [[ref_position_vr(where[k, c], length[k, c], geom)
                for c in range(length.shape[1])] for k in range(length.shape[0])]
        assert np.array_equal(lo, ref)
    assert np.array_equal(position_vr(edge_centers, edge_m_vr, geom)[:, [0, -1]],
                          [[0, 99], [0, 83], [0, 0]])


def make_cluster(center, m_vr, mask=None, geom=None):
    """A (center, vr_lo, vr_mask) cluster whose span build_scenario would position."""
    geom = geom or xl_geometry()
    mask = np.ones(m_vr, dtype=np.int8) if mask is None else mask
    center = np.asarray(center, dtype=float)
    return center, position_vr(center, m_vr, geom), mask


def test_pathloss_reference_distance():
    # a cluster-antenna-user path of exactly d0 inside the VR gives L = L0
    geom = UlaGeometry(m=1, d_h=5.0)
    cluster = (np.array([0.0, 0.5]), 0, np.ones(1, dtype=np.int8))
    amp = pathloss(scenario_of([[cluster]], geom=geom, users=[[0.0, 1.0]]))[0, 0]
    expected = np.sqrt(10.0 ** (L0_DB / 10.0) * NORMALIZATION)
    assert np.isclose(amp[0], expected)


def test_pathloss_doubling_distance():
    # alpha = 3: doubling d drops the loss by 10 * 3 * log10(2) = 9.03 dB
    geom = UlaGeometry(m=1, d_h=5.0)
    amps = []
    for d in (2.0, 4.0):
        cluster = (np.array([0.0, 1.0]), 0, np.ones(1, dtype=np.int8))
        amp = pathloss(scenario_of([[cluster]], geom=geom, users=[[0.0, 1.0 + d - 1.0]]))[0, 0]
        amps.append(amp[0])
    drop_db = 20.0 * np.log10(amps[0] / amps[1])
    assert np.isclose(drop_db, 10.0 * 3.0 * np.log10(2.0), atol=1e-9)


def test_pathloss_obstructed_antennas_zero():
    mask = np.ones(17, dtype=np.int8)
    mask[3] = 0
    cluster = make_cluster([0.0, 20.0], 17, mask=mask)
    lo = cluster[1]
    amp = pathloss(scenario_of([[cluster]]))[0, 0]
    assert amp[lo + 3] == 0.0
    visible = np.delete(np.arange(lo, lo + 17), 3)
    assert np.all(amp[visible] > 0)


def test_pathloss_out_of_vr_weaker():
    cluster = make_cluster([0.0, 20.0], 17)
    lo = cluster[1]
    amp = pathloss(scenario_of([[cluster]]))[0, 0]
    inside = amp[lo:lo + 17].min()
    outside = amp[[0, 99]].max()
    assert outside < inside


def test_pathloss_monotone_in_distance():
    geom = xl_geometry()
    cluster = make_cluster([0.0, 20.0], 100)
    amp = pathloss(scenario_of([[cluster]]))[0, 0]
    pos = antenna_positions(geom)
    d = np.hypot(pos - 0.0, 20.0)
    order = np.argsort(d)
    assert np.all(np.diff(amp[order]) <= 1e-12)


def test_cluster_channel_zero_beta():
    # a cluster obstructed on every antenna adds nothing, whatever its correlation
    geom = UlaGeometry(m=8, d_h=5.0)
    cluster = make_cluster([0.0, 20.0], 8, mask=np.zeros(8, dtype=np.int8), geom=geom)
    for kind in CLUSTER_CORRELATIONS:
        scen = scenario_of([[cluster]], geom=geom, correlation=kind)
        assert np.all(assemble_channel_matrix(scen, np.random.default_rng(7)) == 0)


def near_cluster_draws(m, rho, seed):
    """100,000 draws of one exponential cluster at ``rho``, visible on all ``m`` antennas.

    Each of 10,000 users 1.5 m from the array sees the same cluster 0.5 m
    from it, so the amplitudes vary along the array (3.6-fold at m = 8); ten
    channel matrices give the draws as columns.  Returns them with the
    amplitudes.
    """
    geom = UlaGeometry(m=m, d_h=5.0)
    cluster = make_cluster([-2.0, 0.5], m, geom=geom)
    scen = scenario_of([[cluster]] * 10_000, geom=geom, users=[[0.0, 1.5]] * 10_000,
                       correlation="exponential", rho=rho)
    rng = np.random.default_rng(seed)
    draws = np.hstack([assemble_channel_matrix(scen, rng) for _ in range(10)])
    return draws, pathloss(scen)[0, 0]


@pytest.mark.slow
def test_cluster_channel_variance():
    # rho = 0 gives R = I, taken through the correlated path
    assert np.array_equal(exponential_correlation(4, 0.0), np.eye(4))
    draws, b = near_cluster_draws(4, 0.0, 8)
    var = draws.var(axis=1)
    assert np.all(np.abs(var - b**2) < 0.05 * b**2)


@pytest.mark.slow
def test_cluster_channel_covariance_oracle():
    draws, amp = near_cluster_draws(8, 0.6, 9)
    cov = draws @ draws.conj().T / draws.shape[1]
    target = np.diag(amp) @ exponential_correlation(8, 0.6) @ np.diag(amp)
    err = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert err < 0.1


def test_user_channel_single_cluster():
    rng1 = np.random.default_rng(10)
    rng2 = np.random.default_rng(10)
    scen = build_scenario("scheme1", 1, 1, np.random.default_rng(11))
    (h,) = assemble_channel_matrix(scen, rng1).T
    ref = ref_cluster_channel(pathloss(scen)[0, 0], None, rng2)
    assert np.array_equal(h, ref)


def test_user_channel_variance_doubles_with_identical_clusters():
    rng = np.random.default_rng(12)
    one = build_scenario("scheme1", 1, 1, np.random.default_rng(13))
    scen = dataclasses.replace(one, centers=np.repeat(one.centers, 2, axis=1),
                               vr=np.repeat(one.vr, 2, axis=1),
                               vr_center=np.repeat(one.vr_center, 2, axis=1))
    n = 20_000
    v2 = np.var([assemble_channel_matrix(scen, rng)[50, 0] for _ in range(n)])
    v1 = np.var([assemble_channel_matrix(one, rng)[50, 0] for _ in range(n)])
    assert abs(v2 / v1 - 2.0) < 0.15


def test_fully_obstructed_user_zero():
    scen = build_scenario("scheme1", 1, 1, np.random.default_rng(14))
    scen.vr[0, 0] = -1       # the VR spans the whole array, every antenna obstructed
    h = assemble_channel_matrix(scen, np.random.default_rng(15))
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
    left = make_cluster([-28.0, 20.0], 10)
    right = make_cluster([28.0, 20.0], 10)
    scen = scenario_of([[left], [right]])
    monkeypatch.setattr(xlmimo, "ALPHA_NVR", np.inf)
    h = assemble_channel_matrix(scen, np.random.default_rng(18))
    s0 = set(np.flatnonzero(np.abs(h[:, 0])))
    s1 = set(np.flatnonzero(np.abs(h[:, 1])))
    assert s0 and s1 and not (s0 & s1)


def test_cluster_correlation_kinds():
    rng = np.random.default_rng(19)
    for kind in ("uncorrelated", "exponential", "onering"):
        scen = build_scenario("scheme1", 1, 1, rng, correlation=kind)
        r = cluster_correlation_matrix(scen, 0, 0)
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
    for c, a in enumerate(pathloss(scen)[k]):
        r = cluster_correlation_matrix(scen, k, c)
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
    one_user = dataclasses.replace(scen, users=scen.users[:1], centers=scen.centers[:1],
                                   vr=scen.vr[:1], vr_center=scen.vr_center[:1])
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
