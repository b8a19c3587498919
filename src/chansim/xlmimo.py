"""Non-stationary XL-MIMO channel construction.

Pipeline: place clusters (two placement schemes), generate a visibility
region (VR) per cluster with a two-state obstruction chain, compute
per-antenna path loss with separate exponents inside and outside the VR,
then assemble each user's channel as the sum over clusters of the
Hadamard product between the path-loss amplitude vector and a spatially
correlated small-scale fading draw.

The array lies on the x-axis, centered at the origin.  Cluster and user
positions are 2-D coordinates in meters; the azimuth convention is
phi = 0 at broadside (the +y direction), so sin(phi) spans the array axis.

Module constants fix the rest: a 0.125 m wavelength, 5-wavelength spacing,
users 40 m out on broadside, and the path-loss law (L0_DB, D0, ALPHA_VR,
ALPHA_NVR, NORMALIZATION).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cbsm import exponential_correlation
from .errors import InvalidParam
from .gbsm import QuadratureConfig, UlaGeometry, onering_ula
from .linalg import psd_sqrt, complex_gaussian

# Fixed values and accepted kinds of the reference XL scenario.
DEFAULT_WAVELENGTH = 0.125           # meters (2.4 GHz carrier)
VR_SPACING_WAVELENGTHS = 5.0         # d_H used by the VR construction
DEFAULT_USER_DISTANCE = 40.0         # meters, broadside
SCHEME1_ARC = (-np.pi / 3.0, np.pi / 3.0)   # scheme-1 azimuths, radians about broadside
CLUSTER_SCHEMES = ("scheme1", "scheme2")
CLUSTER_CORRELATIONS = ("uncorrelated", "exponential", "onering")

# Path loss of a cluster path of length d (meters): L0_DB - 10 alpha log10(d / D0)
# dB, with alpha = ALPHA_VR on the cluster's VR span and ALPHA_NVR outside it;
# the linear power gain is scaled by NORMALIZATION.
L0_DB = -34.53
D0 = 1.0
ALPHA_VR = 3.0
ALPHA_NVR = 6.0
NORMALIZATION = DEFAULT_USER_DISTANCE**3  # A = d_tilde^alpha_VR


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Far-field (Rayleigh) distance 2 D^2 / lambda in meters."""
    if aperture <= 0 or wavelength <= 0:
        raise InvalidParam("aperture and wavelength must be > 0")
    return 2.0 * aperture**2 / wavelength


def antenna_positions(geom: UlaGeometry) -> np.ndarray:
    """x-coordinates (meters) of the array elements, centered at the origin."""
    spacing = geom.d_h * DEFAULT_WAVELENGTH
    return (np.arange(geom.m) - (geom.m - 1) / 2.0) * spacing


@dataclass
class Cluster:
    """A scatterer cluster with its visibility region along the array."""

    center: np.ndarray          # (2,) meters
    radius: float
    vr_mask: np.ndarray         # binary, length M_VR (possibly truncated to M)
    vr_lo: int = 0              # first antenna index (0-based) of the VR span

    @property
    def vr_span(self) -> slice:
        return slice(self.vr_lo, self.vr_lo + len(self.vr_mask))

    @property
    def vr_center_antenna(self) -> int:
        return self.vr_lo + len(self.vr_mask) // 2


def sums_to_one(p0: float, p1: float) -> bool:
    """p0 + p1 == 1 as np.isclose decides it by default: |s - 1| <= 1e-8 + 1e-5, NaN false."""
    return abs(p0 + p1 - 1.0) <= 1e-8 + 1e-5


def vr_mask_chain(m_vr: int, p0: float, p1: float, c: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Binary visibility mask from the two-state obstruction chain.

    After a visible antenna the probability vector resets to [p0, p1]
    (obstructed, visible).  After an obstructed antenna it becomes
    [p1 - i, p0 + i] with i growing by c per consecutive obstructed
    antenna, clamped to [0, 1]; the initial state is equiprobable.

    The counter starts at i = 0 on the first obstructed antenna of a run
    (after a visible antenna, or at the start of the mask): the k-th
    obstructed antenna in a row is followed by a visible one with
    probability min(1, p0 + (k - 1) c).  Only the visible-to-visible step
    keeps a mask all visible, so P(all m_vr visible) = P(first visible) *
    p1^(m_vr - 1) = p1^(m_vr - 1) / 2.
    """
    if not sums_to_one(p0, p1):
        raise InvalidParam(f"p0 + p1 must equal 1, got {p0 + p1}")
    if not 0.0 <= c <= 1.0:
        raise InvalidParam(f"c must be in [0, 1], got {c}")
    if m_vr < 1:
        raise InvalidParam(f"mask length must be >= 1, got {m_vr}")
    mask = np.zeros(m_vr, dtype=np.int8)
    # One array draw gives the same m_vr + 1 uniforms as one scalar draw each.
    u = rng.random(m_vr + 1)
    visible = int(u[0] < 0.5)
    i = 0.0
    for n in range(m_vr):
        mask[n] = visible
        if visible:
            p_visible = p1
            i = 0.0
        elif p1 - i >= 0:
            p_visible = p0 + i
            i += c
        else:
            p_visible = 1.0
        visible = int(u[n + 1] < min(p_visible, 1.0))
    return mask


def place_clusters(scheme: str, num_users: int, clusters_per_user: int,
                   r_bounds: tuple[float, float], rng: np.random.Generator,
                   array_length: float, d1: float = 35.0,
                   d2: float = 20.0) -> list[list[tuple[np.ndarray, float]]]:
    """Cluster centers and radii for each user, without visibility data.

    Scheme 1 puts every cluster at distance ``d1`` from the array center,
    with azimuth uniform over ``SCHEME1_ARC``, +/-60 degrees about
    broadside.  Scheme 2 puts clusters on a line parallel to the array at
    perpendicular distance ``d2``, horizontal coordinate uniform over the
    array extent.

    Returns a list (per user) of (center, radius) pairs; visibility masks
    and VR positions are attached by the scenario builder.
    """
    if scheme not in CLUSTER_SCHEMES:
        raise InvalidParam(f"unknown cluster scheme {scheme!r}")
    if d1 <= 0 or d2 <= 0:
        raise InvalidParam("cluster distances must be > 0")
    if clusters_per_user < 1:
        raise InvalidParam(f"clusters_per_user must be >= 1, got {clusters_per_user}")
    r_min, r_max = r_bounds
    if not 0 < r_min <= r_max:
        raise InvalidParam(f"invalid radius bounds {r_bounds}")
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
            per_user.append((center, rng.uniform(r_min, r_max)))
        out.append(per_user)
    return out


def position_vr(center: np.ndarray, m_vr: int, geom: UlaGeometry) -> int:
    """First antenna index (0-based) of a VR of length ``m_vr``.

    The span is centered on the antenna nearest the orthogonal projection
    of the cluster center onto the array line, shifted inward (not shrunk)
    when it would overhang an array edge.
    """
    positions = antenna_positions(geom)
    nearest = int(np.argmin(np.abs(positions - center[0])))
    lo = nearest - (m_vr - 1) // 2
    return max(0, min(lo, geom.m - m_vr))


def pathloss_per_antenna(cluster: Cluster, user: np.ndarray,
                         geom: UlaGeometry) -> np.ndarray:
    """Per-antenna linear amplitude gains for one cluster-user link.

    d(n) is the cluster-to-antenna distance plus the user-to-cluster
    distance.  Antennas inside the positioned VR span use ``ALPHA_VR`` (with
    amplitude zero where the mask marks an obstruction); antennas outside
    use ``ALPHA_NVR``.  ``NORMALIZATION`` enters as a linear power factor.
    """
    positions = antenna_positions(geom)
    cx, cy = cluster.center
    d = np.hypot(positions - cx, cy) + np.hypot(cx - user[0], cy - user[1])
    if np.any(d < D0):
        warnings.warn("link distance below reference distance, clamping", stacklevel=2)
        d = np.maximum(d, D0)
    alpha = np.full(geom.m, ALPHA_NVR)
    alpha[cluster.vr_span] = ALPHA_VR
    loss_db = L0_DB - 10.0 * alpha * np.log10(d / D0)
    amp = np.sqrt(10.0 ** (loss_db / 10.0) * NORMALIZATION)
    obstructed = np.zeros(geom.m, dtype=bool)
    obstructed[cluster.vr_span] = cluster.vr_mask == 0
    amp[obstructed] = 0.0
    return amp


# Antenna spacing (wavelengths) inside the cluster correlation model: the
# stationary-model value 0.5, kept even though the physical XL array is
# 5-wavelength spaced, since the correlation matrices are built like the
# stationary case.
CLUSTER_CORR_SPACING = 0.5
CLUSTER_CORR_QUADRATURE = QuadratureConfig(nodes_per_dim=101)


@dataclass
class XlScenario:
    """One realization of the XL-MIMO geometry: users, clusters, correlation kind."""

    geometry: UlaGeometry
    users: np.ndarray                       # (K, 2) meters
    clusters: list[list[Cluster]]           # per user
    correlation: str                        # one of CLUSTER_CORRELATIONS
    rho: float                              # exponential correlation coefficient
    delta: float                            # one-ring angular spread, radians

    @property
    def num_users(self) -> int:
        return len(self.users)


def build_scenario(scheme: str, num_users: int, clusters_per_user: int,
                   rng: np.random.Generator, m: int = 100,
                   correlation: str = "uncorrelated", rho: float = 0.5,
                   delta: float = np.radians(10.0),
                   r_bounds: tuple[float, float] = (5.0, 10.0),
                   p0: float = 0.05, p1: float = 0.95, c: float = 0.05,
                   d1: float = 35.0, d2: float = 20.0) -> XlScenario:
    """Draw one complete scenario: cluster placement, radii, VR masks, spans.

    ``m`` antennas are spaced 5 wavelengths of 0.125 m (2.4 GHz), every user
    sits 40 m out on broadside, and path loss follows ``L0_DB``, ``D0``,
    ``ALPHA_VR``, ``ALPHA_NVR`` and ``NORMALIZATION``.  The exponential
    ``correlation`` reads ``rho``; the one-ring one reads ``delta`` (radians).
    """
    if correlation not in CLUSTER_CORRELATIONS:
        raise InvalidParam(f"unknown correlation kind {correlation!r}")
    geometry = UlaGeometry(m=m, d_h=VR_SPACING_WAVELENGTHS)
    users = np.tile([0.0, DEFAULT_USER_DISTANCE], (num_users, 1))
    l_bs = (m - 1) * VR_SPACING_WAVELENGTHS * DEFAULT_WAVELENGTH
    placed = place_clusters(scheme, num_users, clusters_per_user, r_bounds, rng, l_bs,
                            d1=d1, d2=d2)
    clusters: list[list[Cluster]] = []
    for per_user in placed:
        row = []
        for center, radius in per_user:
            # A VR as long as the array covers it all, as any VR covers one antenna (l_bs = 0).
            m_vr = m if 2.0 * radius >= l_bs else int(np.ceil(m * 2.0 * radius / l_bs))
            mask = vr_mask_chain(m_vr, p0, p1, c, rng)
            lo = position_vr(center, m_vr, geometry)
            row.append(Cluster(center=center, radius=radius, vr_mask=mask, vr_lo=lo))
        clusters.append(row)
    return XlScenario(geometry=geometry, users=users, clusters=clusters,
                      correlation=correlation, rho=rho, delta=delta)


def cluster_correlation_matrix(scenario: XlScenario, cluster: Cluster) -> np.ndarray | None:
    """Correlation matrix for one cluster, or None for the uncorrelated model."""
    m = scenario.geometry.m
    if scenario.correlation == "uncorrelated":
        return None
    if scenario.correlation == "exponential":
        return exponential_correlation(m, scenario.rho)
    positions = antenna_positions(scenario.geometry)
    vr_center = positions[cluster.vr_center_antenna]
    phi = np.arctan2(cluster.center[0] - vr_center, cluster.center[1])
    geom = UlaGeometry(m=m, d_h=CLUSTER_CORR_SPACING)
    return onering_ula(geom, phi=phi, delta_phi=scenario.delta, quad=CLUSTER_CORR_QUADRATURE)


def cluster_channel(beta: np.ndarray, r: np.ndarray | None,
                    rng: np.random.Generator) -> np.ndarray:
    """Hadamard product of the amplitude vector with a correlated CN(0, R) draw."""
    beta = np.asarray(beta, dtype=float)
    m = beta.shape[0]
    z = complex_gaussian(m, rng)
    if r is None:
        return beta * z
    if r.shape != (m, m):
        raise InvalidParam(f"correlation matrix shape {r.shape} does not match M={m}")
    return beta * (psd_sqrt(r) @ z)


def user_channel(scenario: XlScenario, k: int, rng: np.random.Generator) -> np.ndarray:
    """Channel vector of user k: sum over that user's clusters."""
    h = np.zeros(scenario.geometry.m, dtype=complex)
    for cluster in scenario.clusters[k]:
        beta = pathloss_per_antenna(cluster, scenario.users[k], scenario.geometry)
        r = cluster_correlation_matrix(scenario, cluster)
        h += cluster_channel(beta, r, rng)
    return h


def assemble_channel_matrix(scenario: XlScenario, rng: np.random.Generator) -> np.ndarray:
    """M x K channel matrix with one fresh small-scale draw per user."""
    return np.column_stack([user_channel(scenario, k, rng)
                            for k in range(scenario.num_users)])
