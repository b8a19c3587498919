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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cbsm import ExponentialSpec, exponential_correlation
from .errors import InvalidParam
from .gbsm import AngularSpec, QuadratureConfig, UlaGeometry, onering_ula
from .linalg import psd_sqrt, complex_gaussian

# Fixed values and accepted kinds of the reference XL scenario.
DEFAULT_WAVELENGTH = 0.125           # meters (2.4 GHz carrier)
VR_SPACING_WAVELENGTHS = 5.0         # d_H used by the VR construction
DEFAULT_USER_DISTANCE = 40.0         # meters, broadside
SCHEME1_ARC = (-np.pi / 3.0, np.pi / 3.0)   # scheme-1 azimuths, radians about broadside
CLUSTER_SCHEMES = ("scheme1", "scheme2")
CLUSTER_CORRELATIONS = ("uncorrelated", "exponential", "onering")


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Far-field (Rayleigh) distance 2 D^2 / lambda in meters."""
    if aperture <= 0 or wavelength <= 0:
        raise InvalidParam("aperture and wavelength must be > 0")
    return 2.0 * aperture**2 / wavelength


def antenna_positions(geom: UlaGeometry, wavelength: float) -> np.ndarray:
    """x-coordinates (meters) of the array elements, centered at the origin."""
    spacing = geom.d_h * wavelength
    return (np.arange(geom.m) - (geom.m - 1) / 2.0) * spacing


@dataclass(frozen=True)
class ClusterScheme:
    """Cluster placement rule.

    Scheme 1 puts every cluster at distance ``d1`` from the array center,
    with azimuth uniform over ``SCHEME1_ARC``, +/-60 degrees about
    broadside.  Scheme 2 puts clusters on a line parallel to the array at
    perpendicular distance ``d2``, horizontal coordinate uniform over the
    array extent.
    """

    kind: str
    d1: float = 35.0
    d2: float = 20.0

    def __post_init__(self):
        if self.kind not in CLUSTER_SCHEMES:
            raise InvalidParam(f"unknown cluster scheme {self.kind!r}")
        if self.d1 <= 0 or self.d2 <= 0:
            raise InvalidParam("cluster distances must be > 0")


@dataclass(frozen=True)
class PathlossParams:
    """Distance-dependent loss model: reference gain, exponents, normalization."""

    l0_db: float = -34.53
    d0: float = 1.0
    alpha_vr: float = 3.0
    alpha_nvr: float = 6.0
    normalization: float = DEFAULT_USER_DISTANCE**3  # A = d_tilde^alpha_VR

    def __post_init__(self):
        if self.d0 <= 0:
            raise InvalidParam(f"reference distance must be > 0, got {self.d0}")
        if not self.alpha_nvr >= self.alpha_vr > 0:
            raise InvalidParam("need alpha_nvr >= alpha_vr > 0")
        if self.normalization < 0:
            raise InvalidParam("normalization gain must be >= 0")


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
    if not np.isclose(p0 + p1, 1.0):
        raise InvalidParam(f"p0 + p1 must equal 1, got {p0 + p1}")
    if not 0.0 <= c <= 1.0:
        raise InvalidParam(f"c must be in [0, 1], got {c}")
    if m_vr < 1:
        raise InvalidParam(f"mask length must be >= 1, got {m_vr}")
    mask = np.zeros(m_vr, dtype=np.int8)
    visible = int(rng.random() < 0.5)
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
        visible = int(rng.random() < min(p_visible, 1.0))
    return mask


def place_clusters(scheme: ClusterScheme, num_users: int, clusters_per_user: int,
                   r_bounds: tuple[float, float], rng: np.random.Generator,
                   array_length: float) -> list[list[tuple[np.ndarray, float]]]:
    """Cluster centers and radii for each user, without visibility data.

    Returns a list (per user) of (center, radius) pairs; visibility masks
    and VR positions are attached by the scenario builder.
    """
    if clusters_per_user < 1:
        raise InvalidParam(f"clusters_per_user must be >= 1, got {clusters_per_user}")
    r_min, r_max = r_bounds
    if not 0 < r_min <= r_max:
        raise InvalidParam(f"invalid radius bounds {r_bounds}")
    out = []
    for _ in range(num_users):
        per_user = []
        for _ in range(clusters_per_user):
            if scheme.kind == "scheme1":
                az = rng.uniform(*SCHEME1_ARC)
                center = np.array([scheme.d1 * np.sin(az), scheme.d1 * np.cos(az)])
            else:
                x = rng.uniform(-array_length / 2.0, array_length / 2.0)
                center = np.array([x, scheme.d2])
            per_user.append((center, rng.uniform(r_min, r_max)))
        out.append(per_user)
    return out


def position_vr(center: np.ndarray, m_vr: int, geom: UlaGeometry,
                wavelength: float) -> int:
    """First antenna index (0-based) of a VR of length ``m_vr``.

    The span is centered on the antenna nearest the orthogonal projection
    of the cluster center onto the array line, shifted inward (not shrunk)
    when it would overhang an array edge.
    """
    positions = antenna_positions(geom, wavelength)
    nearest = int(np.argmin(np.abs(positions - center[0])))
    lo = nearest - (m_vr - 1) // 2
    return max(0, min(lo, geom.m - m_vr))


def pathloss_per_antenna(cluster: Cluster, user: np.ndarray, geom: UlaGeometry,
                         params: PathlossParams,
                         wavelength: float = DEFAULT_WAVELENGTH) -> np.ndarray:
    """Per-antenna linear amplitude gains for one cluster-user link.

    d(n) is the cluster-to-antenna distance plus the user-to-cluster
    distance.  Antennas inside the positioned VR span use alpha_vr (with
    amplitude zero where the mask marks an obstruction); antennas outside
    use alpha_nvr.  The normalization gain enters as a linear power factor.
    """
    positions = antenna_positions(geom, wavelength)
    cx, cy = cluster.center
    d = np.hypot(positions - cx, cy) + np.hypot(cx - user[0], cy - user[1])
    if np.any(d < params.d0):
        warnings.warn("link distance below reference distance, clamping", stacklevel=2)
        d = np.maximum(d, params.d0)
    alpha = np.full(geom.m, params.alpha_nvr)
    alpha[cluster.vr_span] = params.alpha_vr
    loss_db = params.l0_db - 10.0 * alpha * np.log10(d / params.d0)
    amp = np.sqrt(10.0 ** (loss_db / 10.0) * params.normalization)
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


@dataclass(frozen=True)
class ClusterCorrelation:
    """Correlation model applied to each cluster's small-scale fading.

    The one-ring model is built on a ULA of 0.5-wavelength spacing
    (``CLUSTER_CORR_SPACING``) with 101 quadrature nodes
    (``CLUSTER_CORR_QUADRATURE``).
    """

    kind: str = "uncorrelated"   # one of CLUSTER_CORRELATIONS
    rho: float = 0.5
    delta: float = np.radians(10.0)

    def __post_init__(self):
        if self.kind not in CLUSTER_CORRELATIONS:
            raise InvalidParam(f"unknown correlation kind {self.kind!r}")


@dataclass
class XlScenario:
    """One realization of the XL-MIMO geometry: users, clusters, loss model."""

    geometry: UlaGeometry
    users: np.ndarray                       # (K, 2) meters
    clusters: list[list[Cluster]]           # per user
    pathloss: PathlossParams = field(default_factory=PathlossParams)
    correlation: ClusterCorrelation = field(default_factory=ClusterCorrelation)

    @property
    def num_users(self) -> int:
        return len(self.users)


def build_scenario(scheme: ClusterScheme, num_users: int, clusters_per_user: int,
                   rng: np.random.Generator,
                   geometry: UlaGeometry | None = None,
                   correlation: ClusterCorrelation | None = None,
                   r_bounds: tuple[float, float] = (5.0, 10.0),
                   p0: float = 0.05, p1: float = 0.95, c: float = 0.05) -> XlScenario:
    """Draw one complete scenario: cluster placement, radii, VR masks, spans.

    The carrier wavelength is ``DEFAULT_WAVELENGTH`` (0.125 m, 2.4 GHz),
    every user sits ``DEFAULT_USER_DISTANCE`` (40 m) out on broadside, and
    path loss is ``PathlossParams()``.
    """
    geometry = geometry or UlaGeometry(m=100, d_h=VR_SPACING_WAVELENGTHS)
    correlation = correlation or ClusterCorrelation()
    users = np.tile([0.0, DEFAULT_USER_DISTANCE], (num_users, 1))
    l_bs = (geometry.m - 1) * geometry.d_h * DEFAULT_WAVELENGTH
    placed = place_clusters(scheme, num_users, clusters_per_user, r_bounds, rng, l_bs)
    clusters: list[list[Cluster]] = []
    for per_user in placed:
        row = []
        for center, radius in per_user:
            m_vr = int(np.ceil(geometry.m * 2.0 * radius / l_bs))
            m_vr = min(m_vr, geometry.m)
            mask = vr_mask_chain(m_vr, p0, p1, c, rng)
            lo = position_vr(center, m_vr, geometry, DEFAULT_WAVELENGTH)
            row.append(Cluster(center=center, radius=radius, vr_mask=mask, vr_lo=lo))
        clusters.append(row)
    return XlScenario(geometry=geometry, users=users, clusters=clusters,
                      correlation=correlation)


def cluster_correlation_matrix(scenario: XlScenario, cluster: Cluster) -> np.ndarray | None:
    """Correlation matrix for one cluster, or None for the uncorrelated model."""
    spec = scenario.correlation
    m = scenario.geometry.m
    if spec.kind == "uncorrelated":
        return None
    if spec.kind == "exponential":
        return exponential_correlation(ExponentialSpec(m=m, rho=spec.rho))
    positions = antenna_positions(scenario.geometry, DEFAULT_WAVELENGTH)
    vr_center = positions[cluster.vr_center_antenna]
    phi = np.arctan2(cluster.center[0] - vr_center, cluster.center[1])
    geom = UlaGeometry(m=m, d_h=CLUSTER_CORR_SPACING)
    ang = AngularSpec(phi=phi, delta_phi=spec.delta)
    return onering_ula(geom, ang, CLUSTER_CORR_QUADRATURE)


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
        beta = pathloss_per_antenna(cluster, scenario.users[k], scenario.geometry,
                                    scenario.pathloss)
        r = cluster_correlation_matrix(scenario, cluster)
        h += cluster_channel(beta, r, rng)
    return h


def assemble_channel_matrix(scenario: XlScenario, rng: np.random.Generator) -> np.ndarray:
    """M x K channel matrix with one fresh small-scale draw per user."""
    return np.column_stack([user_channel(scenario, k, rng)
                            for k in range(scenario.num_users)])
