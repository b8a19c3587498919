"""Non-stationary XL-MIMO channel construction.

Pipeline: place clusters (two placement schemes), generate a visibility
region (VR) per cluster with a two-state obstruction chain, compute
per-antenna path loss with separate exponents inside and outside the VR,
then assemble each user's channel as the sum over clusters of the
Hadamard product between the path-loss amplitude vector and a spatially
correlated small-scale fading draw.

A scenario holds K users' C clusters as (K, C, ...) arrays, built by array
expressions; only the VR chains and cluster correlations run per cluster.

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
from functools import lru_cache

import numpy as np

from .cbsm import exponential_correlation
from .errors import InvalidParam
from .gbsm import QuadratureConfig, UlaGeometry, onering_ula
from .linalg import psd_sqrt

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


@lru_cache(maxsize=8)
def antenna_positions(geom: UlaGeometry) -> np.ndarray:
    """x-coordinates (meters) of the array elements, centered at the origin.

    Computed once per geometry (UlaGeometry is frozen, so it keys the cache)
    and returned read-only, since every caller shares the one array.
    """
    spacing = geom.d_h * DEFAULT_WAVELENGTH
    positions = (np.arange(geom.m) - (geom.m - 1) / 2.0) * spacing
    positions.flags.writeable = False
    return positions


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
                   d2: float = 20.0) -> tuple[np.ndarray, np.ndarray]:
    """Cluster centers (K, C, 2) and radii (K, C), without visibility data.

    Scheme 1 puts every cluster at distance ``d1`` from the array center,
    with azimuth uniform over ``SCHEME1_ARC``, +/-60 degrees about
    broadside.  Scheme 2 puts clusters on a line parallel to the array at
    perpendicular distance ``d2``, horizontal coordinate uniform over the
    array extent.

    One draw gives each cluster its (azimuth or x, radius) pair, in user
    then cluster order: the same doubles as one scalar draw each.
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
    lo, hi = SCHEME1_ARC if scheme == "scheme1" else (-array_length / 2.0, array_length / 2.0)
    draws = rng.uniform((lo, r_min), (hi, r_max), size=(num_users, clusters_per_user, 2))
    where, radii = draws[..., 0], draws[..., 1]
    if scheme == "scheme1":
        centers = np.stack([d1 * np.sin(where), d1 * np.cos(where)], axis=-1)
    else:
        centers = np.stack([where, np.full_like(where, d2)], axis=-1)
    return centers, radii


def position_vr(center: np.ndarray, m_vr: int | np.ndarray, geom: UlaGeometry) -> np.ndarray:
    """First antenna index (0-based) of each VR of length ``m_vr``.

    The span is centered on the antenna nearest the orthogonal projection
    of the cluster center onto the array line, shifted inward (not shrunk)
    when it would overhang an array edge.  ``center[..., :2]`` and ``m_vr`` broadcast.
    """
    positions = antenna_positions(geom)
    nearest = np.argmin(np.abs(positions - center[..., 0, None]), axis=-1)
    lo = nearest - (m_vr - 1) // 2
    return np.maximum(0, np.minimum(lo, geom.m - m_vr))


# Antenna spacing (wavelengths) inside the cluster correlation model: the
# stationary-model value 0.5, kept even though the physical XL array is
# 5-wavelength spaced, since the correlation matrices are built like the
# stationary case.
CLUSTER_CORR_SPACING = 0.5
CLUSTER_CORR_QUADRATURE = QuadratureConfig(nodes_per_dim=101)


@dataclass
class XlScenario:
    """One realization of the XL-MIMO geometry: K users, C clusters each, correlation kind."""

    geometry: UlaGeometry
    users: np.ndarray                       # (K, 2) meters
    centers: np.ndarray                     # (K, C, 2) meters
    vr: np.ndarray                          # (K, C, M) int8: 0 outside the VR span,
                                            # 1 visible, -1 obstructed
    vr_center: np.ndarray                   # (K, C) antenna in the middle of the span
    correlation: str                        # one of CLUSTER_CORRELATIONS
    rho: float                              # exponential correlation coefficient
    delta: float                            # one-ring angular spread, radians


def build_scenario(scheme: str, num_users: int, clusters_per_user: int,
                   rng: np.random.Generator, m: int = 100,
                   correlation: str = "uncorrelated", rho: float = 0.5,
                   delta: float = np.radians(10.0),
                   r_bounds: tuple[float, float] = (5.0, 10.0),
                   p0: float = 0.05, p1: float = 0.95, c: float = 0.05,
                   d1: float = 35.0, d2: float = 20.0) -> XlScenario:
    """Draw one complete scenario: one placement draw, then a VR chain per cluster.

    ``m`` antennas are spaced 5 wavelengths of 0.125 m (2.4 GHz), every user
    sits 40 m out on broadside, and path loss follows ``L0_DB``, ``D0``,
    ``ALPHA_VR``, ``ALPHA_NVR`` and ``NORMALIZATION``.  The exponential
    ``correlation`` reads ``rho``; the one-ring one reads ``delta`` (radians).
    Spans are placed as (K, C) arrays; their chains run in user-then-cluster order.
    """
    if correlation not in CLUSTER_CORRELATIONS:
        raise InvalidParam(f"unknown correlation kind {correlation!r}")
    geometry = UlaGeometry(m=m, d_h=VR_SPACING_WAVELENGTHS)
    users = np.tile([0.0, DEFAULT_USER_DISTANCE], (num_users, 1))
    l_bs = (m - 1) * VR_SPACING_WAVELENGTHS * DEFAULT_WAVELENGTH
    centers, radii = place_clusters(scheme, num_users, clusters_per_user, r_bounds, rng, l_bs,
                                    d1=d1, d2=d2)
    # A VR as long as the array covers it all, as any VR covers one antenna (l_bs = 0);
    # only the shorter ones divide by l_bs, which is then > 0.
    m_vr = np.full(radii.shape, m)
    short = 2.0 * radii < l_bs
    m_vr[short] = np.ceil(m * 2.0 * radii[short] / l_bs)
    lo = position_vr(centers, m_vr, geometry)
    vr_center = lo + m_vr // 2
    vr = np.zeros(radii.shape + (m,), dtype=np.int8)
    for k, j in np.ndindex(radii.shape):
        mask = vr_mask_chain(m_vr[k, j], p0, p1, c, rng)
        vr[k, j, lo[k, j]:lo[k, j] + m_vr[k, j]] = 2 * mask - 1
    return XlScenario(geometry=geometry, users=users, centers=centers, vr=vr,
                      vr_center=vr_center, correlation=correlation, rho=rho, delta=delta)


def pathloss(scenario: XlScenario) -> np.ndarray:
    """Per-antenna linear amplitude gains (K, C, M) of every cluster-user link.

    d(n) is the cluster-to-antenna distance plus the user-to-cluster
    distance.  Antennas inside a VR span use ``ALPHA_VR`` (with amplitude
    zero where the chain marked an obstruction); antennas outside use
    ``ALPHA_NVR``.  ``NORMALIZATION`` enters as a linear power factor.
    Links shorter than ``D0`` are clamped to it, with one warning per call.
    """
    positions = antenna_positions(scenario.geometry)
    cx, cy = scenario.centers[..., 0, None], scenario.centers[..., 1, None]
    ux, uy = scenario.users[:, None, None, 0], scenario.users[:, None, None, 1]
    d = np.hypot(positions - cx, cy) + np.hypot(cx - ux, cy - uy)
    if np.any(d < D0):
        warnings.warn("link distance below reference distance, clamping", stacklevel=2)
        d = np.maximum(d, D0)
    alpha = np.where(scenario.vr != 0, ALPHA_VR, ALPHA_NVR)
    loss_db = L0_DB - 10.0 * alpha * np.log10(d / D0)
    amp = np.sqrt(10.0 ** (loss_db / 10.0) * NORMALIZATION)
    amp[scenario.vr < 0] = 0.0
    return amp


def cluster_correlation_matrix(scenario: XlScenario, k: int, c: int) -> np.ndarray | None:
    """Correlation matrix for user k's cluster c, or None for the uncorrelated model."""
    m = scenario.geometry.m
    if scenario.correlation == "uncorrelated":
        return None
    if scenario.correlation == "exponential":
        return exponential_correlation(m, scenario.rho)
    positions = antenna_positions(scenario.geometry)
    vr_center = positions[scenario.vr_center[k, c]]
    cx, cy = scenario.centers[k, c]
    phi = np.arctan2(cx - vr_center, cy)
    geom = UlaGeometry(m=m, d_h=CLUSTER_CORR_SPACING)
    return onering_ula(geom, phi=phi, delta_phi=scenario.delta, quad=CLUSTER_CORR_QUADRATURE)


def assemble_channel_matrix(scenario: XlScenario, rng: np.random.Generator) -> np.ndarray:
    """M x K channel matrix: column k sums user k's clusters, each with a fresh draw.

    One draw gives every cluster's CN(0, I) fading z, the same doubles as a
    draw per cluster in user-then-cluster order; a correlated one takes sqrt(R) z.
    """
    amp = pathloss(scenario)
    num_users, clusters, m = amp.shape
    x = rng.standard_normal((num_users, clusters, 2, m))
    z = (x[:, :, 0] + 1j * x[:, :, 1]) / np.sqrt(2.0)
    del x
    h = np.zeros((m, num_users), dtype=complex)
    for k, c in np.ndindex(num_users, clusters):
        r = cluster_correlation_matrix(scenario, k, c)
        fading = z[k, c] if r is None else psd_sqrt(r) @ z[k, c]
        h[:, k] += amp[k, c] * fading
    return h
