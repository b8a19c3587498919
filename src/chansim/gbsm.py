"""Geometry-based stochastic channel models (GBSM).

Steering vectors and spatial correlation matrices for one-ring (uniform)
and Gaussian local scattering, over uniform linear (2-D) and uniform planar
(3-D) arrays.  Angular integrals are evaluated with Gauss-Legendre
quadrature; every matrix is assembled as A diag(w) A^H with positive
weights, so the output is Hermitian PSD by construction.

All angles are radians.  Degree-valued user input is converted at the
configuration boundary, not here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParam, QuadratureWarning, ValidityWarning

DEFAULT_NODES = 201
# Gaussian scattering integrals are truncated at +/- this many sigmas.
GAUSSIAN_TRUNCATION = 6.0

# Validity bound of the closed-form Gaussian correlation (radians).
CLOSED_FORM_MAX_ASD = np.radians(15.0)


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array: antenna count and spacing in wavelengths."""

    m: int
    d_h: float = 0.5

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParam(f"antenna count must be >= 1, got {self.m}")
        if self.d_h < 0:
            raise InvalidParam(f"antenna spacing must be >= 0, got {self.d_h}")


@dataclass(frozen=True)
class UpaGeometry:
    """Uniform planar array: horizontal/vertical counts and spacings in wavelengths."""

    m_h: int
    m_v: int
    d_h: float = 0.5
    d_v: float = 0.5

    def __post_init__(self):
        if self.m_h < 1 or self.m_v < 1:
            raise InvalidParam(f"antenna counts must be >= 1, got {self.m_h}x{self.m_v}")
        if self.d_h < 0 or self.d_v < 0:
            raise InvalidParam("antenna spacings must be >= 0")

    @property
    def m(self) -> int:
        return self.m_h * self.m_v


@dataclass(frozen=True)
class AngularSpec:
    """Angular parameters of a scattering model.

    ``phi`` / ``theta`` are the nominal azimuth / elevation AoA.  Uniform
    spreads use the half-widths ``delta_phi`` / ``delta_theta``; Gaussian
    scattering uses the angular standard deviations ``sigma_phi`` /
    ``sigma_theta``.  Shadowing and scatterer directions are not part of
    the spec: the shadowed Gaussian model takes the drawn shadow vector
    and scatterer angles as arguments.
    """

    phi: float = 0.0
    theta: float = 0.0
    delta_phi: float = 0.0
    delta_theta: float = 0.0
    sigma_phi: float = 0.0
    sigma_theta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("delta_phi", "delta_theta", "sigma_phi", "sigma_theta"):
            if getattr(self, name) < 0:
                raise InvalidParam(f"{name} must be >= 0")
        if self.beta < 0:
            raise InvalidParam(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre node count per dimension.

    Gaussian models integrate over +/- ``GAUSSIAN_TRUNCATION`` (6) sigmas
    per dimension; the node count is sized for that window.
    """

    nodes_per_dim: int = DEFAULT_NODES

    def __post_init__(self):
        if self.nodes_per_dim < 3:
            raise InvalidParam(f"nodes_per_dim must be >= 3, got {self.nodes_per_dim}")


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def steering_vector_ula(geom: UlaGeometry, angle: float, gain: complex = 1.0) -> np.ndarray:
    """ULA array response g * [1, e^{2 pi i d_H sin(angle)}, ...]^T."""
    m = np.arange(geom.m)
    return gain * np.exp(2j * np.pi * geom.d_h * m * np.sin(angle))


def _warn_if_coarse(nodes: int, spread: float, d_h: float, m: int):
    # Heuristic: the integrand oscillates ~ spread * d_H * M times over the
    # window; fewer than 4 nodes per characteristic scale is suspect.
    if nodes < 4 * spread * d_h * m:
        warnings.warn(
            f"{nodes} quadrature nodes may be too few for spread={spread:.3g} rad, "
            f"d_H={d_h}, M={m}",
            QuadratureWarning,
            stacklevel=3,
        )


def _ula_from_angles(geom: UlaGeometry, angles: np.ndarray, weights: np.ndarray,
                     beta: float) -> np.ndarray:
    """Assemble beta * sum_j w_j a(angle_j) a(angle_j)^H with sum(w) == 1."""
    m = np.arange(geom.m)
    a = np.exp(2j * np.pi * geom.d_h * m[:, None] * np.sin(angles)[None, :])
    r = (a * weights) @ a.conj().T
    np.fill_diagonal(r, 1.0)
    return beta * r


def onering_ula(geom: UlaGeometry, ang: AngularSpec,
                quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """One-ring correlation for a ULA: arrival angles uniform in [phi-Delta, phi+Delta]."""
    if ang.delta_phi == 0:
        # zero spread: single plane wave from phi, rank-1 correlation
        return _ula_from_angles(geom, np.array([ang.phi]), np.array([1.0]), ang.beta)
    _warn_if_coarse(quad.nodes_per_dim, ang.delta_phi, geom.d_h, geom.m)
    x, w = _leggauss(quad.nodes_per_dim)
    # (1 / 2 Delta) * integral over [-Delta, Delta]: the Delta scale cancels.
    return _ula_from_angles(geom, ang.phi + ang.delta_phi * x, w / 2.0, ang.beta)


def _truncated_gaussian_nodes(sigma: float, quad: QuadratureConfig):
    x, w = _leggauss(quad.nodes_per_dim)
    half = GAUSSIAN_TRUNCATION * sigma
    delta = half * x
    pdf = np.exp(-delta**2 / (2.0 * sigma**2))
    weights = w * pdf
    return delta, weights / weights.sum()


def gaussian_ula_numeric(geom: UlaGeometry, ang: AngularSpec,
                         quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Gaussian local scattering for a ULA, by quadrature of the angular integral.

    The infinite integral is truncated at +/- GAUSSIAN_TRUNCATION * sigma
    and the weights renormalized, so the diagonal equals beta exactly.
    """
    if ang.sigma_phi == 0:
        return _ula_from_angles(geom, np.array([ang.phi]), np.array([1.0]), ang.beta)
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * ang.sigma_phi,
                    geom.d_h, geom.m)
    delta, weights = _truncated_gaussian_nodes(ang.sigma_phi, quad)
    return _ula_from_angles(geom, ang.phi + delta, weights, ang.beta)


def gaussian_ula_closed(geom: UlaGeometry, ang: AngularSpec) -> np.ndarray:
    """Closed-form small-ASD approximation of the Gaussian ULA correlation.

    Valid for angular standard deviations below about 15 degrees; larger
    values still compute but emit a validity warning so the approximation
    error itself can be studied.

    The form linearizes sin(phi + delta) ~ sin(phi) + delta cos(phi), so it
    drops the -delta^2/2 sin(phi) term.  Its largest entry error against
    the exact integral (:func:`gaussian_ula_numeric`), relative to beta,
    grows about linearly in sigma and with |sin(phi)|.  Measured at M=100,
    d_H=0.5: 0.41%, 2.1% and 4.3% at sigma = 1, 5 and 10 degrees with
    phi = 30 degrees; 0.6% and 13% at sigma = 10 degrees with phi = 0 and
    phi = 60 degrees.
    """
    if ang.sigma_phi > CLOSED_FORM_MAX_ASD:
        warnings.warn(
            f"closed form is inaccurate for ASD {np.degrees(ang.sigma_phi):.1f} deg "
            "(validity bound 15 deg)",
            ValidityWarning,
            stacklevel=2,
        )
    return gaussian_ula_shadowed(geom, ang, np.zeros(geom.m), np.array([ang.phi]))


def gaussian_ula_shadowed(geom: UlaGeometry, ang: AngularSpec, f: np.ndarray,
                          nominal_angles: np.ndarray) -> np.ndarray:
    """Gaussian ULA correlation with shadowing and S scatterer directions.

    Entry (m, n) is beta * 10^((f_m+f_n)/10) times the average over the S
    scatterers of the closed-form Gaussian kernel at each scatterer's
    nominal angle.  With f = 0 and a single scatterer at phi this reduces
    to :func:`gaussian_ula_closed`.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (geom.m,):
        raise InvalidParam(f"shadow draw must have length {geom.m}, got shape {f.shape}")
    phis = np.atleast_1d(np.asarray(nominal_angles, dtype=float))
    if phis.size < 1:
        raise InvalidParam("need at least one scatterer angle")
    k = np.arange(geom.m)
    diff = k[:, None] - k[None, :]
    acc = np.zeros((geom.m, geom.m), dtype=complex)
    for phi_s in phis:
        phase = np.exp(2j * np.pi * geom.d_h * diff * np.sin(phi_s))
        damp = np.exp(-(ang.sigma_phi**2 / 2.0)
                      * (2.0 * np.pi * geom.d_h * diff * np.cos(phi_s)) ** 2)
        acc += phase * damp
    # Without shadowing every entry of the M x M power is exactly 1; skip it.
    shad = 10.0 ** ((f[:, None] + f[None, :]) / 10.0) if np.any(f) else 1.0
    return ang.beta * shad * acc / phis.size


def draw_scatterer_angles(s: int, rng: np.random.Generator) -> np.ndarray:
    """S scatterer nominal angles, uniform over [0, 2 pi) (drawn once per trial)."""
    if s < 1:
        raise InvalidParam(f"need s >= 1 scatterers, got {s}")
    return rng.uniform(0.0, 2.0 * np.pi, size=s)


def upa_antenna_index(geom: UpaGeometry, m: int) -> tuple[int, int]:
    """Horizontal and vertical grid index (p_y, p_z) of 1-based antenna m.

    Antennas are numbered row-major along the horizontal axis:
    p_y = (m-1) mod M_H, p_z = floor((m-1) / M_H).
    """
    if not 1 <= m <= geom.m:
        raise InvalidParam(f"antenna index {m} outside 1..{geom.m}")
    return (m - 1) % geom.m_h, (m - 1) // geom.m_h


def _upa_from_angles(geom: UpaGeometry, az: np.ndarray, el: np.ndarray,
                     weights: np.ndarray, beta: float) -> np.ndarray:
    """Assemble the UPA correlation from flattened angle grids (sum(w) == 1)."""
    idx = np.arange(geom.m)
    p_y = idx % geom.m_h
    p_z = idx // geom.m_h
    # Chunk over quadrature nodes to bound the steering-matrix size.
    r = np.zeros((geom.m, geom.m), dtype=complex)
    chunk = max(1, 4_000_000 // max(geom.m, 1))
    for lo in range(0, az.size, chunk):
        hi = min(lo + chunk, az.size)
        a = np.exp(
            2j * np.pi * geom.d_v * p_z[:, None] * np.sin(el[lo:hi])[None, :]
            + 2j * np.pi * geom.d_h * p_y[:, None]
            * (np.cos(el[lo:hi]) * np.sin(az[lo:hi]))[None, :]
        )
        r += (a * weights[lo:hi]) @ a.conj().T
    np.fill_diagonal(r, 1.0)
    return beta * r


def onering_upa(geom: UpaGeometry, ang: AngularSpec,
                quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """3-D one-ring correlation for a UPA (uniform azimuth and elevation spreads)."""
    if ang.delta_phi <= 0 or ang.delta_theta <= 0:
        raise InvalidParam("UPA one-ring model needs delta_phi > 0 and delta_theta > 0")
    _warn_if_coarse(quad.nodes_per_dim, ang.delta_phi, geom.d_h, geom.m_h)
    _warn_if_coarse(quad.nodes_per_dim, ang.delta_theta, geom.d_v, geom.m_v)
    x, w = _leggauss(quad.nodes_per_dim)
    az = ang.phi + ang.delta_phi * x
    el = ang.theta + ang.delta_theta * x
    az_g, el_g = np.meshgrid(az, el, indexing="ij")
    w_g = np.outer(w, w) / 4.0  # (1 / 4 Delta_phi Delta_theta) absorbs both scales
    return _upa_from_angles(geom, az_g.ravel(), el_g.ravel(), w_g.ravel(), ang.beta)


def gaussian_upa(geom: UpaGeometry, ang: AngularSpec,
                 quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """3-D Gaussian local scattering for a UPA.

    Uses the standard Gaussian kernel exp(-delta^2 / 2 sigma^2) on each axis
    (the decaying-exponent convention, matching the 2-D Gaussian model),
    truncated at +/- GAUSSIAN_TRUNCATION * sigma per axis and renormalized.
    """
    if ang.sigma_phi <= 0 or ang.sigma_theta <= 0:
        raise InvalidParam("UPA Gaussian model needs sigma_phi > 0 and sigma_theta > 0")
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * ang.sigma_phi,
                    geom.d_h, geom.m_h)
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * ang.sigma_theta,
                    geom.d_v, geom.m_v)
    d_az, w_az = _truncated_gaussian_nodes(ang.sigma_phi, quad)
    d_el, w_el = _truncated_gaussian_nodes(ang.sigma_theta, quad)
    az_g, el_g = np.meshgrid(ang.phi + d_az, ang.theta + d_el, indexing="ij")
    w_g = np.outer(w_az, w_el)
    return _upa_from_angles(geom, az_g.ravel(), el_g.ravel(), w_g.ravel(), ang.beta)
