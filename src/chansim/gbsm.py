"""Geometry-based stochastic channel models (GBSM).

Spatial correlation matrices for one-ring (uniform) and Gaussian local
scattering, over uniform linear (2-D) and uniform planar (3-D) arrays.
Angular integrals are evaluated with Gauss-Legendre quadrature.  Every
matrix is the weighted sum A diag(w) A^H of steering vectors with positive
weights, so the output is Hermitian PSD by construction.  The quadrature
ULA builders form that product directly; the UPA builder and the
closed-form Gaussian ULA kernel take their sum once per index lag and
gather the M x M matrix from the lag table.

Each builder takes exactly the angles and gain its model reads, as keyword
arguments.  All angles are radians.  Degree-valued user input is converted
at the configuration boundary, not here.
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


def _check_nonnegative(beta: float, **spreads: float):
    for name, value in spreads.items():
        if value < 0:
            raise InvalidParam(f"{name} must be >= 0")
    if beta < 0:
        raise InvalidParam(f"beta must be >= 0, got {beta}")


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


def onering_ula(geom: UlaGeometry, *, phi: float, delta_phi: float, beta: float = 1.0,
                quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """One-ring correlation for a ULA: arrival angles uniform in [phi-Delta, phi+Delta]."""
    _check_nonnegative(beta, delta_phi=delta_phi)
    if delta_phi == 0:
        # zero spread: single plane wave from phi, rank-1 correlation
        return _ula_from_angles(geom, np.array([phi]), np.array([1.0]), beta)
    _warn_if_coarse(quad.nodes_per_dim, delta_phi, geom.d_h, geom.m)
    x, w = _leggauss(quad.nodes_per_dim)
    # (1 / 2 Delta) * integral over [-Delta, Delta]: the Delta scale cancels.
    return _ula_from_angles(geom, phi + delta_phi * x, w / 2.0, beta)


def _truncated_gaussian_nodes(sigma: float, quad: QuadratureConfig):
    x, w = _leggauss(quad.nodes_per_dim)
    half = GAUSSIAN_TRUNCATION * sigma
    delta = half * x
    pdf = np.exp(-delta**2 / (2.0 * sigma**2))
    weights = w * pdf
    return delta, weights / weights.sum()


def gaussian_ula_numeric(geom: UlaGeometry, *, phi: float, sigma_phi: float, beta: float = 1.0,
                         quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Gaussian local scattering for a ULA, by quadrature of the angular integral.

    The infinite integral is truncated at +/- GAUSSIAN_TRUNCATION * sigma
    and the weights renormalized, so the diagonal equals beta exactly.
    """
    _check_nonnegative(beta, sigma_phi=sigma_phi)
    if sigma_phi == 0:
        return _ula_from_angles(geom, np.array([phi]), np.array([1.0]), beta)
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * sigma_phi,
                    geom.d_h, geom.m)
    delta, weights = _truncated_gaussian_nodes(sigma_phi, quad)
    return _ula_from_angles(geom, phi + delta, weights, beta)


def gaussian_ula_closed(geom: UlaGeometry, *, phi: float, sigma_phi: float,
                        beta: float = 1.0) -> np.ndarray:
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
    if sigma_phi > CLOSED_FORM_MAX_ASD:
        warnings.warn(
            f"closed form is inaccurate for ASD {np.degrees(sigma_phi):.1f} deg "
            "(validity bound 15 deg)",
            ValidityWarning,
            stacklevel=2,
        )
    return gaussian_ula_shadowed(geom, np.zeros(geom.m), np.array([phi]),
                                 sigma_phi=sigma_phi, beta=beta)


def gaussian_ula_shadowed(geom: UlaGeometry, f: np.ndarray, nominal_angles: np.ndarray,
                          *, sigma_phi: float, beta: float = 1.0) -> np.ndarray:
    """Gaussian ULA correlation with shadowing and S scatterer directions.

    Entry (m, n) is beta * 10^((f_m+f_n)/10) times the average over the S
    scatterers of the closed-form Gaussian kernel at each scatterer's
    nominal angle; the scatterer angles take the place of phi.  With f = 0
    and a single scatterer at phi this reduces to :func:`gaussian_ula_closed`.
    M = len(f); ``geom`` supplies only the spacing.
    """
    _check_nonnegative(beta, sigma_phi=sigma_phi)
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise InvalidParam(f"shadow draw must be 1-D, got shape {f.shape}")
    phis = np.atleast_1d(np.asarray(nominal_angles, dtype=float))
    if phis.size < 1:
        raise InvalidParam("need at least one scatterer angle")
    # The kernel depends only on the lag m - n: take it once per lag
    # -(M-1)..M-1 and gather the M x M matrix from that row.
    k = np.arange(f.size)
    diff = np.arange(-(f.size - 1), f.size)
    acc = np.zeros(diff.size, dtype=complex)
    for phi_s in phis:
        phase = np.exp(2j * np.pi * geom.d_h * diff * np.sin(phi_s))
        damp = np.exp(-(sigma_phi**2 / 2.0)
                      * (2.0 * np.pi * geom.d_h * diff * np.cos(phi_s)) ** 2)
        acc += phase * damp
    acc = acc[k[:, None] - k[None, :] + f.size - 1]
    # Without shadowing every entry of the M x M power is exactly 1; skip it.
    shad = 10.0 ** ((f[:, None] + f[None, :]) / 10.0) if np.any(f) else 1.0
    return beta * shad * acc / phis.size


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
    """Assemble beta * sum_ij W_ij a(az_i, el_j) a(az_i, el_j)^H from a lag table.

    ``weights[i, j]`` belongs to the node (az[i], el[j]) and sums to 1.
    Entry (m, n) depends only on the index lag (dy, dz) = (p_y - p_y',
    p_z - p_z'), so the weighted sum is taken once per lag,

        L[dy, dz] = sum_ij W_ij exp(2 pi i (d_H dy cos(el_j) sin(az_i)
                                            + d_V dz sin(el_j))),

    and gathered as R = L[p_y - p_y', p_z - p_z'].  That is the same sum
    A diag(W) A^H, so R stays PSD by construction.  The azimuth sum costs
    M_H * N_az * N_el exponentials, one N_az x N_el plane at a time;
    L[-dy, -dz] = conj(L[dy, dz]) makes R exactly Hermitian.
    """
    m_h, m_v = geom.m_h, geom.m_v
    # Horizontal phase of one unit lag at every node of the grid.
    unit = 2.0 * np.pi * geom.d_h * np.outer(np.sin(az), np.cos(el))
    s = np.empty((m_h, el.size), dtype=complex)
    for dy in range(m_h):
        s[dy] = np.sum(weights * np.exp(1j * dy * unit), axis=0)
    dz = np.arange(-(m_v - 1), m_v)
    e_z = np.exp(2j * np.pi * geom.d_v * dz[:, None] * np.sin(el)[None, :])
    lag = np.empty((2 * m_h - 1, 2 * m_v - 1), dtype=complex)   # row m_h-1 is dy = 0
    lag[m_h - 1:] = s @ e_z.T
    lag[:m_h - 1] = lag[:m_h - 1:-1, ::-1].conj()
    # Mirror the dy = 0 row too, so exact symmetry does not rest on the
    # BLAS summing every column of the product in the same order.
    zero = lag[m_h - 1]
    zero[:m_v - 1] = zero[:m_v - 1:-1].conj()
    idx = np.arange(geom.m)
    p_y = idx % m_h
    p_z = idx // m_h
    r = lag[p_y[:, None] - p_y[None, :] + m_h - 1,
            p_z[:, None] - p_z[None, :] + m_v - 1]
    np.fill_diagonal(r, 1.0)
    return beta * r


def onering_upa(geom: UpaGeometry, *, phi: float, theta: float, delta_phi: float,
                delta_theta: float, beta: float = 1.0,
                quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """3-D one-ring correlation for a UPA (uniform azimuth and elevation spreads)."""
    _check_nonnegative(beta, delta_phi=delta_phi, delta_theta=delta_theta)
    if delta_phi <= 0 or delta_theta <= 0:
        raise InvalidParam("UPA one-ring model needs delta_phi > 0 and delta_theta > 0")
    _warn_if_coarse(quad.nodes_per_dim, delta_phi, geom.d_h, geom.m_h)
    _warn_if_coarse(quad.nodes_per_dim, delta_theta, geom.d_v, geom.m_v)
    x, w = _leggauss(quad.nodes_per_dim)
    az = phi + delta_phi * x
    el = theta + delta_theta * x
    w_g = np.outer(w, w) / 4.0  # (1 / 4 Delta_phi Delta_theta) absorbs both scales
    return _upa_from_angles(geom, az, el, w_g, beta)


def gaussian_upa(geom: UpaGeometry, *, phi: float, theta: float, sigma_phi: float,
                 sigma_theta: float, beta: float = 1.0,
                 quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """3-D Gaussian local scattering for a UPA.

    Uses the standard Gaussian kernel exp(-delta^2 / 2 sigma^2) on each axis
    (the decaying-exponent convention, matching the 2-D Gaussian model),
    truncated at +/- GAUSSIAN_TRUNCATION * sigma per axis and renormalized.
    """
    _check_nonnegative(beta, sigma_phi=sigma_phi, sigma_theta=sigma_theta)
    if sigma_phi <= 0 or sigma_theta <= 0:
        raise InvalidParam("UPA Gaussian model needs sigma_phi > 0 and sigma_theta > 0")
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * sigma_phi,
                    geom.d_h, geom.m_h)
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * sigma_theta,
                    geom.d_v, geom.m_v)
    d_az, w_az = _truncated_gaussian_nodes(sigma_phi, quad)
    d_el, w_el = _truncated_gaussian_nodes(sigma_theta, quad)
    return _upa_from_angles(geom, phi + d_az, theta + d_el,
                            np.outer(w_az, w_el), beta)
