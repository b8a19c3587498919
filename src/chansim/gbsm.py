"""Geometry-based stochastic channel models (GBSM).

Spatial correlation matrices for one-ring (uniform) and Gaussian local
scattering, over uniform linear (2-D) and uniform planar (3-D) arrays.
Each GBSM is an angle measure plus an assembly.  The measure is a set of
angles with positive weights summing to 1, from :func:`onering_nodes` or
:func:`gaussian_nodes` on :func:`sized_quadrature` Gauss-Legendre nodes;
a planar array takes the outer product of two.  The assembly A diag(w) A^H
of steering vectors is Hermitian PSD by construction.  The quadrature ULA
builders form that product directly; the UPA builder and the closed-form
Gaussian ULA kernel take their sum once per index lag and gather the M x M
matrix from the lag table.  The UPA builder raises one unit-lag phase per
angle node to each horizontal lag by repeated products: N^2 exponentials
plus M_H * N^2 complex products per build.

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
MAX_QUAD_NODES = 4001   # the cap of sized_quadrature
# Elevation columns per block of the planar lag-table sum.
_EL_BLOCK = 32
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
    """Gauss-Legendre node count per dimension (:func:`sized_quadrature` sizes it to a window)."""

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


def _nodes_needed(spread: float, d: float, m: int) -> float:
    # Heuristic: the integrand oscillates ~ spread * d * M times over the
    # window; fewer than 4 nodes per characteristic scale is suspect.
    return 4.0 * spread * d * m


def sized_quadrature(spread: float, d: float, m: int) -> QuadratureConfig:
    """Nodes for a window of half-width ``spread`` on ``m`` antennas ``d`` apart, capped."""
    needed = int(np.ceil(_nodes_needed(spread, d, m))) + 1
    return QuadratureConfig(nodes_per_dim=min(max(DEFAULT_NODES, needed), MAX_QUAD_NODES))


def _warn_if_coarse(nodes: int, spread: float, d_h: float, m: int):
    if nodes < _nodes_needed(spread, d_h, m):
        warnings.warn(
            f"{nodes} quadrature nodes may be too few for spread={spread:.3g} rad, "
            f"d_H={d_h}, M={m}",
            QuadratureWarning,
            stacklevel=3,
        )


def onering_nodes(phi: float, delta: float, quad: QuadratureConfig):
    """(angles, weights) uniform on [phi - delta, phi + delta]; delta = 0 is the one node phi."""
    if delta == 0:
        return np.array([phi]), np.array([1.0])
    x, w = _leggauss(quad.nodes_per_dim)
    # (1 / 2 Delta) * integral over [-Delta, Delta]: the Delta scale cancels.
    return phi + delta * x, w / 2.0


def gaussian_nodes(phi: float, sigma: float, quad: QuadratureConfig):
    """(angles, weights) of phi + N(0, sigma^2); sigma = 0 is the one node phi.

    The ULA and UPA models share this kernel exp(-delta^2 / 2 sigma^2), cut at
    +/- GAUSSIAN_TRUNCATION * sigma and renormalized, so a diagonal equals beta.
    """
    if sigma == 0:
        return np.array([phi]), np.array([1.0])
    x, w = _leggauss(quad.nodes_per_dim)
    delta = GAUSSIAN_TRUNCATION * sigma * x
    weights = w * np.exp(-delta**2 / (2.0 * sigma**2))
    return phi + delta, weights / weights.sum()


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
    _warn_if_coarse(quad.nodes_per_dim, delta_phi, geom.d_h, geom.m)
    return _ula_from_angles(geom, *onering_nodes(phi, delta_phi, quad), beta)


def gaussian_ula_numeric(geom: UlaGeometry, *, phi: float, sigma_phi: float, beta: float = 1.0,
                         quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Gaussian local scattering for a ULA, by quadrature of :func:`gaussian_nodes`."""
    _check_nonnegative(beta, sigma_phi=sigma_phi)
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * sigma_phi, geom.d_h, geom.m)
    return _ula_from_angles(geom, *gaussian_nodes(phi, sigma_phi, quad), beta)


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
    A diag(W) A^H, so R stays PSD by construction, and L[-dy, -dz] =
    conj(L[dy, dz]) makes R exactly Hermitian.

    The horizontal factor of lag dy is the dy-th power of the unit-lag
    phase e_ij = exp(i u_ij), so the azimuth sum carries W_ij e_ij^dy from
    one lag to the next: N_az * N_el exponentials plus M_H * N_az * N_el
    complex products, taken ``_EL_BLOCK`` elevation columns at a time to
    keep the temporaries small.  Both this and a direct exp(i dy u_ij)
    inherit dy times the rounding of u_ij.  On top, the carried product
    gains about one rounding per lag, the direct form one that grows with
    its phase |dy u_ij|, so the recurrence is the more accurate at wide
    spacings.  Against a 30-digit sum at M_H = 20 (one-ring, 21 nodes)
    the recurrence is off by 2.5e-16 at d_H = 0.5 and 2.6e-15 at d_H = 10,
    the direct form by 3.0e-16 and 3.2e-15.
    """
    m_h, m_v = geom.m_h, geom.m_v
    sin_az = np.sin(az)
    s = np.empty((m_h, el.size), dtype=complex)
    for j in range(0, el.size, _EL_BLOCK):
        cols = slice(j, j + _EL_BLOCK)
        # e_ij: the horizontal phase of one unit lag at each node of the block.
        step = np.exp(1j * (2.0 * np.pi * geom.d_h * np.outer(sin_az, np.cos(el[cols]))))
        term = weights[:, cols].astype(complex)   # W_ij e_ij^dy, from dy = 0
        s[0, cols] = np.sum(term, axis=0)
        for dy in range(1, m_h):
            term *= step
            s[dy, cols] = np.sum(term, axis=0)
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
    az, w_az = onering_nodes(phi, delta_phi, quad)
    el, w_el = onering_nodes(theta, delta_theta, quad)
    return _upa_from_angles(geom, az, el, np.outer(w_az, w_el), beta)


def gaussian_upa(geom: UpaGeometry, *, phi: float, theta: float, sigma_phi: float,
                 sigma_theta: float, beta: float = 1.0,
                 quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """3-D Gaussian local scattering for a UPA: :func:`gaussian_nodes` on each axis."""
    _check_nonnegative(beta, sigma_phi=sigma_phi, sigma_theta=sigma_theta)
    if sigma_phi <= 0 or sigma_theta <= 0:
        raise InvalidParam("UPA Gaussian model needs sigma_phi > 0 and sigma_theta > 0")
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * sigma_phi, geom.d_h, geom.m_h)
    _warn_if_coarse(quad.nodes_per_dim, GAUSSIAN_TRUNCATION * sigma_theta, geom.d_v, geom.m_v)
    az, w_az = gaussian_nodes(phi, sigma_phi, quad)
    el, w_el = gaussian_nodes(theta, sigma_theta, quad)
    return _upa_from_angles(geom, az, el, np.outer(w_az, w_el), beta)
