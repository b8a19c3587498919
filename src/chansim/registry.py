"""The model and metric registry: chansim's vocabulary in one table.

``MODELS`` maps each model to its family and correlation builder, ``METRICS``
each metric to its family and one-trial function; a metric is defined for the
models of its family.  This module imports neither the config nor the runner.
No table value is a public library function: entries call those through names
looked up at run time, so wrappers that rebind module names see every call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import cbsm, gbsm, metrics, precoding, xlmimo
from .errors import ConfigError
from .linalg import (complex_gaussian, condition_number, psd_eigvals, psd_sqrt,
                     sample_correlated)

CORRELATION = "correlation"   # one M x M correlation matrix per trial
XL = "xl"                     # a multi-user XL-MIMO scenario per trial


class Model(NamedTuple):
    """A model's family and builder; ``iid`` models draw channels directly."""

    family: str
    build: Callable | None = None
    iid: bool = False


class Metric(NamedTuple):
    """A metric's family and trial; ``scenario`` trials draw an XL scenario."""

    family: str
    trial: Callable
    scenario: bool = False


def _upa_geometry(cfg) -> gbsm.UpaGeometry:
    if cfg.m_h > 0 and cfg.m_v > 0:
        return gbsm.UpaGeometry(m_h=cfg.m_h, m_v=cfg.m_v, d_h=cfg.d_h, d_v=cfg.d_v)
    side = int(round(np.sqrt(cfg.m)))
    if side * side != cfg.m:
        raise ConfigError(
            f"planar-array models need geometry.m_h/m_v or a square m, got m={cfg.m}")
    return gbsm.UpaGeometry(m_h=side, m_v=side, d_h=cfg.d_h, d_v=cfg.d_v)


def _iid(cfg, rng):
    return cfg.beta * np.eye(cfg.m)


def _exponential(cfg, rng):
    return cfg.beta * cbsm.exponential_correlation(cfg.m, cfg.rho)


def _uncorrelated(cfg, rng):
    f = cbsm.draw_shadowing(cfg.m, cfg.sigma_shad, rng)
    return cbsm.uncorrelated_with_shadowing(cfg.beta, f)


def _exponential_shadow(cfg, rng):
    f = cbsm.draw_shadowing(cfg.m, cfg.sigma_shad, rng)
    return cbsm.exponential_with_shadowing(f, cfg.rho, np.radians(cfg.theta_deg), cfg.beta)


def _onering_ula(cfg, rng):
    geom = gbsm.UlaGeometry(m=cfg.m, d_h=cfg.d_h)
    delta_phi = np.radians(cfg.delta_deg)
    return gbsm.onering_ula(geom, phi=np.radians(cfg.phi_deg), delta_phi=delta_phi,
                            beta=cfg.beta, quad=gbsm.sized_quadrature(delta_phi, cfg.d_h, cfg.m))


def _gaussian_ula(cfg, rng):
    geom = gbsm.UlaGeometry(m=cfg.m, d_h=cfg.d_h)
    sigma_phi = np.radians(cfg.sigma_phi_deg)
    quad = gbsm.sized_quadrature(gbsm.GAUSSIAN_TRUNCATION * sigma_phi, cfg.d_h, cfg.m)
    return gbsm.gaussian_ula_numeric(geom, phi=np.radians(cfg.phi_deg), sigma_phi=sigma_phi,
                                     beta=cfg.beta, quad=quad)


def _gaussian_ula_closed(cfg, rng):
    geom = gbsm.UlaGeometry(m=cfg.m, d_h=cfg.d_h)
    return gbsm.gaussian_ula_closed(geom, phi=np.radians(cfg.phi_deg),
                                    sigma_phi=np.radians(cfg.sigma_phi_deg), beta=cfg.beta)


def _gaussian_ula_shadowed(cfg, rng):
    geom = gbsm.UlaGeometry(m=cfg.m, d_h=cfg.d_h)
    f = cbsm.draw_shadowing(cfg.m, cfg.sigma_shad, rng)
    if cfg.num_scatterers == 1:
        angles = np.array([np.radians(cfg.phi_deg)])
    else:
        angles = gbsm.draw_scatterer_angles(cfg.num_scatterers, rng)
    return gbsm.gaussian_ula_shadowed(geom, f, angles, sigma_phi=np.radians(cfg.sigma_phi_deg),
                                      beta=cfg.beta)


def _onering_upa(cfg, rng):
    geom = _upa_geometry(cfg)
    delta_phi = np.radians(cfg.delta_deg)
    delta_theta = np.radians(cfg.delta_theta_deg)
    spread = max(delta_phi, delta_theta)
    quad = gbsm.sized_quadrature(spread, max(cfg.d_h, cfg.d_v), max(geom.m_h, geom.m_v))
    return gbsm.onering_upa(geom, phi=np.radians(cfg.phi_deg),
                            theta=np.radians(cfg.theta_el_deg), delta_phi=delta_phi,
                            delta_theta=delta_theta, beta=cfg.beta, quad=quad)


def _gaussian_upa(cfg, rng):
    geom = _upa_geometry(cfg)
    sigma_phi = np.radians(cfg.sigma_phi_deg)
    sigma_theta = np.radians(cfg.sigma_theta_deg)
    spread = gbsm.GAUSSIAN_TRUNCATION * max(sigma_phi, sigma_theta)
    quad = gbsm.sized_quadrature(spread, max(cfg.d_h, cfg.d_v), max(geom.m_h, geom.m_v))
    return gbsm.gaussian_upa(geom, phi=np.radians(cfg.phi_deg),
                             theta=np.radians(cfg.theta_el_deg), sigma_phi=sigma_phi,
                             sigma_theta=sigma_theta, beta=cfg.beta, quad=quad)


MODELS = {
    "exponential": Model(CORRELATION, _exponential),
    "uncorrelated": Model(CORRELATION, _uncorrelated),
    "exponential_shadow": Model(CORRELATION, _exponential_shadow),
    "onering_ula": Model(CORRELATION, _onering_ula),
    "gaussian_ula": Model(CORRELATION, _gaussian_ula),
    "gaussian_ula_closed": Model(CORRELATION, _gaussian_ula_closed),
    "gaussian_ula_shadowed": Model(CORRELATION, _gaussian_ula_shadowed),
    "onering_upa": Model(CORRELATION, _onering_upa),
    "gaussian_upa": Model(CORRELATION, _gaussian_upa),
    "iid": Model(CORRELATION, _iid, iid=True),
    "xl": Model(XL),
}


def build_correlation(cfg, rng: np.random.Generator) -> np.ndarray:
    """Correlation matrix for the configured model (one realization).

    Shadowed models draw fresh shadowing (and scatterer angles, when more
    than one scatterer is configured) from ``rng`` on every call.
    """
    build = MODELS[cfg.model].build
    if build is None:
        raise ConfigError(f"model '{cfg.model}' has no correlation matrix")
    return build(cfg, rng)


def _channels(cfg, rng, n: int, iid_gain: float = 1.0) -> list:
    """n channel draws sharing one correlation draw; i.i.d. models draw iid_gain * CN(0, I)."""
    if MODELS[cfg.model].iid:
        return [complex_gaussian(cfg.m, rng) * iid_gain for _ in range(n)]
    s = psd_sqrt(build_correlation(cfg, rng))
    return [sample_correlated(s, rng) for _ in range(n)]


def xl_sinr_noise_power(cfg) -> float:
    """Noise power pinned to the path-loss reference so SNR means received SNR."""
    eta = metrics.db_to_linear(cfg.snr_db)
    return cfg.total_power / eta * 10.0 ** (xlmimo.L0_DB / 10.0)


def xl_scenario(cfg, rng: np.random.Generator) -> xlmimo.XlScenario:
    """One draw of the configured XL geometry: clusters, radii and VR masks."""
    return xlmimo.build_scenario(cfg.xl_scheme, cfg.num_users, cfg.clusters_per_user, rng,
                                 m=cfg.m, correlation=cfg.xl_correlation, rho=cfg.rho,
                                 delta=np.radians(cfg.delta_deg),
                                 r_bounds=(cfg.r_min, cfg.r_max),
                                 p0=cfg.p0, p1=cfg.p1, c=cfg.c, d1=cfg.d1, d2=cfg.d2)


def _capacity_ub(cfg, rng, scenario):
    eta = metrics.db_to_linear(cfg.snr_db)
    return metrics.capacity_ub(build_correlation(cfg, rng), eta)


def _ergodic_capacity(cfg, rng, scenario):
    eta = metrics.db_to_linear(cfg.snr_db)
    (h,) = _channels(cfg, rng, 1, iid_gain=np.sqrt(cfg.beta))
    return metrics.capacity_single(h, eta)


def _condition_number(cfg, rng, scenario):
    return condition_number(build_correlation(cfg, rng))


def _svd_spectrum(cfg, rng, scenario):
    lam = psd_eigvals(build_correlation(cfg, rng))
    if not 0 <= cfg.svd_index < lam.size:
        raise ConfigError(f"svd_index {cfg.svd_index} outside 0..{lam.size - 1}")
    return float(lam[cfg.svd_index])


def _corr_coeff(cfg, rng, scenario):
    h_i, h_j = _channels(cfg, rng, 2)
    return metrics.correlation_coefficient(h_i, h_j)


def _sinr(cfg, rng, scenario):
    scen = scenario if scenario is not None else xl_scenario(cfg, rng)
    h = xlmimo.assemble_channel_matrix(scen, rng)
    # A user whose every antenna is obstructed takes no precoder column and scores 0.
    live = np.any(h, axis=0)
    gam = np.zeros(cfg.num_users)
    if live.any():
        h = h[:, live]
        w = precoding.cb_precoder(h) if cfg.precoder == "cb" else precoding.zf_precoder(h)
        p = np.full(h.shape[1], cfg.total_power / cfg.num_users)
        w = precoding.normalize_columns(w, p, cfg.power_convention)
        gam[live] = metrics.sinr_per_user(h, w, xl_sinr_noise_power(cfg))
    return float(gam.mean())


def _vr_stats(cfg, rng, scenario):
    mask = xlmimo.vr_mask_chain(cfg.vr_antennas, cfg.p0, cfg.p1, cfg.c, rng)
    return float(mask.mean())


METRICS = {
    "capacity_ub": Metric(CORRELATION, _capacity_ub),
    "ergodic_capacity": Metric(CORRELATION, _ergodic_capacity),
    "sinr": Metric(XL, _sinr, scenario=True),
    "condition_number": Metric(CORRELATION, _condition_number),
    "svd_spectrum": Metric(CORRELATION, _svd_spectrum),
    "corr_coeff": Metric(CORRELATION, _corr_coeff),
    "vr_stats": Metric(XL, _vr_stats),
}
