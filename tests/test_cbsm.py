import itertools

import numpy as np
import pytest
import scipy.linalg

from chansim import gbsm
from chansim.cbsm import (draw_shadowing, exponential_correlation,
                          exponential_with_shadowing, shade, toeplitz,
                          uncorrelated_with_shadowing)
from chansim.config import apply_point
from chansim.errors import InvalidParam
from chansim.linalg import psd_eigvals, log2_det_ipm
from chansim.metrics import capacity_ub
from chansim.presets import preset
from chansim.registry import build_correlation


def test_exponential_rho_zero_is_identity():
    r = exponential_correlation(2, 0.0)
    assert np.array_equal(r, np.eye(2))


def test_exponential_rho_one_all_ones():
    r = exponential_correlation(3, 1.0)
    assert np.array_equal(r, np.ones((3, 3)))
    assert np.allclose(psd_eigvals(r), [3, 0, 0], atol=1e-12)


def test_exponential_2x2_half():
    r = exponential_correlation(2, 0.5)
    assert np.allclose(r, [[1, 0.5], [0.5, 1]])
    lam = psd_eigvals(r)
    assert np.allclose(lam, [1.5, 0.5])
    assert np.isclose(lam[0] / lam[1], 3.0)


def test_exponential_is_toeplitz():
    r = exponential_correlation(20, 0.7)
    for k in range(20):
        diag = np.diag(r, k)
        assert np.all(diag == diag[0])
    assert np.array_equal(r, r.T)


def test_exponential_rejects_bad_rho():
    with pytest.raises(InvalidParam):
        exponential_correlation(4, 1.5)
    with pytest.raises(InvalidParam):
        exponential_correlation(4, -0.1)


def test_capacity_ub_nonincreasing_in_rho():
    eta, m = 1e6, 50
    caps = [log2_det_ipm(exponential_correlation(m, r), eta / m)
            for r in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert np.all(np.diff(caps) <= 0)


def test_draw_shadowing_zero_sigma():
    rng = np.random.default_rng(0)
    assert np.all(draw_shadowing(10, 0.0, rng) == 0)


def test_draw_shadowing_moments():
    rng = np.random.default_rng(1)
    f = draw_shadowing(1_000_000, 10.0, rng)
    assert abs(f.std() - 10.0) < 0.1


def test_shadowing_amplitude_mean():
    # lognormal mean exp((sigma ln10 / 10)^2 / 2) as the oracle
    rng = np.random.default_rng(10)
    f = draw_shadowing(1_000_000, 10.0, rng)
    amp = 10.0 ** (f / 10.0)
    oracle = np.exp((10.0 * np.log(10) / 10.0) ** 2 / 2.0)
    assert abs(amp.mean() - 14.2) < 0.5
    assert abs(amp.mean() - oracle) < 0.5


def test_uncorrelated_zero_shadowing():
    r = uncorrelated_with_shadowing(2.0, np.zeros(3))
    assert np.array_equal(r, 2.0 * np.eye(3))


def test_uncorrelated_direct_values():
    r = uncorrelated_with_shadowing(1.0, np.array([10.0, -10.0]))
    assert np.allclose(r, np.diag([10.0, 0.1]))


def test_uncorrelated_mean_diag_entry():
    rng = np.random.default_rng(3)
    beta = 2.0
    acc = 0.0
    n = 2000
    for _ in range(n):
        f = draw_shadowing(16, 10.0, rng)
        acc += np.diag(uncorrelated_with_shadowing(beta, f)).mean()
    assert abs(acc / n - 14.2 * beta) < 1.0 * beta


def test_exponential_with_shadowing_reduction():
    r = exponential_with_shadowing(np.zeros(12), 0.6, 0.0, beta=1.0)
    assert np.abs(r - exponential_correlation(12, 0.6)).max() <= 1e-15


def test_exponential_with_shadowing_diagonal():
    rng = np.random.default_rng(4)
    f = draw_shadowing(8, 4.0, rng)
    r = exponential_with_shadowing(f, 0.5, np.pi / 2, beta=1.5)
    assert np.allclose(np.diag(r).real, 1.5 * 10.0 ** (f / 10.0))


def test_exponential_with_shadowing_hermitian():
    rng = np.random.default_rng(5)
    f = draw_shadowing(10, 4.0, rng)
    r = exponential_with_shadowing(f, 0.8, 1.1)
    assert np.abs(r - r.conj().T).max() <= 1e-12 * np.abs(r).max()
    psd_eigvals(r)  # no NotPSD


def test_exponential_lag_gather_matches_dense_grid():
    # rho^k and the AoA phase are evaluated once per lag and gathered; the
    # entries must equal the per-entry dense grid bit for bit
    rng = np.random.default_rng(14)
    for case in range(60):
        m = int(rng.integers(1, 400))
        rho = (0.0, 1.0, rng.uniform(0, 1))[case % 3]
        theta, beta = rng.uniform(-4, 4), rng.uniform(0.5, 2)
        f = rng.normal(0, 3, m) if case % 2 else np.zeros(m)
        k = np.arange(m)
        diff = k[None, :] - k[:, None]
        dense = np.asarray(rho ** np.abs(diff), dtype=float)
        assert np.array_equal(exponential_correlation(m, rho), dense)
        g = 10.0 ** (f / 20.0)   # D K D: rows, then columns
        want = beta * (dense * np.exp(1j * diff * theta)) * g[:, None] * g
        assert np.array_equal(exponential_with_shadowing(f, rho, theta, beta), want)


def test_shadowed_capacity_increases_with_m_near_full_correlation():
    # At rho = 1 exactly the shadowed matrix is rank-1 (phase and shadow
    # factors separate), so capacity is flat in M; just below 1 the
    # increase with M is restored, and at rho = 1 shadowing still beats
    # the plain fully-correlated model.
    rng = np.random.default_rng(6)
    eta = 1e6
    caps = []
    for m in (20, 60, 100):
        acc = 0.0
        for _ in range(50):
            f = draw_shadowing(m, 4.0, rng)
            acc += log2_det_ipm(exponential_with_shadowing(f, 0.98, np.pi / 2), eta / m)
        caps.append(acc / 50)
    assert caps[0] < caps[1] < caps[2]

    plain = log2_det_ipm(exponential_correlation(100, 1.0), eta / 100)
    acc = 0.0
    for _ in range(50):
        f = draw_shadowing(100, 4.0, rng)
        acc += log2_det_ipm(exponential_with_shadowing(f, 1.0, np.pi / 2), eta / 100)
    assert acc / 50 > plain


def test_shadow_draw_length_checked():
    # np.diag would read the diagonal of a 2-D f rather than build a matrix
    with pytest.raises(InvalidParam, match="1-D"):
        uncorrelated_with_shadowing(1.0, np.zeros((4, 4)))
    with pytest.raises(InvalidParam, match="1-D"):
        exponential_with_shadowing(np.zeros((4, 4)), 0.5, 0.0)


# exponential_correlation's rho bounds are checked in test_exponential_rejects_bad_rho
@pytest.mark.parametrize("build, message", [
    (lambda: exponential_correlation(0, 0.5), "antenna count"),
    (lambda: exponential_with_shadowing(np.zeros(4), 1.5, 0.0), "correlation factor"),
    (lambda: exponential_with_shadowing(np.zeros(4), -0.1, 0.0), "correlation factor"),
    (lambda: exponential_with_shadowing(np.zeros(4), 0.5, 0.0, beta=-1.0), "path-loss gain"),
    (lambda: exponential_with_shadowing(np.zeros(0), 0.5, 0.0), "antenna count"),
], ids=["m_zero", "shadow_rho_high", "shadow_rho_low",
        "shadow_beta", "shadow_empty"])
def test_exponential_builders_reject_bad_values(build, message):
    with pytest.raises(InvalidParam, match=message):
        build()


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.6, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("m", [20, 100, 380])
def test_shadowed_exponential_capacity_does_not_depend_on_theta(m, rho):
    # The AoA phase is a diagonal unitary similarity, E K E^H, that commutes with the
    # shadow gains, so it leaves the spectrum and the capacity bound unchanged.
    f = np.random.default_rng(m).normal(0.0, 4.0, m)
    caps = [capacity_ub(exponential_with_shadowing(f, rho, theta), 1e6)
            for theta in (0.0, np.pi / 2, 1.234)]
    # At rho = 1 R is rank 1, and every log-det path is off by a few 1e-12 relative (here
    # the real form reads 3.1e-12 apart, the complex path 6.7e-12), so theta moves that far.
    tol = 1e-11 if rho == 1.0 else 1e-14
    assert max(caps) - min(caps) <= tol * max(caps)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_toeplitz_is_scipys_from_the_first_column(kind):
    rng = np.random.default_rng(11)
    for m in range(1, 401):
        col = rng.standard_normal(m)
        if kind == "complex":
            col = col + 1j * rng.standard_normal(m)
            col[0] = col[0].real
        got = toeplitz(col)
        want = scipy.linalg.toeplitz(col, col.conj())
        assert got.dtype == want.dtype and got.shape == (m, m)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert got.base is not None and not got.flags.writeable


def parent_toeplitz(lags):
    """The gather of the 2M - 1 lags n - m = -(M-1)..M-1 that the first-column form replaced."""
    return np.lib.stride_tricks.sliding_window_view(lags, (lags.size + 1) // 2)[::-1]


def lag_pair_build(cfg, rng):
    """Reference copy of each grid model's build on its 2M - 1 lags, one exponential per lag."""
    m = cfg.m
    n_minus_m = np.arange(1 - m, m)
    if cfg.model == "exponential":
        return cfg.beta * np.array(parent_toeplitz(cfg.rho ** np.abs(n_minus_m)), dtype=float)
    if cfg.model == "exponential_shadow":
        f = draw_shadowing(m, cfg.sigma_shad, rng)
        phase = np.exp(1j * n_minus_m * np.radians(cfg.theta_deg))
        return shade(parent_toeplitz(cfg.beta * (cfg.rho ** np.abs(n_minus_m) * phase)), f, 20.0)
    if cfg.model == "onering_ula":
        delta = np.radians(cfg.delta_deg)
        quad = gbsm.sized_quadrature(delta, cfg.d_h, m)
        angles, w = gbsm.onering_nodes(np.radians(cfg.phi_deg), delta, quad)
        row = np.exp(2j * np.pi * cfg.d_h * np.arange(m)[:, None] * np.sin(angles)[None, :]) @ w
        row[0] = 1.0
        row *= cfg.beta
        return np.array(parent_toeplitz(np.concatenate((row[:0:-1], row.conj()))))
    assert cfg.model == "gaussian_ula_shadowed" and cfg.num_scatterers == 1
    f = draw_shadowing(m, cfg.sigma_shad, rng)
    sigma, phi = np.radians(cfg.sigma_phi_deg), np.radians(cfg.phi_deg)
    phase = np.exp(2j * np.pi * cfg.d_h * n_minus_m * np.sin(phi))
    damp = np.exp(-(sigma**2 / 2.0) * (2.0 * np.pi * cfg.d_h * n_minus_m * np.cos(phi)) ** 2)
    acc = np.zeros(n_minus_m.size, dtype=complex)
    acc += phase * damp
    scatterers = 1
    return shade(parent_toeplitz(cfg.beta * acc[::-1] / scatterers), f, 10.0)


@pytest.mark.parametrize("name", ["fig5a", "fig7a", "fig10c", "fig12c"])
def test_first_column_builds_equal_the_lag_pair_builds_on_the_preset_grid(name):
    cfg = preset(name)
    specs = (cfg.sweep,) + cfg.curves
    for i, values in enumerate(itertools.product(*(s.grid for s in specs))):
        point = apply_point(cfg, dict(zip((s.param for s in specs), values)))
        got = build_correlation(point, np.random.default_rng([point.seed, i, 0]))
        want = lag_pair_build(point, np.random.default_rng([point.seed, i, 0]))
        # Every value equal; only the sign of a zero may differ (the one-ring diagonal was
        # conj(row[0]) = beta - 0j and is now row[0] = beta + 0j).
        assert np.array_equal(got, want), values
