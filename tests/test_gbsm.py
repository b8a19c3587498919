import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chansim import gbsm
from chansim.cbsm import exponential_with_shadowing
from chansim.config import apply_point
from chansim.errors import InvalidParam, QuadratureWarning, ValidityWarning
from chansim.gbsm import (QuadratureConfig, UlaGeometry, UpaGeometry,
                          draw_scatterer_angles, gaussian_ula_closed,
                          gaussian_ula_numeric, gaussian_ula_shadowed,
                          gaussian_upa, onering_ula, onering_upa,
                          upa_antenna_index)
from chansim.linalg import log2_det_ipm, psd_eigvals
from chansim.metrics import capacity_ub
from chansim.presets import preset
from chansim.runner import trial_value


def trapz_onering_entry(diff, phi, delta, d_h, n=1_000_001):
    """Dense trapezoid oracle for one one-ring correlation entry."""
    dlt = np.linspace(-delta, delta, n)
    vals = np.exp(2j * np.pi * d_h * diff * np.sin(phi + dlt))
    return np.trapezoid(vals, dlt) / (2 * delta)


def trapz_gaussian_entry(diff, phi, sigma, d_h, trunc=6.0, n=1_000_001):
    dlt = np.linspace(-trunc * sigma, trunc * sigma, n)
    pdf = np.exp(-dlt**2 / (2 * sigma**2))
    vals = np.exp(2j * np.pi * d_h * diff * np.sin(phi + dlt)) * pdf
    return np.trapezoid(vals, dlt) / np.trapezoid(pdf, dlt)


def test_onering_diagonal_is_beta():
    r = onering_ula(UlaGeometry(m=6), phi=0.3, delta_phi=0.2, beta=2.5)
    assert np.allclose(np.diag(r).real, 2.5)


def test_onering_zero_spread_rank1():
    r = onering_ula(UlaGeometry(m=5), phi=0.7, delta_phi=0.0)
    lam = psd_eigvals(r)
    assert np.isclose(lam[0], 5.0)
    assert np.all(lam[1:] < 1e-10)


def test_onering_matches_trapezoid_oracle():
    phi, delta, d_h = 0.0, np.radians(10), 0.5
    r = onering_ula(UlaGeometry(m=2, d_h=d_h), phi=phi, delta_phi=delta)
    oracle = trapz_onering_entry(-1, phi, delta, d_h)
    assert abs(r[0, 1] - oracle) <= 1e-8


def test_onering_toeplitz():
    r = onering_ula(UlaGeometry(m=10), phi=0.5, delta_phi=0.3)
    for k in range(1, 10):
        diag = np.diag(r, k)
        assert np.abs(diag - diag[0]).max() <= 1e-10


def test_onering_coarse_quadrature_warns():
    with pytest.warns(QuadratureWarning):
        onering_ula(UlaGeometry(m=100, d_h=5.0), phi=0.0, delta_phi=0.8,
                    quad=QuadratureConfig(nodes_per_dim=11))


def test_onering_quadrature_converged():
    geom = UlaGeometry(m=16)
    r1 = onering_ula(geom, phi=0.4, delta_phi=0.5, quad=QuadratureConfig(nodes_per_dim=201))
    r2 = onering_ula(geom, phi=0.4, delta_phi=0.5, quad=QuadratureConfig(nodes_per_dim=402))
    assert np.abs(r1 - r2).max() < 1e-8


def test_gaussian_numeric_matches_trapezoid_oracle():
    phi, sigma, d_h = np.pi / 6, np.radians(10), 0.5
    geom = UlaGeometry(m=4, d_h=d_h)
    r = gaussian_ula_numeric(geom, phi=phi, sigma_phi=sigma)
    for i in range(4):
        for j in range(4):
            oracle = trapz_gaussian_entry(i - j, phi, sigma, d_h)
            assert abs(r[i, j] - oracle) <= 1e-7


def test_gaussian_numeric_diagonal():
    r = gaussian_ula_numeric(UlaGeometry(m=8), phi=0.2, sigma_phi=0.1, beta=3.0)
    assert np.allclose(np.diag(r).real, 3.0)


def test_gaussian_zero_asd_rank1():
    r = gaussian_ula_numeric(UlaGeometry(m=5), phi=0.7, sigma_phi=0.0)
    lam = psd_eigvals(r)
    assert np.isclose(lam[0], 5.0)


def test_gaussian_closed_diagonal_and_structure():
    geom = UlaGeometry(m=6)
    r = gaussian_ula_closed(geom, phi=0.5, sigma_phi=np.radians(5))
    assert np.allclose(np.diag(r).real, 1.0)
    # unit-modulus Toeplitz when sigma = 0
    r0 = gaussian_ula_closed(geom, phi=0.5, sigma_phi=0.0)
    assert np.allclose(np.abs(r0), 1.0)


def test_gaussian_closed_warns_beyond_validity():
    with pytest.warns(ValidityWarning):
        gaussian_ula_closed(UlaGeometry(m=4), phi=0.0, sigma_phi=np.radians(20))


def test_gaussian_shadowed_reduction():
    geom = UlaGeometry(m=7)
    sigma = np.radians(8)
    r = gaussian_ula_shadowed(geom, np.zeros(7), np.array([0.4]), sigma_phi=sigma)
    assert np.abs(r - gaussian_ula_closed(geom, phi=0.4, sigma_phi=sigma)).max() <= 1e-14


def test_gaussian_shadowed_diagonal():
    rng = np.random.default_rng(0)
    f = rng.normal(0, 2, size=5)
    geom = UlaGeometry(m=5)
    r = gaussian_ula_shadowed(geom, f, np.array([0.0]), sigma_phi=0.1)
    assert np.allclose(np.diag(r).real, 10.0 ** (2 * f / 10.0))


def test_gaussian_shadowed_size_from_shadow_draw():
    f = np.random.default_rng(3).normal(0, 2, size=9)
    r = gaussian_ula_shadowed(UlaGeometry(m=9), f, [0.2, 1.1], sigma_phi=0.1)
    # geom supplies only the spacing; M is len(f)
    assert np.array_equal(gaussian_ula_shadowed(UlaGeometry(m=1), f, [0.2, 1.1],
                                                sigma_phi=0.1), r)
    assert r.shape == (9, 9)
    with pytest.raises(InvalidParam, match="1-D"):
        gaussian_ula_shadowed(UlaGeometry(m=4), np.zeros((4, 4)), [0.2], sigma_phi=0.1)


def dense_gaussian_shadowed(d_h, f, phis, sigma_phi, beta):
    """Dense oracle: the closed-form kernel evaluated on the full M x M lag grid."""
    k = np.arange(f.size)
    diff = k[:, None] - k[None, :]
    acc = np.zeros((f.size, f.size), dtype=complex)
    for phi_s in phis:
        phase = np.exp(2j * np.pi * d_h * diff * np.sin(phi_s))
        damp = np.exp(-(sigma_phi**2 / 2.0)
                      * (2.0 * np.pi * d_h * diff * np.cos(phi_s)) ** 2)
        acc += phase * damp
    g = 10.0 ** (f / 10.0)   # D K D: rows, then columns
    return beta * acc / phis.size * g[:, None] * g


def test_gaussian_shadowed_lag_row_matches_dense_grid():
    rng = np.random.default_rng(13)
    for case in range(60):
        m = int(rng.integers(1, 400))
        f = rng.normal(0, 3, m) if case % 2 else np.zeros(m)
        phis = rng.uniform(0, 2 * np.pi, int(rng.integers(1, 5)))
        d_h, sigma, beta = (0.5, 1.0, 5.0)[case % 3], rng.uniform(0, 0.3), rng.uniform(0.5, 2)
        r = gaussian_ula_shadowed(UlaGeometry(m=1, d_h=d_h), f, phis, sigma_phi=sigma, beta=beta)
        assert np.array_equal(r, dense_gaussian_shadowed(d_h, f, phis, sigma, beta))


def dense_exponential_phase(m, rho, theta, beta):
    """beta * rho^|n-m| * exp(i (n-m) theta) on the full M x M grid."""
    k = np.arange(m)
    diff = k[None, :] - k[:, None]
    return beta * (np.asarray(rho ** np.abs(diff), dtype=float) * np.exp(1j * diff * theta))


# model -> (builder of (f, beta), unshadowed kernel of (M, beta), dB divisor)
PHIS = np.array([0.4, 2.0])
SHADOWED = {
    "exponential_with_shadowing": (
        lambda f, beta: exponential_with_shadowing(f, 0.7, 1.234, beta),
        lambda m, beta: dense_exponential_phase(m, 0.7, 1.234, beta), 20.0),
    "gaussian_ula_shadowed": (
        lambda f, beta: gaussian_ula_shadowed(UlaGeometry(m=1), f, PHIS, sigma_phi=0.1,
                                              beta=beta),
        lambda m, beta: dense_gaussian_shadowed(0.5, np.zeros(m), PHIS, 0.1, beta), 10.0),
}


@pytest.mark.parametrize("model", sorted(SHADOWED))
def test_shadowed_builders_match_their_definition(model):
    # R = beta K 10^((f_m+f_n)/db), with the float kernel beta K taken as
    # exact and the shadow power in 30 digits.  f = 0 gives beta K bit for bit.
    # Each f is a multiple of db / 2^16, so f / db is exact: its rounding
    # would add ln(10) |f| / db half-ulps per gain in any form that takes f
    # in dB, up to 2.8 eps per gain at 24 dB and db = 10.
    build, kernel, db = SHADOWED[model]
    rng = np.random.default_rng(20)
    worst = 0.0
    for m in (1, 2, 7, 24):
        beta = rng.uniform(0.5, 2.0)
        k = kernel(m, beta)
        assert np.array_equal(build(np.zeros(m), beta), k)
        top = (24 << 16) // int(db)   # |f| <= 24 dB
        f = db * (rng.integers(-top, top, m, endpoint=True) / 2**16)
        r = build(f, beta)
        with mpmath.workdps(30):
            for i in range(m):
                for j in range(m):
                    power = mpmath.power(10, (mpmath.mpf(f[i]) + mpmath.mpf(f[j])) / db)
                    exact = mpmath.mpc(k[i, j].real, k[i, j].imag) * power
                    err = abs(mpmath.mpc(r[i, j].real, r[i, j].imag) - exact) / abs(exact)
                    worst = max(worst, float(err))
    assert worst <= 4 * np.finfo(float).eps, worst / np.finfo(float).eps


def test_gaussian_shadowed_capacity_gain():
    # Shadowing cannot change the lambda_min of D R D (same rank as R),
    # so the singular-spread claim is checked through its observable
    # consequence: shadowing raises the capacity upper bound.
    rng = np.random.default_rng(1)
    geom = UlaGeometry(m=100)
    eta = 1e6
    caps = {0.0: [], 2.0: []}
    for sig in caps:
        for _ in range(20):
            f = sig * rng.standard_normal(100)
            r = gaussian_ula_shadowed(geom, f, np.array([np.pi / 6]),
                                      sigma_phi=np.radians(10))
            caps[sig].append(log2_det_ipm(r, eta / 100))
    assert np.mean(caps[2.0]) > np.mean(caps[0.0])


def test_draw_scatterer_angles_range():
    rng = np.random.default_rng(2)
    phis = draw_scatterer_angles(1000, rng)
    assert phis.min() >= 0.0 and phis.max() < 2 * np.pi
    with pytest.raises(InvalidParam):
        draw_scatterer_angles(0, rng)


def test_upa_antenna_index():
    geom = UpaGeometry(m_h=4, m_v=3)
    assert upa_antenna_index(geom, 1) == (0, 0)
    assert upa_antenna_index(geom, 5) == (0, 1)
    assert upa_antenna_index(geom, 7) == (2, 1)
    with pytest.raises(InvalidParam):
        upa_antenna_index(geom, 13)


def test_onering_upa_diagonal_and_oracle():
    geom = UpaGeometry(m_h=2, m_v=2)
    delta_phi, delta_theta = np.radians(10), np.radians(2)
    r = onering_upa(geom, phi=0.0, theta=0.0, delta_phi=delta_phi, delta_theta=delta_theta)
    assert np.allclose(np.diag(r).real, 1.0)
    # dense 2-D trapezoid oracle for one off-diagonal entry
    n = 1501
    d_az = np.linspace(-delta_phi, delta_phi, n)
    d_el = np.linspace(-delta_theta, delta_theta, n)
    az, el = np.meshgrid(d_az, d_el, indexing="ij")
    for (mi, ni) in ((0, 1), (0, 2), (0, 3), (1, 2)):
        py_m, pz_m = upa_antenna_index(geom, mi + 1)
        py_n, pz_n = upa_antenna_index(geom, ni + 1)
        kern = np.exp(2j * np.pi * 0.5 * (pz_m - pz_n) * np.sin(el)
                      + 2j * np.pi * 0.5 * (py_m - py_n) * np.cos(el) * np.sin(az))
        oracle = np.trapezoid(np.trapezoid(kern, d_el, axis=1), d_az) \
            / (4 * delta_phi * delta_theta)
        assert abs(r[mi, ni] - oracle) <= 1e-7


def test_onering_upa_zero_spread_invalid():
    geom = UpaGeometry(m_h=2, m_v=2)
    with pytest.raises(InvalidParam):
        onering_upa(geom, phi=0.0, theta=0.0, delta_phi=0.0, delta_theta=0.1)


def test_gaussian_upa_diagonal_and_oracle():
    geom = UpaGeometry(m_h=2, m_v=2)
    sig_az, sig_el = np.radians(10), np.radians(5)
    phi, theta = 0.3, 0.1
    r = gaussian_upa(geom, phi=phi, theta=theta, sigma_phi=sig_az, sigma_theta=sig_el)
    assert np.allclose(np.diag(r).real, 1.0)
    n = 1501
    d_az = np.linspace(-6 * sig_az, 6 * sig_az, n)
    d_el = np.linspace(-6 * sig_el, 6 * sig_el, n)
    az, el = np.meshgrid(phi + d_az, theta + d_el, indexing="ij")
    pdf = np.exp(-d_az**2 / (2 * sig_az**2))[:, None] \
        * np.exp(-d_el**2 / (2 * sig_el**2))[None, :]
    norm = np.trapezoid(np.trapezoid(pdf, d_el, axis=1), d_az)
    for (mi, ni) in ((0, 1), (0, 2), (0, 3)):
        py_m, pz_m = upa_antenna_index(geom, mi + 1)
        py_n, pz_n = upa_antenna_index(geom, ni + 1)
        kern = np.exp(2j * np.pi * 0.5 * (pz_m - pz_n) * np.sin(el)
                      + 2j * np.pi * 0.5 * (py_m - py_n) * np.cos(el) * np.sin(az))
        oracle = np.trapezoid(np.trapezoid(kern * pdf, d_el, axis=1), d_az) / norm
        assert abs(r[mi, ni] - oracle) <= 1e-7


def dense_upa(geom, az, el, weights, beta):
    """Dense oracle beta * A diag(w) A^H over the flattened tensor grid of nodes."""
    az_g, el_g = np.meshgrid(az, el, indexing="ij")
    az_g, el_g = az_g.ravel(), el_g.ravel()
    idx = np.arange(geom.m)
    p_y, p_z = idx % geom.m_h, idx // geom.m_h
    a = np.exp(2j * np.pi * geom.d_v * p_z[:, None] * np.sin(el_g)[None, :]
               + 2j * np.pi * geom.d_h * p_y[:, None]
               * (np.cos(el_g) * np.sin(az_g))[None, :])
    r = (a * weights.ravel()) @ a.conj().T
    np.fill_diagonal(r, 1.0)
    return beta * r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m_h=st.integers(1, 5), m_v=st.integers(1, 5),
       d_h=st.floats(0.0, 10.0), d_v=st.floats(0.0, 10.0),
       phi=st.floats(-np.pi, np.pi), theta=st.floats(-np.pi / 2, np.pi / 2),
       spread_az=st.floats(0.01, 1.0), spread_el=st.floats(0.01, 1.0),
       beta=st.floats(0.05, 2.0), nodes=st.integers(3, 41))
@pytest.mark.filterwarnings("ignore::chansim.errors.QuadratureWarning")
def test_upa_lag_table_matches_dense_assembly(m_h, m_v, d_h, d_v, phi, theta,
                                              spread_az, spread_el, beta, nodes):
    assume(m_h != m_v and d_h != d_v and beta != 1.0)
    geom = UpaGeometry(m_h=m_h, m_v=m_v, d_h=d_h, d_v=d_v)
    quad = QuadratureConfig(nodes_per_dim=nodes)
    x, w = np.polynomial.legendre.leggauss(nodes)
    d_az, w_az = gbsm.gaussian_nodes(0.0, spread_az / 2, quad)
    d_el, w_el = gbsm.gaussian_nodes(0.0, spread_el / 2, quad)
    cases = [
        (onering_upa(geom, phi=phi, theta=theta, delta_phi=spread_az,
                     delta_theta=spread_el, beta=beta, quad=quad),
         dense_upa(geom, phi + spread_az * x, theta + spread_el * x,
                   np.outer(w, w) / 4.0, beta)),
        (gaussian_upa(geom, phi=phi, theta=theta, sigma_phi=spread_az / 2,
                      sigma_theta=spread_el / 2, beta=beta, quad=quad),
         dense_upa(geom, phi + d_az, theta + d_el, np.outer(w_az, w_el), beta)),
    ]
    for r, oracle in cases:
        assert np.abs(r - oracle).max() <= 1e-13
        assert np.array_equal(r, r.conj().T)
        assert np.all(np.diag(r) == beta)


def mp_upa_first_row(geom, az, el, weights):
    """Row 0 of sum_ij W_ij a(az_i, el_j) a(az_i, el_j)^H in 30-digit arithmetic.

    The float64 nodes and weights are taken as exact; only the sum is exact
    to the working precision.
    """
    with mpmath.workdps(30):
        sin_az = [mpmath.sin(mpmath.mpf(a)) for a in az]
        cos_el = [mpmath.cos(mpmath.mpf(e)) for e in el]
        sin_el = [mpmath.sin(mpmath.mpf(e)) for e in el]
        row = []
        for n in range(geom.m):
            p_y, p_z = upa_antenna_index(geom, n + 1)
            acc = mpmath.mpc(0)
            for j in range(len(el)):
                v = mpmath.mpf(geom.d_v) * p_z * sin_el[j]
                h = mpmath.mpf(geom.d_h) * p_y * cos_el[j]
                for i in range(len(az)):
                    # a_0 conj(a_n) = exp(-2 pi i (d_H p_y cos sin + d_V p_z sin))
                    acc += mpmath.mpf(weights[i, j]) * mpmath.expjpi(-2 * (h * sin_az[i] + v))
            row.append(complex(acc))
    return np.array(row)


@pytest.mark.parametrize("d_h", [0.5, 10.0])
@pytest.mark.filterwarnings("ignore::chansim.errors.QuadratureWarning")
def test_upa_long_lag_chain_matches_extended_precision(d_h):
    # M_H = 20 is the longest horizontal lag chain of the presets; at
    # d_H = 10 the largest phase is about 2 pi * 10 * 19 rad.
    geom = UpaGeometry(m_h=20, m_v=2, d_h=d_h, d_v=0.5)
    quad = QuadratureConfig(nodes_per_dim=21)
    phi, theta = 0.4, 0.2
    x, w = np.polynomial.legendre.leggauss(21)
    d_az, w_az = gbsm.gaussian_nodes(0.0, np.radians(10), quad)
    d_el, w_el = gbsm.gaussian_nodes(0.0, np.radians(5), quad)
    cases = [
        (onering_upa(geom, phi=phi, theta=theta, delta_phi=np.radians(30),
                     delta_theta=np.radians(10), quad=quad),
         mp_upa_first_row(geom, phi + np.radians(30) * x, theta + np.radians(10) * x,
                          np.outer(w, w) / 4.0)),
        (gaussian_upa(geom, phi=phi, theta=theta, sigma_phi=np.radians(10),
                      sigma_theta=np.radians(5), quad=quad),
         mp_upa_first_row(geom, phi + d_az, theta + d_el, np.outer(w_az, w_el))),
    ]
    for r, oracle in cases:
        assert np.abs(r[0] - oracle).max() <= 1e-13


def test_gaussian_upa_capacity_exceeds_onering():
    geom = UpaGeometry(m_h=10, m_v=10)
    eta, m = 1e6, 100
    c_gauss = log2_det_ipm(
        gaussian_upa(geom, phi=0.0, theta=0.0, sigma_phi=np.radians(30),
                     sigma_theta=np.radians(10)), eta / m)
    c_ring = log2_det_ipm(
        onering_upa(geom, phi=0.0, theta=0.0, delta_phi=np.radians(30),
                    delta_theta=np.radians(10)), eta / m)
    assert c_gauss > c_ring


def test_capacity_phi0_exceeds_phi90():
    eta, m = 1e6, 100
    geom = UlaGeometry(m=m)
    c0 = log2_det_ipm(onering_ula(geom, phi=0.0, delta_phi=np.radians(30)), eta / m)
    c90 = log2_det_ipm(onering_ula(geom, phi=np.pi / 2, delta_phi=np.radians(30)), eta / m)
    assert c0 > c90


ULA, UPA = UlaGeometry(m=4), UpaGeometry(m_h=2, m_v=2)


@pytest.mark.parametrize("build, name", [
    (lambda v: onering_ula(ULA, phi=0.3, delta_phi=v), "delta_phi"),
    (lambda v: onering_ula(ULA, phi=0.3, delta_phi=0.2, beta=v), "beta"),
    (lambda v: gaussian_ula_numeric(ULA, phi=0.3, sigma_phi=v), "sigma_phi"),
    (lambda v: gaussian_ula_numeric(ULA, phi=0.3, sigma_phi=0.1, beta=v), "beta"),
    (lambda v: gaussian_ula_closed(ULA, phi=0.3, sigma_phi=v), "sigma_phi"),
    (lambda v: gaussian_ula_closed(ULA, phi=0.3, sigma_phi=0.1, beta=v), "beta"),
    (lambda v: gaussian_ula_shadowed(ULA, np.zeros(4), [0.3], sigma_phi=v), "sigma_phi"),
    (lambda v: gaussian_ula_shadowed(ULA, np.zeros(4), [0.3], sigma_phi=0.1, beta=v),
     "beta"),
    (lambda v: onering_upa(UPA, phi=0.3, theta=0.1, delta_phi=v, delta_theta=0.1),
     "delta_phi"),
    (lambda v: onering_upa(UPA, phi=0.3, theta=0.1, delta_phi=0.1, delta_theta=v),
     "delta_theta"),
    (lambda v: onering_upa(UPA, phi=0.3, theta=0.1, delta_phi=0.1, delta_theta=0.1,
                           beta=v), "beta"),
    (lambda v: gaussian_upa(UPA, phi=0.3, theta=0.1, sigma_phi=v, sigma_theta=0.1),
     "sigma_phi"),
    (lambda v: gaussian_upa(UPA, phi=0.3, theta=0.1, sigma_phi=0.1, sigma_theta=v),
     "sigma_theta"),
    (lambda v: gaussian_upa(UPA, phi=0.3, theta=0.1, sigma_phi=0.1, sigma_theta=0.1,
                            beta=v), "beta"),
], ids=["onering_ula-delta_phi", "onering_ula-beta", "gaussian_ula-sigma_phi",
        "gaussian_ula-beta", "closed-sigma_phi", "closed-beta", "shadowed-sigma_phi",
        "shadowed-beta", "onering_upa-delta_phi", "onering_upa-delta_theta",
        "onering_upa-beta", "gaussian_upa-sigma_phi", "gaussian_upa-sigma_theta",
        "gaussian_upa-beta"])
def test_builders_reject_negative_spread_and_gain(build, name):
    build(0.05)   # the same call with an admissible value builds
    with pytest.raises(InvalidParam, match=f"^{name} must be >= 0"):
        build(-0.05)


@pytest.mark.parametrize("build, foreign", [
    (lambda **kw: gaussian_ula_numeric(ULA, phi=0.3, sigma_phi=0.1, **kw), "delta_phi"),
    (lambda **kw: onering_ula(ULA, phi=0.3, delta_phi=0.1, **kw), "sigma_phi"),
    (lambda **kw: gaussian_ula_shadowed(ULA, np.zeros(4), [0.3], sigma_phi=0.1, **kw), "phi"),
    (lambda **kw: onering_upa(UPA, phi=0.3, theta=0.1, delta_phi=0.1, delta_theta=0.1, **kw),
     "sigma_phi"),
], ids=["gaussian_ula-delta_phi", "onering_ula-sigma_phi", "shadowed-phi",
        "onering_upa-sigma"])
def test_builders_reject_parameters_of_other_models(build, foreign):
    build()   # the model's own parameters build
    with pytest.raises(TypeError, match=foreign):
        build(**{foreign: 0.2})


QUADS = [QuadratureConfig(nodes_per_dim=n) for n in (3, 21, 201, 1001)]


@pytest.mark.parametrize("quad", QUADS, ids=lambda q: str(q.nodes_per_dim))
@pytest.mark.parametrize("spread", [1e-3, 0.05, np.radians(15), 1.0])
def test_node_weights_sum_to_one(quad, spread):
    for angles, weights in (gbsm.onering_nodes(0.3, spread, quad),
                            gbsm.gaussian_nodes(0.3, spread, quad)):
        assert angles.shape == weights.shape == (quad.nodes_per_dim,)
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("nodes", [gbsm.onering_nodes, gbsm.gaussian_nodes])
def test_zero_spread_is_the_point_mass(nodes):
    angles, weights = nodes(0.7, 0.0, QUADS[2])
    assert np.array_equal(angles, [0.7]) and np.array_equal(weights, [1.0])


def test_node_functions_keep_the_inline_arithmetic():
    # The node sets as the builders wrote them inline before the measures
    # were factored out; any change here moves output bytes.
    for quad in QUADS:
        x, w = np.polynomial.legendre.leggauss(quad.nodes_per_dim)
        phi, delta, sigma = 0.4, np.radians(20), np.radians(10)
        angles, weights = gbsm.onering_nodes(phi, delta, quad)
        assert np.array_equal(angles, phi + delta * x) and np.array_equal(weights, w / 2.0)
        assert np.array_equal(np.outer(weights, weights), np.outer(w, w) / 4.0)
        half = gbsm.GAUSSIAN_TRUNCATION * sigma
        pdf = np.exp(-(half * x)**2 / (2.0 * sigma**2))
        angles, weights = gbsm.gaussian_nodes(phi, sigma, quad)
        assert np.array_equal(angles, phi + half * x)
        assert np.array_equal(weights, w * pdf / (w * pdf).sum())


@pytest.mark.parametrize("quad", QUADS[:3], ids=lambda q: str(q.nodes_per_dim))
@pytest.mark.parametrize("spread", [0.0, 0.05, 0.6])
@pytest.mark.filterwarnings("ignore::chansim.errors.QuadratureWarning")
def test_ula_builders_are_measure_plus_assembly(quad, spread):
    geom, phi, beta = UlaGeometry(m=12, d_h=0.7), 0.4, 1.7
    assert np.array_equal(
        onering_ula(geom, phi=phi, delta_phi=spread, beta=beta, quad=quad),
        gbsm._ula_from_angles(geom, *gbsm.onering_nodes(phi, spread, quad), beta))
    assert np.array_equal(
        gaussian_ula_numeric(geom, phi=phi, sigma_phi=spread, beta=beta, quad=quad),
        gbsm._ula_from_angles(geom, *gbsm.gaussian_nodes(phi, spread, quad), beta))


@pytest.mark.parametrize("quad", QUADS[:3], ids=lambda q: str(q.nodes_per_dim))
@pytest.mark.filterwarnings("ignore::chansim.errors.QuadratureWarning")
def test_upa_builders_are_outer_product_of_measures(quad):
    geom, phi, theta, beta = UpaGeometry(m_h=4, m_v=3, d_h=0.5, d_v=0.8), 0.4, 0.2, 1.7
    s_az, s_el = np.radians(25), np.radians(8)
    for build, nodes, spreads in (
            (onering_upa, gbsm.onering_nodes, dict(delta_phi=s_az, delta_theta=s_el)),
            (gaussian_upa, gbsm.gaussian_nodes, dict(sigma_phi=s_az, sigma_theta=s_el))):
        az, w_az = nodes(phi, s_az, quad)
        el, w_el = nodes(theta, s_el, quad)
        assert np.array_equal(
            build(geom, phi=phi, theta=theta, beta=beta, quad=quad, **spreads),
            gbsm._upa_from_angles(geom, az, el, np.outer(w_az, w_el), beta))


def test_sized_quadrature_floor_growth_and_cap():
    def nodes(spread, d, m):
        return gbsm.sized_quadrature(spread, d, m).nodes_per_dim

    # below a need of 80 the floor is 2 * need + 32, rounded up to a multiple of 32
    assert nodes(0.0, 0.5, 100) == 32
    assert nodes(0.1, 0.5, 100) == 96           # 4 * 0.1 * 0.5 * 100 = 20 nodes needed
    assert nodes(0.5, 1.0, 100) == gbsm.DEFAULT_NODES == 201   # 200 nodes needed
    assert nodes(0.5, 5.0, 100) == 1001
    assert nodes(0.50001, 5.0, 100) == 1002
    assert nodes(1.0, 10.0, 100) == gbsm.MAX_QUAD_NODES == 4001
    # no cap: past the largest solved rule the count still grows with the need
    assert nodes(1.0, 10.0, 101) == 4041 and nodes(3.0, 10.0, 400) == 48001
    # 4 * 0.25 * d_H * 100 = 100 d_H needed, exact in binary: steps of 50 nodes
    grown = [nodes(0.25, d, 100) for d in np.arange(1.0, 45.0, 0.5)]
    assert grown[:3] == [201, 201, 201] and grown[3:6] == [251, 301, 351]
    assert grown[-1] == 4451 and set(np.diff(grown)) == {0, 50}


def test_sized_quadrature_never_exceeds_the_201_floor_rule():
    for spread in np.radians([0.0, 0.5, 2.0, 5.0, 10.0, 15.0, 30.0, 60.0, 90.0]):
        for d in (0.05, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0):
            for m in (1, 2, 5, 10, 16, 20, 60, 100, 220, 380):
                need = gbsm._nodes_needed(spread, d, m)
                old = max(201, int(np.ceil(need)) + 1)
                n = gbsm.sized_quadrature(spread, d, m).nodes_per_dim
                assert min(2 * need, old) <= n <= old
                assert n == old or (n % 32 == 0 and need <= 80)


# (build at a node count, window half-width, spacing, antennas per axis), each at a need
# below 80, so that the sized count is under 201
CONVERGENCE_POINTS = {
    "onering-ula": (lambda q: onering_ula(UlaGeometry(m=100), phi=0.5,
                                          delta_phi=np.radians(10.0), quad=q),
                    np.radians(10.0), 0.5, 100),
    "gaussian-ula": (lambda q: gaussian_ula_numeric(UlaGeometry(m=60, d_h=0.8), phi=1.2,
                                                    sigma_phi=np.radians(2.0), quad=q),
                     6 * np.radians(2.0), 0.8, 60),
    "onering-upa": (lambda q: onering_upa(UpaGeometry(10, 10), phi=0.0, theta=0.3,
                                          delta_phi=np.radians(30.0),
                                          delta_theta=np.radians(15.0), quad=q),
                    np.radians(30.0), 0.5, 10),
    "gaussian-upa": (lambda q: gaussian_upa(UpaGeometry(10, 10), phi=np.pi / 2, theta=0.0,
                                            sigma_phi=np.radians(10.0),
                                            sigma_theta=np.radians(5.0), quad=q),
                     6 * np.radians(10.0), 0.5, 10),
}


@pytest.mark.parametrize("case", sorted(CONVERGENCE_POINTS))
def test_sized_count_converges_below_201_nodes(case):
    build, spread, d, m = CONVERGENCE_POINTS[case]
    n = gbsm.sized_quadrature(spread, d, m).nodes_per_dim
    assert n < gbsm.DEFAULT_NODES
    r, ref = build(QuadratureConfig(n)), build(QuadratureConfig(3 * n + 1))
    assert np.abs(r - ref).max() <= 1e-12       # beta = 1
    assert capacity_ub(r, 1e6) == pytest.approx(capacity_ub(ref, 1e6), rel=1e-10, abs=0)


def test_leggauss_tiles_the_largest_solved_rule_over_equal_panels(monkeypatch):
    # A 40-node stand-in for MAX_QUAD_NODES keeps the eigensolve cheap; the cache is
    # cleared on both sides so that no stand-in rule outlives the test.
    monkeypatch.setattr(gbsm, "MAX_QUAD_NODES", 40)
    gbsm._leggauss.cache_clear()
    try:
        x, w = gbsm._leggauss(81)   # 3 panels of the 40-node rule on [-1, 1]
        x40, w40 = np.polynomial.legendre.leggauss(40)
    finally:
        gbsm._leggauss.cache_clear()
    assert x.size == w.size == 120 and -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    assert np.array_equal(w, np.tile(w40 / 3, 3))
    assert np.abs(x - (np.repeat([-2.0, 0.0, 2.0], 40) + np.tile(x40, 3)) / 3).max() <= 1e-15
    k = 60.0   # an integrand with about 19 oscillations over the window
    assert abs(w @ np.cos(k * x) - 2.0 * np.sin(k) / k) <= 1e-13


D_H_GRID = np.arange(0.0, 10.01, 0.5)   # the d_H sweep of fig10d and fig12d


@pytest.mark.parametrize("build, spread_deg, window", [
    (onering_ula, 10.0, 1.0), (onering_ula, 30.0, 1.0),
    (gaussian_ula_numeric, 5.0, gbsm.GAUSSIAN_TRUNCATION),
    (gaussian_ula_numeric, 15.0, gbsm.GAUSSIAN_TRUNCATION),
], ids=["fig10d-10", "fig10d-30", "fig12d-5", "fig12d-15"])
def test_sized_builders_warn_exactly_when_the_cap_binds(monkeypatch, build, spread_deg,
                                                         window):
    # The warning depends only on the node count, so three nodes stand in
    # for the sized set and no large eigensolve is paid.  No cap is left to
    # bind: every sized count meets the need, so no sized build warns, while
    # one node fewer than the need still does.
    monkeypatch.setattr(gbsm, "_leggauss", lambda n: np.polynomial.legendre.leggauss(3))
    spread = np.radians(spread_deg)
    key = "delta_phi" if build is onering_ula else "sigma_phi"
    counts = []
    for d_h in D_H_GRID:
        quad = gbsm.sized_quadrature(window * spread, d_h, 100)
        need = int(np.ceil(gbsm._nodes_needed(window * spread, d_h, 100)))
        for nodes, warns in ((quad.nodes_per_dim, False), (need - 1, True)):
            if nodes < 3:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build(UlaGeometry(m=100, d_h=d_h), phi=0.0, quad=QuadratureConfig(nodes),
                      **{key: spread})
            assert any(issubclass(w.category, QuadratureWarning) for w in caught) == warns
        counts.append(quad.nodes_per_dim)
    # fig12d at sigma = 15 deg needs 628 d_H nodes: above 4001 from d_H = 6.5 on
    above = [n > gbsm.MAX_QUAD_NODES for n in counts]
    assert above == (list(D_H_GRID >= 6.5) if spread_deg == 15.0 else [False] * D_H_GRID.size)


@pytest.mark.slow
@pytest.mark.parametrize("d_h", [8.5, 10.0])
def test_fig12d_capped_rows_reach_the_uncorrelated_limit(d_h):
    # sigma_phi = 15 deg, phi = 0, M = 100: a 2e6-point trapezoid puts every off-diagonal
    # entry below 1.4e-8, so C_ub is the uncorrelated limit at eta = 10^6.  These rows
    # need more than 4001 nodes and take panels of the 4001-node rule, without a warning.
    cfg = apply_point(preset("fig12d"), {"d_h": d_h, "sigma_phi": 15.0})
    assert (cfg.m, cfg.phi_deg, cfg.snr_db) == (100, 0.0, 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        value = trial_value(cfg, np.random.default_rng(0))
    assert value == pytest.approx(100 * np.log2(1 + 1e4), rel=1e-9, abs=0)


@pytest.mark.parametrize("n", [101, 201, 399])
@pytest.mark.parametrize("m", [1, 20, 64, 65, 100, 380])
def test_panelled_ula_assembly_is_the_one_piece_product(m, n):
    # The lag-row build against the dense product A diag(w) A^H on M = 1..380.
    angles, w = gbsm.onering_nodes(0.3, 0.2, QuadratureConfig(n))
    a = np.exp(2j * np.pi * 0.5 * np.arange(m)[:, None] * np.sin(angles)[None, :])
    want = (a * w) @ a.conj().T
    np.fill_diagonal(want, 1.0)
    got = gbsm._ula_from_angles(UlaGeometry(m=m), angles, w, 1.7)
    assert np.abs(got - 1.7 * want).max() <= 1e-13 * 1.7
    assert np.array_equal(got, got.conj().T)
    # Constant diagonals: each entry equals its neighbour one row and one column on.
    assert np.array_equal(got[1:, 1:], got[:-1, :-1])
    assert got.flags.writeable and got.flags.c_contiguous


def test_ula_long_lag_entry_matches_extended_precision():
    # M = 380, d_H = 10: the lag-379 phase is about 2 pi * 10 * 379 * sin(0.3) rad.
    m, d_h = 380, 10.0
    angles, w = gbsm.onering_nodes(0.3, 0.2, QuadratureConfig(101))
    r = gbsm._ula_from_angles(UlaGeometry(m=m, d_h=d_h), angles, w, 1.0)
    with mpmath.workdps(30):
        # a_379 conj(a_0) = exp(2 pi i d_H 379 sin(angle)); the float64 nodes are taken as exact.
        lag = 2 * mpmath.mpf(d_h) * (m - 1)
        exact = complex(mpmath.fsum(mpmath.mpf(wj) * mpmath.expjpi(lag * mpmath.sin(mpmath.mpf(t)))
                                    for t, wj in zip(angles, w)))
    # Measured: 9.3e-14, the same as the dense product's; both inherit the phase rounding.
    assert abs(r[m - 1, 0] - exact) <= 3e-13
    assert r[0, m - 1] == r[m - 1, 0].conjugate()
