import numpy as np
import pytest

from chansim import linalg
from chansim.cbsm import exponential_correlation
from chansim.errors import InvalidMatrix, InvalidParam, ZeroVector
from chansim.gbsm import UlaGeometry, gaussian_ula_shadowed, onering_ula
from chansim.linalg import complex_gaussian, psd_sqrt, sample_correlated
from chansim.metrics import (capacity_single, capacity_ub, correlation_coefficient,
                             db_to_linear, mean_with_stderr, sinr_per_user)
from chansim.precoding import cb_precoder, normalize_columns, zf_precoder


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert np.isclose(db_to_linear(60.0), 1e6)
    assert np.isclose(db_to_linear(10.0), 10.0)


def test_capacity_scalar_channel():
    eta = 10.0
    assert np.isclose(capacity_single(np.array([1.0 + 0j]), eta),
                      np.log2(1 + eta))


def test_capacity_zero_channel():
    assert capacity_single(np.zeros((4, 2)), 10.0) == 0.0


def test_ergodic_capacity_matches_bruteforce():
    # i.i.d. 4x4 at eta = 10 against a high-trial direct-determinant oracle
    rng = np.random.default_rng(0)
    eta, m = 10.0, 4
    draws = [complex_gaussian((m, m), rng) for _ in range(4000)]
    est = np.mean([capacity_single(h, eta) for h in draws])
    oracle = np.mean([np.log2(np.linalg.det(np.eye(m) + (eta / m) * h @ h.conj().T).real)
                      for h in draws])
    assert abs(est - oracle) / oracle < 1e-12
    # against an independent large-sample mean
    rng2 = np.random.default_rng(1)
    big = np.mean([capacity_single(complex_gaussian((m, m), rng2), eta)
                   for _ in range(100_000)])
    assert abs(est - big) / big < 0.01


def test_capacity_ub_anchors():
    eta, m = 1e6, 100
    assert np.isclose(capacity_ub(np.eye(m), eta), m * np.log2(1 + eta / m),
                      rtol=1e-9)
    assert np.isclose(capacity_ub(np.ones((m, m)), eta), np.log2(1 + eta),
                      rtol=1e-9)


@pytest.mark.parametrize("r", [
    gaussian_ula_shadowed(UlaGeometry(m=1), np.zeros(100), [np.pi / 2], sigma_phi=0.1),
    gaussian_ula_shadowed(UlaGeometry(m=1), np.random.default_rng(12).normal(0, 2, 100),
                          [np.pi / 2], sigma_phi=0.1),
    exponential_correlation(100, 1.0),
    onering_ula(UlaGeometry(m=100), phi=0.3, delta_phi=0.0, beta=0.7),
], ids=["gaussian-phi90", "gaussian-phi90-shadowed", "exponential-rho1", "onering-delta0"])
def test_capacity_ub_rank1_closed_form(r):
    # rank 1: the only nonzero eigenvalue is tr R, so the bound is log2(1 + c tr R)
    eta, m = 1e6, r.shape[0]
    exact = np.log2(1.0 + eta / m * np.trace(r).real)
    assert abs(capacity_ub(r, eta) - exact) <= 1e-11 * exact


@pytest.mark.parametrize("capacity, r", [
    (capacity_ub, np.array(2.0)), (capacity_ub, np.ones(3)), (capacity_ub, np.zeros((0, 0))),
    (capacity_single, np.array(2.0)),
], ids=["0-d", "1-D", "0x0", "single-0-d"])
def test_capacity_ub_rejects_non_matrix(capacity, r):
    with pytest.raises(InvalidMatrix):
        capacity(r, 10.0)


def test_capacity_ub_checks_hermitian_once(monkeypatch):
    calls = []
    check = linalg.check_hermitian

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(linalg, "check_hermitian", counting)
    capacity_ub(np.eye(4), 10.0)
    assert calls == [1]


def test_capacity_ub_exponential_ordering():
    eta, m = 1e6, 100
    caps = [capacity_ub(exponential_correlation(m, r), eta)
            for r in (0.0, 0.6, 0.8, 1.0)]
    assert caps[0] > caps[1] > caps[2] > caps[3]
    assert (caps[2] - caps[3]) > (caps[0] - caps[1])


def test_jensen_bound():
    rng = np.random.default_rng(2)
    eta, m = 1e6, 16
    for r in (exponential_correlation(m, 0.5),
              onering_ula(UlaGeometry(m=m), phi=0.5, delta_phi=np.radians(10))):
        s = psd_sqrt(r)
        caps = [capacity_single(sample_correlated(s, rng), eta)
                for _ in range(10_000)]
        mean, se = mean_with_stderr(caps)
        assert mean <= capacity_ub(r, eta) + 2 * se


def test_sinr_single_user_no_interference():
    rng = np.random.default_rng(3)
    h = complex_gaussian((32, 1), rng)
    p = np.array([0.7])
    w = normalize_columns(cb_precoder(h), p)
    sigma2 = 0.3
    gam = sinr_per_user(h, w, sigma2)
    expected = p[0] ** 2 * np.linalg.norm(h) ** 2 / sigma2
    assert np.isclose(gam[0], expected)


def test_sinr_zf_interference_free():
    rng = np.random.default_rng(4)
    h = complex_gaussian((64, 8), rng)
    w = normalize_columns(zf_precoder(h), np.full(8, 1.0 / 8))
    sigma2 = 1e-2
    gam = sinr_per_user(h, w, sigma2)
    signal = np.abs(np.diag(h.conj().T @ w)) ** 2
    assert np.allclose(gam, signal / sigma2, rtol=1e-9)


def test_sinr_unitary_invariance():
    rng = np.random.default_rng(5)
    h = complex_gaussian((16, 4), rng)
    w = complex_gaussian((16, 4), rng)
    q, _ = np.linalg.qr(complex_gaussian((16, 16), rng))
    g1 = sinr_per_user(h, w, 0.5)
    g2 = sinr_per_user(q @ h, q @ w, 0.5)
    assert np.allclose(g1, g2)


def test_sinr_validation():
    rng = np.random.default_rng(6)
    h = complex_gaussian((8, 2), rng)
    with pytest.raises(InvalidParam):
        sinr_per_user(h, h, 0.0)
    with pytest.raises(InvalidParam):
        sinr_per_user(h, h[:, :1], 1.0)


def test_correlation_coefficient_extremes():
    rng = np.random.default_rng(7)
    h = complex_gaussian(16, rng)
    assert np.isclose(correlation_coefficient(h, h), 1.0)
    e1 = np.zeros(4, dtype=complex)
    e2 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    e2[1] = 1.0
    assert correlation_coefficient(e1, e2) == 0.0
    with pytest.raises(ZeroVector):
        correlation_coefficient(h, np.zeros(16))


def test_correlation_coefficient_scale_invariant():
    rng = np.random.default_rng(8)
    h_i = complex_gaussian(16, rng)
    h_j = complex_gaussian(16, rng)
    v1 = correlation_coefficient(h_i, h_j)
    v2 = correlation_coefficient((2.0 - 1j) * h_i, 0.3j * h_j)
    assert np.isclose(v1, v2)
    assert 0.0 <= v1 <= 1.0


def test_mean_correlation_decreases_with_m():
    rng = np.random.default_rng(9)
    means = []
    for m in (10, 50, 100):
        vals = [correlation_coefficient(complex_gaussian(m, rng),
                                        complex_gaussian(m, rng))
                for _ in range(1000)]
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


def test_mean_with_stderr():
    mean, se = mean_with_stderr([3.0])
    assert mean == 3.0 and se == 0.0
    mean, se = mean_with_stderr([1.0, 3.0])
    assert mean == 2.0
    assert np.isclose(se, np.sqrt(2.0) / np.sqrt(2.0))
