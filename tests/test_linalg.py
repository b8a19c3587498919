import numpy as np
import pytest

from chansim.errors import InvalidMatrix, InvalidParam, NotPSD
from chansim.gbsm import AngularSpec, UlaGeometry, onering_ula
from chansim.linalg import (check_hermitian, complex_gaussian, condition_number,
                            log2_det_ipm, psd_eigvals, psd_sqrt, sample_correlated)


def random_psd(m, rng):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return a @ a.conj().T


def test_psd_eigvals_identity():
    assert np.allclose(psd_eigvals(np.eye(3)), [1, 1, 1])


def test_psd_eigvals_all_ones():
    assert np.allclose(psd_eigvals(np.ones((3, 3))), [3, 0, 0], atol=1e-12)


def test_psd_eigvals_2x2():
    assert np.allclose(psd_eigvals(np.array([[1.0, 0.5], [0.5, 1.0]])), [1.5, 0.5])


def test_psd_eigvals_nonincreasing():
    rng = np.random.default_rng(0)
    assert np.all(np.diff(psd_eigvals(random_psd(12, rng))) <= 0)


def test_psd_sqrt_reconstruction():
    rng = np.random.default_rng(1)
    a = random_psd(16, rng)
    s = psd_sqrt(a)
    assert np.abs(s @ s.conj().T - a).max() <= 1e-9 * psd_eigvals(a)[0]


@pytest.mark.parametrize("fn", [psd_eigvals, psd_sqrt], ids=["psd_eigvals", "psd_sqrt"])
def test_psd_routines_reject_non_hermitian(fn):
    with pytest.raises(InvalidMatrix):
        fn(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("fn", [psd_eigvals, psd_sqrt], ids=["psd_eigvals", "psd_sqrt"])
def test_psd_routines_reject_nan(fn):
    with pytest.raises(InvalidMatrix):
        fn(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_check_hermitian_tolerates_roundoff():
    a = np.array([[2.0, 1.0 + 1e-15], [1.0, 2.0]])
    check_hermitian(a)


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))


def test_psd_sqrt_diagonal():
    s = psd_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([2.0, 3.0]))


def test_psd_sqrt_onering_reconstruction():
    # rank-deficient at small spread, which is exactly why clipping exists
    r = onering_ula(UlaGeometry(m=8), AngularSpec(phi=np.radians(30),
                                                  delta_phi=np.radians(10)))
    s = psd_sqrt(r)
    lam_max = psd_eigvals(r)[0]
    assert np.abs(s @ s.conj().T - r).max() <= 1e-9 * lam_max


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_eigvals_clips_noise():
    lam = psd_eigvals(np.diag([1.0, -1e-12]))
    assert lam[-1] == 0.0


def test_condition_number_identity():
    assert condition_number(np.eye(5)) == 1.0


def test_condition_number_diag():
    assert np.isclose(condition_number(np.diag([10.0, 1.0])), 10.0)


def test_condition_number_scale_invariance():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    k1 = condition_number(a)
    k2 = condition_number(3.7 * a)
    assert abs(k1 - k2) <= 1e-12 * k1


def test_condition_number_underflow_sentinel():
    a = np.diag([1.0, 1e-310])
    assert condition_number(a) == np.inf


def test_condition_number_zero_matrix():
    with pytest.raises(InvalidMatrix):
        condition_number(np.zeros((3, 3)))


def test_log2_det_ipm_identity():
    eta, m = 1e6, 100
    val = log2_det_ipm(np.eye(m), eta / m)
    assert np.isclose(val, m * np.log2(1 + eta / m), rtol=1e-12)


def test_log2_det_ipm_all_ones():
    eta, m = 1e6, 100
    val = log2_det_ipm(np.ones((m, m)), eta / m)
    assert np.isclose(val, np.log2(1 + eta), rtol=1e-12)


def test_log2_det_ipm_zero_scale():
    assert log2_det_ipm(np.eye(4), 0.0) == 0.0


def test_log2_det_ipm_negative_scale():
    with pytest.raises(InvalidParam):
        log2_det_ipm(np.eye(4), -1.0)


def test_log2_det_ipm_monotone_in_scale():
    rng = np.random.default_rng(3)
    r = random_psd(8, rng)
    vals = [log2_det_ipm(r, c) for c in (0.0, 0.1, 1.0, 10.0, 100.0)]
    assert np.all(np.diff(vals) >= 0)


def test_log2_det_ipm_no_overflow_large_m():
    # a raw determinant overflows here; the eigenvalue path must not
    val = log2_det_ipm(np.eye(400), 1e6 / 400)
    assert np.isfinite(val)


def test_sample_correlated_zero_factor():
    rng = np.random.default_rng(4)
    assert np.all(sample_correlated(np.zeros((5, 5)), rng) == 0)


def test_sample_correlated_unit_variance():
    rng = np.random.default_rng(5)
    draws = np.array([sample_correlated(np.eye(4), rng) for _ in range(100_000)])
    var = np.var(draws, axis=0)
    assert np.all(np.abs(var - 1.0) < 0.05)


def test_sample_correlated_covariance_oracle():
    rng = np.random.default_rng(6)
    r = onering_ula(UlaGeometry(m=8), AngularSpec(phi=0.4, delta_phi=0.3))
    s = psd_sqrt(r)
    draws = np.array([sample_correlated(s, rng) for _ in range(100_000)])
    cov = (draws[:, :, None] * draws[:, None, :].conj()).mean(axis=0)
    err = np.linalg.norm(cov - r) / np.linalg.norm(r)
    assert err < 0.1


def test_complex_gaussian_moments():
    rng = np.random.default_rng(7)
    z = complex_gaussian(200_000, rng)
    assert abs(np.var(z) - 1.0) < 0.02
    assert abs(z.mean()) < 0.02
