import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansim import linalg
from chansim.errors import InvalidMatrix, InvalidParam, NotPSD
from chansim.gbsm import UlaGeometry, onering_ula
from chansim.linalg import (PSD_RTOL, check_hermitian, complex_gaussian, condition_number,
                            log2_det_ipm, one_blas_thread, psd_eigvals, psd_sqrt,
                            sample_correlated)
from chansim.metrics import capacity_single, capacity_ub


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
    r = onering_ula(UlaGeometry(m=8), phi=np.radians(30), delta_phi=np.radians(10))
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
    # a raw determinant overflows here; the log-det must not
    val = log2_det_ipm(np.eye(400), 1e6 / 400)
    assert np.isfinite(val)


def shifted_low_rank():
    """Rank-3 PSD matrix shifted by -2 PSD_RTOL lambda_max: just outside the noise band."""
    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    r = b @ b.conj().T
    return r - 2 * PSD_RTOL * np.linalg.eigvalsh(r)[-1] * np.eye(8)


@pytest.mark.parametrize("r", [
    np.diag([1.0, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), shifted_low_rank(),
], ids=["diag", "antidiag", "shifted-low-rank"])
@pytest.mark.parametrize("fn", [
    lambda r: log2_det_ipm(r, 1.0), lambda r: log2_det_ipm(r, 0.0),
    lambda r: capacity_ub(r, 1e3),
], ids=["log2_det_ipm", "log2_det_ipm-c0", "capacity_ub"])
def test_log_det_rejects_indefinite(fn, r):
    with pytest.raises(NotPSD):
        fn(r)


def test_log_det_inside_noise_band_takes_clipped_spectrum():
    # lambda_max = 4 but max diag R ~ 1, so lambda_min = -2.5e-8 lies between
    # -PSD_RTOL * lambda_max and the guard shift -PSD_RTOL * max diag R.
    u = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    r = np.ones((4, 4)) - 2.5e-8 * np.outer(u, u)
    c = 1e6
    lam = psd_eigvals(r)
    assert lam[-1] == 0.0
    assert log2_det_ipm(r, c) == float(np.sum(np.log2(1.0 + c * lam)))
    assert abs(log2_det_ipm(r, c) - np.linalg.slogdet(np.eye(4) + c * r)[1] / np.log(2)) > 1e-3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=st.integers(1, 40), rank=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       c=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)))
def test_log_det_matches_eigen_domain_on_low_rank(m, rank, seed, c):
    rng = np.random.default_rng(seed)
    k = min(rank, m)
    b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    r = b @ b.conj().T
    want = float(np.sum(np.log2(1.0 + c * np.clip(np.linalg.eigvalsh(r), 0.0, None))))
    assert abs(log2_det_ipm(r, c) - want) <= 1e-8 * abs(want)
    # capacity_single takes the Gram matrix of B: the same nonzero spectrum
    assert abs(capacity_single(b, c * m) - want) <= 1e-8 * abs(want)


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
    r = onering_ula(UlaGeometry(m=8), phi=0.4, delta_phi=0.3)
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


def test_one_blas_thread_sets_one_and_restores(monkeypatch):
    count = {"n": 3}
    monkeypatch.setattr(linalg, "_openblas_threads",
                        lambda: (lambda: count["n"], lambda n: count.update(n=n)))
    with one_blas_thread():
        assert count["n"] == 1
    assert count["n"] == 3
    with pytest.raises(ZeroDivisionError), one_blas_thread():
        1 / 0
    assert count["n"] == 3


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    ran = []
    with one_blas_thread():
        ran.append(1)
    assert ran == [1]


def test_one_blas_thread_on_numpys_openblas():
    threads = linalg._openblas_threads()
    if threads is None:
        pytest.skip("numpy links no OpenBLAS with a settable thread count")
    get, set_ = threads
    before = get()
    try:
        set_(2)
        with one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)
