import ctypes
import platform

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansim import linalg
from chansim.cbsm import (exponential_correlation, exponential_with_shadowing,
                          uncorrelated_with_shadowing)
from chansim.errors import InvalidMatrix, InvalidParam, NotPSD
from chansim.gbsm import (UlaGeometry, UpaGeometry, gaussian_ula_closed, gaussian_ula_numeric,
                          gaussian_ula_shadowed, gaussian_upa, onering_ula, onering_upa)
from chansim.linalg import (PSD_RTOL, check_hermitian, complex_gaussian, condition_number,
                            flush_subnormals, log2_det_ipm, one_blas_thread, psd_eigvals,
                            psd_sqrt, sample_correlated)
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
       c=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), toeplitz=st.booleans())
def test_log_det_matches_eigen_domain_on_low_rank(m, rank, seed, c, toeplitz):
    rng = np.random.default_rng(seed)
    k = min(rank, m)
    if toeplitz:
        # weighted steering vectors: B B^H is Hermitian Toeplitz, so the real form runs
        angles = rng.uniform(-np.pi, np.pi, k)
        b = np.exp(1j * np.arange(m)[:, None] * angles) * rng.uniform(0.1, 2.0, k)
    else:
        b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    r = b @ b.conj().T
    assert (linalg._factor_form(r).dtype == float) >= toeplitz
    want = float(np.sum(np.log2(1.0 + c * np.clip(np.linalg.eigvalsh(r), 0.0, None))))
    assert abs(log2_det_ipm(r, c) - want) <= 1e-8 * abs(want)
    # capacity_single takes the Gram matrix of B: the same nonzero spectrum
    assert abs(capacity_single(b, c * m) - want) <= 1e-8 * abs(want)


def hermitian_toeplitz(col):
    """Hermitian Toeplitz matrix with first column ``col`` (col[0] real)."""
    col = np.asarray(col, dtype=complex)
    k = np.arange(col.size)
    lag = k[:, None] - k[None, :]
    return np.where(lag >= 0, col[np.abs(lag)], col[np.abs(lag)].conj())


def random_toeplitz(m, rng):
    col = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    col[0] = col[0].real
    return hermitian_toeplitz(col)


def centrohermitian_cases():
    rng = np.random.default_rng(20)
    for m in (1, 2, 7, 8, 33, 100, 101):
        geom = UlaGeometry(m=m)
        yield f"toeplitz-{m}", random_toeplitz(m, rng)
        yield f"onering-{m}", onering_ula(geom, phi=0.4, delta_phi=0.2)
        yield f"gaussian-num-{m}", gaussian_ula_numeric(geom, phi=-0.7, sigma_phi=0.1)
        yield f"gaussian-closed-{m}", gaussian_ula_closed(geom, phi=1.1, sigma_phi=0.05)
        yield f"exponential-{m}", exponential_correlation(m, 0.9)
    for m_h, m_v in ((3, 4), (5, 5)):
        geom = UpaGeometry(m_h=m_h, m_v=m_v)
        yield f"onering-upa-{m_h}x{m_v}", onering_upa(
            geom, phi=0.3, theta=0.2, delta_phi=0.4, delta_theta=0.1)
        yield f"gaussian-upa-{m_h}x{m_v}", gaussian_upa(
            geom, phi=0.3, theta=-0.2, sigma_phi=0.2, sigma_theta=0.1)


CENTROHERMITIAN = dict(centrohermitian_cases())


def shadowed_gaussian(seed):
    """A D K D matrix: the shadow gains break J R J = conj(R)."""
    rng = np.random.default_rng(seed)
    f = rng.normal(0.0, 4.0, 40)
    return gaussian_ula_shadowed(UlaGeometry(m=1), f, np.array([0.3, 1.2]), sigma_phi=0.1)


@pytest.mark.parametrize("name", sorted(CENTROHERMITIAN))
def test_real_form_is_the_unitary_similarity(name):
    r = CENTROHERMITIAN[name]
    m = r.shape[0]
    u = (np.eye(m) + 1j * np.eye(m)[::-1]) / np.sqrt(2.0)
    s = linalg._factor_form(r)
    assert s.dtype == float
    assert np.abs(s - (u.conj().T @ r @ u).real).max() <= 1e-15 * np.abs(r).max()


def phase_form_cases():
    """Shadowed matrices with one direction of arrival: D K D, K a phase ramp times real."""
    rng = np.random.default_rng(22)
    for m in (2, 7, 40, 100):
        f = rng.normal(0.0, 4.0, m)
        for phi in (0.0, 30.0, 90.0, 200.0):
            yield f"gaussian-{m}-{phi:g}", gaussian_ula_shadowed(
                UlaGeometry(m=m), f, np.radians([phi]), sigma_phi=np.radians(15.0))
        for rho, theta in ((0.0, 0.3), (0.5, 0.0), (0.9, np.pi / 2), (1.0, 1.234), (0.99, -2.5)):
            yield f"exponential-{m}-{rho:g}-{theta:.3g}", exponential_with_shadowing(f, rho, theta)
    yield "uncorrelated-20", uncorrelated_with_shadowing(1.0, rng.normal(0.0, 4.0, 20))


PHASE_FORM = dict(phase_form_cases())


@pytest.mark.parametrize("name", sorted(PHASE_FORM))
def test_phase_form_is_the_unitary_similarity(name):
    r = PHASE_FORM[name]
    s, e = linalg._similar_form(r)
    assert s.dtype == float and e is not None
    assert np.array_equal(linalg._factor_form(r), s)
    assert np.abs(np.abs(e) - 1.0).max() <= 1e-13
    big_e = np.diag(e)
    assert np.abs(s - (big_e.conj().T @ r @ big_e).real).max() <= 1e-15 * np.abs(r).max()


@pytest.mark.parametrize("name", sorted(CENTROHERMITIAN) + sorted(PHASE_FORM)
                         + ["shadowed", "random-psd"])
def test_psd_sqrt_is_a_hermitian_root_on_both_paths(name):
    if name in CENTROHERMITIAN:
        r = CENTROHERMITIAN[name]
        if name.startswith("toeplitz"):
            # shifted by its smallest eigenvalue: PSD, still Toeplitz and singular
            r = r - np.linalg.eigvalsh(r)[0] * np.eye(r.shape[0])
    elif name in PHASE_FORM:
        r = PHASE_FORM[name]
    elif name == "shadowed":
        r = shadowed_gaussian(1)
    else:
        r = random_psd(16, np.random.default_rng(21))
    real_path = linalg._factor_form(r).dtype == float
    assert real_path == (name in CENTROHERMITIAN or name in PHASE_FORM)
    s = psd_sqrt(r)
    assert s.dtype == complex
    check_hermitian(s)
    assert np.abs(s @ s.conj().T - r).max() <= 1e-9 * psd_eigvals(r)[0]


@pytest.mark.parametrize("col", [[1.0, 2.0, 0.0, 0.0], [1.0, 1.5j, 0.0, 0.5, 0.0]],
                         ids=["real", "complex"])
@pytest.mark.parametrize("fn", [psd_sqrt, psd_eigvals, lambda r: log2_det_ipm(r, 1.0)],
                         ids=["psd_sqrt", "psd_eigvals", "log2_det_ipm"])
def test_indefinite_toeplitz_raises_on_real_path(fn, col):
    r = hermitian_toeplitz(col)
    assert linalg._factor_form(r).dtype == float
    assert np.linalg.eigvalsh(r)[0] < -0.1
    with pytest.raises(NotPSD):
        fn(r)


def indefinite_phase_form():
    """E D T D E^H, T an indefinite real Toeplitz matrix: neither PSD nor centrohermitian."""
    t = hermitian_toeplitz([1.0, 2.0, 0.0, 0.0]).real
    d = np.array([1.0, 2.0, 0.5, 3.0])
    e = np.exp(0.7j * np.arange(4))
    return (d * e)[:, None] * t * (d * e.conj())


@pytest.mark.parametrize("fn", [psd_sqrt, psd_eigvals, lambda r: log2_det_ipm(r, 1.0)],
                         ids=["psd_sqrt", "psd_eigvals", "log2_det_ipm"])
def test_indefinite_phase_form_raises_on_real_path(fn):
    r = indefinite_phase_form()
    assert linalg._similar_form(r)[1] is not None
    assert np.linalg.eigvalsh(r)[0] < -0.1
    with pytest.raises(NotPSD):
        fn(r)


# Reference copies of the complex path: a matrix that is not centrohermitian
# must still take it unchanged.
def complex_psd_eigvals(a):
    return linalg._clip_psd(np.linalg.eigvalsh(check_hermitian(a))[::-1])


def complex_psd_sqrt(a):
    vals, vecs = np.linalg.eigh(check_hermitian(a))
    lam = linalg._clip_psd(vals[::-1])
    u = vecs[:, ::-1]
    return (u * np.sqrt(lam)) @ u.conj().T


def shifted_cholesky(a, scale, shift):
    """numpy's lower Cholesky factor of scale * a + shift * I."""
    s = a * scale
    s.flat[::s.shape[0] + 1] += shift
    return np.linalg.cholesky(s)


def complex_log2_det_ipm(r, c):
    a = check_hermitian(r)
    try:
        shifted_cholesky(a, 1.0, PSD_RTOL * a.diagonal().real.max())
        l = shifted_cholesky(a, c, 1.0)
    except np.linalg.LinAlgError:
        lam = linalg._clip_psd(np.linalg.eigvalsh(a)[::-1])
        return float(np.sum(np.log2(1.0 + c * lam)))
    return float(2.0 * np.sum(np.log2(l.diagonal().real)))


@pytest.mark.parametrize("seed", range(4))
def test_shadowed_matrix_keeps_the_complex_path_bit_for_bit(seed):
    r = shadowed_gaussian(seed)
    assert linalg._factor_form(r).dtype == complex
    assert np.array_equal(psd_sqrt(r), complex_psd_sqrt(r))
    assert np.array_equal(psd_eigvals(r), complex_psd_eigvals(r))
    for c in (0.0, 1e-3, 25.0, 1e6):
        assert log2_det_ipm(r, c) == complex_log2_det_ipm(r, c)


def oracle_cases():
    """16 shadowed matrices, M <= 32, that take the phase real form."""
    rng = np.random.default_rng(30)
    for m, phi, sigma in ((8, 0, 5), (16, 0, 15), (32, 0, 15), (16, 30, 5), (32, 30, 15),
                          (8, 90, 15), (32, 90, 5), (24, 200, 10)):
        f = rng.normal(0.0, 4.0, m)
        yield f"gaussian-{m}-{phi}-{sigma}", gaussian_ula_shadowed(
            UlaGeometry(m=m), f, np.radians([phi]), sigma_phi=np.radians(sigma))
    for m, rho, theta in ((8, 0.0, 0.3), (16, 0.5, 0.0), (32, 0.9, np.pi / 2), (32, 1.0, 1.234),
                          (16, 0.99, 2.5), (24, 0.2, -1.0), (32, 0.6, 1.234), (8, 0.95, np.pi)):
        f = rng.normal(0.0, 4.0, m)
        yield f"exponential-{m}-{rho}-{theta:.3g}", exponential_with_shadowing(f, rho, theta)


ORACLE = dict(oracle_cases())


def log2_det_40_digits(r, c):
    """log2 det(I + c R) from a 40-digit determinant, each entry of R taken as exact."""
    m = r.shape[0]
    with mpmath.workdps(40):
        a = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(m):
                a[i, j] = (i == j) + mpmath.mpf(c) * mpmath.mpc(r[i, j].real, r[i, j].imag)
        return float(mpmath.log(mpmath.re(mpmath.det(a)), 2))


def oracle_tolerance(r, c):
    # u: the first-order change of the value, in bits, when every entry of R moves by
    # eps * max|R|.  The bound is twice the complex path's worst measured error, 0.25 u, over
    # random shadowed matrices (M <= 16, eta 1e2 and 1e6); in two samples of 400 the complex
    # path reached 0.13 u and the real path 0.19 u.  Here the worst are 0.07 u (complex) and
    # 0.12 u (real); near rank 1 at eta = 1e6 that is 2.6e-12 and 1.2e-11 relative.
    return 0.5 * c * r.shape[0] * np.finfo(float).eps * np.abs(r).max() / np.log(2.0)


@pytest.mark.parametrize("eta", [1e2, 1e6])
@pytest.mark.parametrize("name", sorted(ORACLE))
def test_shadowed_log_det_matches_40_digit_determinant(name, eta):
    r = ORACLE[name]
    c = eta / r.shape[0]
    assert linalg._similar_form(r)[1] is not None
    want = log2_det_40_digits(r, c)
    tol = oracle_tolerance(r, c)
    assert abs(log2_det_ipm(r, c) - want) <= tol
    assert abs(complex_log2_det_ipm(r, c) - want) <= tol


@pytest.fixture
def factorizations(monkeypatch):
    """(kd, succeeded) of every Cholesky factorization the log-det runs; kd None when dense."""
    calls, factor = [], linalg._cholesky_diagonal

    def spy(a, scale, shift, kd=None):
        diagonal = factor(a, scale, shift, kd)
        calls.append((kd, diagonal is not None))
        return diagonal

    monkeypatch.setattr(linalg, "_cholesky_diagonal", spy)
    return calls


def without_lapack(monkeypatch):
    monkeypatch.setattr(linalg, "_lapack", lambda: None)


def noise_band_probe(mu):
    """ones(4, 4) - mu u u^T, u = (1, -1, 0, 0)/sqrt(2): lambda_min = -mu, max diag R = 1."""
    u = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    return np.ones((4, 4)) - mu * np.outer(u, u)


def banded_embedding(r, m=40):
    """r in the leading block of an M x M identity: the lower bandwidth stays r's."""
    out = np.eye(m)
    out[:r.shape[0], :r.shape[0]] = r
    return out


@pytest.mark.parametrize("path", ["dense", "banded", "no-lapack"])
def test_noise_band_jump_on_every_path(path, monkeypatch, factorizations):
    # Inside the noise band the value is the factor's: lambda_min in (-tau, 0), tau =
    # PSD_RTOL * max diag R = 1e-8, keeps log2(1 + c lambda_min).  Below -tau it is the clipped
    # spectrum's, which counts lambda_min as 0: the documented jump of log2_det_ipm.
    c = 1e6
    if path == "no-lapack":
        without_lapack(monkeypatch)
    embed = banded_embedding if path == "banded" else (lambda r: r)
    rest = 36 * np.log2(1.0 + c) if path == "banded" else 0.0
    inside, below = embed(noise_band_probe(5e-9)), embed(noise_band_probe(1.5e-8))
    cholesky = log2_det_ipm(inside, c)
    assert abs(cholesky - rest - 21.92434) <= 1e-5
    assert abs(cholesky - np.linalg.slogdet(np.eye(inside.shape[0]) + c * inside)[1]
               / np.log(2.0)) <= 1e-9 * cholesky
    assert abs(float(np.sum(np.log2(1.0 + c * psd_eigvals(inside)))) - cholesky) > 5e-3
    clipped = log2_det_ipm(below, c)
    assert abs(clipped - rest - 21.93157) <= 1e-5
    assert clipped == float(np.sum(np.log2(1.0 + c * psd_eigvals(below))))
    kd = 3 if path == "banded" else None
    # inside: the guard and the value's factorization succeed; below: the guard fails
    assert factorizations == [(kd, True), (kd, True), (kd, False)]


def fallback_cases():
    """Dense real forms, complex matrices and eigenvalue-fallback values."""
    for name in ("gaussian-closed-33", "onering-100", "gaussian-num-101", "exponential-100",
                 "onering-upa-5x5"):
        yield name, CENTROHERMITIAN[name]
    for name in ("gaussian-100-0", "gaussian-100-90", "exponential-100-0.99--2.5",
                 "uncorrelated-20"):
        yield name, PHASE_FORM[name]
    yield "shadowed", shadowed_gaussian(2)
    yield "random-psd", random_psd(50, np.random.default_rng(23))
    yield "real-input", exponential_correlation(64, 0.7)
    yield "noise-band", noise_band_probe(1.5e-8)
    yield "noise-band-phase", noise_band_probe(1.5e-8) * np.exp(0.3j * np.arange(4))[:, None] \
        * np.exp(-0.3j * np.arange(4))


FALLBACK = dict(fallback_cases())


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_log_det_without_lapack_binding_is_bit_identical(name, monkeypatch, factorizations):
    r = FALLBACK[name]
    values = [log2_det_ipm(r, c) for c in (0.0, 1e-3, 25.0, 1e6)]
    assert all(kd is None for kd, _ in factorizations)
    without_lapack(monkeypatch)
    assert [log2_det_ipm(r, c) for c in (0.0, 1e-3, 25.0, 1e6)] == values


def broadside_gaussian(m, phi_deg, sigma_deg=15.0, seed=40):
    """fig12c's shadowed Gaussian, built with subnormals flushed as a sweep builds it."""
    f = np.random.default_rng(seed).normal(0.0, 4.0, m)
    with flush_subnormals():
        return gaussian_ula_shadowed(UlaGeometry(m=m), f, np.radians([phi_deg]),
                                     sigma_phi=np.radians(sigma_deg))


@pytest.mark.parametrize("m, phi, kd", [(140, 0.0, 45), (220, 0.0, 45), (220, 30.0, 52),
                                        (380, 0.0, 45), (380, 60.0, 91), (380, 70.0, 133)])
@pytest.mark.parametrize("eta", [1e2, 1e6])
def test_banded_log_det_matches_the_dense_one(m, phi, kd, eta, monkeypatch, factorizations):
    r = broadside_gaussian(m, phi)
    with flush_subnormals():
        banded = log2_det_ipm(r, eta / m)
        monkeypatch.setattr(linalg, "_BAND_MARGIN", np.inf)
        dense = log2_det_ipm(r, eta / m)
    assert factorizations == [(kd, True), (kd, True), (None, True), (None, True)]
    assert abs(banded - dense) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("m, phi, kd", [(24, 0.0, 11), (32, 0.0, 11), (32, 20.0, 12),
                                        (32, 30.0, 13)])
@pytest.mark.parametrize("eta", [1e2, 1e6])
def test_banded_log_det_matches_40_digit_determinant(m, phi, kd, eta, monkeypatch,
                                                     factorizations):
    # sigma_phi = 60 deg narrows the band enough for M <= 32; a zero margin lets it take the
    # band path there.
    monkeypatch.setattr(linalg, "_BAND_MARGIN", 0)
    r = broadside_gaussian(m, phi, sigma_deg=60.0, seed=m)
    c = eta / m
    with flush_subnormals():
        got = log2_det_ipm(r, c)
    assert factorizations == [(kd, True), (kd, True)]
    assert abs(got - log2_det_40_digits(r, c)) <= oracle_tolerance(r, c)


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "phase-form"])
def test_indefinite_banded_matrix_raises(complex_input, factorizations):
    # D T D, T tridiagonal with a dominant off-diagonal; the gains D break J R J = conj(R).
    m = 64
    d = np.linspace(1.0, 2.0, m)
    r = d[:, None] * (np.eye(m) + 2.0 * (np.eye(m, k=1) + np.eye(m, k=-1))) * d
    if complex_input:
        e = np.exp(0.4j * np.arange(m))
        r = e[:, None] * r * e.conj()
        assert linalg._similar_form(r)[1] is not None
    assert np.linalg.eigvalsh(r)[0] < -2.0
    with pytest.raises(NotPSD):
        log2_det_ipm(r, 1.0)
    assert factorizations == [(1, False)]


OVERFLOWING = np.array([[1.3e308, 1.3e308 * (1 + 1j)], [1.3e308 * (1 - 1j), 1.3e308]])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_entries_whose_moduli_overflow_are_not_rejected_as_non_finite():
    # |1.3e308 (1 + i)| overflows to inf, so max|A| is not finite although every entry is:
    # the finiteness check in that pass must let it through, as the full scan did.  (The
    # modulus of 1e308 (1 + i), 1.41e308, is finite.)
    assert np.isfinite(OVERFLOWING).all() and np.abs(OVERFLOWING).max() == np.inf
    before = OVERFLOWING.tobytes()
    assert np.array_equal(check_hermitian(OVERFLOWING), OVERFLOWING)
    assert log2_det_ipm(OVERFLOWING, 1.0) == np.inf
    assert capacity_ub(OVERFLOWING, 10.0) == np.inf
    assert np.isnan(psd_eigvals(OVERFLOWING)).all()
    assert np.isnan(psd_sqrt(OVERFLOWING)).all()
    assert np.isnan(condition_number(OVERFLOWING))
    assert OVERFLOWING.tobytes() == before


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


def _mxcsr():
    env = (ctypes.c_uint32 * 8)()
    linalg._fenv()[0](env)
    return env[-1]


def test_flush_subnormals_sets_ftz_daz_and_restores():
    if linalg._fenv() is None:
        pytest.skip("the FP policy applies only to glibc on x86-64")
    tiny = np.finfo(float).tiny
    before = _mxcsr()
    assert before & linalg._FTZ_DAZ == 0
    with flush_subnormals():
        assert _mxcsr() & linalg._FTZ_DAZ == linalg._FTZ_DAZ
        assert tiny / 4 == 0.0
        assert np.array([tiny]) / 4 == 0.0
    assert _mxcsr() == before
    assert tiny / 4 > 0.0
    with pytest.raises(ZeroDivisionError), flush_subnormals():
        1 / 0
    assert _mxcsr() == before


def test_flush_subnormals_is_a_no_op_without_fenv(monkeypatch):
    monkeypatch.setattr(linalg, "_fenv", lambda: None)
    with flush_subnormals():
        assert np.finfo(float).tiny / 4 > 0.0


def test_fenv_found_on_glibc_x86_64():
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        pytest.skip("the FP policy applies only to glibc on x86-64")
    assert linalg._fenv() is not None


def strided_layouts(r):
    """The matrix r (Hermitian PSD) as a C, a Fortran-ordered and a transposed array."""
    return {"c": r, "fortran": np.asfortranarray(r), "transposed": r.T}


# Matrices that take the real, the phase and the complex path; the step-2 views are
# principal submatrices, so still Hermitian PSD.
STRIDED_INPUTS = {
    **{f"onering-{k}": v for k, v in strided_layouts(
        onering_ula(UlaGeometry(m=12), phi=0.3, delta_phi=0.2)).items()},
    **{f"shadowed-{k}": v for k, v in strided_layouts(shadowed_gaussian(3)).items()},
    **{f"random-{k}": v for k, v in strided_layouts(
        random_psd(9, np.random.default_rng(8))).items()},
    "onering-step2": onering_ula(UlaGeometry(m=24), phi=0.3, delta_phi=0.2)[::2, ::2],
    "random-step2": random_psd(18, np.random.default_rng(9))[::2, ::2],
}
ENTRY_POINTS = {
    "psd_eigvals": psd_eigvals,
    "psd_sqrt": psd_sqrt,
    "check_hermitian": check_hermitian,
    "condition_number": condition_number,
    "log2_det_ipm": lambda r: log2_det_ipm(r, 10.0),
    "capacity_ub": lambda r: capacity_ub(r, 100.0),
    "sample_correlated": lambda r: sample_correlated(r, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", sorted(STRIDED_INPUTS))
@pytest.mark.parametrize("fn", sorted(ENTRY_POINTS))
def test_entry_points_take_any_strides(fn, name):
    # A complex matrix whose last axis is not contiguous once raised numpy's
    # ValueError from the finiteness check.  The value is that of a C copy, up to
    # the BLAS's summation order in sample_correlated's product.
    r = STRIDED_INPUTS[name]
    got, want = ENTRY_POINTS[fn](r), ENTRY_POINTS[fn](np.ascontiguousarray(r))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("layout", ["c", "fortran", "transposed", "step2"])
@pytest.mark.parametrize("fn", sorted(ENTRY_POINTS))
def test_non_finite_entries_raise_invalid_matrix_in_any_layout(fn, layout):
    r = random_psd(6, np.random.default_rng(10))
    r[3, 1] = complex(np.nan, 1.0)
    r = {"c": r, "fortran": np.asfortranarray(r), "transposed": r.T,
         "step2": np.kron(r, np.ones((2, 2)))[::2, ::2]}[layout]
    with pytest.raises(InvalidMatrix, match="NaN or Inf"):
        ENTRY_POINTS[fn](r)
