"""Complex dense linear algebra kernel.

PSD eigenvalues and matrix square roots, condition numbers,
log-determinants by a PSD-guarded Cholesky factorization (with the
eigenvalue path as its fallback) and correlated complex Gaussian sampling.
Every routine takes and returns plain numpy arrays or floats, and factors a
real symmetric matrix as it is, and a centrohermitian one (every Hermitian
Toeplitz one) or one that is E S E^H for a real S and a diagonal unitary E
in real arithmetic.  The log-det's Cholesky factorizations run in place
through the LAPACK that numpy loaded, banded where the real form is zero
beyond a band, and through ``np.linalg.cholesky`` where that LAPACK is not
found.
All correlation-matrix consumers in the package go through these routines
so that the Hermitian check and the PSD clipping policy live in one place.
:func:`one_blas_thread` and :func:`flush_subnormals` set a sweep point's FP state.
"""

from __future__ import annotations

import ctypes
import platform
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidMatrix, InvalidParam, NotPSD

# Relative tolerance on the Hermitian residual max|A - A^H|.
HERMITIAN_RTOL = 1e-12
# Eigenvalues above -PSD_RTOL * lambda_max are treated as numerically zero.
PSD_RTOL = 1e-8

# (get, set) thread-count symbols: the scipy-openblas wheel, then a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _numpy_lapack_lib():
    """numpy's LAPACK extension as a ctypes library, or None."""
    try:
        # dlsym on numpy's LAPACK extension also searches the libraries it links.
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


@lru_cache(maxsize=1)
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    lib = _numpy_lapack_lib()
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    Results then do not depend on the BLAS thread setting, and worker
    processes do not compete for cores with BLAS threads.  Without an
    OpenBLAS whose count can be set this does nothing.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


# MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6).  glibc's x86-64
# fenv_t is eight 32-bit words, and the last one, at byte 28, is the MXCSR.
_FTZ_DAZ = 0x8040


@lru_cache(maxsize=1)
def _fenv():
    """glibc's (fegetenv, fesetenv) on x86-64, or None where the MXCSR's place is not known."""
    lib = ctypes.CDLL(None) if platform.machine() == "x86_64" else None
    if lib is None or not all(hasattr(lib, f) for f in ("gnu_get_libc_version", "fegetenv")):
        return None
    for f in (lib.fegetenv, lib.fesetenv):
        f.argtypes, f.restype = [ctypes.POINTER(ctypes.c_uint32)], ctypes.c_int
    return lib.fegetenv, lib.fesetenv


@contextmanager
def flush_subnormals():
    """Run the body with subnormal floats read and written as zero, then restore the FP state.

    Kernels that decay through the subnormal range (the Gaussian kernel at
    broadside) then do not stall the CPU.  Off glibc x86-64 this does nothing.
    """
    fenv = _fenv()
    if fenv is None:
        yield
        return
    get, set_ = fenv
    saved = (ctypes.c_uint32 * 8)()
    get(saved)
    set_((ctypes.c_uint32 * 8)(*saved[:-1], saved[-1] | _FTZ_DAZ))
    try:
        yield
    finally:
        set_(saved)


def _check_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidMatrix(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray) -> np.ndarray:
    a = _check_matrix(a)
    # A view for C- or Fortran-ordered a, else a copy: a.view(float) needs a contiguous
    # last axis, and the float view tests twice as fast as the complex array.
    flat = a.ravel(order="K")
    if not np.isfinite(flat.view(float) if np.iscomplexobj(a) else flat).all():
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    return a


def _conj_residual(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - conj(b)| for ``b`` a view of ``a``, from one full-size copy of ``b``.

    The copy is explicit: ``np.ascontiguousarray(a.T)`` is ``a`` itself for a
    1 x 1 or Fortran-ordered ``a``, and conjugating it in place would change
    the caller's matrix.
    """
    d = b.copy()
    np.conjugate(d, out=d)
    np.subtract(a, d, out=d)
    return np.abs(d).max()


def _hermitian_and_scale(a: np.ndarray) -> tuple[np.ndarray, float]:
    a = _check_matrix(a)
    scale = np.abs(a).max()
    if not np.isfinite(scale):
        # NaN or Inf entries raise; finite ones whose moduli overflow pass, as before.
        _check_finite(a)
    if a.shape[0] != a.shape[1]:
        raise InvalidMatrix("Hermitian matrix must be square")
    if scale > 0:
        resid = _conj_residual(a, a.T)
        if resid > HERMITIAN_RTOL * scale:
            raise InvalidMatrix(f"Hermitian residual {resid:.3e} exceeds {HERMITIAN_RTOL:.0e}"
                                f" * max|A| = {HERMITIAN_RTOL * scale:.3e}")
    return np.asarray(a, dtype=complex if np.iscomplexobj(a) else float), scale


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate conjugate symmetry of ``a`` and return it as a complex array."""
    return np.asarray(_hermitian_and_scale(a)[0], dtype=complex)


def _similar_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(A, e): a real symmetric A unitarily similar to Hermitian ``a`` if found, else (a, None).

    Centrohermitian a (max|J a J - conj(a)| <= HERMITIAN_RTOL * max|a|, J the exchange
    matrix) gives A = Re(U^H a U), U = (I + iJ)/sqrt(2) (A. Lee, LAA 29, 1980), and e = None.
    Else E = diag(e), e the running product of the phases of a's first subdiagonal, and
    A = Re(E^H a E) if its imaginary part is within the same residual (shadowed, one AoA).
    A real A is a compact copy, so the complex E^H a E is freed on return.
    """
    a, scale = _hermitian_and_scale(a)
    tol = HERMITIAN_RTOL * scale
    d = a.diagonal()  # its residual alone rejects a shadowed matrix in O(M)
    # max|a - conj(J a J)| is max|J a J - conj(a)| exactly: only signs differ.
    if np.abs(d[::-1] - d.conj()).max() <= tol and _conj_residual(a, a[::-1, ::-1]) <= tol:
        s = a.real + a.real[::-1, ::-1]
        if np.iscomplexobj(a):
            s += a.imag[::-1, :]
            s -= a.imag[:, ::-1]
        s /= 2.0
        return s, None
    sub = np.where(a.diagonal(-1) != 0, a.diagonal(-1), 1.0)
    e = np.cumprod(np.concatenate(([1.0 + 0j], sub / np.abs(sub))))
    e /= np.abs(e)  # keeps E unitary: the product's rounding drifts off |e| = 1
    b = np.outer(e.conj(), e)
    np.multiply(a, b, out=b)
    if np.abs(b.imag).max() > tol:
        return a, None
    return b.real.copy(), e


def _factor_form(a: np.ndarray) -> np.ndarray:
    """The matrix of :func:`_similar_form`: real symmetric where it can be, else ``a``.

    A real symmetric ``a`` is its own real form: it skips the similarity tests and copies.
    """
    if not np.iscomplexobj(a):
        return _hermitian_and_scale(a)[0]
    return _similar_form(a)[0]


def _clip_psd(values: np.ndarray) -> np.ndarray:
    """Clip a nonincreasing spectrum to >= 0; raise :class:`NotPSD` below the noise band."""
    lam_max = values[0] if values.size else 0.0
    tol = PSD_RTOL * max(lam_max, 0.0)
    if values[-1] < -tol:
        raise NotPSD(
            f"minimum eigenvalue {values[-1]:.3e} below -{PSD_RTOL:.0e} * lambda_max"
        )
    return np.clip(values, 0.0, None)


def psd_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a numerically PSD Hermitian matrix, nonincreasing, clipped to >= 0.

    Raises :class:`NotPSD` if any eigenvalue is below ``-PSD_RTOL * lambda_max``.
    """
    return _clip_psd(np.linalg.eigvalsh(_factor_form(a))[::-1])


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, with S @ S^H == a.

    Eigenvalues in the numerical-noise band below zero are clipped before
    taking the square root, so rank-deficient correlation matrices (one-ring
    with a small angular spread, for instance) are handled without Cholesky
    failures.  With T the root of a's real form (:func:`_similar_form`), a
    centrohermitian ``a`` gets U T U^H and a phase-similar one E T E^H.
    """
    form, e = _similar_form(a)
    vals, vecs = np.linalg.eigh(form)
    del form  # not held through the root's M x M temporaries
    lam = _clip_psd(vals[::-1])
    u = vecs[:, ::-1]
    t = (u * np.sqrt(lam)) @ u.conj().T
    del u, vecs  # nor the eigenvectors
    if e is not None:
        root = np.outer(e, e.conj())
        return np.multiply(t, root, out=root)
    if np.iscomplexobj(t):
        return t
    # U T U^H = (T + J T J)/2 + i (J T - T J)/2, written into one complex array.
    root = np.empty(t.shape, dtype=complex)
    re, im = root.real, root.imag
    np.add(t, t[::-1, ::-1], out=re)
    re /= 2.0
    np.subtract(t[::-1, :], t[:, ::-1], out=im)
    im /= 2.0
    return root


def condition_number(a: np.ndarray) -> float:
    """Ratio of the largest to the smallest singular value of ``a``.

    Returns ``inf`` when the smallest singular value underflows (below 1e-300).
    """
    a = _check_finite(a)
    if not np.any(a):
        raise InvalidMatrix("condition number of the all-zero matrix is undefined")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] < 1e-300:
        return float("inf")
    return float(s[0] / s[-1])


# numpy's ILP64 LAPACK (the scipy-openblas wheel): dense real and complex, and banded real
# Cholesky factorizations.
_LAPACK_SYMBOLS = ("scipy_dpotrf_64_", "scipy_zpotrf_64_", "scipy_dpbtrf_64_")
# The band path is taken for a lower bandwidth kd <= M/2 - _BAND_MARGIN: below that
# margin its gather and call overheads outweigh the saving (README, decisions ledger).
_BAND_MARGIN = 16


@lru_cache(maxsize=1)
def _lapack():
    """numpy's (dpotrf, zpotrf, dpbtrf) as ctypes functions taking 64-bit integers, or None."""
    lib = _numpy_lapack_lib()
    if not all(hasattr(lib, name) for name in _LAPACK_SYMBOLS):
        return None
    fns = tuple(getattr(lib, name) for name in _LAPACK_SYMBOLS)
    ints = ctypes.POINTER(ctypes.c_int64)
    # (uplo, n, [kd,] a, lda, info) and gfortran's hidden length of uplo.
    for fn, n_ints in zip(fns, (1, 1, 2)):
        fn.argtypes = [ctypes.c_char_p, *[ints] * n_ints, ctypes.c_void_p, ints, ints,
                       ctypes.c_size_t]
        fn.restype = None
    return fns


def _lower_bandwidth(a: np.ndarray) -> int:
    """max(i - j) over the nonzero a[i, j], j <= i, for a square ``a``: M - 1 unless a[M-1, 0] == 0."""
    m = a.shape[0]
    if a[-1, 0] != 0:
        return m - 1
    first = np.argmax(a != 0, axis=1)   # 0 for a zero row, which overstates its band
    return int((np.arange(m) - first).max())


def _lower_band(a: np.ndarray, kd: int) -> np.ndarray:
    """a's lower band as an (M, kd + 1) array: row j holds a[j:j + kd + 1, j], LAPACK's 'L' band.

    One gather of a C-ordered ``a``; past the last row it reads a[M-1, M-1], which LAPACK ignores.
    """
    m = a.shape[0]
    index = np.arange(m)[:, None] * (m + 1) + np.arange(kd + 1) * m
    return np.take(np.ascontiguousarray(a), index, mode="clip")


def _cholesky_diagonal(a: np.ndarray, scale: float, shift: float,
                       kd: int | None = None) -> np.ndarray | None:
    """Diagonal of L, L L^H = scale * A + shift * I, or None unless that is positive definite.

    ``a`` is A, or with ``kd`` its lower band (:func:`_lower_band`).  L is computed as
    ``np.linalg.cholesky`` computes it, by LAPACK's lower ?potrf (?pbtrf for a band) on a
    Fortran-ordered copy, but in one work array: numpy adds its own copies and passes.
    Without numpy's ILP64 LAPACK (:func:`_lapack`) it calls ``np.linalg.cholesky``.
    """
    m = a.shape[0]
    lapack = _lapack()
    if lapack is None:
        s = a * scale
        s.flat[::m + 1] += shift
        try:
            return np.linalg.cholesky(s).diagonal().real
        except np.linalg.LinAlgError:
            return None
    dpotrf, zpotrf, dpbtrf = lapack
    n, info = ctypes.c_int64(m), ctypes.c_int64(0)
    if kd is not None:
        w = a * scale   # C-ordered (M, kd + 1) is the Fortran (kd + 1, M) band
        w[:, 0] += shift
        dpbtrf(b"L", n, ctypes.c_int64(kd), w.ctypes.data, ctypes.c_int64(kd + 1), info, 1)
        diagonal = w[:, 0]
    else:
        w = np.empty(a.shape, dtype=a.dtype, order="F")
        np.multiply(a, scale, out=w)
        w.flat[::m + 1] += shift
        (zpotrf if np.iscomplexobj(w) else dpotrf)(b"L", n, w.ctypes.data, n, info, 1)
        diagonal = w.diagonal().real
    return diagonal if info.value == 0 else None


def log2_det_ipm(r: np.ndarray, c: float) -> float:
    """log2 det(I + c R) for PSD R, as 2 sum log2 diag(L) with L L^H = I + c A.

    A is R or its real form (:func:`_similar_form`), with R's spectrum.  A
    first Cholesky factorization of A + tau I, tau = PSD_RTOL * max diag A,
    guards the PSD policy: max diag A <= lambda_max, so its success means
    lambda_min > -PSD_RTOL * lambda_max and :func:`psd_eigvals` would accept
    R.  If either factorization fails, the value comes from the clipped
    spectrum instead, which raises :class:`NotPSD` for an indefinite R.
    So the value jumps inside the noise band: for lambda_min in (-tau, 0) it
    keeps the factor's log2(1 + c lambda_min), and below -tau the clipped
    spectrum counts that eigenvalue as 0 (on ones(4, 4) - mu u u^T, u = (1, -1,
    0, 0)/sqrt(2), c = 1e6: 21.92434 at mu = 5e-9, 21.93157 at mu = 1.5e-8).
    A real A whose lower triangle is exactly zero beyond a band kd <= M/2 - 16
    is factored banded, in O(M kd^2) (:func:`_cholesky_diagonal`).
    Summing logs of the factor's diagonal avoids the determinant overflow
    that a direct ``det`` hits already around dimension 400 at high SNR.
    """
    if c < 0:
        raise InvalidParam(f"scale factor must be >= 0, got {c}")
    a = _factor_form(r)
    src, kd = a, None
    if not np.iscomplexobj(a) and _lapack() is not None:
        width = _lower_bandwidth(a)
        if width <= a.shape[0] / 2 - _BAND_MARGIN:
            src, kd = _lower_band(a, width), width
    if (_cholesky_diagonal(src, 1.0, PSD_RTOL * a.diagonal().real.max(), kd) is None
            or (diagonal := _cholesky_diagonal(src, c, 1.0, kd)) is None):
        lam = _clip_psd(np.linalg.eigvalsh(a)[::-1])
        return float(np.sum(np.log2(1.0 + c * lam)))
    return float(2.0 * np.sum(np.log2(diagonal)))


def sample_correlated(sqrt_factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw S @ z with z ~ CN(0, I): one correlated circularly-symmetric sample.

    Each entry of z has unit variance (real and imaginary parts each 1/2), so
    the sample covariance of repeated draws converges to S S^H.
    """
    s = _check_finite(sqrt_factor)
    if s.shape[0] != s.shape[1]:
        raise InvalidMatrix("square-root factor must be square")
    z = complex_gaussian(s.shape[0], rng)
    return s @ z


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) array of the given shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
