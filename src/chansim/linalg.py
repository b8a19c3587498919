"""Complex dense linear algebra kernel.

PSD eigenvalues and matrix square roots, condition numbers,
eigenvalue-domain log-determinants and correlated complex Gaussian sampling.
Every routine takes and returns plain numpy arrays or floats.  All
correlation-matrix consumers in the package go through these routines so
that the Hermitian check and the PSD clipping policy live in one place.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, InvalidParam, NotPSD

# Relative tolerance on the Hermitian residual max|A - A^H|.
HERMITIAN_RTOL = 1e-12
# Eigenvalues above -PSD_RTOL * lambda_max are treated as numerically zero.
PSD_RTOL = 1e-8


def _check_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidMatrix(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise InvalidMatrix("matrix contains NaN or Inf entries")
    return a


def check_hermitian(a: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate conjugate symmetry of ``a`` and return it as a complex array."""
    a = _check_finite(a)
    if a.shape[0] != a.shape[1]:
        raise InvalidMatrix("Hermitian matrix must be square")
    scale = np.abs(a).max()
    if scale > 0:
        resid = np.abs(a - a.conj().T).max()
        if resid > rtol * scale:
            raise InvalidMatrix(
                f"Hermitian residual {resid:.3e} exceeds {rtol:.0e} * max|A| = {rtol * scale:.3e}"
            )
    return np.asarray(a, dtype=complex)


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
    return _clip_psd(np.linalg.eigvalsh(check_hermitian(a))[::-1])


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, with S @ S^H == a.

    Eigenvalues in the numerical-noise band below zero are clipped before
    taking the square root, so rank-deficient correlation matrices (one-ring
    with a small angular spread, for instance) are handled without Cholesky
    failures.
    """
    vals, vecs = np.linalg.eigh(check_hermitian(a))
    lam = _clip_psd(vals[::-1])
    u = vecs[:, ::-1]
    return (u * np.sqrt(lam)) @ u.conj().T


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


def log2_det_ipm(r: np.ndarray, c: float) -> float:
    """log2 det(I + c R) for PSD R, evaluated in the eigenvalue domain.

    Working on eigenvalues avoids the determinant overflow that a direct
    ``det`` hits already around dimension 400 at high SNR.
    """
    if c < 0:
        raise InvalidParam(f"scale factor must be >= 0, got {c}")
    lam = psd_eigvals(r)
    return float(np.sum(np.log2(1.0 + c * lam)))


def sample_correlated(sqrt_factor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw S @ z with z ~ CN(0, I): one correlated circularly-symmetric sample.

    Each entry of z has unit variance (real and imaginary parts each 1/2), so
    the sample covariance of repeated draws converges to S S^H.
    """
    s = _check_finite(sqrt_factor)
    if s.shape[0] != s.shape[1]:
        raise InvalidMatrix("square-root factor must be square")
    m = s.shape[0]
    z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return s @ z


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) array of the given shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
