"""Figures of merit for channel realizations.

Capacity of one channel draw (the runner averages draws into the ergodic
capacity), Jensen upper-bound capacity from a correlation matrix,
per-user downlink SINR for a precoding array, and the inter-user channel
correlation coefficient.  Inputs are plain arrays.  All capacity values
are in bits per channel use; SNR/noise conversions from dB happen here.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, InvalidParam, ZeroVector
from .linalg import log2_det_ipm


def db_to_linear(x_db: float) -> float:
    """Power ratio from decibels."""
    return 10.0 ** (x_db / 10.0)


def capacity_single(h: np.ndarray, eta: float) -> float:
    """log2 det(I + (eta/M) H H^H) for one channel draw, by :func:`log2_det_ipm`.

    ``h`` is M x K, or a length-M vector for one user; M is its row count.
    Uses the K x K Gram matrix when K < M; the nonzero eigenvalues of
    H H^H and H^H H coincide so the smaller problem gives the same value.
    """
    if eta < 0:
        raise InvalidParam(f"SNR must be >= 0, got {eta}")
    h = np.asarray(h, dtype=complex)
    if h.ndim == 1:
        h = h[:, None]
    if h.ndim != 2:
        raise InvalidMatrix(f"expected a vector or a 2-D matrix, got shape {h.shape}")
    if not np.any(h):
        return 0.0
    if h.shape[1] <= h.shape[0]:
        gram = h.conj().T @ h
    else:
        gram = h @ h.conj().T
    return log2_det_ipm(gram, eta / h.shape[0])


def capacity_ub(r: np.ndarray, eta: float) -> float:
    """Jensen upper bound log2 det(I + (eta/M) R), M the row count of ``r``."""
    if eta < 0:
        raise InvalidParam(f"SNR must be >= 0, got {eta}")
    r = np.asarray(r)
    # M must exist before log2_det_ipm validates the matrix.
    if r.ndim != 2 or r.shape[0] < 1:
        raise InvalidMatrix(f"expected a 2-D matrix, got shape {r.shape}")
    return log2_det_ipm(r, eta / r.shape[0])


def sinr_per_user(h: np.ndarray, w: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user downlink SINR for channel H and precoding matrix W.

    gamma_k = |h_k^H g_k|^2 / (sum_{j != k} |h_k^H g_j|^2 + sigma2)
    where g_j is column j of W.
    """
    if sigma2 <= 0:
        raise InvalidParam(f"noise power must be > 0, got {sigma2}")
    w = np.asarray(w, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if h.shape != w.shape:
        raise InvalidParam(f"shape mismatch: H {h.shape} vs W {w.shape}")
    cross = np.abs(h.conj().T @ w) ** 2      # (k, j) -> |h_k^H g_j|^2
    signal = np.diag(cross)
    interference = cross.sum(axis=1) - signal
    return signal / (interference + sigma2)


def correlation_coefficient(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """|h_i^H h_j| / (||h_i|| ||h_j||), the inter-channel correlation in [0, 1]."""
    h_i = np.asarray(h_i, dtype=complex).ravel()
    h_j = np.asarray(h_j, dtype=complex).ravel()
    ni = np.linalg.norm(h_i)
    nj = np.linalg.norm(h_j)
    if ni == 0 or nj == 0:
        raise ZeroVector("correlation coefficient of a zero vector is undefined")
    val = abs(np.vdot(h_i, h_j)) / (ni * nj)
    return float(min(val, 1.0))


def mean_with_stderr(samples) -> tuple[float, float]:
    """Sample mean and its standard error (ddof=1; zero for a single sample)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 1:
        raise InvalidParam("need at least one sample")
    if x.size == 1:
        return float(x[0]), 0.0
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))
