"""Correlation-based stochastic channel models (CBSM).

Builders for the exponential spatial-correlation matrix, the uncorrelated
model with log-normal shadowing, and the exponential model with shadowing.
Shadowing vectors are drawn once per correlation-matrix realization, i.e.
per Monte Carlo trial, since shadowing is a large-scale effect.  The
shadowed builders take the antenna count M from the length of that draw.
Every lag-row kernel K, here and in :mod:`chansim.gbsm`, is Hermitian Toeplitz:
it is computed on its first column, the M lags m - n = 0..M-1, and read through
:func:`toeplitz`.  A shadowed model is D K D with D = diag(10^(f/db)) (:func:`shade`),
so no M x M shadow power is formed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam


def exponential_correlation(m: int, rho: float) -> np.ndarray:
    """Classical exponential Toeplitz correlation matrix, M x M.

    Entry (m, n) is rho^|m-n| for rho in [0, 1], with unit diagonal; no
    path-loss scaling is applied here.
    """
    return np.array(toeplitz(_exponential_lags(m, rho)), dtype=float)


def _exponential_lags(m: int, rho: float) -> np.ndarray:
    """rho^k at the lags k = 0..M-1."""
    if m < 1:
        raise InvalidParam(f"antenna count must be >= 1, got {m}")
    if not 0.0 <= rho <= 1.0:
        raise InvalidParam(f"correlation factor must be in [0, 1], got {rho}")
    return rho ** np.arange(m)


def toeplitz(col: np.ndarray) -> np.ndarray:
    """Read-only Hermitian Toeplitz view of first column ``col``: col[m - n] at (m, n), m >= n."""
    lags = np.concatenate((col[::-1], col[1:].conj()))   # row m is lags[M-1-m:][:M]
    return np.lib.stride_tricks.sliding_window_view(lags, col.size)[::-1]


def shade(k: np.ndarray, f: np.ndarray, db: float) -> np.ndarray:
    """D K D as a new array, D = diag(10^(f/db)): rows, then columns; f = 0 keeps K's bytes."""
    g = 10.0 ** (f / db)
    r = k * g[:, None]
    r *= g
    return r


def draw_shadowing(m: int, sigma_shad: float, rng: np.random.Generator) -> np.ndarray:
    """M i.i.d. N(0, sigma_shad^2) shadowing samples, in dB."""
    if sigma_shad < 0:
        raise InvalidParam(f"shadowing std must be >= 0, got {sigma_shad}")
    if sigma_shad == 0:
        return np.zeros(m)
    return sigma_shad * rng.standard_normal(m)


def uncorrelated_with_shadowing(beta: float, f: np.ndarray) -> np.ndarray:
    """Shadowed i.i.d. correlation beta * diag(10^(f/10)), M x M with M = len(f)."""
    if beta < 0:
        raise InvalidParam(f"path-loss gain must be >= 0, got {beta}")
    f = np.asarray(f, dtype=float)
    # np.diag of a 2-D array would read its diagonal instead of building one.
    if f.ndim != 1:
        raise InvalidParam(f"shadow draw must be 1-D, got shape {f.shape}")
    return np.diag(beta * 10.0 ** (f / 10.0))


def exponential_with_shadowing(f: np.ndarray, rho: float, theta: float,
                               beta: float = 1.0) -> np.ndarray:
    """Exponential correlation combined with AoA phase and shadowing.

    Entry (m, n) is beta * rho^|n-m| * exp(i (n-m) theta) * 10^((f_m+f_n)/20)
    for the AoA theta (radians), with M = len(f).  The phase term conjugates
    under index swap, so the result is Hermitian.  It is built as D K D
    for D = diag(10^(f/20)).
    Note the dB exponent here is (f_m+f_n)/20, not /10; this model and the
    shadowed Gaussian model use different conventions and each builder
    keeps its own.
    """
    if beta < 0:
        raise InvalidParam(f"path-loss gain must be >= 0, got {beta}")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise InvalidParam(f"shadow draw must be 1-D, got shape {f.shape}")
    phase = np.exp(-1j * np.arange(f.size) * theta)
    return shade(toeplitz(beta * (_exponential_lags(f.size, rho) * phase)), f, 20.0)
