"""Correlation-based stochastic channel models (CBSM).

Builders for the exponential spatial-correlation matrix, the uncorrelated
model with log-normal shadowing, and the exponential model with shadowing.
Shadowing vectors are drawn once per correlation-matrix realization, i.e.
per Monte Carlo trial, since shadowing is a large-scale effect.  The
shadowed builders take the antenna count M from the length of that draw.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam


def exponential_correlation(m: int, rho: float) -> np.ndarray:
    """Classical exponential Toeplitz correlation matrix, M x M.

    Entry (m, n) is rho^(n-m) for m <= n, conjugate-mirrored below the
    diagonal.  For real rho in [0, 1] this is the symmetric Toeplitz matrix
    rho^|n-m| with unit diagonal; no path-loss scaling is applied here.
    """
    if m < 1:
        raise InvalidParam(f"antenna count must be >= 1, got {m}")
    if not 0.0 <= rho <= 1.0:
        raise InvalidParam(f"correlation factor must be in [0, 1], got {rho}")
    # Entry (m, n) of the sliding windows over the lags -(M-1)..M-1, rows reversed, is lag n - m.
    lag_row = rho ** np.abs(np.arange(1 - m, m))
    return np.array(np.lib.stride_tricks.sliding_window_view(lag_row, m)[::-1], dtype=float)


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
    under index swap, so the result is Hermitian.
    Note the dB exponent here is (f_m+f_n)/20, not /10; this model and the
    shadowed Gaussian model use different conventions and each builder
    keeps its own.
    """
    if beta < 0:
        raise InvalidParam(f"path-loss gain must be >= 0, got {beta}")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise InvalidParam(f"shadow draw must be 1-D, got shape {f.shape}")
    phase = np.exp(1j * np.arange(1 - f.size, f.size) * theta)  # once per lag n - m
    r = exponential_correlation(f.size, rho) * np.lib.stride_tricks.sliding_window_view(
        phase, f.size)[::-1]
    r *= beta
    r *= shadow_power(f, 20.0)
    return r


def shadow_power(f: np.ndarray, db: float) -> np.ndarray:
    """The M x M shadow gains 10^((f_m + f_n) / db), built in one buffer."""
    p = np.add.outer(f, f)
    p /= db
    return np.power(10.0, p, out=p)
