"""Correlation-based stochastic channel models (CBSM).

Builders for the exponential spatial-correlation matrix, the uncorrelated
model with log-normal shadowing, and the exponential model with shadowing.
Shadowing vectors are drawn once per correlation-matrix realization, i.e.
per Monte Carlo trial, since shadowing is a large-scale effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam


@dataclass(frozen=True)
class ExponentialSpec:
    """Parameters of the exponential-correlation family.

    ``theta`` (AoA, radians) is only used by the shadowed variant, which
    takes the drawn shadow vector as an argument; ``beta`` is the linear
    path-loss power gain.
    """

    m: int
    rho: float
    theta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParam(f"antenna count must be >= 1, got {self.m}")
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParam(f"correlation factor must be in [0, 1], got {self.rho}")
        if self.beta < 0:
            raise InvalidParam(f"path-loss gain must be >= 0, got {self.beta}")


def exponential_correlation(spec: ExponentialSpec) -> np.ndarray:
    """Classical exponential Toeplitz correlation matrix.

    Entry (m, n) is rho^(n-m) for m <= n, conjugate-mirrored below the
    diagonal.  For real rho in [0, 1] this is the symmetric Toeplitz matrix
    rho^|n-m| with unit diagonal; no path-loss scaling is applied here.
    """
    k = np.arange(spec.m)
    return np.asarray(spec.rho ** np.abs(k[:, None] - k[None, :]), dtype=float)


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


def exponential_with_shadowing(spec: ExponentialSpec, f: np.ndarray) -> np.ndarray:
    """Exponential correlation combined with AoA phase and shadowing.

    Entry (m, n) is beta * rho^|n-m| * exp(i (n-m) theta) * 10^((f_m+f_n)/20).
    The phase term conjugates under index swap, so the result is Hermitian.
    Note the dB exponent here is (f_m+f_n)/20, not /10; this model and the
    shadowed Gaussian model use different conventions and each builder
    keeps its own.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (spec.m,):
        raise InvalidParam(f"shadow draw must have length {spec.m}, got shape {f.shape}")
    k = np.arange(spec.m)
    diff = k[None, :] - k[:, None]  # n - m
    base = spec.rho ** np.abs(diff) * np.exp(1j * diff * spec.theta)
    shad = 10.0 ** ((f[:, None] + f[None, :]) / 20.0)
    return spec.beta * base * shad
