"""Downlink linear precoding: conjugate beamforming and zero-forcing.

Both precoders return an unnormalized M x K array; the column
normalization enforcing the per-user power constraint is a separate step,
taking the length-K vector of per-user powers, so the ZF defining property
H^H W = I can be checked before scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam, RankDeficient, ZeroColumn

# Gram matrices with condition number above this are treated as singular.
GRAM_COND_LIMIT = 1e12
# The accepted precoder names and column-power conventions.
PRECODERS = ("cb", "zf")
POWER_CONVENTIONS = ("amplitude", "power")


def cb_precoder(h: np.ndarray) -> np.ndarray:
    """Conjugate beamforming: the precoding matrix is the channel itself."""
    return np.array(h, dtype=complex)


def zf_precoder(h: np.ndarray) -> np.ndarray:
    """Zero-forcing W = H (H^H H)^{-1}, via a solve on the Gram matrix.

    Raises RankDeficient for K > M or when the Gram matrix condition number
    exceeds 1e12, which signals too many users or a fully correlated channel.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise InvalidParam(f"channel matrix must be 2-D, got shape {h.shape}")
    m, k = h.shape
    if k > m:
        raise RankDeficient(f"zero-forcing needs K <= M, got K={k} > M={m}")
    gram = h.conj().T @ h
    s = np.linalg.svd(gram, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > GRAM_COND_LIMIT:
        raise RankDeficient("Gram matrix is singular or too ill-conditioned")
    # W^H = (H^H H)^{-1} H^H  solved without forming the inverse
    return np.linalg.solve(gram, h.conj().T).conj().T


def normalize_columns(w: np.ndarray, p: np.ndarray,
                      power_convention: str = "amplitude") -> np.ndarray:
    """Scale column k to p_k * w_k / ||w_k||, with p the per-user powers.

    With the default 'amplitude' convention the resulting column norm equals
    p_k directly, matching the printed normalization rule.  The 'power'
    convention uses sqrt(p_k) instead so column power equals p_k.
    """
    if power_convention not in POWER_CONVENTIONS:
        raise InvalidParam(f"unknown power convention {power_convention!r}")
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2:
        raise InvalidParam(f"precoding matrix must be 2-D, got shape {w.shape}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidParam(f"power allocation must be a 1-D vector, got shape {p.shape}")
    if p.shape[0] != w.shape[1]:
        raise InvalidParam(f"allocation length {p.shape[0]} does not match K={w.shape[1]}")
    if np.any(p < 0):
        raise InvalidParam("per-user powers must be >= 0")
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0):
        bad = int(np.argmax(norms == 0))
        raise ZeroColumn(f"column {bad} has zero norm and cannot be normalized")
    scale = p if power_convention == "amplitude" else np.sqrt(p)
    return w * (scale / norms)
