"""Classical IBVS control law: stacked interaction matrix, SVD
pseudo-inverse, and the commanded camera twist.

Feature vectors are flat (x1, y1, ..., xk, yk) in normalized image-plane
coordinates; depth vectors carry one entry per feature point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientFeatures, NonPositiveDepth

MIN_POINTS = 3  # below this, 2k < 6 and the twist is unconstrained


@dataclass(frozen=True)
class ControlConfig:
    """Gain and numerical knobs for the control law."""

    gain: float = 0.5  # error decay rate, 1/s
    svd_tolerance: float = 1e-10  # relative singular-value cutoff
    max_twist: tuple | None = None  # per-component saturation, length 6

    def __post_init__(self):
        # checks in positive form, so NaN (every comparison false) fails them
        if not 0 < self.gain < np.inf:
            raise ValueError("gain must be positive and finite")
        if not 0 <= self.svd_tolerance < np.inf:
            raise ValueError("svd_tolerance must be non-negative and finite")
        if self.max_twist is not None and not (
            len(self.max_twist) == 6
            and all(isinstance(v, (int, float)) and -np.inf <= v <= np.inf for v in self.max_twist)
        ):
            raise ValueError("max_twist must have 6 numeric components, none NaN")


def stack_interaction(s: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Vertical stack of per-point 2x6 blocks, in feature order -> (2k, 6)."""
    s = np.asarray(s, dtype=float).reshape(-1)
    Z = np.asarray(depths, dtype=float).reshape(-1)
    if s.size != 2 * Z.size:
        raise DimensionMismatch(f"{s.size} feature coords vs {Z.size} depths")
    if np.any(Z <= 0):
        raise NonPositiveDepth("depth vector contains non-positive entries")
    x, y = s[0::2], s[1::2]
    k = Z.size
    L = np.empty((2 * k, 6))
    L[0::2, 0] = -1.0 / Z
    L[0::2, 1] = 0.0
    L[0::2, 2] = x / Z
    L[0::2, 3] = x * y
    L[0::2, 4] = -(1.0 + x * x)
    L[0::2, 5] = y
    L[1::2, 0] = 0.0
    L[1::2, 1] = -1.0 / Z
    L[1::2, 2] = y / Z
    L[1::2, 3] = 1.0 + y * y
    L[1::2, 4] = -x * y
    L[1::2, 5] = -x
    return L


def pseudo_inverse(L: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values <= tol*sigma_max zeroed."""
    L = np.asarray(L, dtype=float)
    U, sigma, Vt = np.linalg.svd(L, full_matrices=False)
    if sigma.size == 0:
        return L.T
    cutoff = tol * sigma[0]
    inv = np.where(sigma > cutoff, 1.0 / np.where(sigma > cutoff, sigma, 1.0), 0.0)
    return Vt.T @ (inv[:, None] * U.T)


def control_law(e: np.ndarray, L_pinv: np.ndarray, cfg: ControlConfig) -> np.ndarray:
    """Commanded camera twist (vx, vy, vz, wx, wy, wz): -gain * L_pinv @ e,
    optionally saturated.

    `L_pinv` is the (6, 2k) pseudo-inverse of the interaction matrix estimate
    whose rows follow e's. The caller computes it, so a constant estimate such
    as L* = L(s*, Z*) can be inverted once and reused while its rows stay the
    same.
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    L_pinv = np.asarray(L_pinv, dtype=float)
    if L_pinv.ndim != 2 or L_pinv.shape[0] != 6:
        raise DimensionMismatch(f"interaction pinv must be (6, 2k), got {L_pinv.shape}")
    if L_pinv.shape[1] != e.size:
        raise DimensionMismatch(f"{e.size} error entries vs {L_pinv.shape[1]} pinv columns")
    if e.size < 2 * MIN_POINTS:
        raise InsufficientFeatures(f"need >= {MIN_POINTS} points, got {e.size // 2}")
    v = -cfg.gain * (L_pinv @ e)
    if cfg.max_twist is not None:
        cap = np.abs(np.asarray(cfg.max_twist, dtype=float))
        v = np.clip(v, -cap, cap)
    return v
