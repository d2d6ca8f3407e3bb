"""SE(3) poses, pinhole camera model, and twist integration.

Conventions:
    - Pose stores the camera-in-world transform: X_world = R @ X_cam + t.
    - Twists are 6-vectors (vx, vy, vz, wx, wy, wz) in the camera frame.
    - Pixel coordinates are (u, v); normalized image-plane coordinates
      are x = (u - cx)/fx, y = (v - cy)/fy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStep

_MIN_DEPTH = 1e-9
_SMALL_ANGLE = 1e-8
_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # the 3x3 identity, row-major
# np.allclose(R.T @ R, I, atol=1e-6) written out: |x - I| <= atol + rtol * |I|
_DIAG_TOL, _OFF_TOL = 1e-6 + 1e-5, 1e-6


def _mul3(A: list, B: list) -> list:
    """Product of two 3x3 matrices held as row-major lists of 9 floats."""
    return [A[r] * B[c] + A[r + 1] * B[c + 3] + A[r + 2] * B[c + 6]
            for r in (0, 3, 6) for c in (0, 1, 2)]


def _as_rotation(R) -> np.ndarray:
    R = np.asarray(R, dtype=float).reshape(3, 3)
    a, b, c, d, e, f, g, h, i = R.ravel().tolist()
    # R^T R against I, entry by entry (column j dot column k), in positive
    # form, so NaN fails it
    if not (
        abs(a * a + d * d + g * g - 1.0) <= _DIAG_TOL
        and abs(b * b + e * e + h * h - 1.0) <= _DIAG_TOL
        and abs(c * c + f * f + i * i - 1.0) <= _DIAG_TOL
        and abs(a * b + d * e + g * h) <= _OFF_TOL
        and abs(a * c + d * f + g * i) <= _OFF_TOL
        and abs(b * c + e * f + h * i) <= _OFF_TOL
    ):
        raise ValueError("rotation matrix is not orthonormal")
    # the determinant's sign, by cofactor expansion along row 0
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0:
        raise ValueError("rotation matrix has negative determinant")
    return R


@dataclass(frozen=True)
class Pose:
    """Rigid transform on SE(3); immutable value object."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "translation", t)
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)

    def to_flat(self) -> list[float]:
        """12-number serialization: row-major rotation then translation."""
        return [*self.rotation.reshape(-1), *self.translation]

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        p = np.asarray(points, dtype=float)
        return (p - self.translation) @ self.rotation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if type(self.width) is not int or type(self.height) is not int:
            raise ValueError("image width and height must be integers")
        # in positive form, so NaN fails it
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p: Pose) -> Pose:
    Rt = p.rotation.T
    return Pose(Rt, -Rt @ p.translation)


def relative(a: Pose, b: Pose) -> Pose:
    """Transform of b expressed in a's frame: inverse(a) o b."""
    return compose(inverse(a), b)


def rotation_angle(R: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, radians."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def pose_error(a: Pose, b: Pose) -> tuple[float, float]:
    """(translation norm [m], rotation angle [rad]) of relative(a, b)."""
    rel = relative(a, b)
    return float(np.linalg.norm(rel.translation)), rotation_angle(rel.rotation)


def _exp_terms(xi: list) -> tuple[list, list]:
    """Rotation (row-major, 9 floats) and translation (3 floats) of the
    exponential map of a 6-vector (linear u, angular w) of Python floats, in
    closed form: with W the cross-product matrix of w and theta = |w|,
    R = I + a W + b W^2 and t = (I + b W + c W^2) u, where a = sin(theta)/theta,
    b = (1 - cos(theta))/theta^2 and c = (theta - sin(theta))/theta^3
    (their limits 1, 1/2 and 1/6 below _SMALL_ANGLE). W^2 = w w^T - theta^2 I
    is written out entry by entry. Raises NonFiniteStep when the map
    overflows."""
    ux, uy, uz, wx, wy, wz = xi
    xx, yy, zz = wx * wx, wy * wy, wz * wz
    theta = math.sqrt(xx + yy + zz)
    if theta < _SMALL_ANGLE:
        a, b, c = 1.0, 0.5, 1.0 / 6.0
    elif theta < math.inf:  # NaN fails
        # b as (sin(h)/h)^2 / 2 with h = theta/2: 1 - cos(theta) cancels to
        # 0 near theta = 1e-8, which drops t's b W u term (theta/2 of |u|)
        sin, sinc_h = math.sin(theta), math.sin(0.5 * theta) / (0.5 * theta)
        a, b, c = sin / theta, 0.5 * sinc_h * sinc_h, (theta - sin) / (theta * theta * theta)
    else:
        raise NonFiniteStep(f"the pose step of {xi} is not finite")
    xy, xz, yz = wx * wy, wx * wz, wy * wz
    q00, q11, q22 = -(yy + zz), -(xx + zz), -(xx + yy)  # the diagonal of W^2
    R = [
        1.0 + b * q00, b * xy - a * wz, b * xz + a * wy,
        b * xy + a * wz, 1.0 + b * q11, b * yz - a * wx,
        b * xz - a * wy, b * yz + a * wx, 1.0 + b * q22,
    ]
    t = [
        (1.0 + c * q00) * ux + (c * xy - b * wz) * uy + (c * xz + b * wy) * uz,
        (c * xy + b * wz) * ux + (1.0 + c * q11) * uy + (c * yz - b * wx) * uz,
        (c * xz - b * wy) * ux + (c * yz + b * wx) * uy + (1.0 + c * q22) * uz,
    ]
    if not all(map(math.isfinite, R + t)):
        raise NonFiniteStep(f"the pose step of {xi} is not finite")
    return R, t


def se3_exp(xi) -> Pose:
    """Exponential map of a 6-vector (linear, angular) onto SE(3), in closed
    form (see _exp_terms); raises NonFiniteStep when the map overflows."""
    R, t = _exp_terms(np.asarray(xi, dtype=float).reshape(6).tolist())
    return Pose(np.array(R).reshape(3, 3), np.array(t))


def integrate_twist(pose: Pose, twist: np.ndarray, dt: float) -> Pose:
    """Advance the camera pose by dt under a body-frame twist 6-vector:
    P o exp(dt*v), projected onto SO(3). The step is `se3_exp`'s closed form,
    composed with the pose on Python floats, and the product M of the
    rotations is projected by one Newton step of the polar decomposition,
    Q = M (3I - M^T M)/2: M is orthonormal to rounding, so Q is the SVD's
    polar factor U V^T to rounding, and chained steps do not drift (the
    largest entry of R^T R - I stays below 1e-14 over 10^4 random steps).
    Raises NonFiniteStep when dt*v is not finite or overflows the step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dt = float(dt)
    xi = [dt * v for v in np.asarray(twist, dtype=float).reshape(6).tolist()]
    step_R, (ux, uy, uz) = _exp_terms(xi)
    R = pose.rotation.ravel().tolist()
    M = _mul3(R, step_R)
    N = [3.0 * e - g for e, g in zip(_EYE, _mul3(M[0::3] + M[1::3] + M[2::3], M))]
    t = [R[r] * ux + R[r + 1] * uy + R[r + 2] * uz + p
         for r, p in zip((0, 3, 6), pose.translation.tolist())]
    return Pose(np.array([0.5 * q for q in _mul3(M, N)]).reshape(3, 3), np.array(t))


def project_many(points: np.ndarray, intrinsics: CameraIntrinsics):
    """Vectorized projection; returns (pixels (n,2), depths (n,)).

    Rows with non-positive depth yield NaN pixels instead of raising;
    callers filter by the returned depths.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    Z = p[:, 2]
    # (fx*X)/Z + cx in three operations, on a (2, n) array so that each runs
    # along n; the pixels are its transpose
    pix = np.multiply(p.T[:2], ((intrinsics.fx,), (intrinsics.fy,)), order="C")
    with np.errstate(divide="ignore", invalid="ignore"):
        pix /= Z
    pix += ((intrinsics.cx,), (intrinsics.cy,))
    behind = Z <= _MIN_DEPTH
    if behind.any():
        pix[:, behind] = np.nan
    return pix.T, Z


def pixel_to_normalized(pixel, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pixel -> metric image-plane coordinates (x, y); inverse of the pixel map."""
    p = np.asarray(pixel, dtype=float)
    return (p[..., :2] - (intrinsics.cx, intrinsics.cy)) / (intrinsics.fx, intrinsics.fy)
