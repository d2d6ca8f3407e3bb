import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featservo.errors import NonFiniteStep
from featservo.geometry import (
    CameraIntrinsics,
    Pose,
    _as_rotation,
    compose,
    integrate_twist,
    inverse,
    pixel_to_normalized,
    pose_error,
    project_many,
    relative,
    rotation_angle,
    se3_exp,
)

from conftest import random_pose

IDENTITY = Pose(np.eye(3), np.zeros(3))


def matrix(pose):
    """Homogeneous 4x4 matrix of a pose."""
    T = np.eye(4)
    T[:3, :3] = pose.rotation
    T[:3, 3] = pose.translation
    return T


def project(point, intrinsics):
    """(pixel, depth) of one camera-frame point."""
    pixels, depths = project_many(point, intrinsics)
    return pixels[0], depths[0]


class TestProject:
    def test_optical_axis_hits_principal_point(self, intrinsics):
        pixel, depth = project((0.0, 0.0, 2.0), intrinsics)
        assert np.allclose(pixel, (160.0, 120.0))
        assert depth == 2.0

    def test_lateral_offset(self, intrinsics):
        pixel, depth = project((0.1, 0.0, 2.0), intrinsics)
        assert np.allclose(pixel, (190.0, 120.0))  # 160 + 600 * 0.05
        assert depth == 2.0

    def test_behind_camera_gives_nan_pixels(self, intrinsics):
        points = [(0.0, 0.0, -1.0), (0.1, 0.2, 0.0), (0.1, 0.2, 1e-9), (0.0, 0.0, 2.0)]
        pixels, depths = project_many(points, intrinsics)
        assert np.all(np.isnan(pixels[:3]))
        assert np.array_equal(pixels[3], (160.0, 120.0))
        assert np.array_equal(depths, [-1.0, 0.0, 1e-9, 2.0])

    def test_point_may_leave_image(self, intrinsics):
        pixel, _ = project((5.0, 0.0, 1.0), intrinsics)
        assert pixel[0] > intrinsics.width  # caller filters

    @staticmethod
    def reference(points, k):
        """cx + fx*X/Z per column, NaN at depth <= 1e-9."""
        X, Y, Z = np.asarray(points, dtype=float).T
        with np.errstate(divide="ignore", invalid="ignore"):
            pix = np.stack([k.cx + k.fx * X / Z, k.cy + k.fy * Y / Z], axis=1)
        pix[Z <= 1e-9] = np.nan
        return pix

    def test_bitwise_equal_to_the_per_column_formula(self):
        k = CameraIntrinsics(fx=612.3, fy=598.7, cx=161.25, cy=119.5, width=320, height=240)
        rng = np.random.default_rng(5)
        front = np.c_[rng.uniform(-0.3, 0.3, (500, 2)), rng.uniform(0.05, 3.0, 500)]
        mixed = front.copy()
        mixed[::7, 2] *= -1.0  # behind the camera
        mixed[3::11, 2] = 0.0
        mixed[5::13, 2] = 1e-9
        mixed[6::13, 2] = np.nextafter(1e-9, 1.0)
        # the frame edges: pixels 0 and width or height, and one step inside
        Z = 0.4
        edges = np.array([[(u - k.cx) * Z / k.fx, (v - k.cy) * Z / k.fy, Z]
                          for u in (0.0, 1e-9, k.width - 1e-9, k.width)
                          for v in (0.0, k.height - 1e-9, k.height)])
        for points in (front, mixed, edges, front[:1], front[:0]):
            pixels, depths = project_many(points, k)
            ref = self.reference(points, k)
            assert pixels.shape == ref.shape and pixels.dtype == ref.dtype
            assert pixels.tobytes() == ref.tobytes()
            assert depths.tobytes() == np.ascontiguousarray(points[:, 2]).tobytes()
        nan_rows = np.isnan(project_many(mixed, k)[0]).all(axis=1)
        assert np.array_equal(nan_rows, mixed[:, 2] <= 1e-9) and 0 < nan_rows.sum() < 500


class TestPixelToNormalized:
    def test_principal_point_maps_to_origin(self, intrinsics):
        assert np.allclose(pixel_to_normalized((160.0, 120.0), intrinsics), (0.0, 0.0))

    def test_inverse_of_project(self, intrinsics):
        assert np.allclose(pixel_to_normalized((190.0, 120.0), intrinsics), (0.05, 0.0))

    @given(
        x=st.floats(-1, 1), y=st.floats(-1, 1), z=st.floats(0.1, 10),
    )
    @settings(max_examples=50)
    def test_round_trip(self, x, y, z):
        K = CameraIntrinsics(600.0, 600.0, 160.0, 120.0, 320, 240)
        pixel, _ = project((x, y, z), K)
        assert np.allclose(pixel_to_normalized(pixel, K), (x / z, y / z), atol=1e-12)


class TestGroupOps:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(0)
        P = random_pose(rng)
        Q = compose(P, IDENTITY)
        assert np.allclose(Q.rotation, P.rotation)
        assert np.allclose(Q.translation, P.translation)

    def test_relative_of_self_is_identity(self):
        P = random_pose(np.random.default_rng(1))
        rel = relative(P, P)
        assert np.allclose(matrix(rel), np.eye(4), atol=1e-12)

    def test_compose_inverse_is_identity(self):
        P = random_pose(np.random.default_rng(2))
        assert np.allclose(matrix(compose(P, inverse(P))), np.eye(4), atol=1e-9)

    def test_relative_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(3)
        A, B = random_pose(rng), random_pose(rng)
        expected = np.linalg.inv(matrix(A)) @ matrix(B)
        assert np.allclose(matrix(relative(A, B)), expected, atol=1e-12)

    def test_pose_error_extracts_magnitudes(self):
        A = IDENTITY
        B = se3_exp([0.3, 0, 0, 0, 0, 0.2])
        t_err, r_err = pose_error(A, B)
        assert r_err == pytest.approx(0.2, abs=1e-9)
        assert t_err == pytest.approx(np.linalg.norm(B.translation))


class TestIntegrateTwist:
    def test_pure_translation(self):
        P = integrate_twist(IDENTITY, np.array([1.0, 0, 0, 0, 0, 0]), 0.5)
        assert np.allclose(P.translation, (0.5, 0, 0))
        assert np.allclose(P.rotation, np.eye(3))

    def test_zero_twist(self):
        P = integrate_twist(IDENTITY, np.zeros(6), 1.0)
        assert np.allclose(matrix(P), np.eye(4))

    def test_z_rotation_matches_closed_form(self):
        P = integrate_twist(IDENTITY, np.array([0, 0, 0, 0, 0, np.pi]), 1.0)
        Rz = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(P.rotation, Rz, atol=1e-12)
        assert np.allclose(P.translation, 0, atol=1e-12)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate_twist(IDENTITY, np.zeros(6), 0.0)

    @pytest.mark.parametrize("dt", [1e200, 1e308])
    def test_overflowing_step_raises(self, dt):
        # |dt * w| overflows to inf: the rotation would be NaN
        with pytest.raises(NonFiniteStep):
            integrate_twist(IDENTITY, np.array([0.1, 0, 0, 0.1, 0.2, 0]), dt)

    def test_screw_reversal_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.uniform(-1, 1, 6)
            dt = rng.uniform(0.01, 0.9)  # keeps |w| dt < pi
            P = integrate_twist(IDENTITY, v, dt)
            Q = integrate_twist(P, -v, dt)
            assert np.allclose(matrix(Q), np.eye(4), atol=1e-9)

    def test_orthonormality_drift_over_many_steps(self):
        pose = IDENTITY
        v = np.array([0.01, -0.02, 0.005, 0.3, -0.1, 0.25])
        for _ in range(10_000):
            pose = integrate_twist(pose, v, 0.01)
        drift = np.linalg.norm(pose.rotation.T @ pose.rotation - np.eye(3))
        assert drift < 1e-9
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_equals_the_svd_polar_factor_of_compose(self):
        # the pose step as P o exp(dt v) through compose, its rotation then
        # projected onto SO(3) by the SVD's polar factor U V^T: integrate_twist
        # takes one Newton step of the polar decomposition instead, the same
        # projection to rounding
        rng = np.random.default_rng(10)
        for _ in range(200):
            pose = random_pose(rng)
            v, dt = rng.normal(0.0, 1.0, 6), rng.uniform(0.001, 0.5)
            composed = compose(pose, se3_exp(dt * v))
            U, _, Vt = np.linalg.svd(composed.rotation)
            got = integrate_twist(pose, v, dt)
            np.testing.assert_allclose(got.rotation, U @ Vt, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.translation, composed.translation, rtol=0, atol=1e-15)

    def test_random_chained_steps_stay_orthonormal(self):
        rng = np.random.default_rng(11)
        pose = IDENTITY
        for _ in range(10_000):
            pose = integrate_twist(pose, rng.normal(0.0, 1.0, 6), 0.05)
            # one check per step costs more than the step; every 100 is enough
            if rng.random() < 0.01:
                assert np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max() < 1e-14
        assert np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max() < 1e-14
        assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-14)

    @given(
        u=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda a: np.linalg.norm(a) > 1e-3
        ),
        angle=st.one_of(
            st.floats(0.0, 1e-8), st.floats(1e-8, 1e-4), st.floats(1e-4, np.pi)
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_se3_exp_matches_the_series(self, u, axis, angle):
        # below _SMALL_ANGLE = 1e-8 the Taylor branch, above it the closed form
        w = np.asarray(axis) * (angle / np.linalg.norm(axis))
        X = np.zeros((4, 4))
        X[:3, :3] = [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
        X[:3, 3] = u
        # sum of X^k / k!: |X| <= pi + sqrt(3), so 60 terms leave < 1e-30
        term, series = np.eye(4), np.eye(4)
        for k in range(1, 60):
            term = term @ X / k
            series = series + term
        step = se3_exp([*u, *w])
        np.testing.assert_allclose(step.rotation, series[:3, :3], rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.translation, series[:3, 3], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [0, 2, 3, 5])
    def test_nonfinite_twist_raises(self, bad, entry):
        v = np.full(6, 0.1)
        v[entry] = bad
        with pytest.raises(NonFiniteStep):
            integrate_twist(IDENTITY, v, 0.05)

    def test_small_angle_branch(self):
        P = se3_exp([0.1, 0.2, 0.3, 1e-12, 0, 0])
        assert np.allclose(P.translation, (0.1, 0.2, 0.3), atol=1e-12)
        assert np.allclose(P.rotation, np.eye(3), atol=1e-10)


class TestPoseBasics:
    def test_flat12_round_trip(self):
        P = random_pose(np.random.default_rng(5))
        flat = np.array(P.to_flat())
        Q = Pose(flat[:9].reshape(3, 3), flat[9:])
        assert matrix(P).tobytes() == matrix(Q).tobytes()

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rotation_angle_clips_numerical_noise(self):
        assert rotation_angle(np.eye(3)) == 0.0


def old_as_rotation(R):
    """_as_rotation as it was before the written-out tolerance test and the
    cofactor determinant sign."""
    R = np.asarray(R, dtype=float).reshape(3, 3)
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-6):
        raise ValueError("rotation matrix is not orthonormal")
    if np.linalg.det(R) < 0:
        raise ValueError("rotation matrix has negative determinant")
    return R


def _verdict(check, R):
    try:
        return check(R).tobytes()
    except ValueError as exc:
        return str(exc)


def _shear(e):
    # R.T @ R has e off the diagonal: the 1e-6 absolute tolerance applies
    R = np.eye(3)
    R[0, 1] = e
    return R


def _stretch(e):
    # R.T @ R has 1 + e on the diagonal: 1e-6 + 1e-5 applies
    return np.diag([np.sqrt(1.0 + e), 1.0, 1.0])


class TestRotationCheckMatchesOld:
    ROTATION = random_pose(np.random.default_rng(9)).rotation

    @pytest.mark.parametrize(
        "matrix",
        [
            _shear(0.9e-6), _shear(1.1e-6), _shear(-0.9e-6), _shear(-1.1e-6),
            _stretch(1.09e-5), _stretch(1.11e-5), _stretch(-1.09e-5), _stretch(-1.11e-5),
            np.eye(3), np.diag([1.0, 1.0, -1.0]), -np.eye(3), np.diag([-1.0, -1.0, 1.0]),
        ],
    )
    @pytest.mark.parametrize("rotate", [False, True])
    def test_same_verdict(self, matrix, rotate):
        R = self.ROTATION @ matrix if rotate else matrix
        assert _verdict(_as_rotation, R) == _verdict(old_as_rotation, R)

    def test_boundary_cases_split(self):
        assert isinstance(_verdict(_as_rotation, _shear(0.9e-6)), bytes)
        assert "orthonormal" in _verdict(_as_rotation, _shear(1.1e-6))
        assert isinstance(_verdict(_as_rotation, _stretch(1.09e-5)), bytes)
        assert "orthonormal" in _verdict(_as_rotation, _stretch(1.11e-5))
        assert "determinant" in _verdict(_as_rotation, self.ROTATION @ np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [0, 4, 7])
    def test_non_finite_rejected_alike(self, bad, entry):
        R = self.ROTATION.copy()
        R.flat[entry] = bad
        with np.errstate(invalid="ignore"):
            verdicts = _verdict(_as_rotation, R), _verdict(old_as_rotation, R)
        assert verdicts[0] == verdicts[1]
        assert "orthonormal" in verdicts[0]


class TestIntrinsics:
    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 600.0, 160.0, 120.0, 320, 240)

    @pytest.mark.parametrize("fx, fy", [(np.nan, 600.0), (np.inf, 600.0), (600.0, np.nan)])
    def test_rejects_non_finite_focal(self, fx, fy):
        with pytest.raises(ValueError, match="focal"):
            CameraIntrinsics(fx, fy, 160.0, 120.0, 320, 240)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(600.0, 600.0, 400.0, 120.0, 320, 240)

    @pytest.mark.parametrize("width, height", [(200.9, 240), (320, 240.0), (True, 240)])
    def test_rejects_non_integer_size(self, width, height):
        with pytest.raises(ValueError, match="integers"):
            CameraIntrinsics(600.0, 600.0, 0.0, 0.0, width, height)
