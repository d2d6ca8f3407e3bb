import numpy as np
import pytest

from featservo.control import (
    ControlConfig,
    control_law,
    pseudo_inverse,
    stack_interaction,
)
from featservo.errors import (
    DimensionMismatch,
    InsufficientFeatures,
    NonPositiveDepth,
)
from featservo.geometry import Pose, compose, pixel_to_normalized, project_many, se3_exp


def point_block(x, y, Z):
    """2x6 interaction matrix of one normalized point at depth Z, written out
    entry by entry: the oracle for stack_interaction's per-point rows."""
    return np.array(
        [
            [-1.0 / Z, 0.0, x / Z, x * y, -(1.0 + x * x), y],
            [0.0, -1.0 / Z, y / Z, 1.0 + y * y, -x * y, -x],
        ]
    )


class TestPointInteractionMatrix:
    def test_image_center_unit_depth(self):
        L = stack_interaction([0.0, 0.0], [1.0])
        assert np.allclose(L[0], [-1, 0, 0, 0, -1, 0])
        assert np.allclose(L[1], [0, -1, 0, 1, 0, 0])

    def test_direct_substitution(self):
        L = stack_interaction([0.05, 0.0], [2.0])
        assert np.allclose(L[0], [-0.5, 0, 0.025, 0, -1.0025, 0])
        assert np.allclose(L[1], [0, -0.5, 0, 1, 0, -0.05])

    def test_columns_match_finite_differences(self, intrinsics):
        # each column is the feature-velocity under the matching unit twist
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(50):
            x, y = rng.uniform(-0.2, 0.2, 2)
            Z = rng.uniform(0.1, 5.0)
            L = stack_interaction([x, y], [Z])
            point_world = np.array([x * Z, y * Z, Z])  # camera at identity
            for col in range(6):
                xi = np.zeros(6)
                xi[col] = eps
                cam = se3_exp(xi)
                moved = cam.world_to_camera(point_world)
                pixel = project_many(moved, intrinsics)[0][0]
                s_new = pixel_to_normalized(pixel, intrinsics)
                fd = (s_new - np.array([x, y])) / eps
                assert np.allclose(fd, L[:, col], atol=1e-4)


class TestStackInteraction:
    def test_single_point_matches_block(self):
        s = np.array([0.1, -0.05])
        L = stack_interaction(s, [1.5])
        assert np.allclose(L, point_block(0.1, -0.05, 1.5))

    def test_three_point_block_layout(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(-0.3, 0.3, 6)
        Z = rng.uniform(0.5, 3.0, 3)
        L = stack_interaction(s, Z)
        assert L.shape == (6, 6)
        for i in range(3):
            block = point_block(s[2 * i], s[2 * i + 1], Z[i])
            assert np.allclose(L[2 * i : 2 * i + 2], block)

    def test_noncollinear_points_give_rank_six(self):
        s = np.array([0.0, 0.0, 0.2, 0.0, 0.0, 0.15])
        Z = np.array([1.0, 1.5, 2.0])
        assert np.linalg.matrix_rank(stack_interaction(s, Z)) == 6

    def test_mismatched_depths(self):
        with pytest.raises(DimensionMismatch):
            stack_interaction([0.1, 0.2, 0.3, 0.4], [1.0])

    def test_bad_depth(self):
        with pytest.raises(NonPositiveDepth):
            stack_interaction([0.1, 0.2], [-1.0])


class TestPseudoInverse:
    def test_orthonormal_rows_give_transpose(self):
        L = np.zeros((2, 6))
        L[0, 0] = 1.0
        L[1, 3] = 1.0
        assert np.allclose(pseudo_inverse(L), L.T)

    def test_full_rank_square_inverse(self):
        rng = np.random.default_rng(9)
        L = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        assert np.allclose(pseudo_inverse(L) @ L, np.eye(6), atol=1e-9)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(10)
        L = rng.normal(size=(8, 6))
        Lp = pseudo_inverse(L)
        assert np.allclose(L @ Lp @ L, L, atol=1e-8)
        assert np.allclose(Lp @ L @ Lp, Lp, atol=1e-8)
        assert np.allclose((L @ Lp).T, L @ Lp, atol=1e-8)
        assert np.allclose((Lp @ L).T, Lp @ L, atol=1e-8)

    def test_rank_deficient_gives_minimum_norm(self):
        L = np.zeros((4, 6))
        L[0, 0] = 2.0
        L[1, 0] = 2.0  # duplicated row: rank 1
        Lp = pseudo_inverse(L)
        x = Lp @ np.array([1.0, 1.0, 0.0, 0.0])
        assert np.allclose(L @ x, [1, 1, 0, 0], atol=1e-12)


class TestControlLaw:
    def _random_system(self, seed, k=3):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-0.3, 0.3, 2 * k)
        Z = rng.uniform(0.5, 3.0, k)
        return stack_interaction(s, Z)

    def test_zero_error_gives_zero_twist(self):
        L = self._random_system(11)
        v = control_law(np.zeros(6), pseudo_inverse(L), ControlConfig())
        assert v.shape == (6,) and np.all(v == 0)

    def test_exact_error_rate_inversion(self):
        L = self._random_system(12)
        e = np.random.default_rng(13).uniform(-0.1, 0.1, 6)
        v = control_law(e, pseudo_inverse(L), ControlConfig(gain=1.0))
        assert np.allclose(L @ v, -e, atol=1e-8)

    def test_linear_in_gain(self):
        L = self._random_system(14)
        e = np.random.default_rng(15).uniform(-0.1, 0.1, 6)
        v1 = control_law(e, pseudo_inverse(L), ControlConfig(gain=0.5))
        v2 = control_law(e, pseudo_inverse(L), ControlConfig(gain=1.0))
        assert np.allclose(v2, 2 * v1)

    def test_saturation(self):
        L = self._random_system(16)
        e = np.full(6, 0.5)
        cap = 1e-4
        v = control_law(e, pseudo_inverse(L), ControlConfig(gain=10.0, max_twist=(cap,) * 6))
        assert np.all(np.abs(v) <= cap + 1e-15)

    def test_too_few_points(self):
        L = np.zeros((4, 6))
        with pytest.raises(InsufficientFeatures):
            control_law(np.zeros(4), pseudo_inverse(L), ControlConfig())

    def test_dimension_mismatch(self):
        L = self._random_system(17)
        with pytest.raises(DimensionMismatch):
            control_law(np.zeros(8), pseudo_inverse(L), ControlConfig())

    def test_invariant_under_consistent_permutation(self):
        rng = np.random.default_rng(18)
        k = 5
        s = rng.uniform(-0.3, 0.3, 2 * k)
        Z = rng.uniform(0.5, 3.0, k)
        e = rng.uniform(-0.1, 0.1, 2 * k)
        L = stack_interaction(s, Z)
        v = control_law(e, pseudo_inverse(L), ControlConfig())

        perm = rng.permutation(k)
        rows = np.stack([2 * perm, 2 * perm + 1], axis=1).reshape(-1)
        v_perm = control_law(e[rows], pseudo_inverse(L[rows]), ControlConfig())
        assert np.allclose(v, v_perm, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(gain=0.0)
        with pytest.raises(ValueError):
            ControlConfig(svd_tolerance=-1.0)
        with pytest.raises(ValueError):
            ControlConfig(max_twist=(1.0, 1.0))


class TestClosedLoopDescent:
    def test_error_norm_contracts_with_true_interaction(self, intrinsics):
        # one hand-rolled cycle: perturb camera, command twist, re-project
        rng = np.random.default_rng(19)
        points = rng.uniform(-0.05, 0.05, size=(8, 3))
        points[:, 2] = 0.0
        target = Pose(np.eye(3), (0.0, 0.0, -0.4))
        camera = compose(target, se3_exp([0.01, -0.005, 0.008, 0.02, -0.03, 0.01]))
        gain, dt = 0.5, 0.05

        def features(pose):
            pix, Z = project_many(pose.world_to_camera(points), intrinsics)
            return pixel_to_normalized(pix, intrinsics).reshape(-1), Z

        s_star, _ = features(target)
        initial = None
        prev = np.inf
        for _ in range(200):
            s, Z = features(camera)
            e = s - s_star
            norm = np.linalg.norm(e)
            assert norm < prev or norm < 1e-12
            prev = norm
            if initial is None:
                initial = norm
            v = control_law(e, pseudo_inverse(stack_interaction(s, Z)), ControlConfig(gain=gain))
            camera = compose(camera, se3_exp(dt * v))
        # (1 - gain*dt)^200 ~ 0.0063
        assert prev < 0.01 * initial
