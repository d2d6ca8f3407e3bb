import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featservo.errors import EmptySet, TooFewCorrespondences, TrackingLost
from featservo.features import FeatureSet
from featservo.matching import (
    CorrespondenceSet,
    InlierSet,
    RansacConfig,
    TrackingState,
    fit_homography,
    match_nn,
    mean_correspondence_error,
    ransac_inliers,
    symmetric_transfer_error,
    tracking_update,
)


def unit_descriptors(n, d=32, seed=0):
    rng = np.random.default_rng(seed)
    desc = rng.normal(size=(n, d))
    return desc / np.linalg.norm(desc, axis=1, keepdims=True)


def feature_set(pixels, descriptors, depths=None, ids=None):
    pixels = np.asarray(pixels, dtype=float)
    n = pixels.shape[0]
    return FeatureSet(
        pixels, descriptors, np.full(n, 0.5), (320, 240), depths=depths, landmark_ids=ids
    )


def pair_set(src, dst):
    """CorrespondenceSet straight from pixel arrays (identity indexing)."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    n = src.shape[0]
    idx = np.arange(n, dtype=np.int64)
    return CorrespondenceSet(idx, idx, np.zeros(n), src, dst)


def known_homography():
    # mild projective warp: rotation + translation + slight perspective
    a = np.deg2rad(4.0)
    H = np.array(
        [
            [np.cos(a), -np.sin(a), 6.0],
            [np.sin(a), np.cos(a), -3.0],
            [1e-4, -5e-5, 1.0],
        ]
    )
    return H


def apply_h(H, pts):
    q = np.c_[pts, np.ones(len(pts))] @ H.T
    return q[:, :2] / q[:, 2:3]


class TestMatchNN:
    def test_self_match_is_identity(self):
        fs = feature_set(np.random.default_rng(0).uniform(0, 200, (6, 2)), unit_descriptors(6))
        C = match_nn(fs, fs)
        assert len(C) == 6
        assert np.array_equal(np.sort(C.current_indices), np.arange(6))
        assert np.array_equal(C.current_indices, C.target_indices)
        assert np.all(C.distances < 1e-7)  # sqrt of float epsilon from the gemm

    def test_orthogonal_descriptors_match_exactly(self):
        desc = np.eye(3, 8)  # three orthogonal unit descriptors
        cur = feature_set([[10, 10], [20, 20], [30, 30]], desc)
        tgt = feature_set([[50, 50], [60, 60], [70, 70]], desc[[2, 0, 1]])
        C = match_nn(cur, tgt)
        # oracle: full distance matrix, row-wise argmin
        d = np.linalg.norm(cur.descriptors[:, None] - tgt.descriptors[None], axis=2)
        for ci, ti in zip(C.current_indices, C.target_indices):
            assert ti == np.argmin(d[ci])
        assert len(C) == 3

    def test_empty_inputs(self):
        fs = feature_set([[1.0, 1.0]], unit_descriptors(1))
        empty = FeatureSet.empty((320, 240), 32)
        assert len(match_nn(fs, empty)) == 0
        assert len(match_nn(empty, fs)) == 0

    def test_disjoint_landmarks_yield_false_pairs(self):
        # features with no true counterpart still pair up in descriptor space
        cur = feature_set(
            np.random.default_rng(1).uniform(0, 200, (12, 2)), unit_descriptors(12, seed=2)
        )
        tgt = feature_set(
            np.random.default_rng(3).uniform(0, 200, (12, 2)), unit_descriptors(12, seed=4)
        )
        C = match_nn(cur, tgt)
        assert len(C) > 0  # pairs exist, all false; RANSAC must reject them

    def test_ordered_by_ascending_distance(self):
        cur = feature_set(np.random.default_rng(5).uniform(0, 200, (20, 2)),
                          unit_descriptors(20, seed=6))
        tgt = feature_set(np.random.default_rng(7).uniform(0, 200, (20, 2)),
                          unit_descriptors(20, seed=6))
        C = match_nn(cur, tgt)
        assert np.all(np.diff(C.distances) >= 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mutual_filter_never_duplicates_targets(self, seed):
        rng = np.random.default_rng(seed)
        cur = feature_set(rng.uniform(0, 200, (15, 2)), unit_descriptors(15, seed=seed % 1000))
        tgt = feature_set(rng.uniform(0, 200, (9, 2)), unit_descriptors(9, seed=(seed + 1) % 1000))
        C = match_nn(cur, tgt)
        assert len(np.unique(C.target_indices)) == len(C)


class TestHomography:
    def test_recovers_known_model(self):
        H = known_homography()
        src = np.random.default_rng(12).uniform(20, 300, (10, 2))
        fitted = fit_homography(src, apply_h(H, src))
        assert np.allclose(fitted, H / H[2, 2], atol=1e-8)

    def test_collinear_sample_rejected(self):
        src = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
        assert fit_homography(src, src + 1.0) is None

    def test_symmetric_transfer_error_zero_on_exact(self):
        H = known_homography()
        src = np.random.default_rng(13).uniform(20, 300, (8, 2))
        err = symmetric_transfer_error(H, src, apply_h(H, src))
        assert np.all(err < 1e-9)


class TestRansac:
    def test_all_inliers_no_outliers(self):
        H = known_homography()
        src = np.random.default_rng(14).uniform(20, 300, (8, 2))
        C = pair_set(src, apply_h(H, src))
        R = ransac_inliers(C, RansacConfig(seed=0))
        assert len(R) == 8
        assert np.all(np.linalg.norm(apply_h(R.model, src) - C.target_pixels, axis=1) < 1e-6)

    def test_rejects_planted_outliers_across_seeds(self):
        H = known_homography()
        rng = np.random.default_rng(15)
        src_in = rng.uniform(20, 300, (8, 2))
        dst_in = apply_h(H, src_in)
        src_out = rng.uniform(20, 300, (2, 2))
        dst_out = apply_h(H, src_out) + rng.uniform(20, 40, (2, 2)) * rng.choice([-1, 1], (2, 2))
        C = pair_set(np.vstack([src_in, src_out]), np.vstack([dst_in, dst_out]))
        hits = 0
        for seed in range(100):
            R = ransac_inliers(C, RansacConfig(inlier_threshold=2.0, seed=seed))
            if np.array_equal(np.sort(R.indices), np.arange(8)):
                hits += 1
        assert hits >= 95

    def test_too_few_pairs(self):
        C = pair_set(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(TooFewCorrespondences):
            ransac_inliers(C, RansacConfig())

    def test_inliers_satisfy_threshold_under_returned_model(self):
        H = known_homography()
        rng = np.random.default_rng(16)
        src = rng.uniform(20, 300, (30, 2))
        dst = apply_h(H, src) + rng.normal(0, 0.5, (30, 2))
        dst[::5] += 25.0  # corrupt every fifth pair
        C = pair_set(src, dst)
        cfg = RansacConfig(inlier_threshold=2.0, seed=3)
        R = ransac_inliers(C, cfg)
        resid = symmetric_transfer_error(R.model, R.current_pixels, R.target_pixels)
        assert np.all(resid <= cfg.inlier_threshold)
        assert np.all(np.isin(R.indices, np.arange(len(C))))  # subset of parent

    def test_bit_reproducible(self):
        H = known_homography()
        src = np.random.default_rng(17).uniform(20, 300, (12, 2))
        C = pair_set(src, apply_h(H, src))
        a = ransac_inliers(C, RansacConfig(seed=7))
        b = ransac_inliers(C, RansacConfig(seed=7))
        assert np.array_equal(a.indices, b.indices)
        assert a.model.tobytes() == b.model.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)


class TestMeanError:
    def test_coincident_pairs(self):
        C = pair_set([[10, 10], [20, 20]], [[10, 10], [20, 20]])
        R = InlierSet(C, np.arange(2), np.eye(3))
        assert mean_correspondence_error(R) == 0.0

    def test_arithmetic_mean(self):
        C = pair_set([[0, 0], [0, 0]], [[1, 0], [3, 0]])
        R = InlierSet(C, np.arange(2), np.eye(3))
        assert mean_correspondence_error(R) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(18)
        src, dst = rng.uniform(0, 200, (9, 2)), rng.uniform(0, 200, (9, 2))
        C = pair_set(src, dst)
        R = InlierSet(C, np.arange(9), np.eye(3))
        expected = sum(np.linalg.norm(s - d) for s, d in zip(src, dst)) / 9
        assert mean_correspondence_error(R) == pytest.approx(expected)

    def test_empty_raises(self):
        C = pair_set(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(EmptySet):
            mean_correspondence_error(InlierSet(C, np.zeros(0, dtype=np.int64), np.eye(3)))


def make_target(n, seed=0):
    rng = np.random.default_rng(seed)
    return feature_set(
        rng.uniform(0, 200, (n, 2)),
        unit_descriptors(n, seed=seed),
        depths=rng.uniform(0.2, 1.0, n),
        ids=np.arange(n),
    )


def inliers_over(target, target_indices):
    n = len(target_indices)
    idx = np.asarray(target_indices, dtype=np.int64)
    C = CorrespondenceSet(
        np.arange(n, dtype=np.int64), idx, np.zeros(n),
        target.pixels[idx], target.pixels[idx],
    )
    return InlierSet(C, np.arange(n, dtype=np.int64), np.eye(3))


class TestTracking:
    def test_inactive_passthrough_above_threshold(self):
        target = make_target(10)
        state = TrackingState(activation_threshold=10.0)
        new = tracking_update(state, target, inliers_over(target, range(10)), mean_error=25.0)
        assert not new.active
        assert new.matchable_target(target) is target

    def test_activation_then_shrink(self):
        target = make_target(10)
        state = TrackingState(activation_threshold=10.0)
        state = tracking_update(state, target, inliers_over(target, range(10)), mean_error=5.0)
        assert state.active
        locked = state.matchable_target(target)
        assert len(locked) == 10
        assert np.array_equal(locked.landmark_ids, target.landmark_ids)

        # next cycle only 8 of the locked targets survive as inliers
        survivors = [0, 1, 2, 3, 5, 6, 8, 9]
        state = tracking_update(state, locked, inliers_over(locked, survivors), mean_error=3.0)
        shrunk = state.matchable_target(target)
        assert len(shrunk) == 8
        assert set(shrunk.landmark_ids) <= set(locked.landmark_ids)
        assert set(shrunk.landmark_ids) == {0, 1, 2, 3, 5, 6, 8, 9}

    def test_tracking_lost_below_minimum(self):
        target = make_target(10)
        state = TrackingState(activation_threshold=10.0)
        state = tracking_update(state, target, inliers_over(target, range(10)), mean_error=5.0)
        locked = state.matchable_target(target)
        with pytest.raises(TrackingLost):
            tracking_update(state, locked, inliers_over(locked, [0, 1]), mean_error=1.0)

    def test_no_activation_without_support(self):
        target = make_target(5)
        state = TrackingState(activation_threshold=10.0)
        new = tracking_update(state, target, inliers_over(target, [0, 1]), mean_error=2.0)
        assert not new.active
