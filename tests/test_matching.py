import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featservo.errors import EmptySet, TooFewCorrespondences, TrackingLost
from featservo.features import FeatureSet
from featservo.matching import (
    CHUNK,
    CorrespondenceSet,
    InlierSet,
    RansacConfig,
    TrackingState,
    _transfer_error,
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


def old_match_nn(current, target):
    """match_nn as it was before the cached norms and the in-place d2."""
    cur, tgt = current.descriptors, target.descriptors
    d2 = (
        np.sum(cur**2, axis=1)[:, None]
        + np.sum(tgt**2, axis=1)[None, :]
        - 2.0 * (cur @ tgt.T)
    )
    np.maximum(d2, 0.0, out=d2)
    nearest_tgt = np.argmin(d2, axis=1)
    nearest_cur = np.argmin(d2, axis=0)
    keep = nearest_cur[nearest_tgt] == np.arange(len(current))
    cur_idx = np.flatnonzero(keep).astype(np.int64)
    tgt_idx = nearest_tgt[cur_idx].astype(np.int64)
    dist = np.sqrt(d2[cur_idx, tgt_idx])
    order = np.argsort(dist, kind="stable")
    cur_idx, tgt_idx, dist = cur_idx[order], tgt_idx[order], dist[order]
    return CorrespondenceSet(
        cur_idx, tgt_idx, dist, current.pixels[cur_idx], target.pixels[tgt_idx]
    )


def noisy_copy(desc, sigma, seed):
    noisy = desc + np.random.default_rng(seed).normal(0.0, sigma, desc.shape)
    return noisy / np.linalg.norm(noisy, axis=1, keepdims=True)


class TestMatchNNMatchesOldFormula:
    """The cached norms and in-place d2 give the old correspondence bytes."""

    @staticmethod
    def assert_same(cur, tgt):
        new, old = match_nn(cur, tgt), old_match_nn(cur, tgt)
        for field in ("current_indices", "target_indices", "distances",
                      "current_pixels", "target_pixels"):
            a, b = getattr(new, field), getattr(old, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        return new

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [32, 256])
    def test_noisy_descriptors(self, seed, d):
        rng = np.random.default_rng(seed)
        base = unit_descriptors(60, d=d, seed=seed)
        tgt = feature_set(rng.uniform(0, 200, (60, 2)), base)
        cur = feature_set(rng.uniform(0, 200, (45, 2)), noisy_copy(base[10:55], 0.05, seed))
        assert len(self.assert_same(cur, tgt)) > 0

    def test_duplicated_rows_tie(self):
        base = unit_descriptors(12, seed=3)
        dup = np.vstack([base, base[[2, 5, 5, 7]]])  # exact ties on both sides
        rng = np.random.default_rng(4)
        cur = feature_set(rng.uniform(0, 200, (16, 2)), dup)
        tgt = feature_set(rng.uniform(0, 200, (16, 2)), dup[::-1].copy())
        self.assert_same(cur, tgt)
        self.assert_same(tgt, cur)

    def test_locked_tracking_target(self):
        target = make_target(40, seed=2)
        state = TrackingState(activation_threshold=10.0)
        target.sq_norms  # the full target's cached norms carry into the lock
        state = tracking_update(
            state, target, inliers_over(target, [3, 9, 1, 30, 22, 17]), mean_error=5.0
        )
        locked = state.matchable_target(target)
        cur = feature_set(
            np.random.default_rng(8).uniform(0, 200, (25, 2)),
            noisy_copy(target.descriptors[10:35], 0.05, 8),
        )
        for _ in range(2):  # the second pass reads every cached value
            C = self.assert_same(cur, locked)
        assert len(C) > 0


def full_svd_fit(src, dst):
    """Reference DLT: Hartley normalization and a full SVD of A, one model."""
    def normalize(pts):
        c = pts.mean(axis=0)
        scale = np.sqrt(2.0) / (np.mean(np.linalg.norm(pts - c, axis=1)) + 1e-12)
        T = np.array([[scale, 0.0, -scale * c[0]], [0.0, scale, -scale * c[1]], [0.0, 0.0, 1.0]])
        return (pts - c) * scale, T

    n = src.shape[0]
    sn, Ts = normalize(src)
    dn, Td = normalize(dst)
    A = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    A[0::2, 0], A[0::2, 1], A[0::2, 2] = x, y, 1.0
    A[0::2, 6], A[0::2, 7], A[0::2, 8] = -u * x, -u * y, -u
    A[1::2, 3], A[1::2, 4], A[1::2, 5] = x, y, 1.0
    A[1::2, 6], A[1::2, 7], A[1::2, 8] = -v * x, -v * y, -v
    _, sigma, Vt = np.linalg.svd(A)
    if n == 4 and sigma[-2] < 1e-8 * max(sigma[0], 1.0):
        return None
    H = np.linalg.inv(Td) @ Vt[-1].reshape(3, 3) @ Ts
    if abs(H[2, 2]) < 1e-12:
        return None
    return H / H[2, 2]


def degenerate_sample(pts):
    """True if any 3 of the 4 sample points are (near-)collinear."""
    for skip in range(4):
        tri = np.delete(pts, skip, axis=0)
        a, b = tri[1] - tri[0], tri[2] - tri[0]
        if 0.5 * abs(a[0] * b[1] - a[1] * b[0]) < 1e-6:
            return True
    return False


def serial_ransac(C, cfg, rng):
    """Reference RANSAC: one hypothesis at a time, each fitted and scored alone."""
    n = len(C)
    if n < cfg.min_sample:
        raise TooFewCorrespondences("too few pairs")
    src, dst = C.current_pixels, C.target_pixels
    best_count, best_mask, best_model = 0, None, None
    needed = cfg.max_iterations
    it = 0
    while it < min(needed, cfg.max_iterations):
        it += 1
        sample = rng.choice(n, size=cfg.min_sample, replace=False)
        if degenerate_sample(src[sample]) or degenerate_sample(dst[sample]):
            continue
        H = full_svd_fit(src[sample], dst[sample])
        if H is None:
            continue
        mask = symmetric_transfer_error(H, src, dst) <= cfg.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask, best_model = count, mask, H
            w = count / n
            if w >= 1.0:
                break
            denom = np.log1p(-min(w**cfg.min_sample, 1 - 1e-12))
            needed = int(np.ceil(np.log1p(-cfg.confidence) / denom))
    if best_mask is None or best_count < cfg.min_sample:
        raise TooFewCorrespondences("no non-degenerate consensus found")
    refit = full_svd_fit(src[best_mask], dst[best_mask])
    if refit is not None:
        refined = symmetric_transfer_error(refit, src, dst) <= cfg.inlier_threshold
        if refined.sum() >= cfg.min_sample:
            best_mask, best_model = refined, refit
    return np.flatnonzero(best_mask), best_model


def noisy_pairs(seed, n, outlier_frac=0.0, noise=0.3):
    rng = np.random.default_rng(seed)
    src = rng.uniform(20, 300, (n, 2))
    dst = apply_h(known_homography(), src) + rng.normal(0, noise, (n, 2))
    bad = rng.random(n) < outlier_frac
    dst[bad] = rng.uniform(0, 320, (int(bad.sum()), 2))
    return pair_set(src, dst)


def collinear_heavy_pairs(seed, n):
    """Half the points on one line, so many samples are degenerate."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(20, 300, (n, 2))
    t = rng.uniform(0, 1, n // 2)
    src[: n // 2] = np.c_[20 + 260 * t, 40 + 150 * t]
    return pair_set(src, apply_h(known_homography(), src) + rng.normal(0, 0.3, (n, 2)))


class TestChunkedRansacMatchesSerial:
    """Chunked hypotheses give the serial loop's result bit for bit and leave
    a shared generator exactly where the serial loop leaves it."""

    CASES = {
        "outliers": (lambda s: noisy_pairs(s, 60, outlier_frac=0.4), {}),
        "heavy_outliers": (lambda s: noisy_pairs(s, 24, outlier_frac=0.5), {}),
        "collinear_samples": (lambda s: collinear_heavy_pairs(s, 24), {}),
        "all_inliers_exit": (lambda s: noisy_pairs(s, 30, noise=0.0), {}),
        "iteration_cap_50": (lambda s: noisy_pairs(s, 60, outlier_frac=0.8), {"max_iterations": 50}),
        "cap_inside_a_chunk": (lambda s: noisy_pairs(s, 40, outlier_frac=0.8), {"max_iterations": 11}),
        "min_sample_5": (lambda s: noisy_pairs(s, 40, outlier_frac=0.3), {"min_sample": 5}),
    }

    @staticmethod
    def run_both(C, cfg, seed):
        """(result, generator state) of the serial reference, then of ransac_inliers."""
        def chunked(C, cfg, rng):
            R = ransac_inliers(C, cfg, rng=rng)
            return R.indices, R.model

        outcomes = []
        for ransac in (serial_ransac, chunked):
            rng = np.random.default_rng([seed, 0x5C])
            try:
                result = ransac(C, cfg, rng)
            except TooFewCorrespondences:
                result = None
            outcomes.append((result, rng.bit_generator.state))
        return outcomes

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_inliers_model_and_generator_state(self, case):
        make, overrides = self.CASES[case]
        for seed in range(12):
            C = make(seed)
            cfg = RansacConfig(seed=seed, **overrides)
            (ref, ref_state), (got, got_state) = self.run_both(C, cfg, seed)
            assert got_state == ref_state
            if ref is None:
                assert got is None
                continue
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])

    def test_too_few_pairs_draws_nothing(self):
        C = noisy_pairs(0, 3)
        (ref, ref_state), (got, got_state) = self.run_both(C, RansacConfig(), 0)
        assert ref is None and got is None
        assert got_state == ref_state == np.random.default_rng([0, 0x5C]).bit_generator.state

    def test_no_consensus_raises_after_the_same_draws(self):
        src = np.c_[np.linspace(0, 300, 20), np.linspace(10, 200, 20)]  # one line
        C = pair_set(src, src + 3.0)
        cfg = RansacConfig(max_iterations=50)
        (ref, ref_state), (got, got_state) = self.run_both(C, cfg, 1)
        assert ref is None and got is None
        assert got_state == ref_state

    def test_early_exit_leaves_generator_after_one_draw(self):
        # all inliers: the first hypothesis ends the loop, inside the first chunk
        assert CHUNK > 1
        C = noisy_pairs(0, 30, noise=0.0)
        rng = np.random.default_rng(0)
        ransac_inliers(C, RansacConfig(), rng=rng)
        one_draw = np.random.default_rng(0)
        one_draw.choice(30, size=4, replace=False)
        assert rng.bit_generator.state == one_draw.bit_generator.state


class TestHomography:
    def test_recovers_known_model(self):
        H = known_homography()
        src = np.random.default_rng(12).uniform(20, 300, (10, 2))
        fitted = fit_homography(src, apply_h(H, src))
        assert np.allclose(fitted, H / H[2, 2], atol=1e-8)

    def test_collinear_sample_rejected(self):
        src = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
        assert fit_homography(src, src + 1.0) is None
        off_origin = np.array([[0.0, 5.0], [10.0, 8.0], [20.0, 11.0], [30.0, 14.0]])
        assert fit_homography(off_origin, np.random.default_rng(0).uniform(0, 300, (4, 2))) is None

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_four_point_sample_collinear_on_one_side(self, side):
        rng = np.random.default_rng(21)
        t = rng.uniform(0, 1, 4)
        line = np.c_[20.0 + 200.0 * t, 30.0 + 100.0 * t]
        spread = rng.uniform(0, 300, (4, 2))
        src, dst = (line, spread) if side == "src" else (spread, line)
        assert fit_homography(src, dst) is None
        # three collinear points are enough
        three = spread.copy()
        three[:3] = line[:3]
        src, dst = (three, spread + 5.0) if side == "src" else (spread + 5.0, three)
        assert fit_homography(src, dst) is None

    @pytest.mark.parametrize("n", [5, 6, 9, 40, 320])
    def test_thin_svd_fit_matches_full_svd_dlt(self, n):
        rng = np.random.default_rng(n)
        src = rng.uniform(0, 320, (n, 2))
        dst = apply_h(known_homography(), src) + rng.normal(0, 0.5, (n, 2))
        np.testing.assert_allclose(fit_homography(src, dst), full_svd_fit(src, dst), rtol=1e-12)

    def test_singular_model_in_a_stack_scores_inf(self):
        H = known_homography()
        src = np.random.default_rng(19).uniform(20, 300, (8, 2))
        dst = apply_h(H, src)
        err = _transfer_error(np.stack([H, np.zeros((3, 3))]), src, dst)
        assert np.array_equal(err[0], symmetric_transfer_error(H, src, dst))
        assert np.all(np.isinf(err[1]))

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

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(4, 40),
        outlier_frac=st.floats(0.0, 0.7),
        threshold=st.sampled_from([0.5, 2.0, 5.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_returned_pair_meets_threshold(self, seed, n, outlier_frac, threshold):
        C = noisy_pairs(seed, n, outlier_frac=outlier_frac, noise=0.5)
        cfg = RansacConfig(inlier_threshold=threshold, max_iterations=200, seed=seed)
        try:
            R = ransac_inliers(C, cfg)
        except TooFewCorrespondences:
            return
        assert len(R) >= cfg.min_sample
        resid = symmetric_transfer_error(R.model, R.current_pixels, R.target_pixels)
        assert np.all(resid <= cfg.inlier_threshold)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(min_sample=3)
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
