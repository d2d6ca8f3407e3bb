import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featservo import matching
from featservo.errors import TooFewCorrespondences
from featservo.features import FeatureSet
from featservo.matching import (
    CHUNK,
    MIN_SAMPLE,
    CorrespondenceSet,
    InlierSet,
    RansacConfig,
    _minimal_fit,
    _one_sided_inliers,
    fit_homography,
    match_nn,
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
    return CorrespondenceSet(idx, idx, src, dst)


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
        empty = FeatureSet(np.zeros((0, 2)), np.zeros((0, 32)), np.zeros(0), (320, 240))
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
        d2 = brute_force_sq_distances(cur, tgt)[C.current_indices, C.target_indices]
        assert np.all(np.diff(d2) >= -1e-6)  # the float32 gemm's rounding

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mutual_filter_never_duplicates_targets(self, seed):
        rng = np.random.default_rng(seed)
        cur = feature_set(rng.uniform(0, 200, (15, 2)), unit_descriptors(15, seed=seed % 1000))
        tgt = feature_set(rng.uniform(0, 200, (9, 2)), unit_descriptors(9, seed=(seed + 1) % 1000))
        C = match_nn(cur, tgt)
        assert len(np.unique(C.target_indices)) == len(C)


def brute_force_sq_distances(current, target):
    """float64 |a - b|^2 of every (current, target) row pair, term by term."""
    a = current.descriptors.astype(np.float64)
    b = target.descriptors.astype(np.float64)
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def brute_force_match(current, target):
    """Mutual nearest neighbours by float64 brute force: each argmin takes
    the lowest index on ties, and the pairs come in ascending distance,
    ties in current index order. Returns the indices and the squared
    distances of all row pairs."""
    d2 = brute_force_sq_distances(current, target)
    nearest_tgt = np.argmin(d2, axis=1)
    nearest_cur = np.argmin(d2, axis=0)
    cur_idx = np.flatnonzero(nearest_cur[nearest_tgt] == np.arange(len(current)))
    tgt_idx = nearest_tgt[cur_idx]
    order = np.argsort(d2[cur_idx, tgt_idx], kind="stable")
    return cur_idx[order], tgt_idx[order], d2


def noisy_copy(desc, sigma, seed):
    noisy = desc + np.random.default_rng(seed).normal(0.0, sigma, desc.shape)
    return noisy / np.linalg.norm(noisy, axis=1, keepdims=True)


class TestMatchNNMatchesOldFormula:
    """match_nn's float32 2 - 2a.b on unit rows against the formula it
    stands for, |a - b|^2 by float64 brute force: the same pairs, in the
    same order. Pairs at exactly one distance, as duplicated rows make,
    may come in any order among themselves, as float32 rounding parts
    them."""

    @staticmethod
    def assert_same(cur, tgt):
        C = match_nn(cur, tgt)
        cur_idx, tgt_idx, d2 = brute_force_match(cur, tgt)
        assert C.current_indices.dtype == C.target_indices.dtype == np.int64
        pairs = sorted(zip(C.current_indices.tolist(), C.target_indices.tolist()))
        assert pairs == sorted(zip(cur_idx.tolist(), tgt_idx.tolist()))
        # the order, up to exact ties: the pairs' distances read in
        # match_nn's order are the brute force's, ascending
        assert d2[C.current_indices, C.target_indices].tobytes() == d2[cur_idx, tgt_idx].tobytes()
        assert C.current_pixels.tobytes() == cur.pixels[C.current_indices].tobytes()
        assert C.target_pixels.tobytes() == tgt.pixels[C.target_indices].tobytes()
        return C

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
        locked = tracking_update(target, inliers_over(target, [3, 9, 1, 30, 22, 17]))
        cur = feature_set(
            np.random.default_rng(8).uniform(0, 200, (25, 2)),
            noisy_copy(target.descriptors[10:35], 0.05, 8),
        )
        assert len(self.assert_same(cur, locked)) > 0


class TestMatchMemo:
    """The premise of the servo loop's match reuse: match_nn's indices
    depend on the descriptors alone, and its pixels are gathered from the
    sets it is given."""

    @pytest.mark.parametrize("seed", range(8))
    def test_hit_on_equal_descriptors_equals_fresh_match(self, seed):
        rng = np.random.default_rng(seed)
        base = unit_descriptors(50, seed=seed)
        tgt = feature_set(rng.uniform(0, 200, (50, 2)), base)
        cur = feature_set(rng.uniform(0, 200, (40, 2)), noisy_copy(base[5:45], 0.05, seed))
        C0 = match_nn(cur, tgt)
        # fresh sets: equal descriptor copies at other pixels
        rng = np.random.default_rng(100 + seed)
        cur2 = feature_set(rng.uniform(0, 200, (40, 2)), cur.descriptors.copy())
        tgt2 = feature_set(rng.uniform(0, 200, (50, 2)), tgt.descriptors.copy())
        C1 = match_nn(cur2, tgt2)
        assert len(C1) > 0
        for name in ("current_indices", "target_indices"):
            a, b = getattr(C0, name), getattr(C1, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not b.flags.writeable  # the loop hands them out again
        assert C1.current_pixels.tobytes() == cur2.pixels[C1.current_indices].tobytes()
        assert C1.target_pixels.tobytes() == tgt2.pixels[C1.target_indices].tobytes()


def hartley(pts):
    """Centroid and scale of the Hartley normalization of one point set."""
    c = pts.mean(axis=0)
    return c, np.sqrt(2.0) / (np.mean(np.linalg.norm(pts - c, axis=1)) + 1e-12)


def full_svd_fit(src, dst):
    """Reference DLT: Hartley normalization and a full SVD of A, one model."""
    def normalize(pts):
        c, scale = hartley(pts)
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


def exact_dlt_fit(src, dst):
    """The normalized DLT model to 40 digits: `full_svd_fit`'s normalization
    constants, then A, the eigenvector of the smallest eigenvalue of A^T A
    and the denormalization in mpmath, rounded to float64 at the end."""
    import mpmath

    with mpmath.workdps(40):
        mpf = mpmath.mpf
        (cs, ss), (cd, sd) = hartley(src), hartley(dst)
        rows = []
        for (x, y), (u, v) in zip(src, dst):
            x, y = (mpf(x) - mpf(cs[0])) * mpf(ss), (mpf(y) - mpf(cs[1])) * mpf(ss)
            u, v = (mpf(u) - mpf(cd[0])) * mpf(sd), (mpf(v) - mpf(cd[1])) * mpf(sd)
            rows += [[x, y, 1, 0, 0, 0, -u * x, -u * y, -u], [0, 0, 0, x, y, 1, -v * x, -v * y, -v]]
        A = mpmath.matrix(rows)
        ev, Q = mpmath.eigsy(A.T * A)
        k = min(range(9), key=lambda i: ev[i])
        Hn = mpmath.matrix([[Q[3 * r + c, k] for c in range(3)] for r in range(3)])
        Ts = mpmath.matrix([[ss, 0, -mpf(ss) * mpf(cs[0])], [0, ss, -mpf(ss) * mpf(cs[1])], [0, 0, 1]])
        Td_inv = mpmath.matrix([[1 / mpf(sd), 0, cd[0]], [0, 1 / mpf(sd), cd[1]], [0, 0, 1]])
        H = Td_inv * Hn * Ts
        return np.array([[float(H[r, c] / H[2, 2]) for c in range(3)] for r in range(3)])


def degenerate_sample(pts):
    """True if any 3 of the 4 sample points are (near-)collinear: a triangle
    of area below 1e-6 px^2."""
    for skip in range(4):
        tri = np.delete(pts, skip, axis=0)
        a, b = tri[1] - tri[0], tri[2] - tri[0]
        if 0.5 * abs(a[0] * b[1] - a[1] * b[0]) < 1e-6:
            return True
    return False


def noisy_pairs(seed, n, outlier_frac=0.0, noise=0.3):
    rng = np.random.default_rng(seed)
    src = rng.uniform(20, 300, (n, 2))
    dst = apply_h(known_homography(), src) + rng.normal(0, noise, (n, 2))
    bad = rng.random(n) < outlier_frac
    dst[bad] = rng.uniform(0, 320, (int(bad.sum()), 2))
    return pair_set(src, dst)


def planted_pairs(seed, n, outlier_frac):
    """Pairs of which the first round((1 - outlier_frac) n) follow the known
    homography within 0.3 px noise; the rest sit 20-60 px off it."""
    rng = np.random.default_rng(seed)
    n_in = round((1.0 - outlier_frac) * n)
    src = rng.uniform(20, 300, (n, 2))
    dst = apply_h(known_homography(), src) + rng.normal(0, 0.3, (n, 2))
    angle = rng.uniform(0, 2 * np.pi, n - n_in)
    dst[n_in:] += rng.uniform(20, 60, n - n_in)[:, None] * np.c_[np.cos(angle), np.sin(angle)]
    return pair_set(src, dst), n_in


def chunk_draws(rng, n, hypotheses):
    """Advance `rng` as ransac_inliers does for `hypotheses` draws over n pairs."""
    for start in range(0, hypotheses, CHUNK):
        rng.random((min(CHUNK, hypotheses - start), n))


class TestChunkedRansacMatchesSerial:
    """Hypotheses are drawn a chunk at a time, one `rng.random((k, n))` call
    per chunk, so a shared generator ends where drawing those chunks one
    after another leaves it, and a fixed seed fixes every output byte."""

    def test_too_few_pairs_draws_nothing(self):
        C = noisy_pairs(0, 3)
        rng = np.random.default_rng([0, 0x5C])
        with pytest.raises(TooFewCorrespondences):
            ransac_inliers(C, RansacConfig(), rng=rng)
        assert rng.bit_generator.state == np.random.default_rng([0, 0x5C]).bit_generator.state

    def test_deterministic_for_a_fixed_seed(self):
        for seed in range(6):
            C = noisy_pairs(seed, 60, outlier_frac=0.4)
            cfg = RansacConfig(seed=seed)
            runs = []
            for _ in range(2):
                rng = np.random.default_rng([seed, 0x5C])
                R = ransac_inliers(C, cfg, rng=rng)
                runs.append((R.indices.tobytes(), R.model.tobytes(), rng.bit_generator.state))
            assert runs[0] == runs[1]
            R = ransac_inliers(C, cfg)  # no generator: seeded from cfg.seed
            assert R.model.tobytes() == ransac_inliers(C, cfg).model.tobytes()

    @pytest.mark.parametrize("max_iterations", [1, 8, 11, 50])
    def test_no_consensus_draws_max_iterations_hypotheses(self, max_iterations):
        src = np.c_[np.linspace(0, 300, 20), np.linspace(10, 200, 20)]  # one line
        C = pair_set(src, src + 3.0)
        rng = np.random.default_rng(1)
        with pytest.raises(TooFewCorrespondences):
            ransac_inliers(C, RansacConfig(max_iterations=max_iterations), rng=rng)
        replay = np.random.default_rng(1)
        chunk_draws(replay, len(C), max_iterations)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("max_iterations", [11, 50])
    def test_iteration_cap_bounds_the_draws(self, max_iterations):
        # 80% outliers: the confidence bound stays above the cap
        C = noisy_pairs(3, 60, outlier_frac=0.8)
        rng = np.random.default_rng(2)
        try:
            ransac_inliers(C, RansacConfig(max_iterations=max_iterations), rng=rng)
        except TooFewCorrespondences:
            pass
        replay = np.random.default_rng(2)
        chunk_draws(replay, len(C), max_iterations)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_all_inliers_stop_after_one_chunk(self):
        C = noisy_pairs(0, 30, noise=0.0)
        rng = np.random.default_rng(0)
        R = ransac_inliers(C, RansacConfig(), rng=rng)
        assert len(R) == 30
        replay = np.random.default_rng(0)
        chunk_draws(replay, 30, CHUNK)
        assert rng.bit_generator.state == replay.bit_generator.state


def serial_ransac(C, cfg, rng, prior=None):
    """The chunk loop ransac_inliers replays: one `rng.random((k, n))` call,
    one fit and one score per chunk of k = min(CHUNK, limit - it)
    hypotheses, with the same prior and refit rules. Returns the indices,
    the model and the hypotheses drawn. It fits and scores with the
    module's own functions, whatever a test patches in their place."""
    n = len(C)
    if n < MIN_SAMPLE:
        raise TooFewCorrespondences("")
    src, dst, t = C.current_pixels, C.target_pixels, cfg.inlier_threshold
    best_count = best_support = 0
    best_mask = best_model = None
    limit = cfg.max_iterations
    if prior is not None:
        model, mask = prior, matching.symmetric_transfer_error(prior, src, dst) <= t
        count = int(mask.sum())
        if MIN_SAMPLE <= count < n:
            refit = matching.fit_homography(src[mask], dst[mask])
            if refit is not None:
                refit_mask = matching.symmetric_transfer_error(refit, src, dst) <= t
                if refit_mask.sum() >= count:
                    model, mask, count = refit, refit_mask, int(refit_mask.sum())
        if count >= MIN_SAMPLE:
            best_support = best_count = count
            best_mask, best_model = mask, model
            limit = matching._iteration_bound(count, n, cfg)
    it = 0
    while it < limit:
        k = min(CHUNK, limit - it)
        it += k
        samples = np.argpartition(rng.random((k, n)), MIN_SAMPLE - 1, axis=1)[:, :MIN_SAMPLE]
        H = _minimal_fit(src[samples], dst[samples])[0]
        masks = _one_sided_inliers(H, src, dst, t)
        counts = masks.sum(axis=1)
        j = int(np.argmax(counts))
        if counts[j] <= best_support:
            continue
        best_support = counts[j]
        model = matching.fit_homography(src[masks[j]], dst[masks[j]])
        if model is not None:
            mask = matching.symmetric_transfer_error(model, src, dst) <= t
        if model is None or mask.sum() < MIN_SAMPLE:
            model = H[j]
            mask = matching.symmetric_transfer_error(model, src, dst) <= t
        count = int(mask.sum())
        if count > best_count:
            best_count, best_mask, best_model = count, mask, model
            limit = matching._iteration_bound(count, n, cfg)
    if best_mask is None or best_count < MIN_SAMPLE:
        raise TooFewCorrespondences("")
    return np.flatnonzero(best_mask), best_model, it


class TestBlockedRansacMatchesChunkLoop:
    """ransac_inliers draws, fits and scores several chunks in one block and
    walks them chunk by chunk; where the bound falls inside a block it
    rewinds the generator to the chunks walked. Indices, model bytes,
    exception and generator state equal the chunk loop's."""

    @staticmethod
    def outcome(call, C, cfg, seed, prior):
        rng = np.random.default_rng([seed, 0x5C])
        try:
            indices, model = call(C, cfg, rng, prior)[:2]
            result = (indices.tobytes(), model.tobytes())
        except TooFewCorrespondences:
            result = "TooFewCorrespondences"
        return result, rng.bit_generator.state

    def test_randomized_sets_and_bounds(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(matching, "_one_sided_inliers",
                            lambda H, *args: blocks[-1].append(len(H)) or _one_sided_inliers(H, *args))

        def blocked(C, cfg, rng, prior):
            R = ransac_inliers(C, cfg, rng=rng, prior=prior)
            return R.indices, R.model

        gen = np.random.default_rng(28)
        rewinds = 0
        for case in range(300):
            n = int(gen.integers(4, 81))
            C, _ = planted_pairs(case, n, gen.choice([0.0, 0.3, 0.6, 0.8, 1.0]))
            cfg = RansacConfig(max_iterations=int(gen.choice([1, 8, 11, 50, 1000])))
            prior = shifted(known_homography(), gen.uniform(0.0, 3.0)) if case % 2 else None
            blocks.append([])
            new = self.outcome(blocked, C, cfg, case, prior)
            assert new == self.outcome(serial_ransac, C, cfg, case, prior), case
            try:
                drawn = serial_ransac(C, cfg, np.random.default_rng([case, 0x5C]), prior)[2]
            except TooFewCorrespondences:
                continue
            # more fitted than drawn: the bound fell inside a block
            rewinds += sum(blocks[-1]) > drawn
        assert rewinds > 0

    def test_bound_falling_inside_a_block_rewinds(self, monkeypatch):
        # at 50% outliers no first chunk finds the consensus; the block after
        # it does, and its bound ends the call before the block's end
        sizes = []
        monkeypatch.setattr(matching, "_one_sided_inliers",
                            lambda H, *args: sizes.append(len(H)) or _one_sided_inliers(H, *args))
        for seed in range(50):
            sizes.clear()
            C, _ = planted_pairs(seed, 20, 0.5)
            rng = np.random.default_rng(seed)
            ransac_inliers(C, RansacConfig(), rng=rng)
            drawn = serial_ransac(C, RansacConfig(), np.random.default_rng(seed))[2]
            if len(sizes) > 1 and sum(sizes) > drawn:
                break
        else:
            pytest.fail("no call stopped inside a block")
        assert sizes[0] == CHUNK and sizes[1] > CHUNK
        replay = np.random.default_rng(seed)
        chunk_draws(replay, 20, drawn)
        assert rng.bit_generator.state == replay.bit_generator.state


class TestOneSidedScore:
    def test_pairs_mapped_behind_are_outliers(self):
        src = np.random.default_rng(34).uniform(20, 300, (10, 2))
        dst = apply_h(known_homography(), src)
        H = np.stack([known_homography(), -known_homography()])
        masks = matching._one_sided_inliers(H, src, dst, 0.5)
        assert masks[0].all()  # every pair maps exactly, in front (w > 0)
        assert not masks[1].any()  # the same map with w < 0

    def test_threshold_is_the_forward_pixel_error(self):
        src = np.random.default_rng(35).uniform(20, 300, (4, 2))
        dst = apply_h(known_homography(), src)
        dst[:, 0] += np.array([0.0, 1.99, 2.01, -3.0])
        mask = matching._one_sided_inliers(2.0 * known_homography()[None], src, dst, 2.0)
        assert mask[0].tolist() == [True, True, False, False]


class TestMinimalFit:
    def test_matches_full_svd_dlt_on_random_samples(self):
        rng = np.random.default_rng(31)
        src = rng.uniform(0, 320, (1600, 4, 2))
        dst = rng.uniform(0, 320, (1600, 4, 2))
        H, ok = _minimal_fit(src, dst)
        for s, d, h, flag in zip(src, dst, H, ok):
            ref = full_svd_fit(s, d)
            assert flag == (ref is not None)
            if ref is not None:
                np.testing.assert_allclose(h / h[2, 2], ref, rtol=0, atol=1e-8 * np.abs(ref).max())

    def test_maps_the_sample_in_front(self):
        src = np.random.default_rng(32).uniform(20, 300, (50, 4, 2))
        dst = apply_h(known_homography(), src.reshape(-1, 2)).reshape(src.shape)
        H, ok = _minimal_fit(src, dst)
        assert ok.all()
        q = np.einsum("kij,kpj->kpi", H, np.concatenate([src, np.ones((50, 4, 1))], axis=2))
        assert np.all(q[..., 2] > 0)
        np.testing.assert_allclose(q[:, 3, 2], 1.0)  # the fourth point maps with w = 1
        np.testing.assert_allclose(q[..., :2] / q[..., 2:], dst, atol=1e-8)

    @staticmethod
    def flags_match(src, dst):
        H, ok = _minimal_fit(src[None], dst[None])
        assert ok[0] == (not (degenerate_sample(src) or degenerate_sample(dst)))
        if not ok[0]:
            assert not H.any()  # the zero model holds no pair
        return ok[0]

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_degenerate_flags_match_the_area_test(self, side):
        rng = np.random.default_rng(33)
        spread = np.array([[10.0, 20.0], [250.0, 30.0], [40.0, 200.0], [280.0, 220.0]])
        t = rng.uniform(0, 1, 4)
        line = np.c_[20.0 + 200.0 * t, 30.0 + 100.0 * t]
        three = spread.copy()
        three[:3] = line[:3]
        duplicated = spread.copy()
        duplicated[3] = duplicated[1]
        for pts in (line, three, duplicated):
            src, dst = (pts, spread + 5.0) if side == "src" else (spread + 5.0, pts)
            assert not self.flags_match(src, dst)
        assert self.flags_match(spread, spread + 5.0)

    @pytest.mark.parametrize("offset", [0.0, 100.0])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_area_threshold_boundary(self, side, offset):
        # the triangle of points 1-3 has area h / 2: exactly 1e-6 at h = 2e-6
        h = 2e-6
        other = np.array([[10.0, 20.0], [250.0, 30.0], [40.0, 200.0], [280.0, 220.0]])
        flags = []
        for height in (np.nextafter(h, 0.0), h, np.nextafter(h, 1.0), 0.99 * h, 1.01 * h):
            pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, height], [50.0, 70.0]]) + offset
            src, dst = (pts, other) if side == "src" else (other, pts)
            flags.append(self.flags_match(src, dst))
        if offset == 0.0:
            assert flags == [False, True, True, False, True]


class TestRansacConsensus:
    @pytest.mark.parametrize("outlier_frac", [0.0, 0.2, 0.4, 0.6, 0.8])
    def test_recovers_planted_inliers(self, outlier_frac, monkeypatch):
        fitted = []
        monkeypatch.setattr(matching, "_one_sided_inliers",
                            lambda H, *args: fitted.append(len(H)) or _one_sided_inliers(H, *args))
        for seed in range(5):
            fitted.clear()
            C, n_in = planted_pairs(seed, 50, outlier_frac)
            cfg = RansacConfig(max_iterations=5000, seed=seed)
            rng = np.random.default_rng(cfg.seed)  # the generator cfg.seed gives
            R = ransac_inliers(C, cfg, rng=rng)
            assert np.array_equal(R.indices, np.arange(n_in))
            # the returned model is a local refit (scaled to H[2, 2] = 1), not
            # a hypothesis (scaled so that its fourth point maps with w = 1)
            assert R.model[2, 2] == 1.0
            # the confidence bound of the planted fraction ends the loop: the
            # generator stands where drawing T <= that many hypotheses, chunk
            # by chunk, leaves it
            w = n_in / len(C)
            needed = 1 if w == 1 else np.ceil(np.log1p(-cfg.confidence) / np.log1p(-w**4))
            state, scan = rng.bit_generator.state, np.random.default_rng(cfg.seed)
            for drawn in range(int(CHUNK * np.ceil(needed / CHUNK)) + 1):
                if scan.bit_generator.state == state:
                    break
                scan.random(len(C))  # one hypothesis further
            else:
                pytest.fail("the generator stands past the confidence bound")
            replay = np.random.default_rng(cfg.seed)
            chunk_draws(replay, len(C), drawn)
            assert replay.bit_generator.state == state
            # fitted ahead of the draws: less than one block
            block = max(CHUNK, matching.BLOCK_ELEMENTS // len(C) // CHUNK * CHUNK)
            assert drawn <= sum(fitted) < drawn + block

    def test_pixel_origin_behind_the_model(self):
        # w = 0.01 x - 0.5 is positive over the pairs but negative at (0, 0):
        # a hypothesis scaled to H[2, 2] = 1 would map every pair behind
        H = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, -3.0], [0.01, 0.0, -0.5]])
        src = np.random.default_rng(36).uniform([100.0, 20.0], [300.0, 300.0], (30, 2))
        C = pair_set(src, apply_h(H, src))
        assert len(ransac_inliers(C, RansacConfig())) == 30

    @pytest.mark.parametrize(
        "refit",
        [
            lambda src, dst: None,  # degenerate
            # a 500 px shift keeps no pair
            lambda src, dst: np.array([[1.0, 0.0, 500.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ],
        ids=["degenerate", "keeps_none"],
    )
    def test_failed_refit_keeps_the_hypothesis(self, monkeypatch, refit):
        monkeypatch.setattr(matching, "fit_homography", refit)
        C, n_in = planted_pairs(4, 40, 0.4)
        cfg = RansacConfig(seed=4)
        R = ransac_inliers(C, cfg)
        assert len(R) >= MIN_SAMPLE
        assert set(R.indices.tolist()) <= set(range(n_in))
        resid = symmetric_transfer_error(R.model, R.current_pixels, R.target_pixels)
        assert np.all(resid <= cfg.inlier_threshold)


def shifted(H, dx, dy=0.0):
    """H followed by a pixel shift."""
    return np.array([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]]) @ H


class TestRansacPrior:
    """ransac_inliers(..., prior=H): the prior is scored first; a full
    consensus ends the call, a partial one is refit and sets the best count,
    and one below MIN_SAMPLE pairs is dropped."""

    @staticmethod
    def counting(monkeypatch):
        """Calls of _minimal_fit and fit_homography made from here on."""
        calls = {"hypotheses": 0, "refits": 0}
        minimal_fit, fit = matching._minimal_fit, matching.fit_homography

        def count_minimal(src, dst):
            calls["hypotheses"] += len(src)
            return minimal_fit(src, dst)

        def count_fit(src, dst):
            calls["refits"] += 1
            return fit(src, dst)

        monkeypatch.setattr(matching, "_minimal_fit", count_minimal)
        monkeypatch.setattr(matching, "fit_homography", count_fit)
        return calls

    @pytest.mark.parametrize("n", [4, 30, 320])
    def test_full_consensus_is_returned_without_drawing(self, n, monkeypatch):
        C = noisy_pairs(n, n, noise=0.3)
        prior = known_homography()
        assert np.all(symmetric_transfer_error(prior, C.current_pixels, C.target_pixels) <= 2.0)
        calls = self.counting(monkeypatch)
        rng = np.random.default_rng([n, 0x5C])
        state = rng.bit_generator.state
        R = ransac_inliers(C, RansacConfig(), rng=rng, prior=prior)
        assert R.model is prior
        assert np.array_equal(R.indices, np.arange(n)) and len(R) == n
        # the pairs are C's own arrays, not gathered again
        for field in ("current_indices", "target_indices", "current_pixels", "target_pixels"):
            assert getattr(R, field) is getattr(C, field), field
        assert rng.bit_generator.state == state
        assert calls == {"hypotheses": 0, "refits": 0}

    @pytest.mark.parametrize("outlier_frac", [0.0, 0.2, 0.4, 0.6, 0.8])
    @pytest.mark.parametrize(
        "prior", ["identity", "other_scene", "four_pairs", "near_truth"]
    )
    def test_wrong_prior_still_recovers_planted_inliers(self, prior, outlier_frac):
        for seed in range(5):
            C, n_in = planted_pairs(seed, 50, outlier_frac)
            src, dst = C.current_pixels, C.target_pixels
            if prior == "identity":
                H = np.eye(3)
            elif prior == "other_scene":
                # another planted scene's model: a 25 degree turn, 40 px off
                other, _ = planted_pairs(seed + 100, 50, 0.0)
                turned = apply_h(shifted(known_homography() @ np.array(
                    [[np.cos(0.44), -np.sin(0.44), 0.0], [np.sin(0.44), np.cos(0.44), 0.0],
                     [0.0, 0.0, 1.0]]), 40.0), other.current_pixels)
                H = ransac_inliers(pair_set(other.current_pixels, turned), RansacConfig()).model
            elif prior == "four_pairs":
                # the last four pairs moved onto a model 100 px off the true one
                H = shifted(known_homography(), 100.0, -30.0)
                dst = dst.copy()
                dst[-4:] = apply_h(H, src[-4:])
                C, n_in = pair_set(src, dst), min(n_in, len(C) - 4)
            else:
                # the true model 1.3 px off: it holds only part of the inliers
                H = shifted(known_homography(), 1.3)
            held = int((symmetric_transfer_error(H, src, dst) <= 2.0).sum())
            if prior == "four_pairs":
                assert held == MIN_SAMPLE
            elif prior == "near_truth":
                assert MIN_SAMPLE <= held < n_in
            else:
                assert held < MIN_SAMPLE
            R = ransac_inliers(C, RansacConfig(max_iterations=5000, seed=seed), prior=H)
            assert np.array_equal(R.indices, np.arange(n_in))

    def test_partial_prior_is_refit_and_sets_the_bound(self, monkeypatch):
        # the prior holds part of the 50 all-inlier pairs; its refit holds
        # all of them, which ends the call before any hypothesis is drawn
        C, n_in = planted_pairs(7, 50, 0.0)
        prior = shifted(known_homography(), 1.3)
        calls = self.counting(monkeypatch)
        R = ransac_inliers(C, RansacConfig(), prior=prior)
        assert len(R) == n_in and R.model is not prior
        assert calls == {"hypotheses": 0, "refits": 1}

    def test_prior_below_min_sample_changes_nothing(self):
        C, _ = planted_pairs(8, 40, 0.4)
        cfg = RansacConfig(seed=8)
        plain = ransac_inliers(C, cfg)
        R = ransac_inliers(C, cfg, prior=shifted(known_homography(), 100.0))
        assert R.indices.tobytes() == plain.indices.tobytes()
        assert R.model.tobytes() == plain.model.tobytes()


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
        # fit_homography against the exact normalized-DLT model, entry by
        # entry; the full-SVD reference is itself 5e-12 off it at n = 6
        rng = np.random.default_rng(n)
        src = rng.uniform(0, 320, (n, 2))
        dst = apply_h(known_homography(), src) + rng.normal(0, 0.5, (n, 2))
        np.testing.assert_allclose(fit_homography(src, dst), exact_dlt_fit(src, dst), rtol=1e-12)

    @pytest.mark.parametrize("n", [5, 72, 320])
    def test_eigh_refit_matches_svd_refit(self, n):
        """The eigh refit gives the SVD refit's model, to 1e-12 of its
        largest entry, on noisy planted sets, and None when either side lies
        on one line."""
        for seed in range(20):
            C, _ = planted_pairs(1000 * n + seed, n, 0.0)
            src, dst = C.current_pixels, C.target_pixels
            ref = full_svd_fit(src, dst)
            assert np.abs(fit_homography(src, dst) - ref).max() <= 1e-12 * np.abs(ref).max()
        t = np.random.default_rng(n).uniform(0, 1, n)
        line = np.c_[20.0 + 200.0 * t, 30.0 + 100.0 * t]
        assert fit_homography(line, apply_h(known_homography(), line)) is None
        assert fit_homography(line, line + 3.0) is None
        assert fit_homography(line, src) is None
        assert fit_homography(src, line) is None

    def test_singular_model_scores_inf(self):
        src = np.random.default_rng(19).uniform(20, 300, (8, 2))
        err = symmetric_transfer_error(np.zeros((3, 3)), src, apply_h(known_homography(), src))
        assert err.shape == (8,) and np.all(np.isinf(err))

    def test_symmetric_transfer_error_zero_on_exact(self):
        H = known_homography()
        src = np.random.default_rng(13).uniform(20, 300, (8, 2))
        err = symmetric_transfer_error(H, src, apply_h(H, src))
        assert np.all(err < 1e-9)

    @staticmethod
    def old_transfer_error(H, src, dst):
        """symmetric_transfer_error as an (n, 2) array formula, with its inf
        guard on |w| < 1e-12."""
        def apply(H, pts):
            q = pts @ H[:, :2].T + H[:, 2]
            bad = np.abs(q[:, 2]) < 1e-12
            out = q[:, :2] / np.where(bad, 1e-12, q[:, 2])[:, None]
            out[bad] = np.inf
            return out

        try:
            Hinv = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            return np.full(src.shape[0], np.inf)
        fwd, bwd = apply(H, src) - dst, apply(Hinv, dst) - src
        return np.sqrt(np.sum(fwd**2, axis=1) + np.sum(bwd**2, axis=1))

    def test_symmetric_transfer_error_bitwise_equals_array_formula(self):
        rng = np.random.default_rng(23)
        src = rng.uniform(0, 320, (320, 2))
        x0 = src[7, 0]
        models = [known_homography(), np.eye(3), np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])]
        models += [np.eye(3) + rng.normal(0, s, (3, 3)) for s in (1e-4, 1e-2, 0.3) for _ in range(5)]
        # w = x - x0: exactly 0 at row 7 and below 1e-12 at row 8, whose x
        # is within 1e-13 of x0; dst = src puts row 7 at w = 0 backwards too
        src[8, 0] = x0 + 5e-14
        models.append(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -x0]]))
        for H in models:
            for dst in (apply_h(known_homography(), src) + rng.normal(0, 2, src.shape), src):
                for n in (1, 9, 320):
                    new = symmetric_transfer_error(H, src[:n], dst[:n])
                    old = self.old_transfer_error(H, src[:n], dst[:n])
                    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
        err = symmetric_transfer_error(models[-1], src, src)
        assert np.isinf(err[7]) and np.isinf(err[8]) and np.isfinite(err).sum() >= 300


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
        prior_shift=st.none() | st.floats(0.0, 6.0),  # px off the true model
    )
    @settings(max_examples=120, deadline=None)
    def test_every_returned_pair_meets_threshold(
        self, seed, n, outlier_frac, threshold, prior_shift
    ):
        C = noisy_pairs(seed, n, outlier_frac=outlier_frac, noise=0.5)
        cfg = RansacConfig(inlier_threshold=threshold, max_iterations=200, seed=seed)
        prior = None if prior_shift is None else shifted(known_homography(), prior_shift)
        try:
            R = ransac_inliers(C, cfg, prior=prior)
        except TooFewCorrespondences:
            return
        assert len(R) >= MIN_SAMPLE
        resid = symmetric_transfer_error(R.model, R.current_pixels, R.target_pixels)
        assert np.all(resid <= cfg.inlier_threshold)

    @pytest.mark.parametrize("outlier_frac", [0.0, 0.4, 0.8])
    def test_inlier_fields_are_the_parent_rows(self, outlier_frac):
        # parent pairs with shuffled feature indices, so each field's gather
        # at `indices` is checked against its own row
        planted, n_in = planted_pairs(21, 40, outlier_frac)
        rng = np.random.default_rng(22)
        C = CorrespondenceSet(
            rng.permutation(40), rng.permutation(40) + 100,
            planted.current_pixels, planted.target_pixels,
        )
        R = ransac_inliers(C, RansacConfig(seed=5))
        assert np.array_equal(R.indices, np.arange(n_in))
        assert len(R) == R.indices.size == n_in
        for field in ("current_indices", "target_indices", "current_pixels", "target_pixels"):
            got, parent = getattr(R, field), getattr(C, field)
            assert got.tobytes() == parent[R.indices].tobytes(), field
            assert got.shape == parent[R.indices].shape, field

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(confidence=1.0)


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
    rows = np.arange(n, dtype=np.int64)
    pixels = target.pixels[idx]
    return InlierSet(rows, idx, pixels, pixels, indices=rows, model=np.eye(3))


class TestTracking:
    """The rows a lock keeps; when to lock is the servo loop's decision,
    checked in test_simulate's TestTrackingLock."""

    def test_activation_then_shrink(self):
        target = make_target(10)
        locked = tracking_update(target, inliers_over(target, range(10)))
        assert len(locked) == 10
        assert np.array_equal(locked.landmark_ids, target.landmark_ids)

        # next cycle only 8 of the locked targets survive as inliers
        survivors = [0, 1, 2, 3, 5, 6, 8, 9]
        shrunk = tracking_update(locked, inliers_over(locked, survivors))
        assert len(shrunk) == 8
        assert set(shrunk.landmark_ids) == {0, 1, 2, 3, 5, 6, 8, 9}

    def test_same_object_for_every_row_and_subsets_keep_row_order(self):
        target = make_target(10)
        for rows in (range(10), [9, 8, 7, 6, 5, 4, 3, 2, 1, 0], [1, 0, *range(2, 10)]):
            assert tracking_update(target, inliers_over(target, rows)) is target
        for rows in ([8, 2, 5, 0], [6, 7, 1, 3, 9], range(9), [9, 8, 7, 6, 5, 4, 3, 2, 1]):
            locked = tracking_update(target, inliers_over(target, rows))
            assert locked is not target
            expected = target.subset(sorted(rows))
            assert locked.landmark_ids.tobytes() == expected.landmark_ids.tobytes()
            assert locked.pixels.tobytes() == expected.pixels.tobytes()
