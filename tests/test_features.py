import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featservo import features
from featservo.errors import InvalidFeatureSet
from featservo.features import (
    FeatureSet,
    SyntheticDetectorConfig,
    _in_frame,
    _visible,
    landmark_scores,
    render_target,
    synthetic_detect,
    top_k,
)
from featservo.geometry import CameraIntrinsics, Pose, project_many, se3_exp
from featservo.matching import match_nn
from featservo.simulate import Scene, make_box_scene


def unit_descriptors(n, d=16, seed=0):
    """float64 unit rows."""
    rng = np.random.default_rng(seed)
    desc = rng.normal(size=(n, d))
    return desc / np.linalg.norm(desc, axis=1, keepdims=True)


def make_set(n=5, seed=0, with_depths=False):
    rng = np.random.default_rng(seed)
    return FeatureSet(
        pixels=rng.uniform(0, 200, size=(n, 2)),
        descriptors=unit_descriptors(n, seed=seed + 1),
        scores=rng.uniform(0, 1, n),
        image_size=(320, 240),
        depths=rng.uniform(0.1, 2.0, n) if with_depths else None,
    )


@pytest.fixture
def axis_scene():
    # single landmark on the optical axis of a camera at -0.4 m, no clutter
    return Scene(
        object_points=[[0.0, 0.0, 0.0]],
        clutter_points=np.zeros((0, 3)),
        seed=3,
        descriptor_dim=32,
    )


class TestFeatureSet:
    def test_rejects_out_of_bounds_pixels(self):
        with pytest.raises(ValueError, match="bounds"):
            FeatureSet([[400.0, 10.0]], unit_descriptors(1), [0.5], (320, 240))

    def test_rejects_non_unit_descriptors(self):
        with pytest.raises(ValueError, match="unit norm"):
            FeatureSet([[10.0, 10.0]], [[0.5] * 16], [0.5], (320, 240))

    def test_rejects_depth_count_mismatch(self):
        with pytest.raises(ValueError, match="depth count"):
            FeatureSet(
                [[10.0, 10.0]], unit_descriptors(1), [0.5], (320, 240), depths=[1.0, 2.0]
            )

    def test_rejects_bad_scores(self):
        with pytest.raises(ValueError, match="scores"):
            FeatureSet([[10.0, 10.0]], unit_descriptors(1), [1.5], (320, 240))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["pixels", "scores", "depths", "descriptors"])
    def test_rejects_non_finite(self, field, bad):
        args = {
            "pixels": [[10.0, 10.0]],
            "descriptors": unit_descriptors(1),
            "scores": [0.5],
            "depths": [1.0],
        }
        value = np.array(args[field], dtype=float)
        value.flat[0] = bad
        args[field] = value
        with pytest.raises(ValueError):
            FeatureSet(image_size=(320, 240), **args)

    def test_subset(self):
        fs = make_set(5, with_depths=True)
        sub = fs.subset([3, 0])
        assert len(sub) == 2
        assert np.array_equal(sub.pixels[0], fs.pixels[3])
        assert np.array_equal(sub.depths, fs.depths[[3, 0]])

    @staticmethod
    def _fields(fs):
        return (fs.pixels, fs.descriptors, fs.scores, fs.depths, fs.landmark_ids)

    @pytest.mark.parametrize("rows", [[4, 1, 2], [0], [], [2, 2]])
    def test_subset_equals_checked_construction(self, rows):
        rng = np.random.default_rng(3)
        fs = FeatureSet(
            rng.uniform(0, 200, (6, 2)), unit_descriptors(6), rng.uniform(0, 1, 6),
            (320, 240), depths=rng.uniform(0.1, 2.0, 6), landmark_ids=np.arange(10, 16),
        )
        sub = fs.subset(rows)
        idx = np.asarray(rows, dtype=np.int64)
        built = FeatureSet(
            fs.pixels[idx], fs.descriptors[idx], fs.scores[idx], fs.image_size,
            depths=fs.depths[idx], landmark_ids=fs.landmark_ids[idx],
        )
        assert sub.image_size == built.image_size
        for a, b in zip(self._fields(sub), self._fields(built)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        assert sub.sq_norms.tobytes() == built.sq_norms.tobytes()

    def test_subset_of_subset(self):
        fs = make_set(8, with_depths=True)
        inner = fs.subset([7, 5, 3, 1]).subset([2, 0])
        direct = fs.subset([3, 7])
        for a, b in zip(self._fields(inner), self._fields(direct)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        # the squared norms, accumulated in float64 once, travel with the rows
        expected = np.sum(direct.descriptors.astype(np.float64) ** 2, axis=1)
        assert inner.sq_norms.tobytes() == expected.astype(np.float32).tobytes()
        assert not inner.sq_norms.flags.writeable
        with pytest.raises(ValueError):
            inner.pixels[0, 0] = 1.0

    @pytest.mark.parametrize("offset, ok", [(0.9e-6, True), (-0.9e-6, True),
                                            (1.1e-6, False), (-1.1e-6, False)])
    def test_unit_norm_tolerance(self, offset, ok):
        desc = unit_descriptors(3) * (1.0 + offset)
        if ok:
            FeatureSet(np.full((3, 2), 10.0), desc, [0.5] * 3, (320, 240))
        else:
            with pytest.raises(ValueError, match="unit norm"):
                FeatureSet(np.full((3, 2), 10.0), desc, [0.5] * 3, (320, 240))


class TestLandmarkScores:
    def test_deterministic_and_bounded(self):
        ids = np.arange(1000)
        a = landmark_scores(42, ids)
        b = landmark_scores(42, ids)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, landmark_scores(43, ids))
        # (x >> 11) / 2**53 for a 64-bit x: in [0, 1) for any seed and id, so
        # the scene's table needs no range check
        ids = np.arange(2**20 + 1)
        for seed in (42, 0, -1, 2**63 - 1):
            scores = landmark_scores(seed, ids)
            assert scores.min() >= 0 and scores.max() < 1

    def test_scene_table_holds_the_scores(self):
        scene = make_box_scene(seed=4, n_clutter=30)
        assert scene.scores.tobytes() == landmark_scores(4, scene.ids).tobytes()
        assert not scene.scores.flags.writeable
        bare = scene.without_clutter()
        assert bare.scores.tobytes() == scene.scores[: scene.n_object].tobytes()
        assert np.shares_memory(bare.scores, scene.scores)


class TestSyntheticDetect:
    def test_noiseless_matches_projection(self, axis_scene, intrinsics):
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        fs = synthetic_detect(axis_scene, camera, intrinsics, SyntheticDetectorConfig())
        assert len(fs) == 1
        expected, depth = project_many(camera.world_to_camera(axis_scene.points), intrinsics)
        assert np.array_equal(fs.pixels[0], expected[0])
        assert fs.depths[0] == depth[0] == 0.4
        assert np.array_equal(fs.descriptors[0], axis_scene.descriptors[0])

    def test_full_dropout_gives_empty_set(self, intrinsics):
        # with every row dropped, the size-0 noise draws leave the generator
        # where the one dropout draw over the visible rows left it
        scene = make_box_scene(seed=12)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        n_visible = int(_visible(scene, camera, intrinsics)[2].sum())
        cfg = SyntheticDetectorConfig(
            detection_dropout=1.0, pixel_noise_sigma=0.3, descriptor_noise_sigma=0.02
        )
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        fs = synthetic_detect(scene, camera, intrinsics, cfg, rng)
        ref.random(n_visible)
        assert n_visible > 0
        assert fs.pixels.shape == (0, 2) and fs.descriptors.shape == (0, 256)
        assert len(fs) == fs.depths.size == fs.landmark_ids.size == 0
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_deterministic_given_seed(self, intrinsics):
        scene = make_box_scene(seed=5, n_clutter=20)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        cfg = SyntheticDetectorConfig(
            descriptor_noise_sigma=0.05, detection_dropout=0.2, pixel_noise_sigma=0.5, seed=9
        )
        a = synthetic_detect(scene, camera, intrinsics, cfg)
        b = synthetic_detect(scene, camera, intrinsics, cfg)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.descriptors, b.descriptors)
        assert np.array_equal(a.landmark_ids, b.landmark_ids)

    def test_noisy_keypoints_stay_in_bounds(self, intrinsics):
        scene = make_box_scene(seed=6, n_clutter=50)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.25))
        cfg = SyntheticDetectorConfig(pixel_noise_sigma=20.0, seed=1)
        fs = synthetic_detect(scene, camera, intrinsics, cfg)
        assert np.all(fs.pixels[:, 0] >= 0) and np.all(fs.pixels[:, 0] < 320)
        assert np.all(fs.pixels[:, 1] >= 0) and np.all(fs.pixels[:, 1] < 240)
        assert np.all(fs.depths > 0)

    def test_scores_sorted_descending(self, intrinsics):
        scene = make_box_scene(seed=7)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        fs = synthetic_detect(scene, camera, intrinsics, SyntheticDetectorConfig())
        assert np.all(np.diff(fs.scores) <= 0)

    def test_shared_generator_advances_noise_stream(self, intrinsics):
        scene = make_box_scene(seed=8)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        cfg = SyntheticDetectorConfig(pixel_noise_sigma=0.5, seed=2)
        rng = np.random.default_rng(cfg.seed)
        a = synthetic_detect(scene, camera, intrinsics, cfg, rng)
        b = synthetic_detect(scene, camera, intrinsics, cfg, rng)
        assert not np.array_equal(a.pixels, b.pixels)  # stream advances
        fresh = synthetic_detect(scene, camera, intrinsics, cfg, np.random.default_rng(cfg.seed))
        assert np.array_equal(fresh.pixels, a.pixels)

    @pytest.mark.parametrize("d", [256, 5])
    def test_descriptor_noise_is_one_raw_byte_draw(self, d, intrinsics):
        # dropout over the visible rows, pixel noise over the kept rows, then
        # one byte per component of the m returned rows, ceil(m*d/8) raw
        # generator words: nothing else moves the generator
        scene = make_box_scene(seed=9, n_clutter=30, descriptor_dim=d)
        camera = Pose(np.eye(3), (0.01, 0.0, -0.4))
        cfg = SyntheticDetectorConfig(
            descriptor_noise_sigma=0.02, detection_dropout=0.1, pixel_noise_sigma=40.0
        )
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        fs = synthetic_detect(scene, camera, intrinsics, cfg, rng)
        n = int(np.sum(ref.random(int(_visible(scene, camera, intrinsics)[2].sum())) >= 0.1))
        ref.normal(0.0, 40.0, size=(n, 2))
        m = len(fs)
        ref.bit_generator.random_raw(-(-m * d // 8))
        assert 0 < m < n  # the pixel noise pushed rows out of frame
        assert d == 256 or (m * d) % 8 != 0  # at d = 5 the last word is part used
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_descriptor_noise_moments(self, intrinsics, monkeypatch):
        # with the renormalization made the identity, each row is its table
        # row plus the noise: zero mean, variance sigma**2, within sqrt(3)*sigma
        # (the byte levels reach 127.5*sigma*sqrt(12/65535) = 1.7254*sigma)
        scene = make_box_scene(seed=10)
        monkeypatch.setattr(features, "_sq_norms", lambda d, dtype=None: np.ones(len(d)))
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        sigma = 0.5
        cfg = SyntheticDetectorConfig(descriptor_noise_sigma=sigma)
        rng, noise = np.random.default_rng(7), []
        while sum(a.size for a in noise) < 200_000:
            fs = synthetic_detect(scene, camera, intrinsics, cfg, rng)
            noise.append(fs.descriptors - scene.descriptors[fs.landmark_ids])
        noise = np.concatenate(noise).astype(np.float64).ravel()
        assert abs(noise.mean()) < 0.01 * sigma
        assert abs(noise.var() / sigma**2 - 1.0) < 0.01
        assert np.all(np.abs(noise) <= np.sqrt(3.0) * sigma + 1e-6)
        assert noise.max() > 0.99 * np.sqrt(3.0) * sigma  # uniform, so it reaches the bound


def pixel_order_by_score(pixels, scores):
    """The detector's old ranking: descending score, ties by pixel (u, v)
    ascending. It equals the landmark-id tie-break wherever no two scores
    are equal."""
    return np.lexsort((pixels[:, 1], pixels[:, 0], -scores))


def old_synthetic_detect(scene, camera, intrinsics, cfg, rng):
    """synthetic_detect as it was before it gathered each kept row once, with
    float32 descriptors: every visible row noised and normalized, then ranked
    and gathered. The generator is drawn in the same order: dropout, pixel
    noise, then one byte per component of each returned row, in returned
    order, for noise (byte - 127.5)*delta of variance sigma**2."""
    descriptors, ids = scene.descriptors, scene.ids
    pixels, depths, visible = _visible(scene, camera, intrinsics)
    idx = np.flatnonzero(visible)
    keep = rng.random(idx.size) >= cfg.detection_dropout
    idx = idx[keep]
    n = idx.size
    noisy_pixels = pixels[idx]
    if cfg.pixel_noise_sigma > 0:
        noisy_pixels = noisy_pixels + rng.normal(0.0, cfg.pixel_noise_sigma, size=(n, 2))
    inb = np.flatnonzero(_in_frame(noisy_pixels, intrinsics))
    kept_ids, kept_depths = ids[idx], depths[idx]
    scores = landmark_scores(scene.seed, kept_ids[inb])
    rank = pixel_order_by_score(noisy_pixels[inb], scores)
    rows = inb[rank]
    desc = descriptors[idx]
    if cfg.descriptor_noise_sigma > 0:
        m, d = rows.size, desc.shape[1]
        draw = rng.bit_generator.random_raw((m * d + 7) // 8).view(np.uint8)[: m * d]
        levels = np.zeros(desc.shape, dtype=np.uint8)  # rows not returned get level 0
        levels[rows] = draw.reshape(m, d)
        delta = np.float32(cfg.descriptor_noise_sigma * np.sqrt(12.0 / 65535.0))
        desc = desc + (levels.astype(np.float32) - np.float32(127.5)) * delta
        # each row over its norm, accumulated in float32
        desc = desc / np.sqrt(np.einsum("ij,ij->i", desc, desc))[:, None]
    return FeatureSet(
        noisy_pixels[rows], desc[rows], scores[rank], (intrinsics.width, intrinsics.height),
        depths=kept_depths[rows], landmark_ids=kept_ids[rows],
    )


class TestDetectMatchesOldBody:
    """synthetic_detect gathers each surviving row once, in final order; its
    output bytes and dtypes and the generator it leaves behind equal the old
    body's."""

    CASES = {
        "dropout": dict(detection_dropout=0.3),
        "out_of_frame": dict(pixel_noise_sigma=40.0),
        "descriptor_noise": dict(descriptor_noise_sigma=0.1),
        "all": dict(detection_dropout=0.3, pixel_noise_sigma=40.0, descriptor_noise_sigma=0.1),
        "default_noise": dict(descriptor_noise_sigma=0.02, pixel_noise_sigma=0.3),
        "noiseless": dict(),
        "empty": dict(detection_dropout=1.0, pixel_noise_sigma=0.3),
        "empty_out_of_frame": dict(pixel_noise_sigma=1e6, descriptor_noise_sigma=0.1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_equal(self, case, intrinsics):
        cfg = SyntheticDetectorConfig(**self.CASES[case])
        scene = make_box_scene(seed=11, n_clutter=60)
        new_rng, old_rng = np.random.default_rng(4), np.random.default_rng(4)
        pose_rng = np.random.default_rng(5)
        sizes = []
        for _ in range(6):
            xi = np.r_[pose_rng.uniform(-0.05, 0.05, 3), pose_rng.uniform(-0.2, 0.2, 3)]
            offset = se3_exp(xi)
            camera = Pose(offset.rotation, offset.translation + (0.0, 0.0, -0.3))
            new = synthetic_detect(scene, camera, intrinsics, cfg, new_rng)
            old = old_synthetic_detect(scene, camera, intrinsics, cfg, old_rng)
            for a, b in zip(TestFeatureSet._fields(new), TestFeatureSet._fields(old)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            sizes.append(len(new))
        if case.startswith("empty"):
            assert sizes == [0] * 6
        else:
            assert min(sizes) > 0
        if case == "out_of_frame":
            # noise pushed some visible keypoints out of the frame
            clean = SyntheticDetectorConfig()
            assert len(new) < len(synthetic_detect(scene, camera, intrinsics, clean))


class TestInFrame:
    def test_equals_the_four_comparisons(self, intrinsics):
        w, h = intrinsics.width, intrinsics.height
        rng = np.random.default_rng(3)
        pixels = rng.uniform(-20, 340, (400, 2))
        special = [0.0, -0.0, -1e-12, w - 1e-12, w, h - 1e-12, h, np.nan, np.inf, -np.inf]
        pixels[:100] = rng.choice(special, (100, 2))
        for p in (pixels, np.asfortranarray(pixels), pixels[:0]):
            ref = (p[:, 0] >= 0) & (p[:, 0] < w) & (p[:, 1] >= 0) & (p[:, 1] < h)
            assert np.array_equal(_in_frame(p, intrinsics), ref)


class TestFloat32Descriptors:
    """Descriptors are float32 from the scene table through matching; the
    unit-norm check keeps its 1e-6 tolerance, accumulated in float64."""

    def test_noise_free_rows_are_the_table_rows(self, intrinsics):
        scene = make_box_scene(seed=3, n_clutter=40)
        fs = synthetic_detect(scene, Pose(np.eye(3), (0.0, 0.0, -0.4)), intrinsics,
                              SyntheticDetectorConfig(pixel_noise_sigma=0.3))
        table = scene.descriptors
        assert table.dtype == np.float32
        assert fs.descriptors.tobytes() == table[fs.landmark_ids].tobytes()

    def test_table_norms_are_computed_once_and_gathered(self, intrinsics, monkeypatch):
        scene = make_box_scene(seed=3, n_clutter=40)
        table = scene.descriptors
        expected = np.einsum("ij,ij->i", *2 * (table.astype(np.float64),)).astype(np.float32)
        assert scene.sq_norms.tobytes() == expected.tobytes()
        assert not scene.sq_norms.flags.writeable
        # noise-free detection and the target render gather the table's norms:
        # the same bytes as a set built, and checked, from their rows
        einsum, calls = np.einsum, []
        monkeypatch.setattr(np, "einsum", lambda *a, **kw: calls.append(1) or einsum(*a, **kw))
        camera = Pose(np.eye(3), (0.01, 0.0, -0.4))
        detected = synthetic_detect(scene, camera, intrinsics, SyntheticDetectorConfig())
        assert calls == []
        # the render's scene without clutter shares the table's norms too
        rendered = render_target(scene, camera, intrinsics)
        assert calls == []
        monkeypatch.undo()
        for fs in (detected, rendered):
            built = FeatureSet(fs.pixels, fs.descriptors, fs.scores, fs.image_size,
                               depths=fs.depths, landmark_ids=fs.landmark_ids)
            assert fs.sq_norms.tobytes() == built.sq_norms.tobytes()
            assert fs.sq_norms.tobytes() == scene.sq_norms[fs.landmark_ids].tobytes()

    def test_table_rows_are_checked_when_the_scene_is_built(self):
        # zero-width rows have norm 0
        with pytest.raises(InvalidFeatureSet, match="unit norm"):
            Scene([[0.0, 0.0, 0.0]], np.zeros((0, 3)), seed=0, descriptor_dim=0)

    @given(sigma=st.floats(0.0, 1.0), d=st.sampled_from([2, 32, 256]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_noisy_rows_clear_the_unit_norm_check(self, sigma, d, seed):
        scene = make_box_scene(seed=seed, n_object=30, n_clutter=10, descriptor_dim=d)
        intrinsics = CameraIntrinsics(600.0, 600.0, 160.0, 120.0, 320, 240)
        cfg = SyntheticDetectorConfig(descriptor_noise_sigma=sigma)
        fs = synthetic_detect(scene, Pose(np.eye(3), (0.0, 0.0, -0.4)), intrinsics, cfg,
                              np.random.default_rng(seed))
        assert len(fs) > 0 and fs.descriptors.dtype == np.float32
        norms = np.linalg.norm(fs.descriptors.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)

    @pytest.mark.parametrize("scale", [1.0 + 2e-6, 1.0 - 2e-6, 1e300])
    def test_float64_row_off_unit_length_rejected(self, scale):
        # 1e300 overflows the float32 cast, silently
        desc = unit_descriptors(3, d=256)
        desc[1] *= scale
        with pytest.raises(ValueError, match="unit norm"):
            FeatureSet(np.full((3, 2), 10.0), desc, [0.5] * 3, (320, 240))

    @pytest.mark.parametrize("rows", [unit_descriptors(5), np.full((5, 16), np.nan)])
    def test_empty_set_rejects_descriptor_rows(self, rows):
        with pytest.raises(InvalidFeatureSet, match="descriptor row count mismatch"):
            FeatureSet(np.zeros((0, 2)), rows, [], (320, 240))

    def test_detection_render_and_matching_stay_float32(self, intrinsics, monkeypatch):
        scene = make_box_scene(seed=6, n_clutter=40)
        target = render_target(scene, Pose(np.eye(3), (0.0, 0.0, -0.4)), intrinsics)
        cfg = SyntheticDetectorConfig(descriptor_noise_sigma=0.02, pixel_noise_sigma=0.3)
        current = synthetic_detect(scene, Pose(np.eye(3), (0.01, 0.0, -0.38)), intrinsics, cfg)
        empty = current.subset([])
        for fs in (target, current, empty, top_k(current, 10)):
            assert fs.descriptors.dtype == fs.sq_norms.dtype == np.float32
        # every (n, m) matrix match_nn takes an argmin of is float32
        argmin, seen = np.argmin, []
        monkeypatch.setattr(np, "argmin", lambda a, **kw: seen.append(a.dtype) or argmin(a, **kw))
        C = match_nn(current, target)
        monkeypatch.undo()
        assert len(C) > 0 and seen == [np.float32, np.float32]
        assert C.distances.dtype == np.float32
        assert match_nn(empty, target).distances.dtype == np.float32

    def test_noise_free_match_reuse_hits(self, intrinsics):
        # the invariant the servo loop's match reuse rests on: without
        # descriptor noise a detection's descriptors and their norms are the
        # scene's rows of its landmark ids, whatever else is noisy, so equal
        # ids mean equal descriptors
        scene = make_box_scene(seed=9, n_clutter=40)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        cfg = SyntheticDetectorConfig(pixel_noise_sigma=0.3, detection_dropout=0.1)
        rng = np.random.default_rng(2)
        first = synthetic_detect(scene, camera, intrinsics, cfg, rng)
        for fs in (first, synthetic_detect(scene, camera, intrinsics, cfg, rng)):
            assert len(fs) > 0
            assert fs.descriptors.tobytes() == scene.descriptors[fs.landmark_ids].tobytes()
            assert fs.sq_norms.tobytes() == scene.sq_norms[fs.landmark_ids].tobytes()
        target = render_target(scene, camera, intrinsics)
        assert target.descriptors.tobytes() == scene.descriptors[target.landmark_ids].tobytes()


_CONTRACT_SCENE = make_box_scene(seed=13, n_clutter=60)


class TestDetectorOutputContract:
    """synthetic_detect checks each property of its output once, where the
    property is established, and builds its set without the constructor's
    checks; whatever it returns passes them."""

    @given(
        xi=st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6),
        dropout=st.floats(0.0, 1.0),
        pixel_sigma=st.sampled_from([0.0, 0.3, 5.0, 200.0]),
        descriptor_sigma=st.sampled_from([0.0, 0.02, 0.5, 1e3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_detection_passes_the_constructor(
        self, xi, dropout, pixel_sigma, descriptor_sigma, seed
    ):
        intrinsics = CameraIntrinsics(600.0, 600.0, 160.0, 120.0, 320, 240)
        offset = se3_exp(np.asarray(xi) * (0.2, 0.2, 0.2, 1.0, 1.0, 1.0))
        camera = Pose(offset.rotation, offset.translation + (0.0, 0.0, -0.4))
        cfg = SyntheticDetectorConfig(
            descriptor_noise_sigma=descriptor_sigma, detection_dropout=dropout,
            pixel_noise_sigma=pixel_sigma,
        )
        fs = synthetic_detect(_CONTRACT_SCENE, camera, intrinsics, cfg,
                              np.random.default_rng(seed))
        built = FeatureSet(fs.pixels, fs.descriptors, fs.scores, fs.image_size,
                           depths=fs.depths, landmark_ids=fs.landmark_ids)
        assert built.image_size == fs.image_size
        for a, b in zip(TestFeatureSet._fields(fs), TestFeatureSet._fields(built)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert fs.sq_norms.dtype == np.float32
        assert fs.sq_norms.tobytes() == built.sq_norms.tobytes()

    def test_infinite_depth_is_rejected(self, axis_scene, intrinsics, monkeypatch):
        # a landmark at infinite depth projects onto the principal point, in
        # frame, so only the depth check can reject it
        monkeypatch.setattr(
            features, "project_many", lambda p, k: (np.array([[k.cx, k.cy]]), np.array([np.inf]))
        )
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        with pytest.raises(InvalidFeatureSet, match="depths must be positive and finite"):
            synthetic_detect(axis_scene, camera, intrinsics, SyntheticDetectorConfig())


class TestTopK:
    def test_k_at_least_size_is_identity(self):
        fs = make_set(4)
        assert top_k(fs, 10) is fs

    def test_k_zero_empty(self):
        assert len(top_k(make_set(4), 0)) == 0

    def test_tie_break_matches_exhaustive_sort(self):
        # the tied rows' pixels run against their row order; the scores come
        # out of order (sorted), then non-increasing with a tie (the prefix)
        pixels = np.array([[5.0, 5.0], [30.0, 7.0], [10.0, 2.0], [1.0, 1.0], [50.0, 50.0]])
        for scores in ([0.1, 0.8, 0.2, 0.8, 0.9], [0.9, 0.8, 0.8, 0.2, 0.1]):
            fs = FeatureSet(pixels, unit_descriptors(5), scores, (320, 240))
            out = top_k(fs, 3)
            # oracle: sort all (score desc, row asc) and take the head
            order = sorted(range(5), key=lambda i: (-scores[i], i))
            assert np.array_equal(out.pixels, pixels[order[:3]])
            assert np.array_equal(out.scores, sorted(scores, reverse=True)[:3])
        assert np.shares_memory(out.descriptors, fs.descriptors)  # the prefix views

    def test_detector_ties_fall_in_landmark_id_order(self, intrinsics):
        # two landmarks with one planted score, seen from two views whose
        # pixel order of the pair differs: a roll by pi about the optical axis
        # swaps left and right
        points = [[-0.02, 0.01, 0.0], [0.03, 0.0, 0.0], [0.02, -0.01, 0.0], [-0.03, 0.0, 0.0]]
        scene = Scene(points, np.zeros((0, 3)), seed=3, descriptor_dim=16)
        scene.scores = np.array([0.3, 0.7, 0.9, 0.7])
        roll = np.diag([-1.0, -1.0, 1.0])
        cfg = SyntheticDetectorConfig()
        orders = []
        for rotation in (np.eye(3), roll):
            fs = synthetic_detect(scene, Pose(rotation, (0.0, 0.0, -0.4)), intrinsics, cfg)
            assert fs.landmark_ids.tolist() == [2, 1, 3, 0]
            tied = fs.pixels[1:3, 0]
            orders.append(tied[0] < tied[1])
        assert orders[0] != orders[1]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k(make_set(2), -1)

    @pytest.mark.parametrize("k", [0, 1, 40, 91])
    def test_ordered_set_prefix_equals_gather(self, k, intrinsics):
        # synthetic_detect returns its rows in score order, so top_k takes
        # the prefix views; they hold the bytes of the sorted gather
        scene = make_box_scene(seed=2)
        camera = Pose(np.eye(3), (0.0, 0.0, -0.4))
        fs = synthetic_detect(scene, camera, intrinsics, SyntheticDetectorConfig(seed=1))
        assert len(fs) > k
        out = top_k(fs, k)
        # oracle: (score desc, row asc)
        gathered = fs.subset(np.lexsort((np.arange(len(fs)), -fs.scores))[:k])
        for field in ("pixels", "descriptors", "scores", "depths", "landmark_ids"):
            a, b = getattr(out, field), getattr(gathered, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field
            assert not a.flags.writeable
        assert k == 0 or np.shares_memory(out.descriptors, fs.descriptors)


class TestDescriptorSeparation:
    def test_noisy_nearest_neighbor_error_rate(self):
        # 500 canonical unit descriptors, sigma=0.05 per-component noise,
        # 10000 draws: own-landmark nearest-neighbour failures stay under 1%
        rng = np.random.default_rng(99)
        d, n_landmarks, trials = 256, 500, 10_000
        canon = rng.normal(size=(n_landmarks, d))
        canon /= np.linalg.norm(canon, axis=1, keepdims=True)
        picks = rng.integers(0, n_landmarks, size=trials)
        noisy = canon[picks] + rng.normal(0.0, 0.05, size=(trials, d))
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        # nearest canonical descriptor by cosine (equivalent to Euclidean here)
        nearest = np.argmax(noisy @ canon.T, axis=1)
        error_rate = np.mean(nearest != picks)
        assert error_rate < 0.01

    def test_noiseless_nearest_neighbor_is_exact(self):
        canon = unit_descriptors(100, d=256, seed=1)
        nearest = np.argmax(canon @ canon.T, axis=1)
        assert np.array_equal(nearest, np.arange(100))
