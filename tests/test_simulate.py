import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import featservo.simulate as simulate

from featservo.control import ControlConfig, stack_interaction
from featservo.errors import TooFewCorrespondences, TooFewVisibleLandmarks
from featservo.experiment import default_goal_poses
from featservo.features import (
    FeatureSet,
    SyntheticDetectorConfig,
    _in_frame,
    synthetic_detect,
)
from featservo.geometry import (
    Pose,
    compose,
    pixel_to_normalized,
    pose_error,
    project_many,
    se3_exp,
)
from featservo.matching import RansacConfig, symmetric_transfer_error
from featservo.simulate import (
    CycleRecord,
    Scene,
    ServoLoop,
    ServoRunConfig,
    make_box_scene,
    make_planar_scene,
    render_target,
    run_servo,
    write_trace_csv,
    write_trace_summary,
)


@pytest.fixture
def box_scene():
    return make_box_scene(seed=1)


@pytest.fixture
def clean_scene(box_scene):
    return box_scene.without_clutter()


def offset_config(target_pose, xi, **kwargs):
    return ServoRunConfig(
        target_pose=target_pose, initial_pose=compose(target_pose, se3_exp(xi)), **kwargs
    )


TABLE = ("points", "descriptors", "ids", "scores")  # a scene's per-row arrays


class TestScene:
    def test_ids_unique_across_groups(self, box_scene):
        # row i is landmark i, object rows then the 100 clutter rows
        n = box_scene.points.shape[0]
        assert n == box_scene.n_object + 100
        assert box_scene.ids.tobytes() == np.arange(n, dtype=np.int64).tobytes()

    def test_generation_deterministic(self):
        a, b = make_box_scene(seed=4), make_box_scene(seed=4)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.descriptors, b.descriptors)
        assert not np.array_equal(a.points, make_box_scene(seed=5).points)

    def test_planar_scene_is_planar(self):
        scene = make_planar_scene(seed=2)
        assert np.all(scene.points[: scene.n_object, 2] == 0.0)

    def test_one_read_only_landmark_table(self, box_scene):
        n = box_scene.points.shape[0]
        assert box_scene.descriptors.shape == (n, 256)
        for a in (box_scene.ids, box_scene.scores):
            assert a.shape == (n,)
        for name in TABLE:
            assert not getattr(box_scene, name).flags.writeable

    def test_without_clutter_shares_object_rows(self, box_scene):
        clean = box_scene.without_clutter()
        n = box_scene.n_object
        assert clean.n_object == n and clean.points.shape[0] == n
        for name in TABLE:
            row, whole = getattr(clean, name), getattr(box_scene, name)
            assert row.base is whole and np.shares_memory(row, whole)
            assert row.tobytes() == whole[:n].tobytes() and not row.flags.writeable
        # the parent keeps its clutter, and a rebuilt scene has the same rows
        assert box_scene.points.shape[0] > n
        rebuilt = Scene(box_scene.points[:n], np.zeros((0, 3)), box_scene.seed,
                        box_scene.object_normals, box_scene.max_incidence_deg)
        for name in TABLE:
            assert getattr(clean, name).tobytes() == getattr(rebuilt, name).tobytes()


class TestRenderTarget:
    def test_axis_landmark_at_principal_point(self, intrinsics):
        scene = Scene([[0.0, 0.0, 0.0]], np.zeros((0, 3)), seed=0, descriptor_dim=16)
        # needs >= 3 visible landmarks, so add two off-axis ones
        scene = Scene(
            [[0.0, 0.0, 0.0], [0.02, 0.0, 0.0], [0.0, 0.02, 0.0]],
            np.zeros((0, 3)),
            seed=0,
            descriptor_dim=16,
        )
        fs = render_target(scene, Pose(np.eye(3), (0, 0, -0.3)), intrinsics)
        on_axis = np.flatnonzero(fs.landmark_ids == 0)[0]
        assert np.allclose(fs.pixels[on_axis], (160.0, 120.0))
        assert fs.depths[on_axis] == pytest.approx(0.3)

    def test_excludes_clutter(self, box_scene, intrinsics, target_pose):
        fs = render_target(box_scene, target_pose, intrinsics)
        assert np.all(fs.landmark_ids < box_scene.n_object)

    def test_consistent_with_noiseless_detector(self, box_scene, intrinsics, target_pose):
        fs = render_target(box_scene, target_pose, intrinsics)
        detected = synthetic_detect(box_scene, target_pose, intrinsics, SyntheticDetectorConfig())
        by_id = {int(i): p for i, p in zip(detected.landmark_ids, detected.pixels)}
        for lid, pix in zip(fs.landmark_ids, fs.pixels):
            assert np.array_equal(by_id[int(lid)], pix)

    def test_too_few_visible(self, box_scene, intrinsics):
        looking_away = Pose(np.eye(3), (0.0, 0.0, 0.5))  # object behind camera
        with pytest.raises(TooFewVisibleLandmarks):
            render_target(box_scene, looking_away, intrinsics)


def pixel_order_by_score(pixels, scores):
    """The old ranking: descending score, ties by pixel (u, v) ascending;
    the landmark-id tie-break's order wherever no two scores are equal."""
    return np.lexsort((pixels[:, 1], pixels[:, 0], -scores))


def old_render_target(scene, target_pose, intrinsics):
    """render_target as it was before it became the noise-free detector over
    the object rows: its own visibility, ranking and row gathering."""
    n = scene.n_object
    points, ids = scene.points[:n], scene.ids[:n]
    pixels, depths = project_many(target_pose.world_to_camera(points), intrinsics)
    visible = (depths > 1e-9) & _in_frame(pixels, intrinsics)
    visible &= scene.view_cone_mask(target_pose.translation)[:n]
    idx = np.flatnonzero(visible)
    if idx.size < 3:
        raise TooFewVisibleLandmarks(f"only {idx.size} object landmarks visible from target pose")
    scores = scene.scores[ids[idx]]
    rank = pixel_order_by_score(pixels[idx], scores)
    rows, scores = idx[rank], scores[rank]
    return FeatureSet(
        pixels[rows],
        scene.descriptors[rows],
        scores,
        (intrinsics.width, intrinsics.height),
        depths=depths[rows],
        landmark_ids=ids[rows],
    )


class TestRenderMatchesOldBody:
    """render_target is the noise-free detector over the object rows; every
    field of its output has the old body's dtype, shape and bytes."""

    def assert_same(self, scene, pose, intrinsics):
        new = render_target(scene, pose, intrinsics)
        old = old_render_target(scene, pose, intrinsics)
        assert new.image_size == old.image_size
        for name in ("pixels", "descriptors", "scores", "depths", "landmark_ids"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        return len(new)

    def test_box_scene_from_goal_and_offset_poses(self, box_scene, intrinsics):
        assert box_scene.object_normals is not None and box_scene.max_incidence_deg
        rng = np.random.default_rng(7)
        sizes = []
        for goal in default_goal_poses(0.4, 3):
            sizes.append(self.assert_same(box_scene, goal, intrinsics))
            for _ in range(4):
                xi = np.r_[rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.3, 0.3, 3)]
                sizes.append(self.assert_same(box_scene, compose(goal, se3_exp(xi)), intrinsics))
        # the tilted views see side faces the straight-on view does not
        assert min(sizes) >= 3 and len(set(sizes)) > 1

    def test_planar_scene_of_400_landmarks(self, target_pose, intrinsics):
        scene = make_planar_scene(seed=3, n_object=400)
        assert self.assert_same(scene, target_pose, intrinsics) > 300

    def test_same_error_when_too_few_are_visible(self, box_scene, intrinsics):
        looking_away = Pose(np.eye(3), (0.0, 0.0, 0.5))
        with pytest.raises(TooFewVisibleLandmarks) as old:
            old_render_target(box_scene, looking_away, intrinsics)
        with pytest.raises(TooFewVisibleLandmarks) as new:
            render_target(box_scene, looking_away, intrinsics)
        assert str(new.value) == str(old.value)


NAN, INF = float("nan"), float("inf")


def run_config(**kwargs):
    pose = Pose(np.eye(3), (0.0, 0.0, -0.4))
    return ServoRunConfig(target_pose=pose, initial_pose=pose, **kwargs)


class TestConfigValidation:
    """Values that are not finite, or a bool where a number is meant, fail the
    configs' checks at construction. The CLI rejects them while parsing;
    these checks guard callers of the Python API."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: RansacConfig(inlier_threshold=NAN), id="inlier_threshold-nan"),
            pytest.param(lambda: RansacConfig(inlier_threshold=INF), id="inlier_threshold-inf"),
            pytest.param(lambda: ControlConfig(gain=NAN), id="gain-nan"),
            pytest.param(lambda: ControlConfig(gain=INF), id="gain-inf"),
            pytest.param(lambda: ControlConfig(svd_tolerance=NAN), id="svd_tolerance-nan"),
            pytest.param(lambda: ControlConfig(svd_tolerance=INF), id="svd_tolerance-inf"),
            pytest.param(lambda: ControlConfig(max_twist=(1.0,) * 5 + (NAN,)), id="max_twist-nan"),
            pytest.param(lambda: SyntheticDetectorConfig(descriptor_noise_sigma=NAN),
                         id="descriptor_noise_sigma-nan"),
            pytest.param(lambda: SyntheticDetectorConfig(descriptor_noise_sigma=INF),
                         id="descriptor_noise_sigma-inf"),
            pytest.param(lambda: SyntheticDetectorConfig(pixel_noise_sigma=NAN),
                         id="pixel_noise_sigma-nan"),
            pytest.param(lambda: SyntheticDetectorConfig(pixel_noise_sigma=INF),
                         id="pixel_noise_sigma-inf"),
            pytest.param(lambda: run_config(dt=NAN), id="dt-nan"),
            pytest.param(lambda: run_config(dt=INF), id="dt-inf"),
            pytest.param(lambda: run_config(success_threshold=NAN), id="success_threshold-nan"),
            pytest.param(lambda: run_config(success_threshold=INF), id="success_threshold-inf"),
            pytest.param(lambda: run_config(tracking_threshold=NAN),
                         id="tracking_threshold-nan"),
            pytest.param(lambda: run_config(tracking_threshold=-INF),
                         id="tracking_threshold-minus-inf"),
            pytest.param(lambda: run_config(tracking_threshold=True),
                         id="tracking_threshold-true"),
        ],
    )
    def test_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()


class TestServoStep:
    def test_fixed_point_at_target(self, clean_scene, target_pose):
        cfg = ServoRunConfig(target_pose=target_pose, initial_pose=target_pose)
        loop = ServoLoop(clean_scene, cfg)
        rec = loop.step()
        assert rec.mean_error == 0.0
        assert np.allclose(rec.twist, 0.0, atol=1e-12)

    def test_error_decreases_on_first_cycle(self, clean_scene, target_pose):
        cfg = offset_config(target_pose, [0.01, 0, 0, 0, 0, 0])
        loop = ServoLoop(clean_scene, cfg)
        first = loop.step()
        second = loop.step()
        assert second.mean_error < first.mean_error

    def test_full_dropout_reports_starvation(self, clean_scene, target_pose):
        cfg = offset_config(
            target_pose,
            [0.01, 0, 0, 0, 0, 0],
            detector=SyntheticDetectorConfig(detection_dropout=1.0),
        )
        loop = ServoLoop(clean_scene, cfg)
        rec = loop.step()
        assert rec.event == "insufficient_features"
        assert np.all(rec.twist == 0)

    def test_tracking_stays_off_after_tracking_lost(self, clean_scene, target_pose, monkeypatch):
        # near the target every cycle is below the tracking threshold, so
        # tracking would lock again at once if it re-armed
        cfg = offset_config(target_pose, [0.004, 0.002, 0, 0, 0, 0.01])
        control = ServoLoop(clean_scene, cfg)
        assert any(control.step().tracking for _ in range(4))

        loop = ServoLoop(clean_scene, cfg)
        loop.locked = loop.target_full.subset([0, 1])  # too few to seed RANSAC
        calls = spy(monkeypatch, "tracking_update")
        lost = loop.step()
        assert lost.tracking and lost.event == "tracking_lost"
        assert loop.tracking_disabled and loop.locked is None
        later = [loop.step() for _ in range(6)]
        assert all(r.event == "" and r.mean_error < cfg.tracking_threshold for r in later)
        assert not any(r.tracking for r in later)
        assert loop.locked is None and not calls


def spy_ransac(monkeypatch, fail_calls=()):
    """Replace the loop's ransac_inliers by a spy that records each call's
    [prior, result]; the calls numbered in `fail_calls` (from 1) fail as a
    starved cycle's would, with result None."""
    ransac, calls = simulate.ransac_inliers, []

    def spy(C, cfg, rng=None, prior=None):
        calls.append([prior, None])
        if len(calls) in fail_calls:
            raise TooFewCorrespondences("no consensus")
        calls[-1][1] = ransac(C, cfg, rng=rng, prior=prior)
        return calls[-1][1]

    monkeypatch.setattr(simulate, "ransac_inliers", spy)
    return calls


def decayed(H, cfg):
    """The prior the loop predicts from model H: rho*H + (1 - rho)*H[2,2]*I."""
    rho = 1.0 - cfg.control.gain * cfg.dt
    return rho * H + (1.0 - rho) * H[2, 2] * np.eye(3)


def noisy_box_config(target_pose, rng, seed, **kwargs):
    """The default run's noise, seeded by `seed`, and a 2 cm + 5 deg offset
    drawn from `rng`."""
    direction = rng.normal(size=3)
    direction *= 0.02 / np.linalg.norm(direction)
    axis = rng.normal(size=3)
    axis *= np.deg2rad(5.0) / np.linalg.norm(axis)
    detector = SyntheticDetectorConfig(
        descriptor_noise_sigma=0.02, pixel_noise_sigma=0.3, seed=seed
    )
    return offset_config(
        target_pose,
        np.concatenate([direction, axis]),
        detector=detector,
        ransac=RansacConfig(seed=seed),
        **kwargs,
    )


class TestRansacPrior:
    def test_prior_is_the_decayed_last_model_and_none_after_a_failed_cycle(
        self, clean_scene, target_pose, monkeypatch
    ):
        calls = spy_ransac(monkeypatch, fail_calls=(3,))
        # a threshold of 0 never locks, so cycle 3 fails untracked
        cfg = offset_config(target_pose, [0.004, 0.002, 0, 0, 0, 0.01], tracking_threshold=0.0)
        loop = ServoLoop(clean_scene, cfg)
        records = [loop.step() for _ in range(5)]
        loop.locked = loop.target_full.subset([0, 1])  # too few to seed RANSAC
        records += [loop.step() for _ in range(2)]
        assert [r.event for r in records] == [
            "", "", "insufficient_features", "", "", "tracking_lost", ""
        ]
        priors = [prior for prior, _ in calls]
        models = [None if R is None else R.model for _, R in calls]
        assert len(calls) == 7
        for cycle in (1, 4, 7):  # the first cycle and those after a failure
            assert priors[cycle - 1] is None, cycle
        for cycle in (2, 3, 5, 6):  # the last model, moved on by the decay
            H = models[cycle - 2]
            np.testing.assert_allclose(priors[cycle - 1], decayed(H, cfg), rtol=1e-12)

    def test_noise_free_planar_run_draws_no_hypothesis_after_cycle_1(self, target_pose):
        # an exact homography moved on by the decay holds every pair, so every
        # call after the first returns the prior without touching the generator
        cfg = offset_config(
            target_pose,
            [0.01, -0.008, 0.005, 0.03, -0.02, 0.05],
            control=ControlConfig(gain=1.5),
        )
        loop = ServoLoop(make_planar_scene(seed=2), cfg)
        loop.step()
        state = loop._ransac_rng.bit_generator.state
        records = [loop.step() for _ in range(60)]
        assert all(r.event == "" for r in records)
        assert records[-1].mean_error < cfg.success_threshold
        assert loop._ransac_rng.bit_generator.state == state

    def test_noisy_prior_holds_every_pair_in_most_calls(
        self, box_scene, target_pose, monkeypatch
    ):
        calls = spy_ransac(monkeypatch)
        rng = np.random.default_rng(0)
        for seed in range(4):
            run_servo(box_scene, noisy_box_config(target_pose, rng, seed))
        held = [
            np.all(symmetric_transfer_error(prior, R.current_pixels, R.target_pixels)
                   <= RansacConfig().inlier_threshold)
            for prior, R in calls
            if prior is not None
        ]
        assert len(held) > 200
        assert np.mean(held) >= 0.85

    def test_prior_that_is_not_finite_is_none(self, clean_scene, target_pose, monkeypatch):
        # rho = -1e308, so rho*H overflows; the saturated twist keeps the step
        # finite, so the loop goes on, without a prior and without a warning
        calls = spy_ransac(monkeypatch)
        cfg = offset_config(
            target_pose,
            [0.004, 0.002, 0, 0, 0, 0.01],
            control=ControlConfig(gain=1e308, max_twist=(1e-3,) * 6),
            dt=1.0,
        )
        loop = ServoLoop(clean_scene, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = [loop.step() for _ in range(3)]
        assert all(r.event == "" for r in records)
        assert all(prior is None for prior, _ in calls)

    def test_oscillating_decay_converges(self, box_scene, target_pose):
        # gain 39 at dt 0.05: rho = -0.95, the error flips sign each cycle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = np.random.default_rng(0)
            for seed in range(2):
                cfg = noisy_box_config(target_pose, rng, seed, control=ControlConfig(gain=39.0))
                trace = run_servo(box_scene, cfg)
                assert trace.status == "Converged", seed
                assert len(trace) < 150, seed


def spy(monkeypatch, name):
    """Record the (arguments, result) of each call the loop makes to
    simulate.<name>."""
    f, calls = getattr(simulate, name), []

    def wrapper(*args):
        calls.append((args, f(*args)))
        return calls[-1][1]

    monkeypatch.setattr(simulate, name, wrapper)
    return calls


def step_to_end(loop):
    """Step a loop as run_servo would, to convergence or the cycle budget;
    the records and each cycle's matched target set."""
    records, targets = [], []
    for _ in range(loop.cfg.max_cycles):
        targets.append(loop.target_full if loop.locked is None else loop.locked)
        records.append(loop.step())
        if records[-1].mean_error < loop.cfg.success_threshold:
            break
    return records, targets


def dropout_box_config(target_pose, seed):
    """noisy_box_config with detection dropout 0.05: dropout leaves rows of
    the lock unmatched, so it shrinks, and a lock that starves loses
    tracking, after which the loop goes back to the full render (seeds 0
    and 2 do, seed 1 keeps its lock)."""
    cfg = noisy_box_config(target_pose, np.random.default_rng(seed), seed)
    return replace(cfg, detector=replace(cfg.detector, detection_dropout=0.05))


def pair_ids(target, R):
    """The inlier landmark ids in the control law's pair order, ascending
    row of the matched target set."""
    return tuple(target.landmark_ids[np.sort(R.target_indices)].tolist())


class TestTrackingLock:
    """The servo loop decides when the lock forms and shrinks, and gives it
    up for good (TestServoStep's tracking-lost test); tracking_update only
    picks the rows it keeps."""

    def test_mean_error_at_the_threshold_does_not_lock(
        self, clean_scene, target_pose, monkeypatch
    ):
        # no mean error is below 0, so this run never locks; the threshold
        # plays no part before the lock forms, so cycle 1 is the same at any
        cfg = offset_config(target_pose, [0.01, 0, 0, 0, 0, 0], tracking_threshold=0.0)
        e1 = ServoLoop(clean_scene, cfg).step().mean_error
        assert e1 > 0
        calls = spy(monkeypatch, "tracking_update")
        for threshold, locks in ((e1, False), (float(np.nextafter(e1, np.inf)), True)):
            loop = ServoLoop(clean_scene, replace(cfg, tracking_threshold=threshold))
            before = len(calls)
            assert loop.step().mean_error == e1
            assert (loop.locked is not None) is locks
            assert len(calls) - before == locks
            assert loop.step().tracking is locks

    def test_a_lock_shrinks_whatever_the_error(self, clean_scene, target_pose, monkeypatch):
        # no mean error is below -1 px, so only the lock set here makes the
        # loop track; dropout leaves rows of it unmatched in every cycle
        cfg = offset_config(target_pose, [0.01, 0, 0, 0, 0, 0], tracking_threshold=-1.0,
                            detector=SyntheticDetectorConfig(detection_dropout=0.2))
        calls = spy(monkeypatch, "tracking_update")
        loop = ServoLoop(clean_scene, cfg)
        loop.locked = loop.target_full
        sizes = [len(loop.locked)]
        for cycle in range(1, 5):
            target = loop.locked
            rec = loop.step()
            assert rec.tracking and rec.event == ""
            assert len(calls) == cycle and calls[-1][0][0] is target
            assert loop.locked is calls[-1][1]
            assert sorted(loop.locked.landmark_ids.tolist()) == list(rec.inlier_target_ids)
            sizes.append(len(loop.locked))
        assert all(b < a for a, b in zip(sizes, sizes[1:]))


class TestControlCaches:
    """The target side of the control law, s*, Z* and the L* = L(s*, Z*)
    rows, is computed once per run, from the render, into a table read by
    landmark id. The pinv of the gathered L* rows is built once per change
    of the inlier ids in pair order, whatever target set they were matched
    in. use_current_interaction builds L(s, Z) every cycle and no L* rows."""

    def from_scratch(self, cfg, R, target, current):
        """-gain * pinv(L) @ (s - s*) of the inlier pairs R, in R's order."""
        s = pixel_to_normalized(R.current_pixels, cfg.intrinsics).reshape(-1)
        s_star = pixel_to_normalized(R.target_pixels, cfg.intrinsics).reshape(-1)
        if cfg.use_current_interaction:
            L = stack_interaction(s, current.depths[R.current_indices])
        else:
            L = stack_interaction(s_star, target.depths[R.target_indices])
        return -cfg.control.gain * (np.linalg.pinv(L) @ (s - s_star))

    @pytest.mark.parametrize("run", ["planar", 0, 1, 2])
    def test_one_pseudo_inverse_per_change_of_inlier_ids(
        self, run, box_scene, target_pose, monkeypatch
    ):
        ransac = spy_ransac(monkeypatch)
        calls = spy(monkeypatch, "pseudo_inverse")
        if run == "planar":
            scene = make_planar_scene(seed=2)
            cfg = offset_config(
                target_pose, [0.01, -0.008, 0.005, 0.03, -0.02, 0.05],
                control=ControlConfig(gain=1.5),
            )
        else:
            scene, cfg = box_scene, dropout_box_config(target_pose, run)
        records, targets = step_to_end(ServoLoop(scene, cfg))
        assert records[-1].mean_error < cfg.success_threshold
        # a failed cycle keeps the last pseudo-inverse; a new target set,
        # the lock or the full render after a lost lock, does not drop it
        keys = [pair_ids(t, R) for t, (_, R) in zip(targets, ransac) if R is not None]
        assert len(calls) == 1 + sum(a != b for a, b in zip(keys, keys[1:]))
        if run == "planar":
            # without dropout the ids repeat in most cycles
            assert len(calls) < len(records) // 2

    def test_every_twist_is_the_control_law_from_scratch(
        self, box_scene, target_pose, monkeypatch
    ):
        ransac = spy_ransac(monkeypatch)
        currents = spy(monkeypatch, "top_k")
        pinv = spy(monkeypatch, "pseudo_inverse")
        cfg = noisy_box_config(target_pose, np.random.default_rng(1), 1)
        records, targets = step_to_end(ServoLoop(box_scene, cfg))
        assert records[-1].mean_error < cfg.success_threshold
        assert any(r.tracking for r in records)
        for rec, (_, R), target, (_, current) in zip(records, ransac, targets, currents):
            expected = self.from_scratch(cfg, R, target, current)
            np.testing.assert_allclose(rec.twist, expected, rtol=0, atol=1e-12)
        assert len(pinv) < len(records) // 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_new_or_shrunk_lock_reads_the_one_target_table(
        self, seed, box_scene, target_pose, monkeypatch
    ):
        ransac = spy_ransac(monkeypatch)
        currents = spy(monkeypatch, "top_k")
        calls = spy(monkeypatch, "stack_interaction")
        pinv = spy(monkeypatch, "pseudo_inverse")
        cfg = dropout_box_config(target_pose, seed)
        loop = ServoLoop(box_scene, cfg)
        # one L* build, at construction, on the render's s* and Z* in row order
        render = loop.target_full
        assert len(calls) == 1
        (s_star, depths), L = calls[0]
        assert s_star.tobytes() == pixel_to_normalized(render.pixels, cfg.intrinsics).tobytes()
        assert depths.tobytes() == render.depths.tobytes()
        records, targets = step_to_end(loop)
        assert len(calls) == 1
        # each pseudo-inverse miss inverts the built rows of the pair ids,
        # the very bytes that building them for those ids alone gives
        keys = [pair_ids(t, R) for t, (_, R) in zip(targets, ransac) if R is not None]
        missed = keys[:1] + [b for a, b in zip(keys, keys[1:]) if a != b]
        assert len(pinv) == len(missed) > 1
        row = {i: r for r, i in enumerate(render.landmark_ids.tolist())}
        for ((L_arg, _), _), ids in zip(pinv, missed):
            rows = [row[i] for i in ids]
            assert L_arg.tobytes() == L.reshape(-1, 2, 6)[rows].tobytes()
            assert L_arg.tobytes() == stack_interaction(s_star[rows], depths[rows]).tobytes()
        assert records[-1].mean_error < cfg.success_threshold
        assert [R is not None for _, R in ransac] == [r.event == "" for r in records]
        changes = [0] + [
            i for i in range(1, len(targets)) if targets[i] is not targets[i - 1]
        ]
        locked = [targets[i] is not render for i in changes]
        # the render, the lock, and at least one shrink of it; a lock set
        # while locked is strictly smaller
        assert not locked[0] and locked[1]
        shrinks = [
            (len(targets[a]), len(targets[b]))
            for a, b, la, lb in zip(changes, changes[1:], locked, locked[1:])
            if la and lb
        ]
        assert shrinks and all(b < a for a, b in shrinks)
        # a 4-pair consensus, under a starving lock or just after losing it,
        # can command twists of tens of units: the rounding bound is relative too
        for rec, (_, R), target, (_, current) in zip(records, ransac, targets, currents):
            if R is not None:
                expected = self.from_scratch(cfg, R, target, current)
                np.testing.assert_allclose(rec.twist, expected, rtol=1e-12, atol=1e-12)

    def test_a_new_set_with_the_same_ids_keeps_the_pseudo_inverse(
        self, box_scene, target_pose, monkeypatch
    ):
        ransac = spy_ransac(monkeypatch)
        cfg = noisy_box_config(target_pose, np.random.default_rng(1), 1)
        loop = ServoLoop(box_scene, cfg)
        while loop.locked is None:
            loop.step()
        # every row is an inlier, so the lock is the render itself; a copy of
        # it gives the same ids in the same pair order, the reversed render
        # the same ids in reversed order
        assert loop.locked is loop.target_full
        rows = np.arange(len(loop.target_full))
        pinv = spy(monkeypatch, "pseudo_inverse")
        currents = spy(monkeypatch, "top_k")
        for target, builds in ((loop.target_full.subset(rows), 0),
                               (loop.target_full.subset(rows[::-1]), 1)):
            loop.locked = target
            before = len(pinv)
            records = [loop.step() for _ in range(3)]
            assert loop.locked is target
            assert len(pinv) - before == builds
            for rec, (_, R), (_, cur) in zip(records, ransac[-3:], currents[-3:]):
                assert len(R) == len(target)
                expected = self.from_scratch(cfg, R, target, cur)
                np.testing.assert_allclose(rec.twist, expected, rtol=0, atol=1e-12)

    def test_current_interaction_builds_l_every_cycle(
        self, box_scene, target_pose, monkeypatch
    ):
        ransac = spy_ransac(monkeypatch)
        currents = spy(monkeypatch, "top_k")
        stack = spy(monkeypatch, "stack_interaction")
        pinv = spy(monkeypatch, "pseudo_inverse")
        cfg = noisy_box_config(
            target_pose, np.random.default_rng(1), 1, use_current_interaction=True
        )
        records, targets = step_to_end(ServoLoop(box_scene, cfg))
        assert records[-1].mean_error < cfg.success_threshold
        assert all(r.event == "" for r in records)
        # L(s, Z) each cycle, and no L* rows of any target set
        assert len(pinv) == len(records)
        assert len(stack) == len(records)
        for rec, (_, R), target, (_, current) in zip(records, ransac, targets, currents):
            expected = self.from_scratch(cfg, R, target, current)
            np.testing.assert_allclose(rec.twist, expected, rtol=0, atol=1e-12)


class TestRunServo:
    def test_converges_immediately_at_target(self, clean_scene, target_pose):
        trace = run_servo(clean_scene, ServoRunConfig(target_pose=target_pose,
                                                      initial_pose=target_pose))
        assert trace.status == "Converged"
        assert len(trace) == 1

    def test_full_dropout_terminates(self, clean_scene, target_pose):
        cfg = offset_config(
            target_pose,
            [0.01, 0, 0, 0, 0, 0],
            detector=SyntheticDetectorConfig(detection_dropout=1.0),
            max_cycles=50,
        )
        trace = run_servo(clean_scene, cfg)
        assert trace.status == "InsufficientFeatures"
        assert len(trace) < 50

    def test_tracking_loss_is_a_starved_cycle(self, clean_scene, target_pose, monkeypatch):
        # the lock forms on cycle 1 and every later RANSAC call starves: the
        # tracked cycle that loses the lock is the first of the starved run
        spy_ransac(monkeypatch, fail_calls=range(2, 100))
        cfg = offset_config(target_pose, [0.01, 0, 0, 0, 0, 0], tracking_threshold=1e9)
        trace = run_servo(clean_scene, cfg)
        assert trace.status == "InsufficientFeatures"
        assert [r.tracking for r in trace.records[:3]] == [False, True, False]
        limit = simulate._INSUFFICIENT_LIMIT
        assert [r.event for r in trace.records] == (
            ["", "tracking_lost"] + ["insufficient_features"] * (limit - 1)
        )

    def test_noisy_cluttered_runs_converge(self, box_scene, target_pose):
        # 2 cm + 5 deg offsets, default noise, 100 clutter landmarks
        rng = np.random.default_rng(0)
        for seed in range(20):
            trace = run_servo(box_scene, noisy_box_config(target_pose, rng, seed))
            assert trace.status == "Converged", f"seed {seed}: {trace.status}"
            assert len(trace) <= 400
            assert trace.final_mean_error < 2.0

    def test_far_offset_reports_honestly(self, clean_scene, target_pose):
        cfg = offset_config(target_pose, [0.20, 0, 0, 0, 0, 0], max_cycles=30)
        trace = run_servo(clean_scene, cfg)
        assert trace.status in ("Converged", "MaxCycles", "InsufficientFeatures")

    def test_target_purity_throughout_run(self, box_scene, target_pose):
        cfg = offset_config(target_pose, [0.01, -0.005, 0.01, 0.02, 0, 0])
        trace = run_servo(box_scene, cfg)
        clutter = set(box_scene.ids[box_scene.n_object:].tolist())
        for rec in trace.records:
            assert not (set(rec.inlier_target_ids) & clutter)
            if rec.event == "":
                # RANSAC keeps at least 4 pairs, so a cycle that did not fail
                # has its inliers, and its mean error is theirs, bit for bit
                assert rec.n_inliers >= 4
                assert rec.mean_error == np.mean(rec.pair_errors)

    def test_tracked_inlier_counts_non_increasing(self, clean_scene, target_pose):
        cfg = offset_config(target_pose, [0.01, 0.005, 0, 0, 0.02, 0])
        trace = run_servo(clean_scene, cfg)
        counts = [r.n_inliers for r in trace.records if r.tracking]
        assert len(counts) > 0
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_noiseless_converged_pose_matches_ground_truth(self, clean_scene, target_pose):
        cfg = offset_config(
            target_pose, [0.008, -0.004, 0.006, 0.01, -0.02, 0.01], success_threshold=0.25
        )
        trace = run_servo(clean_scene, cfg)
        assert trace.status == "Converged"
        t_err, r_err = pose_error(trace.final_pose, target_pose)
        assert t_err < 1e-3
        assert np.degrees(r_err) < 0.2


def same_value(a, b) -> bool:
    """Equal bytes for arrays, floats and poses; == for the rest."""
    if isinstance(a, Pose):
        return same_value(a.rotation, b.rotation) and same_value(a.translation, b.translation)
    if isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class TestMatchReuse:
    """Without descriptor noise the loop reuses its last match while the
    landmark ids of the detection and of the matched target set repeat,
    whatever objects hold them; it calls simulate.match_nn otherwise."""

    @staticmethod
    def run(scene, cfg, monkeypatch, reuse=True):
        """The records of a loop stepped as run_servo steps it, and the
        number of match_nn calls it made; `reuse=False` forces matching on
        every cycle."""
        match_nn, calls = simulate.match_nn, []
        monkeypatch.setattr(simulate, "match_nn", lambda c, t: calls.append(1) or match_nn(c, t))
        loop = ServoLoop(scene, cfg)
        loop._reuse_match &= reuse
        records, _ = step_to_end(loop)
        monkeypatch.undo()
        return records, len(calls)

    def test_descriptor_noise_holds_no_memo(self, box_scene, target_pose, monkeypatch):
        cfg = offset_config(
            target_pose, [0.01, 0, 0, 0, 0, 0.02], max_cycles=30,
            detector=SyntheticDetectorConfig(descriptor_noise_sigma=0.02, seed=2),
        )
        records, calls = self.run(box_scene, cfg, monkeypatch)
        assert calls == len(records) == 30

    def test_reused_matches_give_the_same_records(self, box_scene, target_pose, monkeypatch):
        # clutter, pixel noise (keypoints leave the frame, the lock shrinks)
        # and tracking, with noise-free descriptors
        cfg = offset_config(
            target_pose, [0.02, -0.01, 0.01, 0.03, -0.05, 0.04],
            detector=SyntheticDetectorConfig(pixel_noise_sigma=0.3, seed=5),
        )
        records, calls = self.run(box_scene, cfg, monkeypatch)
        plain, plain_calls = self.run(box_scene, cfg, monkeypatch, reuse=False)
        assert records[-1].mean_error < cfg.success_threshold
        assert any(r.tracking for r in records)
        assert plain_calls == len(plain) == len(records)
        assert 1 < calls < len(records) - 1  # hits and misses both occur
        for a, b in zip(records, plain):
            for f in fields(CycleRecord):
                assert same_value(getattr(a, f.name), getattr(b, f.name)), (a.cycle, f.name)

    @staticmethod
    def still_loop(scene, target_pose, monkeypatch):
        """A loop without noise or tracking whose pose goes back to the start
        after each step, so each detection repeats the last; and its list of
        match_nn calls."""
        cfg = offset_config(target_pose, [0.01, 0, 0, 0, 0, 0.02], tracking_threshold=0.0)
        match_nn, calls = simulate.match_nn, []
        monkeypatch.setattr(simulate, "match_nn", lambda c, t: calls.append(t) or match_nn(c, t))
        loop = ServoLoop(scene, cfg)
        step = loop.step

        def still_step():
            record = step()
            loop.pose = cfg.initial_pose
            return record

        loop.step = still_step
        return loop, calls

    def test_repeated_ids_hit(self, box_scene, target_pose, monkeypatch):
        loop, calls = self.still_loop(box_scene, target_pose, monkeypatch)
        first, second = loop.step(), loop.step()
        assert calls == [loop.target_full]
        assert first.n_inliers > 0
        for f in fields(CycleRecord):
            if f.name != "cycle":
                assert same_value(getattr(first, f.name), getattr(second, f.name)), f.name

    def test_changed_ids_miss(self, box_scene, target_pose, monkeypatch):
        loop, calls = self.still_loop(box_scene, target_pose, monkeypatch)
        loop.step()
        top_k = simulate.top_k
        # the same detection without its last row
        monkeypatch.setattr(simulate, "top_k", lambda fs, k: top_k(fs, len(fs) - 1))
        loop.step()
        assert len(calls) == 2

    def test_new_target_object_with_equal_ids_hits(self, box_scene, target_pose, monkeypatch):
        records = []
        for reuse in (True, False):
            loop, calls = self.still_loop(box_scene, target_pose, monkeypatch)
            loop._reuse_match &= reuse
            loop.step()
            # equal rows in a new object
            loop.target_full = copy = loop.target_full.subset(slice(None))
            records.append(loop.step())
            if reuse:
                assert len(calls) == 1
                # the copy without its last row
                loop.target_full = smaller = copy.subset(np.arange(len(copy) - 1))
                loop.step()
                assert len(calls) == 2 and calls[1] is smaller
            monkeypatch.undo()
        # the hit gives the record a fresh match_nn gives
        for f in fields(CycleRecord):
            assert same_value(getattr(records[0], f.name), getattr(records[1], f.name)), f.name


class TestTraceOutput:
    def _trace(self, scene, target_pose):
        cfg = offset_config(
            target_pose,
            [0.01, 0, -0.005, 0, 0.01, 0],
            detector=SyntheticDetectorConfig(pixel_noise_sigma=0.2, seed=4),
        )
        return run_servo(scene, cfg), cfg

    def test_trace_csv_deterministic(self, box_scene, target_pose, tmp_path):
        trace_a, cfg = self._trace(box_scene, target_pose)
        trace_b, _ = self._trace(box_scene, target_pose)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace_a, pa)
        write_trace_csv(trace_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_summary_fields(self, clean_scene, target_pose, tmp_path):
        trace, _ = self._trace(clean_scene, target_pose)
        path = tmp_path / "summary.json"
        write_trace_summary(trace, path)
        import json

        summary = json.loads(path.read_text())
        assert summary["status"] == trace.status
        assert summary["cycles"] == len(trace)
        assert len(summary["final_pose"]) == 12

    def test_one_row_per_cycle(self, clean_scene, target_pose, tmp_path):
        trace, _ = self._trace(clean_scene, target_pose)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + len(trace)  # schema comment + header + rows
