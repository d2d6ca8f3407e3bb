import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from featservo.cli import main
from featservo.errors import ConfigError, TooFewVisibleLandmarks
from featservo.experiment import (
    BatchResult,
    BatchSpec,
    aggregate_accuracy,
    batch_specs,
    build_run_config,
    build_scene,
    camera_pose_looking_at,
    default_goal_poses,
    default_start_offsets,
    export_profiles,
    load_config,
    run_accuracy_suite,
    run_batch_suite,
    sample_offset_pose,
    write_accuracy_csv,
    write_batch_csv,
)
from featservo.geometry import Pose, compose, rotation_angle, se3_exp
from featservo.simulate import ServoLoop, ServoRunConfig, make_box_scene, run_servo


@pytest.fixture
def scene():
    return make_box_scene(seed=1, n_clutter=40)


@pytest.fixture
def base_cfg(target_pose):
    return ServoRunConfig(target_pose=target_pose, initial_pose=target_pose, max_cycles=200)


class TestPoseSampling:
    def test_offset_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pose = sample_offset_pose(rng, (0.01, 0.03), (5.0, 8.0, 2.0))
            dist = np.linalg.norm(pose.translation)
            assert 0.01 <= dist <= 0.03
            # composed per-axis rotations cannot exceed the bound sum
            assert np.degrees(rotation_angle(pose.rotation)) <= 5.0 + 8.0 + 2.0 + 1e-9

    def test_looking_at_puts_point_on_axis(self):
        pose = camera_pose_looking_at((0.1, -0.05, -0.4), (0.0, 0.0, 0.0))
        in_cam = pose.world_to_camera((0.0, 0.0, 0.0))
        assert in_cam[2] > 0
        assert np.allclose(in_cam[:2], 0.0, atol=1e-12)


class TestBatchSpec:
    def test_rejects_overlapping_bands(self):
        with pytest.raises(ConfigError, match="bands"):
            BatchSpec(bands_cm=((0.0, 2.0), (1.0, 3.0)), rotation_bounds_deg=(1, 1, 1))

    def test_rejects_reversed_band(self):
        with pytest.raises(ConfigError, match="bands"):
            BatchSpec(bands_cm=((2.0, 1.0),), rotation_bounds_deg=(1, 1, 1))

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            BatchSpec(bands_cm=((0.0, 1.0),), rotation_bounds_deg=(1, 1, 1), trials=0)

    def test_rejects_wrong_rotation_arity(self):
        with pytest.raises(ConfigError, match="axis"):
            BatchSpec(bands_cm=((0.0, 1.0),), rotation_bounds_deg=(1, 1))


class TestAccuracySuite:
    def test_grid_shape_and_determinism(self, scene, base_cfg, target_pose):
        goals = [target_pose]
        starts = [se3_exp([0.005, 0, 0, 0, 0, 0]), se3_exp([0, 0.005, 0, 0, 0.01, 0])]
        a, _ = run_accuracy_suite([scene], goals, starts, base_cfg, seed=3)
        b, _ = run_accuracy_suite([scene], goals, starts, base_cfg, seed=3)
        assert len(a) == 2
        assert a == b
        assert all(r.status == "Converged" for r in a)

    def test_aggregate_excludes_non_converged(self, scene, base_cfg, target_pose):
        starts = [se3_exp([0.005, 0, 0, 0, 0, 0])]
        records, _ = run_accuracy_suite(
            [scene], [target_pose], starts, replace(base_cfg, max_cycles=2), seed=0
        )
        assert records[0].status == "MaxCycles"
        agg = aggregate_accuracy(records)
        assert agg["converged"] == 0
        assert np.isnan(agg["mean_avg1_px"])

    def test_avg2_uses_only_true_pairs(self, scene, base_cfg, target_pose):
        starts = [se3_exp([0.004, -0.003, 0, 0, 0, 0.01])]
        records, traces = run_accuracy_suite([scene], [target_pose], starts, base_cfg, seed=1)
        rec, trace = records[0], traces[0]
        last = trace.records[-1]
        assert rec.avg1 == pytest.approx(np.mean(last.pair_errors))
        assert rec.avg2 == pytest.approx(np.mean(last.pair_errors[last.pair_id_match]))
        assert rec.avg2 <= rec.avg1 + 1e-12

    def test_csv_output(self, scene, base_cfg, target_pose, tmp_path):
        records, _ = run_accuracy_suite(
            [scene], [target_pose], [se3_exp([0.003, 0, 0, 0, 0, 0])], base_cfg
        )
        path = tmp_path / "acc.csv"
        write_accuracy_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("scene,goal,start,status")
        assert len(lines) == 2 + len(records)


class TestBatchSuite:
    def test_counts_match_statuses(self, scene, base_cfg):
        spec = BatchSpec(bands_cm=((0.0, 1.0), (1.0, 2.0)), rotation_bounds_deg=(3, 3, 3),
                         trials=3)
        results, _ = run_batch_suite(spec, scene, base_cfg, seed=0)
        assert len(results) == 2
        for r in results:
            assert r.trials == 3
            assert r.converged == sum(s == "Converged" for s in r.statuses)
            assert r.success_ratio == r.converged / r.trials

    def test_clutter_flag_strips_clutter(self, scene, base_cfg):
        spec = BatchSpec(bands_cm=((0.0, 1.0),), rotation_bounds_deg=(2, 2, 2), trials=2,
                         clutter=False)
        _, traces = run_batch_suite(spec, scene, base_cfg, seed=0)
        clutter_ids = set(int(i) for i in scene.clutter_ids)
        for trace in traces:
            for rec in trace.records:
                assert not (set(rec.inlier_target_ids) & clutter_ids)

    def test_csv_output(self, scene, base_cfg, tmp_path):
        spec = BatchSpec(bands_cm=((0.0, 1.0),), rotation_bounds_deg=(2, 2, 2), trials=2)
        results, _ = run_batch_suite(spec, scene, base_cfg, seed=0)
        path = tmp_path / "batch.csv"
        write_batch_csv(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[3] == "2"  # trials column

    def test_csv_counts_every_status(self, scene, base_cfg, tmp_path):
        statuses = ("Converged", "MaxCycles", "InsufficientFeatures", "MaxCycles", "TrackingLost")
        result = BatchResult(band_cm=(4.0, 8.0), clutter=True, trials=5, converged=1,
                             statuses=statuses)
        path = tmp_path / "batch.csv"
        write_batch_csv([result], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# featservo_batch_v2"
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert (row["trials"], row["converged"], row["max_cycles"], row["tracking_lost"],
                row["insufficient_features"]) == ("5", "1", "2", "1", "1")


class TestProfiles:
    def test_profiles_byte_identical(self, scene, base_cfg, target_pose, tmp_path):
        cfg = replace(base_cfg, initial_pose=compose(target_pose,
                                                     se3_exp([0.005, 0, 0, 0, 0.01, 0])))
        files = []
        for tag in ("a", "b"):
            trace = run_servo(scene, cfg)
            tw, er = tmp_path / f"tw_{tag}.csv", tmp_path / f"er_{tag}.csv"
            export_profiles(trace, tw, er)
            files.append((tw.read_bytes(), er.read_bytes()))
        assert files[0] == files[1]

    def test_profile_rows_and_header(self, scene, base_cfg, target_pose, tmp_path):
        trace = run_servo(scene, base_cfg)
        tw, er = tmp_path / "tw.csv", tmp_path / "er.csv"
        export_profiles(trace, tw, er)
        tw_lines = tw.read_text().splitlines()
        er_lines = er.read_text().splitlines()
        assert tw_lines[1] == "cycle,vx,vy,vz,wx,wy,wz"
        assert len(tw_lines) == len(er_lines) == 2 + len(trace)


class TestConfig:
    def _write(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_edited_lists_do_not_leak_into_later_configs(self, tmp_path):
        path = self._write(tmp_path, {})
        cfg = load_config(path)
        cfg["run"]["rotation_deg"][0] = 99.0
        cfg["batch"]["bands_cm"][0][1] = 99.0
        again = load_config(path)
        assert again["run"]["rotation_deg"] == [5.0, 5.0, 3.0]
        assert again["batch"]["bands_cm"][0] == [0.0, 1.0]

    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(self._write(tmp_path, {"seed": 7}))
        assert cfg["seed"] == 7
        assert cfg["servo"]["dt"] == 0.05
        assert cfg["camera"]["fx"] == 600.0

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="servo.dts"):
            load_config(self._write(tmp_path, {"servo": {"dts": 0.1}}))

    def test_schema_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="schema"):
            load_config(self._write(tmp_path, {"schema": "featservo_config_v2"}))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_clutter_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="clutter"):
            load_config(self._write(tmp_path, {"batch": {"clutter": "sometimes"}}))

    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            load_config(self._write(tmp_path, {"batch": {"trials": 0}}))

    def test_batch_specs_both_modes(self, tmp_path):
        cfg = load_config(self._write(tmp_path, {}))
        specs = batch_specs(cfg)
        assert [s.clutter for s in specs] == [True, False]
        cfg = load_config(self._write(tmp_path, {"batch": {"clutter": False}}))
        assert [s.clutter for s in batch_specs(cfg)] == [False]

    def test_builders(self, tmp_path):
        cfg = load_config(self._write(tmp_path, {"scene": {"n_clutter": 10}}))
        scene = build_scene(cfg)
        assert len(scene.clutter_ids) == 10
        run_cfg = build_run_config(cfg)
        assert isinstance(run_cfg.target_pose, Pose)
        assert run_cfg.control.gain == 0.5
        goals = default_goal_poses(cfg["run"]["camera_distance"], cfg["accuracy"]["goals"])
        assert len(goals) == cfg["accuracy"]["goals"]
        starts = default_start_offsets(cfg)
        assert len(starts) == cfg["accuracy"]["starts"]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _sorted_pair(lo, hi):
    return st.lists(_floats(lo, hi), min_size=2, max_size=2).map(sorted)


def _rotations():
    return st.lists(_floats(0.0, 30.0), min_size=3, max_size=3)


@st.composite
def _camera(draw):
    width, height = draw(st.integers(16, 1024)), draw(st.integers(16, 1024))
    return {
        "fx": draw(_floats(1.0, 2000.0)),
        "fy": draw(_floats(1.0, 2000.0)),
        "cx": draw(_floats(0.0, width - 1.0)),
        "cy": draw(_floats(0.0, height - 1.0)),
        "width": width,
        "height": height,
    }


@st.composite
def _bands(draw):
    edges = draw(st.lists(_floats(0.0, 20.0), min_size=2, max_size=7, unique=True))
    edges.sort()
    return [[lo, hi] for lo, hi in zip(edges[::2], edges[1::2])]


def _table(**fields):
    """A config table holding any subset of `fields`."""
    return st.fixed_dictionaries({}, optional=fields)


# valid user configs: any subset of the tables, each with any subset of keys
VALID_CONFIGS = st.fixed_dictionaries({}, optional={
    "schema": st.just("featservo_config_v1"),
    "seed": st.integers(0, 2**31 - 1),
    "camera": _camera(),
    "scene": _table(
        n_object=st.integers(0, 400), n_clutter=st.integers(0, 400),
        box_size=_floats(0.01, 1.0), clutter_shell=_sorted_pair(0.0, 1.0),
        view_cone_deg=st.none() | _floats(1.0, 90.0), descriptor_dim=st.integers(1, 512),
    ),
    "detector": _table(
        descriptor_noise_sigma=_floats(0.0, 1.0), detection_dropout=_floats(0.0, 1.0),
        pixel_noise_sigma=_floats(0.0, 5.0),
    ),
    "control": _table(
        gain=_floats(0.01, 5.0), svd_tolerance=_floats(0.0, 1e-3),
        max_twist=st.none() | st.lists(_floats(0.01, 1.0), min_size=6, max_size=6),
    ),
    "ransac": _table(
        inlier_threshold=_floats(0.1, 10.0), max_iterations=st.integers(1, 5000),
        confidence=_floats(0.5, 0.9999),
    ),
    "servo": _table(
        dt=_floats(0.001, 0.5), tracking_threshold=_floats(0.0, 50.0),
        success_threshold=_floats(0.01, 10.0), max_cycles=st.integers(1, 1000),
        top_k=st.integers(0, 1000),
    ),
    "run": _table(
        camera_distance=_floats(0.1, 2.0), offset_cm=_floats(0.0, 20.0),
        rotation_deg=_rotations(),
    ),
    "accuracy": _table(
        goals=st.integers(1, 3), starts=st.integers(1, 6), scenes=st.integers(1, 6),
        offset_cm=_sorted_pair(0.0, 20.0), rotation_deg=_rotations(),
    ),
    "batch": _table(
        bands_cm=_bands(), rotation_deg=_rotations(), trials=st.integers(1, 20),
        clutter=st.sampled_from([True, False, "both"]),
    ),
})


class TestConfigProperty:
    @given(VALID_CONFIGS)
    @settings(max_examples=60, deadline=None)
    def test_valid_config_round_trips_and_checks(self, user):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(user))
            cfg = load_config(path)
            for table, value in user.items():
                if isinstance(value, dict):
                    assert {k: cfg[table][k] for k in value} == value
                else:
                    assert cfg[table] == value
            # the full config, dumped, loads back unchanged
            path.write_text(json.dumps(cfg))
            assert load_config(path) == cfg
            # check renders run's target view, so it fails (exit 4) exactly
            # when run's loop cannot start: that view shows under 3 landmarks
            try:
                ServoLoop(build_scene(cfg), build_run_config(cfg))
                expected = 0
            except TooFewVisibleLandmarks:
                expected = 4
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(["check", "--config", str(path)]) == expected
            assert ("OK" in out.getvalue()) == (expected == 0)


class TestCli:
    @pytest.fixture
    def tiny_config(self, tmp_path):
        payload = {
            "seed": 1,
            "scene": {"n_object": 60, "n_clutter": 10},
            "run": {"offset_cm": 1.0, "rotation_deg": [2.0, 2.0, 1.0]},
            "servo": {"max_cycles": 250},
            "accuracy": {"goals": 1, "starts": 1, "scenes": 1,
                         "offset_cm": [0.5, 1.0], "rotation_deg": [2.0, 2.0, 1.0]},
            "batch": {"bands_cm": [[0.0, 1.0]], "trials": 2,
                      "rotation_deg": [2.0, 2.0, 1.0], "clutter": False},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_check(self, tiny_config, capsys):
        assert main(["check", "--config", tiny_config]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        assert main(["check", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "absent.json")]) == 3

    def test_run_writes_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0
        for name in ("trace.csv", "summary.json", "twist_profile.csv", "error_profile.csv"):
            assert (out / name).exists()
        assert "status=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload, command",
        [
            ({"control": {"gain": -1}}, "run"),
            ({"servo": {"max_cycles": "ten"}}, "run"),
            ({"batch": {"trials": 2.5}}, "batch"),
            ({"scene": {"n_object": "ten"}}, "run"),
            ({"scene": {"clutter_shell": [0.3]}}, "batch"),
            ({"accuracy": {"starts": 2.5}}, "accuracy"),
            ({"accuracy": {"goals": 5}}, "accuracy"),
            ({"accuracy": {"rotation_deg": [6.0, 6.0]}}, "accuracy"),
            ({"ransac": {"min_sample": 3}}, "run"),
            ({"ransac": {"min_sample": 4}}, "run"),  # the key is gone
            ({"servo": {"top_k": -1}}, "run"),
            ({"servo": {"top_k": 2.5}}, "run"),
            ({"servo": {"dt": 0}}, "run"),
            ({"servo": {"max_cycles": 2.5}}, "run"),
            ({"servo": {"tracking_threshold": "x"}}, "run"),
            ({"ransac": {"max_iterations": 2.5}}, "run"),
            ({"control": {"max_twist": [1, 1, 1, 1, 1, "x"]}}, "run"),
            # numbers that are not finite, written as json.dumps writes them
            ({"control": {"gain": float("nan")}}, "run"),
            ({"control": {"gain": float("inf")}}, "run"),
            ({"detector": {"descriptor_noise_sigma": float("inf")}}, "run"),
            ({"servo": {"dt": float("inf")}}, "run"),
            ({"run": {"offset_cm": float("nan")}}, "run"),
            ({"servo": {"success_threshold": float("nan")}}, "run"),
            ({"ransac": {"inlier_threshold": float("nan")}}, "run"),
            ({"control": {"svd_tolerance": float("nan")}}, "run"),
            ({"servo": {"tracking_threshold": float("nan")}}, "run"),
            ({"detector": {"pixel_noise_sigma": float("nan")}}, "run"),
            ({"servo": {"tracking_threshold": -float("inf")}}, "run"),
            # literals that json parses to inf
            pytest.param('{"servo": {"dt": 1e400}}', "run", id="dt-1e400"),
            pytest.param('{"accuracy": {"offset_cm": [2.0, -1e400]}}', "accuracy", id="offset-1e400"),
            # an integer literal that no float can hold
            pytest.param('{"servo": {"dt": 1%s}}' % ("0" * 400), "run", id="dt-int-1e400"),
            pytest.param('{"control": {"gain": 1%s}}' % ("0" * 5000), "run", id="gain-int-1e5000"),
            # an image size that is not an integer
            pytest.param({"camera": {"width": 200.9}}, "run", id="width-200.9"),
            pytest.param({"camera": {"width": 180.9}}, "run", id="width-180.9"),
            pytest.param({"camera": {"width": 240.9}}, "run", id="width-240.9"),
            pytest.param({"camera": {"height": 180.9}}, "run", id="height-180.9"),
            # a bool where an integer is required
            pytest.param({"batch": {"trials": True}}, "batch", id="trials-true"),
            pytest.param({"servo": {"max_cycles": True}}, "run", id="max_cycles-true"),
            pytest.param({"servo": {"top_k": False}}, "run", id="top_k-false"),
            pytest.param({"ransac": {"max_iterations": True}}, "run", id="max_iterations-true"),
            pytest.param({"accuracy": {"goals": True}}, "accuracy", id="goals-true"),
            pytest.param({"seed": True}, "run", id="seed-true"),
            # a bool where a float is required
            pytest.param({"servo": {"dt": True}}, "run", id="dt-true"),
            pytest.param({"control": {"gain": True}}, "run", id="gain-true"),
            pytest.param({"camera": {"fx": True}}, "run", id="fx-true"),
            pytest.param({"control": {"max_twist": [True, 1, 1, 1, 1, 1]}}, "run",
                         id="max_twist-true"),
            pytest.param({"ransac": {"inlier_threshold": True}}, "run",
                         id="inlier_threshold-true"),
            pytest.param({"servo": {"tracking_threshold": False}}, "run",
                         id="tracking_threshold-false"),
            pytest.param({"batch": {"bands_cm": [[0.0, True]]}}, "batch", id="band-true"),
        ],
    )
    def test_check_rejects_what_run_rejects(self, payload, command, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main(["check", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_check_renders_the_target_view(self, tmp_path, capsys):
        # 3 object landmarks, of which the target view sees 2: run fails
        # when it renders that view, and check renders it too
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scene": {"n_object": 3, "n_clutter": 0}}))
        assert main(["check", "--config", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: only 2 object landmarks visible from target pose\n"
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize("payload", [{"servo": {"dt": 1e200}}, {"control": {"gain": 1e308}}])
    def test_overflowing_step_exits_4(self, payload, tmp_path, capsys):
        # finite, so check passes; dt times the twist then overflows the step
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["check", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_descriptor_noise_exits_4(self, tmp_path, capsys):
        # finite, so check passes; sigma then overflows float32, the noisy
        # descriptors become NaN, and the detector's output fails the
        # FeatureSet checks
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"detector": {"descriptor_noise_sigma": 1e160}}))
        assert main(["check", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err == "error: descriptors must be finite and unit norm\n"

    @pytest.mark.parametrize("command", ["check", "run", "accuracy", "batch"])
    def test_negative_seed_override_rejected(self, command, tiny_config, tmp_path, capsys):
        argv = [command, "--config", tiny_config, "--seed", "-1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_profiles_are_projections_of_trace(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", tiny_config, "--out", str(out)]) == 0

        def rows(name):
            with open(out / name) as f:
                return list(csv.DictReader(line for line in f if not line.startswith("#")))

        trace = rows("trace.csv")
        twist, errors = rows("twist_profile.csv"), rows("error_profile.csv")
        assert len(trace) == len(twist) == len(errors) > 0
        trace_name = {"correspondence_count": "n_correspondences"}
        for t, tw, er in zip(trace, twist, errors):
            assert tw == {k: t[k] for k in tw}
            assert er == {k: t[trace_name.get(k, k)] for k in er}

    def test_batch_writes_table(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["batch", "--config", tiny_config, "--out", str(out)]) == 0
        assert (out / "batch.csv").exists()
        assert "band 0-1 cm" in capsys.readouterr().out

    def test_accuracy_writes_report(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["accuracy", "--config", tiny_config, "--out", str(out)]) == 0
        assert (out / "accuracy.csv").exists()
        summary = json.loads((out / "accuracy_summary.json").read_text())
        assert summary["runs"] == 1
        assert "AVG2" in capsys.readouterr().out

    def test_seed_override_changes_trace(self, tiny_config, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            assert main(["run", "--config", tiny_config, "--out", str(out),
                         "--seed", seed]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] != outs[1]
