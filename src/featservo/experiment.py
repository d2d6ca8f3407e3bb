"""Evaluation harness: accuracy grids, batched success-ratio sweeps over
increasing initial offsets, profile exports, and the experiment config file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .control import ControlConfig
from .errors import ConfigError
from .features import SyntheticDetectorConfig
from .geometry import CameraIntrinsics, Pose, compose
from .matching import RansacConfig
from .simulate import (
    _NUM,
    MAX_LENGTH_M,
    TRACE_COLUMNS,
    Scene,
    ServoRunConfig,
    ServoTrace,
    make_box_scene,
    run_servo,
    write_csv,
)


def _axis_rotation(axis: int, angle) -> np.ndarray:
    """Rotation by `angle` (rad) about coordinate axis `axis` (0 x, 1 y, 2 z)."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    R = np.eye(3)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


def camera_pose_looking_at(position, target_point) -> Pose:
    """Camera pose at `position` with the optical axis through `target_point`
    and the image x axis perpendicular to +y."""
    p = np.asarray(position, dtype=float)
    z = np.asarray(target_point, dtype=float) - p
    z /= np.linalg.norm(z)
    x = np.cross((0.0, 1.0, 0.0), z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross((1.0, 0.0, 0.0), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(np.stack([x, y, z], axis=1), p)


def sample_offset_pose(
    rng: np.random.Generator,
    translation_band_m: tuple[float, float],
    rotation_bounds_deg,
) -> Pose:
    """Random perturbation: direction uniform on the sphere, magnitude uniform
    in the band (0 <= low <= high <= MAX_LENGTH_M), per-axis rotation angles
    uniform within their bounds."""
    low, high = translation_band_m
    if not 0 <= low <= high <= MAX_LENGTH_M:  # NaN fails too
        raise ValueError(f"translation_band_m must be 0 <= low <= high <= {MAX_LENGTH_M:g} m")
    if len(rotation_bounds_deg) != 3:
        raise ValueError("rotation bounds need one angle per axis")
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction) + 1e-300
    magnitude = rng.uniform(low, high)
    angles = np.deg2rad([rng.uniform(-b, b) for b in rotation_bounds_deg])
    Rx, Ry, Rz = map(_axis_rotation, range(3), angles)
    return Pose(Rx @ Ry @ Rz, magnitude * direction)


def _run_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _seeded_run_config(base: ServoRunConfig, *seed_parts) -> ServoRunConfig:
    return replace(
        base,
        detector=replace(base.detector, seed=_run_seed(*seed_parts, 1)),
        ransac=replace(base.ransac, seed=_run_seed(*seed_parts, 2)),
    )


# ---------------------------------------------------------------------------
# Accuracy grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyRecord:
    scene_index: int
    goal_index: int
    start_index: int
    status: str
    cycles: int
    avg1: float  # mean px error over all final inliers
    avg2: float  # mean px error over ground-truth-verified final pairs


def _final_errors(trace: ServoTrace) -> tuple[float, float]:
    rec = trace.records[-1]
    if rec.pair_errors is None or rec.pair_errors.size == 0:
        return float("nan"), float("nan")
    avg1 = float(np.mean(rec.pair_errors))
    if rec.pair_id_match is None or not np.any(rec.pair_id_match):
        return avg1, float("nan")
    return avg1, float(np.mean(rec.pair_errors[rec.pair_id_match]))


def run_accuracy_suite(
    scenes: list[Scene],
    goal_poses: list[Pose],
    start_offsets: list[Pose],
    base_cfg: ServoRunConfig,
    seed: int = 0,
):
    """Run every (scene, goal, start) combination and report AVG1/AVG2;
    returns (records, traces) in run order.

    AVG2 verification uses simulator landmark ids: a final pair counts only
    when the matched current and target keypoints come from the same
    landmark. Non-converged runs keep their status and are excluded from
    converged-only aggregates.
    """
    records = []
    traces = []
    for si, scene in enumerate(scenes):
        for gi, goal in enumerate(goal_poses):
            for ti, offset in enumerate(start_offsets):
                cfg = _seeded_run_config(base_cfg, seed, si, gi, ti)
                cfg = replace(cfg, target_pose=goal, initial_pose=compose(goal, offset))
                trace = run_servo(scene, cfg)
                avg1, avg2 = _final_errors(trace)
                records.append(
                    AccuracyRecord(si, gi, ti, trace.status, len(trace), avg1, avg2)
                )
                traces.append(trace)
    return records, traces


def aggregate_accuracy(records) -> dict:
    """Converged-only means of AVG1/AVG2 plus run counts."""
    conv = [r for r in records if r.status == "Converged"]
    avg1 = [r.avg1 for r in conv if np.isfinite(r.avg1)]
    avg2 = [r.avg2 for r in conv if np.isfinite(r.avg2)]
    return {
        "runs": len(records),
        "converged": len(conv),
        "mean_avg1_px": float(np.mean(avg1)) if avg1 else float("nan"),
        "mean_avg2_px": float(np.mean(avg2)) if avg2 else float("nan"),
    }


# ---------------------------------------------------------------------------
# Batched success-ratio sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchSpec:
    bands_cm: tuple  # ((lo, hi), ...) translation distance bands
    rotation_bounds_deg: tuple  # per-axis rotation bounds
    trials: int = 8
    clutter: bool = True

    def __post_init__(self):
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError("trials must be an integer >= 1")
        prev_hi, limit = 0.0, 100.0 * MAX_LENGTH_M
        for lo, hi in self.bands_cm:
            if not prev_hi <= lo < hi <= limit:  # NaN fails too
                raise ConfigError(f"bands must be increasing, disjoint and at most {limit:g} cm")
            prev_hi = hi
        if len(self.rotation_bounds_deg) != 3:
            raise ConfigError("rotation_bounds_deg needs one bound per axis")


@dataclass(frozen=True)
class BatchResult:
    band_cm: tuple
    clutter: bool
    trials: int
    converged: int
    statuses: tuple

    @property
    def success_ratio(self) -> float:
        return self.converged / self.trials


def _batch_trial(scene, base_cfg, spec, band_idx, trial, seed):
    rng = np.random.default_rng([seed, band_idx, trial])
    lo, hi = spec.bands_cm[band_idx]
    offset = sample_offset_pose(rng, (lo / 100.0, hi / 100.0), spec.rotation_bounds_deg)
    cfg = _seeded_run_config(base_cfg, seed, band_idx, trial)
    cfg = replace(cfg, initial_pose=compose(base_cfg.target_pose, offset))
    return run_servo(scene, cfg)


def run_batch_suite(
    spec: BatchSpec,
    scene: Scene,
    base_cfg: ServoRunConfig,
    seed: int = 0,
):
    """Per band: fraction of trials that converge below the success threshold.

    Each trial is seeded from (seed, band, trial) alone; trials run in
    (band, trial) order. Returns (results, traces), traces in that order.
    """
    work_scene = scene if spec.clutter else scene.without_clutter()
    traces = [
        _batch_trial(work_scene, base_cfg, spec, bi, t, seed)
        for bi in range(len(spec.bands_cm))
        for t in range(spec.trials)
    ]

    results = []
    for bi, band in enumerate(spec.bands_cm):
        batch = traces[bi * spec.trials : (bi + 1) * spec.trials]
        statuses = tuple(tr.status for tr in batch)
        results.append(
            BatchResult(
                band_cm=tuple(band),
                clutter=spec.clutter,
                trials=spec.trials,
                converged=sum(s == "Converged" for s in statuses),
                statuses=statuses,
            )
        )
    return results, traces


# ---------------------------------------------------------------------------
# File outputs
# ---------------------------------------------------------------------------


_TRACE = dict(TRACE_COLUMNS)
_TWIST_PROFILE = [(name, _TRACE[name]) for name in ("cycle", "vx", "vy", "vz", "wx", "wy", "wz")]
_ERROR_PROFILE = [
    ("cycle", _TRACE["cycle"]),
    ("mean_error_px", _TRACE["mean_error_px"]),
    ("correspondence_count", _TRACE["n_correspondences"]),
    ("tracking", _TRACE["tracking"]),
]
_ACCURACY_COLUMNS = [
    ("scene", lambda r: str(r.scene_index)),
    ("goal", lambda r: str(r.goal_index)),
    ("start", lambda r: str(r.start_index)),
    ("status", lambda r: r.status),
    ("cycles", lambda r: str(r.cycles)),
    ("avg1_px", lambda r: _NUM % r.avg1),
    ("avg2_px", lambda r: _NUM % r.avg2),
]
_BATCH_COLUMNS = [
    ("band_lo_cm", lambda r: _NUM % r.band_cm[0]),
    ("band_hi_cm", lambda r: _NUM % r.band_cm[1]),
    ("clutter", lambda r: "1" if r.clutter else "0"),
    ("trials", lambda r: str(r.trials)),
    ("converged", lambda r: str(r.converged)),
    ("max_cycles", lambda r: str(r.statuses.count("MaxCycles"))),
    ("tracking_lost", lambda r: str(r.statuses.count("TrackingLost"))),
    ("insufficient_features", lambda r: str(r.statuses.count("InsufficientFeatures"))),
    ("success_ratio", lambda r: _NUM % r.success_ratio),
]


def export_profiles(trace: ServoTrace, twist_path, errors_path) -> None:
    """Two per-cycle CSVs: twist components, and (mean error, correspondence
    count, tracking flag). Each column is the same cycle's trace.csv column."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    write_csv(twist_path, "featservo_twist_profile_v1", _TWIST_PROFILE, trace.records)
    write_csv(errors_path, "featservo_error_profile_v1", _ERROR_PROFILE, trace.records)


def write_accuracy_csv(records, path) -> None:
    write_csv(path, "featservo_accuracy_v1", _ACCURACY_COLUMNS, records)


def write_batch_csv(results, path) -> None:
    write_csv(path, "featservo_batch_v2", _BATCH_COLUMNS, results)


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = "featservo_config_v1"

_DEFAULT_CONFIG = {
    "schema": CONFIG_SCHEMA,
    "seed": 0,
    "camera": {"fx": 600.0, "fy": 600.0, "cx": 160.0, "cy": 120.0, "width": 320, "height": 240},
    "scene": {
        "n_object": 120,
        "n_clutter": 100,
        "box_size": 0.12,
        "clutter_shell": [0.15, 0.30],
        "view_cone_deg": 85.0,
        "descriptor_dim": 256,
    },
    "detector": {
        "descriptor_noise_sigma": 0.02,
        "detection_dropout": 0.0,
        "pixel_noise_sigma": 0.3,
    },
    "control": {"gain": 0.5, "svd_tolerance": 1e-10, "max_twist": None},
    "ransac": {"inlier_threshold": 2.0, "max_iterations": 1000, "confidence": 0.999},
    "servo": {
        "dt": 0.05,
        "tracking_threshold": 10.0,
        "success_threshold": 2.0,
        "max_cycles": 400,
        "top_k": 500,
    },
    "run": {"camera_distance": 0.40, "offset_cm": 2.0, "rotation_deg": [5.0, 5.0, 3.0]},
    "accuracy": {
        "goals": 2,
        "starts": 3,
        "scenes": 3,
        "offset_cm": [2.0, 4.0],
        "rotation_deg": [6.0, 6.0, 4.0],
    },
    "batch": {
        "bands_cm": [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [4.0, 5.0], [5.0, 6.0]],
        "rotation_deg": [8.0, 10.0, 8.0],
        "trials": 8,
        "clutter": "both",
    },
}


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a table")
            out[key] = _merge_strict(defaults[key], value, where)
        else:
            out[key] = value
    return out


def _finite_float(text: str) -> float:
    """json's float and NaN/Infinity hook: a number that is not finite is an error."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} is not finite")
    return value


def _float_sized_int(text: str) -> int:
    """json's integer hook: an integer that no float can hold is an error."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):
        raise ConfigError(f"integer of {len(text)} digits does not fit a float") from None
    return value


def load_config(path, seed: int | None = None) -> dict:
    """Parse the experiment config and build what the commands build from
    it; unknown keys, non-finite numbers (NaN, Infinity, 1e400), integers
    too large for a float, and any value that a builder rejects are errors.

    `seed`, when given, replaces the config seed before validation.
    """
    with open(path) as f:
        try:
            user = json.load(
                f,
                parse_float=_finite_float,
                parse_int=_float_sized_int,
                parse_constant=_finite_float,
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    if user.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {user.get('schema')!r}")
    # merge into a deep copy: a caller that edits its config's lists must not
    # edit the defaults that every later load_config starts from
    cfg = _merge_strict(json.loads(json.dumps(_DEFAULT_CONFIG)), user)
    if seed is not None:
        cfg["seed"] = seed
    _reject_booleans(cfg)
    if type(cfg["seed"]) is not int:
        raise ConfigError("seed must be an integer")
    if cfg["batch"]["clutter"] not in (True, False, "both"):
        raise ConfigError("batch.clutter must be true, false, or \"both\"")
    # no builder takes the accuracy grid's counts
    for key in ("starts", "scenes"):
        if type(cfg["accuracy"][key]) is not int or cfg["accuracy"][key] < 1:
            raise ConfigError(f"accuracy.{key} must be an integer >= 1")
    # build what run, accuracy and batch build, so check rejects what they
    # would: each builder checks its own arguments
    try:
        build_scene(cfg)
        build_run_config(cfg)
        # the offsets batch's trials draw, from its rotation bounds
        bounds = batch_specs(cfg)[0].rotation_bounds_deg
        sample_offset_pose(np.random.default_rng(0), (0.0, 0.0), bounds)
        default_goal_poses(cfg["run"]["camera_distance"], cfg["accuracy"]["goals"])
        default_start_offsets(cfg)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _reject_booleans(value, where: str = "") -> None:
    """`true` and `false` are not numbers, and no config value but
    batch.clutter takes one, so a bool anywhere else is an error."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, not {json.dumps(value)}")
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{where}.{key}" if where else key
            if path != "batch.clutter":
                _reject_booleans(item, path)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_booleans(item, f"{where}[{i}]")


def batch_specs(cfg: dict) -> list[BatchSpec]:
    """One spec per requested clutter mode, clutter-on first."""
    mode = cfg["batch"]["clutter"]
    modes = [True, False] if mode == "both" else [bool(mode)]
    return [
        BatchSpec(
            bands_cm=tuple(tuple(b) for b in cfg["batch"]["bands_cm"]),
            rotation_bounds_deg=tuple(cfg["batch"]["rotation_deg"]),
            trials=cfg["batch"]["trials"],
            clutter=m,
        )
        for m in modes
    ]


def build_scene(cfg: dict, seed_offset: int = 0) -> Scene:
    scene = {**cfg["scene"], "clutter_shell": tuple(cfg["scene"]["clutter_shell"])}
    return make_box_scene(seed=cfg["seed"] + seed_offset, **scene)


def build_run_config(cfg: dict) -> ServoRunConfig:
    """The run settings: each config table's keys are the keyword arguments
    of the object built from it."""
    intrinsics = CameraIntrinsics(**cfg["camera"])
    run = cfg["run"]
    target = default_goal_poses(run["camera_distance"], 1)[0]
    rng = np.random.default_rng([cfg["seed"], 0x0FF])
    offset = sample_offset_pose(rng, (0.0, run["offset_cm"] / 100.0), run["rotation_deg"])
    ctrl = cfg["control"]
    if ctrl["max_twist"] is not None:
        ctrl = {**ctrl, "max_twist": tuple(ctrl["max_twist"])}
    return ServoRunConfig(
        target_pose=target,
        initial_pose=compose(target, offset),
        intrinsics=intrinsics,
        control=ControlConfig(**ctrl),
        ransac=RansacConfig(**cfg["ransac"], seed=cfg["seed"]),
        detector=SyntheticDetectorConfig(**cfg["detector"], seed=cfg["seed"]),
        **cfg["servo"],
    )


def default_goal_poses(camera_distance: float, count: int = 2) -> list[Pose]:
    """Goal cameras aimed at the object: straight-on, then slightly tilted.
    The camera distance is in m, in (0, `MAX_LENGTH_M`]."""
    if not 0 < camera_distance <= MAX_LENGTH_M:  # NaN fails too
        raise ValueError(f"camera_distance must be in (0, {MAX_LENGTH_M:g}] m")
    tilts = [(8.0, 0.05), (-6.0, -0.04)]
    if type(count) is not int or count not in range(1, len(tilts) + 2):
        raise ValueError(f"goals must be an integer from 1 to {len(tilts) + 1}")
    goals = [Pose(np.eye(3), (0.0, 0.0, -camera_distance))]
    for deg, lateral in tilts[: count - 1]:
        d = camera_distance * 0.95
        pos = np.array([lateral, 0.0, -np.sqrt(max(d * d - lateral * lateral, 1e-6))])
        goals.append(camera_pose_looking_at(pos, (0.0, 0.0, 0.0)))
    return goals


def default_start_offsets(cfg: dict) -> list[Pose]:
    acc = cfg["accuracy"]
    lo, hi = acc["offset_cm"]
    rng = np.random.default_rng([cfg["seed"], 0xACC])
    return [
        sample_offset_pose(rng, (lo / 100.0, hi / 100.0), acc["rotation_deg"])
        for _ in range(acc["starts"])
    ]
