"""The three benchmark workloads, generated from one workload seed.

Every job config is derived from (workload, seed, job index), so the same
seed gives the same inputs and the program sees only the generated
configs. A job is one user action: a `featservo run`, a script calling
`run_servo`, or a `featservo batch`.

- servo-clutter: `featservo run` on the default config, the box scene with
  clutter and a noisy detector. This is the traffic users run.
- planar-dense: `run_servo` on a planar scene with more landmarks than
  `top_k` and a noiseless detector, so each view is an exact homography,
  RANSAC stops after one hypothesis and the refit, matching and detection
  on 320 pairs carry the cost. No CLI path builds a planar scene.
- sweep-stress: `featservo batch` with clutter "both", offsets and rotations
  past the default bands. Part of the trials fail, so failure statuses,
  short trials and the RANSAC tail are exercised.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONFIG_SCHEMA = "featservo_config_v1"
SUCCESS_THRESHOLD = 2.0  # featservo's default servo.success_threshold
STATUSES = ("Converged", "MaxCycles", "TrackingLost", "InsufficientFeatures")

# servo-clutter
CLUTTER_RUNS = 16

# planar-dense: more landmarks than top_k, at the default camera distance.
# top_k is below featservo's 500 so that the quality jobs fit in one
# pass of a run. Start offsets are drawn from a narrow band,
# and the gain is raised, so runs are short and take similar cycle counts.
PLANAR_RUNS = 24
PLANAR_GAIN = 1.5
PLANAR_LANDMARKS = 400
PLANAR_TOP_K = 320
PLANAR_DISTANCE = 0.40
PLANAR_OFFSET_M = (0.015, 0.02)
PLANAR_ROTATION_DEG = (5.0, 5.0, 3.0)

# sweep-stress: each job is one `featservo batch` over both clutter modes.
# The raised gain, the tighter cycle budget and the RANSAC iteration cap keep
# each trial short, so a run holds enough trials for its success ratio to be
# steady across seeds. At the cap, near-failure cycles all run the same 50
# hypotheses and cost about the same, so the few percent of them that make
# the tail give a steady p99; at 100 they spread over 20-40 ms and p99,
# which fell inside that spread, moved with the seed.
STRESS_JOBS = 24
STRESS_BATCH = {
    "bands_cm": [[4.0, 8.0], [8.0, 16.0]],
    "rotation_deg": [20.0, 20.0, 20.0],
    "trials": 1,
    "clutter": "both",
}
STRESS_OVERRIDES = {
    "control": {"gain": 2.0},
    "servo": {"max_cycles": 60},
    "ransac": {"max_iterations": 50},
}


def derive_seed(workload: str, seed: int, job: int) -> int:
    """Config seed for one job, stable across platforms and Python versions."""
    digest = hashlib.sha256(f"{workload}:{seed}:{job}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass(frozen=True)
class Job:
    """One user action. `kind` is "run", "planar" or "batch"; `config` is
    the JSON config (run, batch) or the script parameters (planar)."""

    workload: str
    index: int
    kind: str
    config: dict
    trials: int
    success_threshold: float
    max_cycles: int
    groups: tuple = field(default=())  # batch: (clutter, band_lo, band_hi) per trial group

    def write_config(self, path: Path) -> None:
        with open(path, "w") as f:
            json.dump(self.config, f, indent=2, sort_keys=True)


def servo_clutter_job(seed: int, index: int, smoke: bool) -> Job:
    cfg = {"schema": CONFIG_SCHEMA, "seed": derive_seed("servo-clutter", seed, index)}
    max_cycles = 400  # featservo's default
    if smoke:
        max_cycles = 15
        cfg["servo"] = {"max_cycles": max_cycles}
    return Job("servo-clutter", index, "run", cfg, 1, SUCCESS_THRESHOLD, max_cycles)


def planar_dense_job(seed: int, index: int, smoke: bool) -> Job:
    params = {
        "seed": derive_seed("planar-dense", seed, index),
        "n_object": PLANAR_LANDMARKS,
        "camera_distance": PLANAR_DISTANCE,
        "offset_m": list(PLANAR_OFFSET_M),
        "rotation_deg": list(PLANAR_ROTATION_DEG),
        "gain": PLANAR_GAIN,
        "top_k": PLANAR_TOP_K,
        "max_cycles": 10 if smoke else 400,
    }
    return Job("planar-dense", index, "planar", params, 1, SUCCESS_THRESHOLD, params["max_cycles"])


def sweep_stress_job(seed: int, index: int, smoke: bool) -> Job:
    batch = dict(STRESS_BATCH)
    if smoke:
        batch["bands_cm"] = batch["bands_cm"][:1]
    cfg = {
        "schema": CONFIG_SCHEMA,
        "seed": derive_seed("sweep-stress", seed, index),
        "batch": batch,
        **{k: dict(v) for k, v in STRESS_OVERRIDES.items()},
    }
    modes = (True, False) if batch["clutter"] == "both" else (bool(batch["clutter"]),)
    groups = tuple(
        (clutter, float(lo), float(hi)) for clutter in modes for lo, hi in batch["bands_cm"]
    )
    return Job(
        "sweep-stress", index, "batch", cfg, len(groups) * batch["trials"],
        SUCCESS_THRESHOLD, cfg["servo"]["max_cycles"], groups,
    )


@dataclass(frozen=True)
class Workload:
    """`make(seed, index, smoke)` gives job `index`; the first `quality_jobs`
    jobs give the quality metrics, later ones only add timing samples."""

    make: object
    quality_jobs: int


WORKLOADS = {
    "servo-clutter": Workload(servo_clutter_job, CLUTTER_RUNS),
    "planar-dense": Workload(planar_dense_job, PLANAR_RUNS),
    "sweep-stress": Workload(sweep_stress_job, STRESS_JOBS),
}


# -- the planar user script ---------------------------------------------------


def planar_scene_and_config(params: dict):
    """Scene and ServoRunConfig for one planar-dense run."""
    from featservo.control import ControlConfig
    from featservo.experiment import sample_offset_pose
    from featservo.features import SyntheticDetectorConfig
    from featservo.geometry import Pose, compose
    from featservo.matching import RansacConfig
    from featservo.simulate import ServoRunConfig, make_planar_scene

    seed = params["seed"]
    scene = make_planar_scene(seed, n_object=params["n_object"])
    target = Pose(np.eye(3), (0.0, 0.0, -params["camera_distance"]))
    rng = np.random.default_rng([seed, 0x0FF])
    offset = sample_offset_pose(rng, tuple(params["offset_m"]), params["rotation_deg"])
    cfg = ServoRunConfig(
        target_pose=target,
        initial_pose=compose(target, offset),
        control=ControlConfig(gain=params["gain"]),
        detector=SyntheticDetectorConfig(seed=seed),
        ransac=RansacConfig(seed=seed),
        max_cycles=params["max_cycles"],
        top_k=params["top_k"],
    )
    return scene, cfg
