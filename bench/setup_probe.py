"""Time featservo's set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py <src dir> <run|batch|planar> <config.json>

Set-up is everything a run does before its first cycle: the import of
featservo, the config load, the scene build and the target render. numpy
is imported before the clock starts. Its import is not featservo's work,
and it is the slowest and noisiest part of a fresh interpreter's start.
"""

import json
import sys
import time

import numpy  # noqa: F401

t0 = time.perf_counter()
src, kind, config_path = sys.argv[1:4]
sys.path.insert(0, src)

import featservo.experiment as experiment  # noqa: E402
import featservo.simulate as simulate  # noqa: E402

if kind == "planar":
    from workloads import planar_scene_and_config

    with open(config_path) as f:
        scene, cfg = planar_scene_and_config(json.load(f))
else:
    config = experiment.load_config(config_path)
    scene = experiment.build_scene(config)
    cfg = experiment.build_run_config(config)
simulate.render_target(scene, cfg.target_pose, cfg.intrinsics)
print(time.perf_counter() - t0)
