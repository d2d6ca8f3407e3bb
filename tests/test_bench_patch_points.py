"""The names bench/harness.py wraps are module attributes where it looks
them up, so a renamed or inlined stage fails here and not only in the
benchmark's self-test; no benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

import featservo.cli as cli
import featservo.experiment as experiment
import featservo.matching as matching
import featservo.simulate as simulate
from featservo.simulate import ServoLoop, ServoRunConfig, make_box_scene

_BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def harness():
    # the harness imports its sibling modules by their bare names, and its
    # dataclasses look their module up in sys.modules
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_harness", _BENCH / "harness.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
    return module


def test_every_stage_is_a_name_of_simulate_from_its_module(harness):
    names = vars(simulate)
    for _, module, attr in harness.STAGES:
        # the cProfile cross-check finds a stage by its defining module
        assert names[attr].__module__ == f"featservo.{module}", attr
    for attr in ("render_target", "write_trace_csv", "write_trace_summary", "run_servo"):
        assert attr in names, attr
    assert "step" in vars(ServoLoop)


def test_cli_experiment_and_matching_names():
    for attr in ("build_scene", "export_profiles", "run_batch_suite", "write_batch_csv", "main",
                 "write_trace_csv", "write_trace_summary", "run_servo"):
        assert attr in vars(cli), attr
    assert "run_servo" in vars(experiment)
    for attr in ("fit_homography", "symmetric_transfer_error"):
        assert attr in vars(matching), attr


def test_the_harness_tracer_sees_every_stage_of_a_locking_step(harness, target_pose):
    # at the goal the mean error is 0, below any threshold, so cycle 1 locks;
    # its step builds L* = L(s*, Z*) on the first pseudo-inverse miss, or
    # L(s, Z) with the current interaction
    for use_current_interaction in (False, True):
        cfg = ServoRunConfig(target_pose=target_pose, initial_pose=target_pose,
                             use_current_interaction=use_current_interaction)
        loop = ServoLoop(make_box_scene(seed=1).without_clutter(), cfg)
        tracer = harness.Tracer()
        try:
            harness.install_tracer(tracer, harness.RunState(), harness.LayerCounts())
            loop.step()
        finally:
            tracer.restore()
        assert loop.locked is not None
        for name, _, _ in harness.STAGES:
            assert tracer.indices(name).size == 1, (use_current_interaction, name)
        assert simulate.tracking_update is matching.tracking_update  # restored


def test_a_locking_step_reaches_simulate_tracking_update(target_pose, monkeypatch):
    calls, original = [], simulate.tracking_update
    monkeypatch.setattr(simulate, "tracking_update",
                        lambda *args: calls.append(original(*args)) or calls[-1])
    loop = ServoLoop(make_box_scene(seed=1).without_clutter(),
                     ServoRunConfig(target_pose=target_pose, initial_pose=target_pose))
    loop.step()
    assert len(calls) == 1 and loop.locked is calls[0]
