"""End-to-end acceptance gate.

Each test prints one "ACCEPTANCE n: PASS/FAIL" line (run pytest with -s to
see them) and enforces the pinned tolerance, including runtime budgets.
Heavy suites run once in module-scoped fixtures; their traces also feed the
tracking-invariant check.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from featservo.control import ControlConfig, stack_interaction
from featservo.features import SyntheticDetectorConfig
from featservo.geometry import Pose, compose, pose_error
from featservo.matching import CorrespondenceSet, RansacConfig, ransac_inliers
from featservo.experiment import (
    BatchSpec,
    aggregate_accuracy,
    default_goal_poses,
    run_accuracy_suite,
    run_batch_suite,
    sample_offset_pose,
)
from featservo.simulate import (
    ServoRunConfig,
    make_box_scene,
    make_planar_scene,
    run_servo,
    write_trace_csv,
)

TARGET = Pose(np.eye(3), (0.0, 0.0, -0.4))
NOISY = SyntheticDetectorConfig(descriptor_noise_sigma=0.02, pixel_noise_sigma=0.3)
NOISELESS = SyntheticDetectorConfig()


def report(num: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def seeded_cfg(base: ServoRunConfig, seed: int, offset: Pose) -> ServoRunConfig:
    return replace(
        base,
        initial_pose=compose(base.target_pose, offset),
        detector=replace(base.detector, seed=seed),
        ransac=replace(base.ransac, seed=seed),
    )


@pytest.fixture(scope="module")
def decrease_runs():
    """Noiseless planar-scene runs with the true current-feature Jacobian."""
    start = time.perf_counter()
    traces = []
    for seed in range(20):
        rng = np.random.default_rng([seed, 0xE2])
        offset = sample_offset_pose(rng, (0.005, 0.012), (2.0, 2.0, 1.0))
        cfg = seeded_cfg(
            ServoRunConfig(
                target_pose=TARGET,
                initial_pose=TARGET,
                control=ControlConfig(gain=0.5),
                detector=NOISELESS,
                dt=0.05,
                success_threshold=1e-9,
                max_cycles=50,
                use_current_interaction=True,
            ),
            seed,
            offset,
        )
        traces.append(run_servo(make_planar_scene(seed=seed), cfg))
    return traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def batch_outcome():
    """Success-ratio sweep with clutter and default sensing noise."""
    scene = make_box_scene(seed=0)
    spec = BatchSpec(
        bands_cm=((0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0), (5.0, 6.0)),
        rotation_bounds_deg=(8.0, 10.0, 8.0),
        trials=8,
        clutter=True,
    )
    base = ServoRunConfig(target_pose=TARGET, initial_pose=TARGET, detector=NOISY)
    start = time.perf_counter()
    results, traces = run_batch_suite(spec, scene, base, seed=0)
    return results, traces, time.perf_counter() - start


def _accuracy_grid(detector: SyntheticDetectorConfig, success_threshold: float,
                   max_cycles: int):
    scenes = [make_box_scene(seed=s) for s in range(3)]
    goals = default_goal_poses(0.40, 2)
    rng = np.random.default_rng(0xACC)
    starts = [sample_offset_pose(rng, (0.01, 0.02), (6.0, 6.0, 4.0)) for _ in range(3)]
    base = ServoRunConfig(
        target_pose=TARGET,
        initial_pose=TARGET,
        detector=detector,
        success_threshold=success_threshold,
        max_cycles=max_cycles,
    )
    start = time.perf_counter()
    records, traces = run_accuracy_suite(scenes, goals, starts, base, seed=0)
    return records, traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def accuracy_noisy():
    return _accuracy_grid(NOISY, success_threshold=0.75, max_cycles=600)


@pytest.fixture(scope="module")
def accuracy_noiseless():
    return _accuracy_grid(NOISELESS, success_threshold=0.3, max_cycles=400)


@pytest.fixture(scope="module")
def pose_truth_runs():
    """Noiseless clutter-free runs driven well below the pixel noise floor."""
    scene = make_box_scene(seed=0).without_clutter()
    base = ServoRunConfig(
        target_pose=TARGET,
        initial_pose=TARGET,
        detector=NOISELESS,
        success_threshold=0.25,
    )
    traces = []
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng([seed, 0x6])
        offset = sample_offset_pose(rng, (0.003, 0.01), (3.0, 3.0, 2.0))
        traces.append(run_servo(scene, seeded_cfg(base, seed, offset)))
    return traces, time.perf_counter() - start


def test_criterion_1_interaction_matrix_oracle():
    rng = np.random.default_rng(1)
    n, delta = 1000, 1e-5
    start = time.perf_counter()
    x, y, Z = (rng.uniform(0.1, 5.0, size=n) for _ in range(3))
    p = np.column_stack([x * Z, y * Z, Z])
    s0 = p[:, :2] / p[:, 2:]  # baseline from the same 3D point as the FD
    L = stack_interaction(s0.reshape(-1), Z).reshape(n, 2, 6)
    worst = 0.0
    for i in range(6):
        v, w = np.zeros(3), np.zeros(3)
        (v if i < 3 else w)[i % 3] = 1.0
        p2 = p + delta * (-(v + np.cross(w, p)))
        fd = (p2[:, :2] / p2[:, 2:] - s0) / delta
        rel = np.abs(fd - L[:, :, i]) / np.maximum(np.abs(L[:, :, i]), 1e-12)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-3 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_exponential_decrease(decrease_runs):
    traces, elapsed = decrease_runs
    non_strict = 0
    worst_slope_err = 0.0
    for trace in traces:
        norms = np.array([r.error_norm for r in trace.records])
        assert len(norms) == 50 and np.all(np.isfinite(norms))
        non_strict += int(np.any(np.diff(norms) >= 0))
        t = np.arange(len(norms)) * 0.05
        slope = np.polyfit(t, np.log(norms), 1)[0]
        worst_slope_err = max(worst_slope_err, abs(slope - (-0.5)) / 0.5)
    ok = non_strict == 0 and worst_slope_err <= 0.10 and elapsed < 5.0
    report(2, ok, f"non-strict {non_strict}/20, worst slope err "
                  f"{worst_slope_err:.1%}, {elapsed:.1f}s")


def test_criterion_3_batch_convergence(batch_outcome):
    results, _, elapsed = batch_outcome
    ratios = {r.band_cm: r.success_ratio for r in results}
    table = " ".join(f"{hi:g}cm={ratios[(lo, hi)]:.2f}" for lo, hi in sorted(ratios))
    ok = (
        ratios[(0.0, 1.0)] == 1.0
        and ratios[(1.0, 2.0)] == 1.0
        and elapsed < 120.0
    )
    report(3, ok, f"{table}, {elapsed:.0f}s")


def test_criterion_4_subpixel_accuracy(accuracy_noisy, accuracy_noiseless):
    noisy_records, _, t_noisy = accuracy_noisy
    clean_records, _, t_clean = accuracy_noiseless
    noisy = aggregate_accuracy(noisy_records)
    clean = aggregate_accuracy(clean_records)
    ok = (
        noisy["mean_avg2_px"] <= 2.0
        and clean["mean_avg2_px"] <= 0.5
        and t_noisy < 120.0
        and t_clean < 120.0
    )
    report(
        4,
        ok,
        f"noisy AVG2 {noisy['mean_avg2_px']:.3f}px "
        f"({noisy['converged']}/{noisy['runs']} conv, {t_noisy:.0f}s), "
        f"noiseless AVG2 {clean['mean_avg2_px']:.3f}px "
        f"({clean['converged']}/{clean['runs']} conv, {t_clean:.0f}s)",
    )


def test_criterion_5_ransac_recovery():
    n, n_out = 40, 12
    H = np.array([[1.02, 0.01, 3.0], [-0.008, 0.99, -2.0], [1e-5, -2e-5, 1.0]])
    truth = frozenset(range(n - n_out))
    hits = 0
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng([seed, 0xA5])
        src = rng.uniform(10.0, 300.0, size=(n, 2))
        ones = np.column_stack([src, np.ones(n)]) @ H.T
        dst = ones[:, :2] / ones[:, 2:]
        dst[: n - n_out] += rng.normal(0.0, 0.1, size=(n - n_out, 2))
        angles = rng.uniform(0.0, 2 * np.pi, size=n_out)
        radii = rng.uniform(20.0, 60.0, size=n_out)
        dst[n - n_out:] += radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        C = CorrespondenceSet(
            np.arange(n), np.arange(n), np.zeros(n), src, dst
        )
        R = ransac_inliers(C, RansacConfig(inlier_threshold=2.0, confidence=0.999,
                                           seed=seed))
        hits += frozenset(int(i) for i in R.indices) == truth
    elapsed = time.perf_counter() - start
    report(5, hits >= 95 and elapsed < 5.0, f"{hits}/100 exact, {elapsed:.1f}s")


def test_criterion_6_tracking_subset_invariant(
    decrease_runs, batch_outcome, accuracy_noisy, accuracy_noiseless, pose_truth_runs
):
    all_traces = (
        decrease_runs[0]
        + batch_outcome[1]
        + accuracy_noisy[1]
        + accuracy_noiseless[1]
        + pose_truth_runs[0]
    )
    violations = 0
    tracked_cycles = 0
    for trace in all_traces:
        for prev, rec in zip(trace.records, trace.records[1:]):
            if rec.tracking:
                tracked_cycles += 1
                violations += not (
                    set(rec.inlier_target_ids) <= set(prev.inlier_target_ids)
                )
    report(6, violations == 0 and tracked_cycles > 0,
           f"{violations} violations over {tracked_cycles} tracked cycles "
           f"in {len(all_traces)} runs")


def test_criterion_7_pose_ground_truth(pose_truth_runs):
    traces, elapsed = pose_truth_runs
    passed = 0
    worst_t, worst_r = 0.0, 0.0
    for trace in traces:
        t_err, r_err = pose_error(trace.final_pose, TARGET)
        r_deg = np.degrees(r_err)
        worst_t, worst_r = max(worst_t, t_err), max(worst_r, r_deg)
        passed += trace.status == "Converged" and t_err < 1e-3 and r_deg < 0.2
    report(7, passed == 20,
           f"{passed}/20, worst {worst_t * 1000:.2f}mm / {worst_r:.3f}deg, "
           f"{elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    scene = make_box_scene(seed=3)
    rng = np.random.default_rng(0xD8)
    offset = sample_offset_pose(rng, (0.01, 0.02), (5.0, 5.0, 3.0))
    base = ServoRunConfig(target_pose=TARGET, initial_pose=TARGET, detector=NOISY)
    cfg = seeded_cfg(base, 11, offset)
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"trace_{tag}.csv"
        write_trace_csv(run_servo(scene, cfg), path)
        blobs.append(path.read_bytes())
    report(8, blobs[0] == blobs[1], f"{len(blobs[0])} bytes each")
