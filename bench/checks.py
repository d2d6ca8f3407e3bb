"""Output checks and determinism digests for benchmark jobs.

The checks read what a user would read: `trace.csv`, `summary.json` and
`batch.csv`, plus the CycleRecords that `ServoLoop.step` returns. Each check
returns a list of problems; an empty list means the job's outputs are
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import STATUSES

TWIST_COLUMNS = ("vx", "vy", "vz", "wx", "wy", "wz")
POSE_COLUMNS = tuple(f"pose_{i}" for i in range(12))


@dataclass(frozen=True)
class Trial:
    status: str  # exact, or "Converged"/"NotConverged" when only observed
    cycles: int
    avg2_px: float  # mean final error over ground-truth-verified pairs, NaN if none


def split_trials(records) -> list[list]:
    """Group the CycleRecords of consecutive servo runs; each run starts at cycle 1."""
    trials = []
    for rec in records:
        if rec.cycle == 1 or not trials:
            trials.append([])
        trials[-1].append(rec)
    return trials


def final_avg2(records) -> float:
    rec = records[-1]
    if rec.pair_errors is None or rec.pair_id_match is None or not np.any(rec.pair_id_match):
        return math.nan
    return float(np.mean(rec.pair_errors[rec.pair_id_match]))


def observed_converged(records, success_threshold: float) -> bool:
    """Converged, as documented: the final mean inlier error is below the threshold."""
    err = records[-1].mean_error
    return math.isfinite(err) and err < success_threshold


def read_csv(path: Path):
    """(header, rows) of a featservo CSV; '#' lines are schema comments."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_status(status: str, final_error: float, success_threshold: float) -> list[str]:
    if status not in STATUSES:
        return [f"unknown status {status!r}"]
    if status == "Converged" and not (final_error < success_threshold):
        return [f"Converged with final error {final_error} >= {success_threshold}"]
    return []


def check_records(records, max_cycles: int) -> list[str]:
    """Finite twists and poses, cycle budget, and the tracked-subset invariant."""
    problems = []
    if len(records) > max_cycles:
        problems.append(f"{len(records)} cycles > max_cycles {max_cycles}")
    for i, rec in enumerate(records):
        if rec.cycle != i + 1:
            problems.append(f"cycle {rec.cycle} at position {i + 1}")
            break
    for rec in records:
        if not (np.all(np.isfinite(rec.twist)) and np.all(np.isfinite(rec.pose.rotation))
                and np.all(np.isfinite(rec.pose.translation))):
            problems.append(f"non-finite twist or pose at cycle {rec.cycle}")
            break
    for prev, rec in zip(records, records[1:]):
        if rec.tracking and not set(rec.inlier_target_ids) <= set(prev.inlier_target_ids):
            problems.append(f"tracked cycle {rec.cycle} left the previous inlier set")
            break
    return problems


def check_run_outputs(out: Path, records, success_threshold: float, max_cycles: int):
    """Checks for one servo run written as trace.csv + summary.json.

    Returns (problems, Trial)."""
    problems = []
    try:
        with open(out / "summary.json") as f:
            summary = json.load(f)
        header, rows = read_csv(out / "trace.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    status, cycles = summary.get("status"), summary.get("cycles")
    final_error = summary.get("final_mean_error_px", math.nan)
    problems += check_status(status, final_error, success_threshold)
    if len(rows) != cycles:
        problems.append(f"trace.csv has {len(rows)} rows for {cycles} cycles")
    col = {name: i for i, name in enumerate(header)}
    missing = [c for c in ("cycle", "tracking", "inlier_target_ids", *TWIST_COLUMNS, *POSE_COLUMNS)
               if c not in col]
    if missing:
        return problems + [f"trace.csv lacks columns {missing}"], None
    if [int(r[col["cycle"]]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("trace.csv cycle column is not 1..n")
    numeric = np.array(
        [[float(r[col[c]]) for c in TWIST_COLUMNS + POSE_COLUMNS] for r in rows]
    ).reshape(len(rows), len(TWIST_COLUMNS) + len(POSE_COLUMNS))
    if not np.all(np.isfinite(numeric)) or not np.all(np.isfinite(summary.get("final_pose", [math.nan]))):
        problems.append("non-finite twist or pose in trace.csv/summary.json")
    ids = [set(filter(None, r[col["inlier_target_ids"]].split(";"))) for r in rows]
    for i in range(1, len(rows)):
        if rows[i][col["tracking"]] == "1" and not ids[i] <= ids[i - 1]:
            problems.append(f"tracked row {i + 1} left the previous inlier set")
            break
    if len(records) != cycles:
        problems.append(f"observed {len(records)} cycles, summary says {cycles}")
    problems += check_records(records, max_cycles)
    return problems, Trial(status, int(cycles), final_avg2(records) if records else math.nan)


def check_batch_outputs(out: Path, job, trials_records, statuses=None):
    """Checks for one `featservo batch`: batch.csv against the observed trials.

    `statuses` are the exact per-trial statuses when a traced run collected
    them; otherwise convergence is observed from each trial's last cycle.
    Returns (problems, [Trial])."""
    problems = []
    per_group = job.config["batch"]["trials"]
    if len(trials_records) != job.trials:
        return [f"observed {len(trials_records)} trials, expected {job.trials}"], []
    trials = []
    for k, records in enumerate(trials_records):
        problems += check_records(records, job.max_cycles)
        conv = observed_converged(records, job.success_threshold)
        if statuses is not None:
            status = statuses[k]
            problems += check_status(status, records[-1].mean_error, job.success_threshold)
            if (status == "Converged") != conv:
                problems.append(f"trial {k}: status {status} but observed converged={conv}")
        else:
            status = "Converged" if conv else "NotConverged"
        trials.append(Trial(status, len(records), final_avg2(records)))
    try:
        header, rows = read_csv(out / "batch.csv")
    except OSError as exc:
        return problems + [f"unreadable batch.csv: {exc}"], trials
    col = {name: i for i, name in enumerate(header)}
    if len(rows) != len(job.groups):
        return problems + [f"batch.csv has {len(rows)} rows for {len(job.groups)} groups"], trials
    for g, (row, (clutter, lo, hi)) in enumerate(zip(rows, job.groups)):
        expect = sum(t.status == "Converged" for t in trials[g * per_group:(g + 1) * per_group])
        got = (int(row[col["clutter"]]), float(row[col["band_lo_cm"]]), float(row[col["band_hi_cm"]]),
               int(row[col["trials"]]), int(row[col["converged"]]))
        if got != (int(clutter), lo, hi, per_group, expect):
            problems.append(f"batch.csv row {g + 1} {got} != expected {(int(clutter), lo, hi, per_group, expect)}")
    return problems, trials


def transfer_errors(H: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Symmetric transfer error in pixels, computed independently of featservo."""
    def apply(M, pts):
        q = np.c_[pts, np.ones(len(pts))] @ M.T
        return q[:, :2] / q[:, 2:3]

    fwd = apply(H, src) - dst
    bwd = apply(np.linalg.inv(H), dst) - src
    return np.sqrt(np.sum(fwd**2, axis=1) + np.sum(bwd**2, axis=1))


def check_inliers(C, cfg, inliers) -> list[str]:
    """Every pair RANSAC returns is within the threshold under its model."""
    idx = inliers.indices
    err = transfer_errors(inliers.model, C.current_pixels[idx], C.target_pixels[idx])
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= cfg.inlier_threshold + 1e-9:
        return [f"RANSAC returned a pair at {worst:.6g} px > {cfg.inlier_threshold} px"]
    return []


def digest(out: Path, names) -> str:
    """sha256 over the named output files that exist, in order."""
    h = hashlib.sha256()
    for name in names:
        path = out / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
