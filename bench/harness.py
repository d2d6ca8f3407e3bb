"""Run one workload in a closed loop, check every output and compute metrics.

One process, one thread: each job starts when the previous one has ended,
and batch trials run with the CLI's default of one thread.

A run makes PASSES passes over the same jobs, each taking about a
PASSES-th of `seconds`. The first pass runs the workload's quality jobs,
whose results are deterministic for a seed, then further jobs with their
own derived seeds until its time is up and it holds enough cycles for the
tail percentile. The second pass runs every job again; each must write
byte-identical outputs. A cycle's time is the faster of its two runs, and
so is a job's. On a shared machine the same work slows by 20% or more, and
now and then by three times, in spells of a second or more; the two runs
of a cycle are half a run apart, so both rarely fall in one spell. Set-up
probes run between jobs, spread evenly over the run.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import math
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import featservo.cli as cli
import featservo.experiment as experiment
import featservo.matching as matching
import featservo.simulate as simulate

from checks import (
    check_batch_outputs,
    check_inliers,
    check_run_outputs,
    digest,
    split_trials,
)
from tracer import Tracer
from workloads import STATUSES, WORKLOADS, planar_scene_and_config

TAIL_PERCENTILE = 99.0
MIN_BEYOND_TAIL = 10  # samples beyond the reported percentile
SETUP_PROBES = 12  # fresh-interpreter set-ups per untraced run
PROBE_ATTEMPTS = 3  # tries per set-up probe the host failed to start or finish
PROBE_RETRY_PAUSE_S = 1.0
PASSES = 2  # runs of every job; a cycle's time is its faster run
OVERHEAD_PAIRS = 5  # untraced/traced runs of job 0 for trace.overhead_pct
OVERHEAD_FLOOR_PCT = -10.0  # tracing only adds work: a lower reading means a broken comparison
DIGEST_FILES = {"run": ("trace.csv", "summary.json"), "planar": ("trace.csv", "summary.json"),
                "batch": ("batch.csv",)}
PROFILE_JOBS = 2  # servo-clutter jobs run under cProfile for the cross-check

# stages of ServoLoop.step, as (span name, defining module, function name)
STAGES = (
    ("features.synthetic_detect", "features", "synthetic_detect"),
    ("features.top_k", "features", "top_k"),
    ("matching.match_nn", "matching", "match_nn"),
    ("matching.ransac_inliers", "matching", "ransac_inliers"),
    ("geometry.pixel_to_normalized", "geometry", "pixel_to_normalized"),
    ("control.stack_interaction", "control", "stack_interaction"),
    ("control.control_law", "control", "control_law"),
    ("geometry.integrate_twist", "geometry", "integrate_twist"),
    ("matching.tracking_update", "matching", "tracking_update"),
)


def min_tail_samples(percentile: float = TAIL_PERCENTILE) -> int:
    """Smallest sample count with MIN_BEYOND_TAIL samples above `percentile`."""
    return math.ceil(MIN_BEYOND_TAIL / (1.0 - percentile / 100.0) - 1e-9)


@dataclass
class RunState:
    """Everything one benchmark run observes."""

    cycle_ns: list = field(default_factory=list)  # host time per ServoLoop.step, in call order
    best_cycle_ns: list = field(default_factory=list)  # per cycle, its fastest run
    best_job_s: list = field(default_factory=list)  # per job, its fastest run
    timed_trials: int = 0  # servo runs of the jobs in best_job_s
    setup_s: list = field(default_factory=list)  # one per set-up probe
    records: list = field(default_factory=list)  # CycleRecords of the current job
    statuses: list = field(default_factory=list)  # exact statuses, traced runs only
    ransac_calls: list = field(default_factory=list)  # (C, cfg, InlierSet), traced runs only
    trials_done: int = 0
    trials_failed: int = 0
    quality_trials: list = field(default_factory=list)  # checks.Trial of the quality jobs
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# -- executing jobs -----------------------------------------------------------


def execute(job, out: Path) -> float:
    """Perform one user action into `out`; returns its host seconds."""
    if job.kind in ("run", "batch"):
        argv = [job.kind, "--config", str(out / "config.json"), "--out", str(out)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"featservo {job.kind} exited with {code}")
        return elapsed
    t0 = time.perf_counter()
    scene, cfg = planar_scene_and_config(job.config)
    trace = simulate.run_servo(scene, cfg)
    simulate.write_trace_csv(trace, out / "trace.csv")
    simulate.write_trace_summary(trace, out / "summary.json")
    return time.perf_counter() - t0


def run_job(job, work: Path, state: RunState, quality: bool):
    """Run and check one job; returns its host seconds, None if it raised."""
    out = work / f"job{job.index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job.write_config(out / "config.json")
    state.records.clear()
    state.statuses.clear()
    state.ransac_calls.clear()
    try:
        elapsed = execute(job, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        state.trials_done += job.trials
        state.trials_failed += job.trials
        state.problems.append(f"{job.workload} job {job.index} raised")
        return None
    state.trials_done += job.trials

    trials_records = split_trials(state.records)
    if job.kind == "batch":
        statuses = list(state.statuses) if state.statuses else None
        problems, trials = check_batch_outputs(out, job, trials_records, statuses)
    else:
        records = trials_records[0] if len(trials_records) == 1 else []
        problems, trial = check_run_outputs(out, records, job.success_threshold, job.max_cycles)
        if len(trials_records) != 1:
            problems.append(f"observed {len(trials_records)} servo runs, expected 1")
        trials = [trial] if trial else []
        if state.statuses and trial and state.statuses != [trial.status]:
            problems.append(f"run_servo returned {state.statuses}, summary says {trial.status}")
    for C, cfg, inliers in state.ransac_calls:
        problems += check_inliers(C, cfg, inliers)

    d = digest(out, DIGEST_FILES[job.kind])
    if job.index not in state.digests:
        state.digests[job.index] = d
    elif state.digests[job.index] != d:
        problems.append("outputs differ from an earlier run of the same job")
    if quality:
        state.quality_trials.extend(trials)
    if problems:
        state.trials_failed += job.trials
        for p in problems[:5]:
            state.problems.append(f"{job.workload} job {job.index}: {p}")
    return elapsed


def run_loop(workload, seed: int, smoke: bool, work: Path, state: RunState,
             seconds: float, min_cycles: int, probe=None) -> None:
    """PASSES passes over the same jobs; see the module docstring. `probe()`,
    if given, runs between jobs once every SETUP_PROBES-th of `seconds`, and
    at least SETUP_PROBES times."""
    wl = WORKLOADS[workload]
    n_quality = 1 if smoke else wl.quality_jobs
    n_probes = 1 if smoke else SETUP_PROBES
    t0 = time.perf_counter()
    probes = 0

    def timed_run(job, quality):
        """(host seconds or None, cycle times) of one run of `job`."""
        nonlocal probes
        if probe is not None and time.perf_counter() >= t0 + probes * seconds / n_probes:
            probe()
            probes += 1
        n0 = len(state.cycle_ns)
        return run_job(job, work, state, quality), state.cycle_ns[n0:]

    jobs, runs = [], []  # runs[j]: (seconds, cycle times) of each run of job j
    cycles = 0
    while (len(jobs) < n_quality or time.perf_counter() < t0 + seconds / PASSES
           or cycles < min_cycles):
        jobs.append(wl.make(seed, len(jobs), smoke))
        runs.append([timed_run(jobs[-1], len(jobs) <= n_quality)])
        cycles += len(runs[-1][0][1])
    for _ in range(PASSES - 1):
        for job, job_runs in zip(jobs, runs):
            job_runs.append(timed_run(job, False))
    while probe is not None and probes < n_probes:
        probe()
        probes += 1
    for job, job_runs in zip(jobs, runs):
        if any(elapsed is None for elapsed, _ in job_runs):
            continue
        state.best_job_s.append(min(elapsed for elapsed, _ in job_runs))
        state.timed_trials += job.trials
        state.best_cycle_ns.extend(map(min, zip(*(times for _, times in job_runs))))


# -- observers ----------------------------------------------------------------


@contextlib.contextmanager
def step_timer(state: RunState):
    """The untraced run's only wrapper: host time of each ServoLoop.step."""
    original = simulate.ServoLoop.__dict__["step"]
    clock = time.perf_counter_ns

    def step(loop):
        t0 = clock()
        rec = original(loop)
        state.cycle_ns.append(clock() - t0)
        state.records.append(rec)
        return rec

    simulate.ServoLoop.step = step
    try:
        yield
    finally:
        simulate.ServoLoop.step = original


@dataclass
class LayerCounts:
    keypoints: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    inliers: list = field(default_factory=list)  # per successful RANSAC call
    trace_paths: list = field(default_factory=list)
    statuses: dict = field(default_factory=lambda: {s: 0 for s in STATUSES})
    cycles: int = 0
    tracking_cycles: int = 0
    tracking_lost: int = 0
    verified_pairs: int = 0
    inlier_pairs: int = 0


def install_tracer(tracer: Tracer, state: RunState, counts: LayerCounts) -> None:
    """Wrap every traced name where its caller looks it up."""

    def on_step(idx, args, rec):
        state.cycle_ns.append(tracer.end[idx] - tracer.start[idx])
        state.records.append(rec)
        counts.cycles += 1
        counts.tracking_cycles += bool(rec.tracking)
        counts.tracking_lost += rec.event == "tracking_lost"
        if rec.pair_id_match is not None:
            counts.verified_pairs += int(np.sum(rec.pair_id_match))
            counts.inlier_pairs += int(rec.pair_id_match.size)

    def on_ransac(idx, args, inliers):
        state.ransac_calls.append((args[0], args[1], inliers))
        counts.inliers.append(len(inliers))

    def on_status(idx, args, trace):
        state.statuses.append(trace.status)
        counts.statuses[trace.status] = counts.statuses.get(trace.status, 0) + 1

    span = tracer.span
    s = simulate
    stages = {
        "features.synthetic_detect": lambda i, a, fs: counts.keypoints.append(len(fs)),
        "matching.match_nn": lambda i, a, c: counts.pairs.append(len(c)),
        "matching.ransac_inliers": on_ransac,
    }
    for name, _, attr in STAGES:
        tracer.patch(s, attr, span(name, s.__dict__[attr], stages.get(name)))
    tracer.patch(s.ServoLoop, "step", span("simulate.step", s.ServoLoop.__dict__["step"], on_step))
    tracer.patch(s, "render_target", span("simulate.render_target", s.render_target))
    on_trace_csv = lambda i, a, r: counts.trace_paths.append(a[1])  # noqa: E731
    for owner in (s, cli):
        tracer.patch(owner, "write_trace_csv",
                     span("simulate.write_trace_csv", owner.write_trace_csv, on_trace_csv))
        tracer.patch(owner, "write_trace_summary",
                     span("simulate.write_trace_summary", owner.write_trace_summary))
    for owner in (s, cli, experiment):
        tracer.patch(owner, "run_servo", span("simulate.run_servo", owner.run_servo, on_status))
    for attr in ("build_scene", "export_profiles", "run_batch_suite", "write_batch_csv"):
        tracer.patch(cli, attr, span(f"experiment.{attr}", cli.__dict__[attr]))
    tracer.patch(cli, "main", span("cli.main", cli.main))
    tracer.patch(matching, "fit_homography", tracer.counter("fit", matching.fit_homography))
    tracer.patch(matching, "symmetric_transfer_error",
                 tracer.counter("scored", matching.symmetric_transfer_error))


# -- metrics ------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def end_to_end(state: RunState) -> dict:
    cycle_ms = np.asarray(state.best_cycle_ns, dtype=float) / 1e6
    conv = [t for t in state.quality_trials if t.status == "Converged"]
    avg2 = [t.avg2_px for t in conv if math.isfinite(t.avg2_px)]
    return {
        "cycle_ms_p50": (percentile(cycle_ms, 50), "ms", cycle_ms.size),
        "cycle_ms_p99": (percentile(cycle_ms, TAIL_PERCENTILE), "ms", cycle_ms.size),
        "trials_per_s": (state.timed_trials / sum(state.best_job_s) if state.best_job_s else 0.0,
                         "1/s", state.timed_trials),
        "setup_s": (statistics.median(state.setup_s) if state.setup_s else 0.0, "s",
                    len(state.setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "cycles_to_converge_p50": (float(np.median([t.cycles for t in conv])) if conv else 0.0,
                                   "cycles", len(conv)),
        "success_ratio": (len(conv) / len(state.quality_trials) if state.quality_trials else 0.0,
                          "ratio", len(state.quality_trials)),
        "avg2_px": (float(np.mean(avg2)) if avg2 else 0.0, "px", len(avg2)),
        "failed_frac": (state.trials_failed / max(state.trials_done, 1), "ratio", state.trials_done),
    }


def per_layer(tracer: Tracer, counts: LayerCounts, overhead_pct: float) -> dict:
    nid, parent, dur, self_ns = tracer.arrays()
    names = tracer.names

    def durs(name, use_self=False):
        if name not in names:
            return np.zeros(0)
        sel = nid == names.index(name)
        return (self_ns if use_self else dur)[sel]

    def p50(name, scale, use_self=False):
        d = durs(name, use_self)
        return (percentile(d, 50) / scale, d.size)

    us, ms, s = 1e3, 1e6, 1e9
    ransac_idx = tracer.indices("matching.ransac_inliers")
    n_ransac = max(ransac_idx.size, 1)
    fits = sum(tracer.counts.get(int(i), {}).get("fit", 0) for i in ransac_idx)
    scored = sum(tracer.counts.get(int(i), {}).get("scored", 0) for i in ransac_idx)
    ransac_failed = sum(tracer.errors.get(int(i)) == "TooFewCorrespondences" for i in ransac_idx)
    # every RANSAC call gets the pairs of the match_nn call before it
    pairs_into_ransac = sum(counts.pairs)
    trace_sizes = [Path(p).stat().st_size for p in counts.trace_paths if Path(p).exists()]
    m = {
        "features.synthetic_detect.us": (*p50("features.synthetic_detect", us), "us"),
        "features.keypoints_per_call": (_mean(counts.keypoints), len(counts.keypoints), "count"),
        "features.top_k.us": (*p50("features.top_k", us), "us"),
        "matching.match_nn.us": (*p50("matching.match_nn", us), "us"),
        "matching.pairs_per_call": (_mean(counts.pairs), len(counts.pairs), "count"),
        "matching.ransac_inliers.us": (*p50("matching.ransac_inliers", us), "us"),
        "matching.ransac_inliers.us_p99": (
            percentile(durs("matching.ransac_inliers"), TAIL_PERCENTILE) / us, ransac_idx.size, "us"),
        "matching.ransac.fits_per_call": (fits / n_ransac, ransac_idx.size, "count"),
        "matching.ransac.scored_per_call": (scored / n_ransac, ransac_idx.size, "count"),
        "matching.ransac.inlier_ratio": (
            sum(counts.inliers) / pairs_into_ransac if pairs_into_ransac else 0.0,
            ransac_idx.size, "ratio"),
        "matching.ransac.failed": (ransac_failed / n_ransac, ransac_idx.size, "ratio"),
        "matching.match_precision": (
            counts.verified_pairs / counts.inlier_pairs if counts.inlier_pairs else 0.0,
            counts.inlier_pairs, "ratio"),
        "matching.tracking_update.us": (*p50("matching.tracking_update", us), "us"),
        "matching.tracking_frac": (counts.tracking_cycles / max(counts.cycles, 1), counts.cycles, "ratio"),
        "matching.tracking_lost": (counts.tracking_lost, counts.cycles, "count"),
        "control.stack_interaction.us": (*p50("control.stack_interaction", us), "us"),
        "control.control_law.us": (*p50("control.control_law", us), "us"),
        "geometry.integrate_twist.us": (*p50("geometry.integrate_twist", us), "us"),
        "geometry.pixel_to_normalized.us": (*p50("geometry.pixel_to_normalized", us), "us"),
        "simulate.step.self_us": (*p50("simulate.step", us, use_self=True), "us"),
        "simulate.render_target.us": (*p50("simulate.render_target", us), "us"),
        "simulate.write_trace_csv.ms": (*p50("simulate.write_trace_csv", ms), "ms"),
        "simulate.trace_bytes": (percentile(trace_sizes, 50), len(trace_sizes), "bytes"),
        "experiment.build_scene.ms": (*p50("experiment.build_scene", ms), "ms"),
        "experiment.export_profiles.ms": (*p50("experiment.export_profiles", ms), "ms"),
        "experiment.run_batch_suite.s": (*p50("experiment.run_batch_suite", s), "s"),
        "cli.main.self_ms": (*p50("cli.main", ms, use_self=True), "ms"),
        "trace.overhead_pct": (overhead_pct, 1, "%"),
        "trace.spans": (int(dur.size), int(dur.size), "count"),
    }
    total = sum(counts.statuses.values())
    for status in STATUSES:
        m[f"experiment.status.{status}"] = (counts.statuses.get(status, 0), total, "count")
    return {k: (v[0], v[2], v[1]) for k, v in m.items()}


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def traced_shares(tracer: Tracer) -> dict:
    """Share of ServoLoop.step time spent in each direct child stage, in %."""
    nid, parent, dur, _ = tracer.arrays()
    step_idx = tracer.indices("simulate.step")
    is_step_child = np.isin(parent, step_idx)
    total = float(dur[step_idx].sum())
    shares = {}
    for name, _, _ in STAGES:
        if name in tracer.names:
            sel = is_step_child & (nid == tracer.names.index(name))
            shares[name] = 100.0 * float(dur[sel].sum()) / total if total else 0.0
    return shares


def cprofile_shares(workload: str, seed: int, work: Path) -> dict:
    """The same split from one cProfile run of the first jobs, untraced."""
    state = RunState()
    prof = cProfile.Profile()
    with step_timer(state):
        prof.enable()
        for i in range(PROFILE_JOBS):
            run_job(WORKLOADS[workload].make(seed, i, False), work, state, quality=True)
        prof.disable()
    stats = pstats.Stats(prof).stats
    cum = {}
    for (filename, _, func), (_, _, _, ct, _) in stats.items():
        cum[(Path(filename).stem, func)] = cum.get((Path(filename).stem, func), 0.0) + ct
    # the wrapper above calls the original step: its cumulative time is the step's
    total = cum.get(("simulate", "step"), 0.0)
    return {name: 100.0 * cum.get((mod, func), 0.0) / total if total else 0.0
            for name, mod, func in STAGES}


# -- set-up -------------------------------------------------------------------


def measure_setup(job, work: Path) -> float:
    """Seconds of featservo's set-up for `job`, in a fresh interpreter.

    A probe that the host fails to start, kills or stalls past a minute is
    tried again after a pause, up to PROBE_ATTEMPTS times: on a shared host a
    refused fork says nothing about featservo. A probe that runs and exits
    with an error fails at once. Raises RuntimeError on failure."""
    out = work / "setup"
    out.mkdir(parents=True, exist_ok=True)
    job.write_config(out / "config.json")
    probe = Path(__file__).with_name("setup_probe.py")
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, str(probe), str(src), job.kind, str(out / "config.json")]
    for attempt in range(1, PROBE_ATTEMPTS + 1):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            if done.returncode == 0:
                return float(done.stdout.strip().splitlines()[-1])
            error = f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
            if done.returncode > 0:
                break
        if attempt < PROBE_ATTEMPTS:
            time.sleep(PROBE_RETRY_PAUSE_S)
    raise RuntimeError(f"set-up probe failed after {attempt} attempt(s): {error}")


def tracing_overhead(job, work: Path, state: RunState) -> float:
    """Tracing's cost on `job`'s cycle time, in %.

    Untraced and traced runs of the job alternate OVERHEAD_PAIRS times, so
    both sides see the same spells of machine speed; each side takes every
    cycle's fastest run. The job is deterministic, so both sides run the
    same cycles: the reading is the median over cycles of each cycle's
    traced/untraced ratio, which a few cycles slowed on one side move
    less than a ratio of two percentiles would. Every run's outputs must
    match the traced run's."""
    plain, traced = RunState(), RunState()
    for _ in range(OVERHEAD_PAIRS):
        with step_timer(plain):
            run_job(job, work, plain, quality=False)
        tracer = Tracer()
        install_tracer(tracer, traced, LayerCounts())
        try:
            run_job(job, work, traced, quality=False)
        finally:
            tracer.restore()
    for side in (plain, traced):
        state.trials_done += side.trials_done
        state.trials_failed += side.trials_failed
        state.problems += side.problems
        if side.digests.get(job.index) != state.digests.get(job.index):
            state.problems.append("outputs of the overhead runs differ from the traced run's")
            state.trials_failed += job.trials

    def fastest(side):
        n = len(side.cycle_ns) // OVERHEAD_PAIRS
        runs = (side.cycle_ns[k * n:(k + 1) * n] for k in range(OVERHEAD_PAIRS))
        return np.array([min(c) for c in zip(*runs)], dtype=float)

    base, with_spans = fastest(plain), fastest(traced)
    if not base.size or base.size != with_spans.size:
        return 0.0
    return 100.0 * (percentile(with_spans / base, 50) - 1.0)


# -- one run ------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit, samples)
    problems: list
    notes: list


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> Result:
    job0 = WORKLOADS[workload].make(seed, 0, smoke)
    min_cycles = 0 if smoke else min_tail_samples()
    state = RunState()
    notes = []
    if not trace:
        def probe():
            try:
                state.setup_s.append(measure_setup(job0, work))
            except RuntimeError as exc:
                state.problems.append(str(exc))

        with step_timer(state):
            run_loop(workload, seed, smoke, work, state, seconds, min_cycles, probe=probe)
        metrics = end_to_end(state)
    else:
        tracer, counts = Tracer(), LayerCounts()
        install_tracer(tracer, state, counts)
        try:
            run_loop(workload, seed, smoke, work, state, seconds, min_cycles)
        finally:
            tracer.restore()
        overhead = tracing_overhead(job0, work, state)
        # smoke jobs have too few cycles for a steady reading
        if not smoke and overhead < OVERHEAD_FLOOR_PCT:
            state.problems.append(
                f"traced cycles ran {-overhead:.1f}% faster than untraced ones: "
                "the tracing overhead reading is broken")
        metrics = per_layer(tracer, counts, overhead)
        tracer.write_csv(work.parent / f"spans-{workload}-{seed}.csv")
        if workload == "servo-clutter":
            traced = traced_shares(tracer)
            profiled = cprofile_shares(workload, seed, work)
            gap = max(abs(traced[k] - profiled[k]) for k in traced)
            notes.append("share of ServoLoop.step time, traced vs cProfile (%):")
            for k in traced:
                notes.append(f"  {k:32s} {traced[k]:6.1f} {profiled[k]:6.1f}")
            notes.append(f"  max gap {gap:.1f} percentage points")

    if workload == "sweep-stress":
        conv = sum(t.status == "Converged" for t in state.quality_trials)
        other = len(state.quality_trials) - conv
        notes.append(f"sweep-stress quality trials: {conv} converged, {other} not converged")
        if not smoke and (conv == 0 or other == 0):
            state.problems.append(
                "STRESS GUARD: sweep-stress must hold both converged and non-converged trials; "
                f"got {conv} converged and {other} not")
    if len(state.best_cycle_ns) < min_cycles:
        state.problems.append(f"only {len(state.best_cycle_ns)} cycles, p99 needs {min_cycles}")
    correct = state.trials_failed == 0 and not state.problems
    return Result(correct, state.trials_done, state.trials_failed, metrics, state.problems, notes)
