"""Command-line entry point.

Subcommands:
    run       single servo run from config -> trace CSV, summary, profiles
    accuracy  goal/start grid -> per-run AVG1/AVG2 report + aggregate
    batch     success-ratio sweep over offset bands -> table CSV
    check     config validation only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, FeatServoError
from .experiment import (
    aggregate_accuracy,
    batch_specs,
    build_run_config,
    build_scene,
    default_goal_poses,
    default_start_offsets,
    export_profiles,
    load_config,
    run_accuracy_suite,
    run_batch_suite,
    write_accuracy_csv,
    write_batch_csv,
)
from .simulate import render_target, run_servo, write_json, write_trace_csv, write_trace_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featservo", description="Feature-based visual servoing simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "single servo run"),
        ("accuracy", "accuracy grid suite"),
        ("batch", "success-ratio batch suite"),
        ("check", "validate the config file and exit"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def _prepare(args):
    cfg = load_config(args.config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _cmd_check(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    # render run's target view, as run does first: it must show 3 landmarks
    run_cfg = build_run_config(cfg)
    render_target(build_scene(cfg), run_cfg.target_pose, run_cfg.intrinsics)
    print(f"{args.config}: OK")
    return 0


def _cmd_run(args) -> int:
    cfg, out = _prepare(args)
    scene = build_scene(cfg)
    run_cfg = build_run_config(cfg)
    trace = run_servo(scene, run_cfg)
    write_trace_csv(trace, out / "trace.csv")
    write_trace_summary(trace, out / "summary.json")
    export_profiles(trace, out / "twist_profile.csv", out / "error_profile.csv")
    print(f"status={trace.status} cycles={len(trace)} final_error_px={trace.final_mean_error:.4g}")
    return 0


def _cmd_accuracy(args) -> int:
    cfg, out = _prepare(args)
    acc = cfg["accuracy"]
    scenes = [build_scene(cfg, seed_offset=i) for i in range(acc["scenes"])]
    goals = default_goal_poses(cfg["run"]["camera_distance"], acc["goals"])
    starts = default_start_offsets(cfg)
    base = build_run_config(cfg)
    records, _ = run_accuracy_suite(scenes, goals, starts, base, seed=cfg["seed"])
    write_accuracy_csv(records, out / "accuracy.csv")
    agg = aggregate_accuracy(records)
    write_json(out / "accuracy_summary.json", {"schema": "featservo_accuracy_summary_v1", **agg})
    print(
        f"runs={agg['runs']} converged={agg['converged']} "
        f"AVG1={agg['mean_avg1_px']:.3f}px AVG2={agg['mean_avg2_px']:.3f}px"
    )
    return 0


def _cmd_batch(args) -> int:
    cfg, out = _prepare(args)
    scene = build_scene(cfg)
    base = build_run_config(cfg)
    results = []
    for spec in batch_specs(cfg):
        results.extend(run_batch_suite(spec, scene, base, seed=cfg["seed"])[0])
    write_batch_csv(results, out / "batch.csv")
    for r in results:
        tag = "clutter" if r.clutter else "clean"
        print(
            f"band {r.band_cm[0]:g}-{r.band_cm[1]:g} cm [{tag}]: "
            f"{r.converged}/{r.trials} = {r.success_ratio:.2f}"
        )
    return 0


_COMMANDS = {"run": _cmd_run, "accuracy": _cmd_accuracy, "batch": _cmd_batch, "check": _cmd_check}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except FeatServoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
