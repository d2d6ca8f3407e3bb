"""Write featservo's deterministic outputs and print their sha256 digests.

    python3 tools/output_digests.py --out DIR [--src SRC]

For each of the seeds 0, 1 and 2 this writes, under DIR/seed<s>/:
  run/       `featservo run` on the default config
  accuracy/  `featservo accuracy` on config {}
  batch/     `featservo batch` on two bands, two trials, clutter "both"
  stress/    `featservo batch` and `featservo run` past the defaults: 4-8
             and 8-16 cm bands (8 cm for run), 20 deg rotations, detection
             dropout 0.2, 50 RANSAC iterations and 60 cycles, so dropout,
             out-of-frame drops and failure statuses reach the outputs
  noisefree/ `featservo run` and `featservo batch` (two bands, two trials,
             clutter on) with descriptor noise 0, where the servo loop
             reuses the last match while the descriptors repeat
  dropout/   `featservo run` with detection dropout 0.2, where the tracked
             matching starves, the lock is given up and the run converges
             on full matching
  planar/    trace.csv of `run_servo` on a 400-landmark planar scene with
             the default run config at top_k 320
  basin/     `featservo batch` on the default config (1000 RANSAC
             iterations), two trials, clutter on, in the 16-24 and 24-32 cm
             bands with 20 deg rotations, where trials fail and RANSAC runs
             long past its first chunk of hypotheses
and prints one `<sha256>  <path relative to DIR>` line per output file.
SRC is the source directory to import featservo from (default: this
checkout's src/). To check that a change keeps every output byte for byte:

    python3 tools/output_digests.py --out DIR --against OLD/src

writes the outputs of SRC under DIR/new and those of OLD/src under DIR/old,
each in its own process, prints one `changed: <path>` line per file whose
bytes differ or that only one side wrote, then the count. It then prints
one `outcome:` line per run (its summary.json), accuracy.csv row or
batch.csv row whose status or cycle count differs (for a batch row, its
per-status trial counts), with the old and the new values, then the count
of such lines. It exits 1 if any file changed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

SEEDS = (0, 1, 2)
CONFIGS = {
    "run": {},
    "accuracy": {},
    "batch": {"batch": {"bands_cm": [[0, 1], [4, 8]], "trials": 2, "clutter": "both"}},
    "stress": {
        "detector": {"detection_dropout": 0.2},
        "ransac": {"max_iterations": 50},
        "servo": {"max_cycles": 60},
        "run": {"offset_cm": 8, "rotation_deg": [20, 20, 20]},
        "batch": {"bands_cm": [[4, 8], [8, 16]], "rotation_deg": [20, 20, 20],
                  "trials": 2, "clutter": "both"},
    },
    "noisefree": {
        "detector": {"descriptor_noise_sigma": 0},
        "batch": {"bands_cm": [[0, 1], [4, 8]], "trials": 2, "clutter": True},
    },
    "dropout": {"detector": {"detection_dropout": 0.2}},
    "basin": {"batch": {"bands_cm": [[16, 24], [24, 32]], "rotation_deg": [20, 20, 20],
                        "trials": 2, "clutter": True}},
}
# (output directory, command, config) in run order
COMMANDS = (
    ("run", "run", "run"),
    ("accuracy", "accuracy", "accuracy"),
    ("batch", "batch", "batch"),
    ("stress", "batch", "stress"),
    ("stress", "run", "stress"),
    ("noisefree", "run", "noisefree"),
    ("noisefree", "batch", "noisefree"),
    ("dropout", "run", "dropout"),
    ("basin", "batch", "basin"),
)


def produce(out: Path) -> None:
    from featservo import cli, experiment, simulate

    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for name, config in CONFIGS.items():
            configs[name] = Path(tmp) / f"{name}.json"
            configs[name].write_text(json.dumps(config))
        for seed in SEEDS:
            root = out / f"seed{seed}"
            for directory, command, name in COMMANDS:
                argv = [command, "--config", str(configs[name]), "--seed", str(seed),
                        "--out", str(root / directory)]
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"featservo {' '.join(argv)} failed")
            cfg = experiment.load_config(configs["run"])
            run_cfg = experiment.build_run_config({**cfg, "seed": seed})
            scene = simulate.make_planar_scene(seed, n_object=400)
            trace = simulate.run_servo(scene, replace(run_cfg, top_k=320))
            (root / "planar").mkdir()
            simulate.write_trace_csv(trace, root / "planar" / "trace.csv")


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its path relative to root."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    }


def changed(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Keys whose values differ between two maps (of digests or outcomes), or
    that only one has."""
    return sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))


# batch.csv's per-status trial counts
BATCH_STATUSES = ("converged", "max_cycles", "tracking_lost", "insufficient_features")


def _csv_rows(path: Path) -> list[dict]:
    """Rows of a featservo CSV: a '# schema' line, the header, then the rows."""
    return list(csv.DictReader(path.read_text().splitlines()[1:]))


def outcomes(root: Path) -> dict[str, str]:
    """Status and cycle count of every run, accuracy row and batch row under
    root, keyed by file path relative to root and row."""
    found = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.name == "summary.json":
            summary = json.loads(path.read_text())
            found[rel] = f"{summary['status']} {summary['cycles']}"
        elif path.name == "accuracy.csv":
            for r in _csv_rows(path):
                key = f"{rel} scene {r['scene']} goal {r['goal']} start {r['start']}"
                found[key] = f"{r['status']} {r['cycles']}"
        elif path.name == "batch.csv":
            for r in _csv_rows(path):
                key = f"{rel} band {r['band_lo_cm']}-{r['band_hi_cm']} clutter {r['clutter']}"
                found[key] = " ".join(f"{status}={r[status]}" for status in BATCH_STATUSES)
    return found


def outcome_lines(old_root: Path, new_root: Path) -> list[str]:
    """One `outcome: <key>: <old> -> <new>` line per run or row whose status
    or cycle count differs between two output trees ("-" where one side has
    none)."""
    old, new = outcomes(old_root), outcomes(new_root)
    return [f"outcome: {key}: {old.get(key, '-')} -> {new.get(key, '-')}"
            for key in changed(old, new)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="new or empty directory for the outputs")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source directory holding the featservo package")
    parser.add_argument("--against", help="older source directory to compare every output with")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    if args.against:
        # featservo is imported once per process, so each side runs in its own
        for side, src in (("new", args.src), ("old", args.against)):
            subprocess.run([sys.executable, __file__, "--src", src, "--out", str(out / side)],
                           check=True, stdout=subprocess.DEVNULL)
        old, new = digests(out / "old"), digests(out / "new")
        paths = changed(old, new)
        for path in paths:
            print(f"changed: {path}")
        print(f"{len(paths)} of {len(old.keys() | new.keys())} files changed")
        lines = outcome_lines(out / "old", out / "new")
        for line in lines:
            print(line)
        print(f"{len(lines)} runs or rows changed status or cycle count")
        return 1 if paths else 0
    sys.path.insert(0, str(Path(args.src).resolve()))
    produce(out)
    for path, digest in digests(out).items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
