"""featservo benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload servo-clutter --seed 1 --seconds 30 --trace 0

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run. Lines before
it print every metric with its unit and sample count. Outputs go to
`.bench_work/` under the checkout root and are removed at the end; traced
runs leave their spans in `.bench_work/spans-<workload>-<seed>.csv`.
`--smoke` runs a shortened workload for the self-tests.

Exit codes: 0 result printed, 1 result printed but a check failed,
2 the benchmark could not run (no featservo sources, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("servo-clutter", "planar-dense", "sweep-stress")

# reported in the table and through `failed`/`attempted`, not as a metric:
# it is 0 whenever the program is correct
NOT_IN_JSON = ("failed_frac",)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shortened workload for self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "featservo" / "__init__.py").is_file():
        print(f"benchmark: featservo sources not found under {SRC}", file=sys.stderr)
        return 2
    # One thread: numpy's OpenBLAS would otherwise keep a worker thread
    # spinning on the second core between calls, which slows the main thread
    # on a 2-core machine. Set before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import harness  # imports featservo

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in result.notes:
        print(note)
    for name, (value, unit, samples) in result.metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:7s} n={samples}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {
        name: {"value": _finite(value), "unit": unit}
        for name, (value, unit, _) in result.metrics.items()
        if name not in NOT_IN_JSON
    }
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def _finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


if __name__ == "__main__":
    sys.exit(main())
