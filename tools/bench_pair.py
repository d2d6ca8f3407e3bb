"""Run the benchmark on a parent checkout and on this one, in alternating
pairs, and write every pair and the medians to a BENCH file.

    python3 tools/bench_pair.py --parent DIR --pr N [--workload W ...]
        [--seeds 1-10] [--seconds 30] [--trace 0] [--out BENCH_N.json]

DIR is a checkout of the parent commit (made with `git clone` or
`git archive`). For each workload and each seed, `bench/run.py` runs twice
in DIR and twice in this checkout, each from its own root and for half of
`--seconds`, in the order A B B A: odd pairs start with the parent, even
pairs with the change, so both sides see the same host phases. Each side's
metrics are the means of its two runs. The output holds each run's metrics
and exit code, and per end-to-end metric of `BENCHMARK.json` the median and
quartiles of each side and how many pairs the change won, lost and tied. A
run that exits non-zero or fails its checks is kept in `pairs` and counted
under `failed_runs`, its pair is left out of the summary, and the script
exits 1. Each side is named by its git revision, with `-dirty` when its
tree has uncommitted changes.

Every `bench/run.py` runs with `PYTHONPYCACHEPREFIX` set to a fresh, empty
directory, which its set-up probes inherit, so neither side reads bytecode
that the other lacks.

Right before each `bench/run.py` call the script times a fixed NumPy
kernel in its own process and stores the median µs per call in that run's
record as `host_kernel_us`: the host's speed phase when the run started,
so a pair whose sides ran in different phases shows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def host_kernel_us(calls: int = 200) -> float:
    """Median µs per call of a fixed single-threaded NumPy kernel (float32
    row norms of a (76, 256) array and an argsort of 4096 values, inputs
    fixed by seed 0), over `calls` calls: about 20 ms in all."""
    rng = np.random.default_rng(0)
    rows, keys = rng.random((76, 256), dtype=np.float32), rng.random(4096)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        np.sqrt(np.einsum("ij,ij->i", rows, rows))
        keys.argsort()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    host_us = host_kernel_us()
    with tempfile.TemporaryDirectory(prefix="bench_pycache_") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"exit": proc.returncode, "correct": bool(result.get("correct")), "metrics": metrics,
            "host_kernel_us": host_us}


def failed(run: dict) -> bool:
    return run["exit"] != 0 or not run["correct"]


def run_pair(roots: dict, first: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """Both sides of one pair, each run twice for seconds/2 in the order
    A B B A with A = `first`: every run's record, in order, and per side the
    mean of each metric both its runs report, the first non-zero exit and
    whether both runs were correct."""
    second = next(side for side in roots if side != first)
    runs = [dict(side=side, **run_bench(roots[side], workload, seed, seconds / 2, trace))
            for side in (first, second, second, first)]
    pair = {"seed": seed, "first": first, "runs": runs}
    for side in roots:
        a, b = (run for run in runs if run["side"] == side)
        pair[side] = {
            "exit": a["exit"] or b["exit"],
            "correct": a["correct"] and b["correct"],
            "metrics": {name: (value + b["metrics"][name]) / 2
                        for name, value in a["metrics"].items() if name in b["metrics"]},
        }
    return pair


def revision(root: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return f"{cpu}, {os.cpu_count()} logical CPUs, Python {platform.python_version()}"


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def summarize(pairs: list[dict], directions: dict) -> dict:
    summary = {}
    for name, better in directions.items():
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if not (failed(p["parent"]) or failed(p["change"]))
                and name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        sign = -1.0 if better == "lower" else 1.0
        won = sum(sign * (c - a) > 0 for a, c in both)
        lost = sum(sign * (c - a) < 0 for a, c in both)
        parent_q = quartiles([a for a, _ in both])
        change_q = quartiles([c for _, c in both])
        summary[name] = {
            "better": better,
            "pairs": len(both),
            "parent_median": parent_q[1],
            "change_median": change_q[1],
            "parent_quartiles": [parent_q[0], parent_q[2]],
            "change_quartiles": [change_q[0], change_q[2]],
            "change_won": won,
            "change_lost": lost,
            "ties": len(both) - won - lost,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--pr", required=True, type=int, help="N of the output name BENCH_<N>.json")
    p.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="default: BENCH_<pr>.json in this checkout")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.trace:
        directions = {m["name"]: m["better"] for m in spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent = args.parent.resolve()
    out = args.out or ROOT / f"BENCH_{args.pr}.json"

    report = {
        "pr": args.pr,
        "parent": revision(parent),
        "change": revision(ROOT),
        "command": f"bench/run.py --seconds {args.seconds / 2:g} --trace {args.trace}, "
                   "twice per side, A B B A",
        "machine": machine(),
        "workloads": {},
    }
    any_failed = False
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            first = "parent" if i % 2 == 0 else "change"
            pair = run_pair({"parent": parent, "change": ROOT}, first, workload, seed,
                            args.seconds, args.trace)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics'].get('cycle_ms_p50', float('nan')):.3f} ms"
                for side in ("parent", "change")), file=sys.stderr)
        failed_runs = sum(failed(run) for p in pairs for run in p["runs"])
        any_failed |= failed_runs > 0
        report["workloads"][workload] = {
            "failed_runs": failed_runs,
            "summary": summarize(pairs, directions),
            "pairs": pairs,
        }
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
