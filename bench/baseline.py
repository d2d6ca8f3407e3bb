"""Run the benchmark over sets of seeds and record the baseline.

    python3 bench/baseline.py --seeds 1-10 --seeds 11-20 --out bench/baseline.json

Each set runs every workload once per seed, untraced; the sets run one
after the other. Runs are sequential, one process at a time. For every
end-to-end metric and set it records the median, the quartiles and the
spread (q3 - q1) / median, and flags a spread above a third of the metric's
bound in BENCHMARK.json. With two or more sets it compares each later
set's median with the first's, and flags a change for the worse beyond the
bound. Then one traced run per workload on the first seed records the
per-layer metrics, and on servo-clutter the traced vs cProfile split.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list, float]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-3000:]}")
    return json.loads(lines[-1]), lines[:-1], wall


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", action="append", help="a seed set, as 1-10 or 1,2,3; repeatable")
    p.add_argument("--workloads", default=None, help="comma-separated; default: those in BENCHMARK.json")
    p.add_argument("--out", default=None, help="write the baseline JSON here")
    args = p.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seed_sets = [parse_seeds(text) for text in args.seeds or ["1-10"]]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    baseline = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "cpus": len(os.sched_getaffinity(0))},
        "run_seconds": seconds, "seed_sets": seed_sets,
        "workloads": {w: {"sets": []} for w in names},
    }
    ok = True
    for seeds in seed_sets:
        for workload in names:
            values, walls, runs = {}, [], []
            for seed in seeds:
                result, _, wall = run_once(workload, seed, seconds, 0)
                walls.append(wall)
                runs.append({"seed": seed, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"]})
                ok &= result["correct"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} seed {seed}: correct={result['correct']} wall={wall:.0f}s",
                      flush=True)
            entry = {"seeds": seeds, "runs": runs, "wall_s": summarize(walls), "end_to_end": {}}
            for name, vals in values.items():
                s = summarize(vals)
                entry["end_to_end"][name] = s
                bound = metrics[name]["bound"]
                flag = "  > bound/3" if s["spread"] is not None and s["spread"] > bound / 3 else ""
                print(f"  {name:24s} median {s['median']:12.6g} spread {s['spread']:.3f}"
                      f" bound {bound}{flag}", flush=True)
            baseline["workloads"][workload]["sets"].append(entry)

    for workload in names:
        entry = baseline["workloads"][workload]
        first = entry["sets"][0]["end_to_end"]
        for later in entry["sets"][1:]:
            for name, s in later["end_to_end"].items():
                m0, m1 = first[name]["median"], s["median"]
                worse = (m1 - m0) / m0 if m0 else 0.0
                if metrics[name]["better"] == "higher":
                    worse = -worse
                s["worse_than_first_set"] = worse
                flag = "  > bound" if worse > metrics[name]["bound"] else ""
                print(f"{workload} {name:24s} seeds {later['seeds'][0]}-: worse by {worse:+.3f}"
                      f" bound {metrics[name]['bound']}{flag}", flush=True)
        seed = seed_sets[0][0]
        result, lines, wall = run_once(workload, seed, seconds, 1)
        ok &= result["correct"]
        entry["traced"] = {"seed": seed, "correct": result["correct"], "wall_s": wall,
                           "per_layer": {k: m["value"] for k, m in result["metrics"].items()}}
        split = [ln.split() for ln in lines if ln.startswith("  ") and "." in ln.split()[0]]
        if split:
            entry["traced"]["step_share_pct"] = {
                row[0]: {"traced": float(row[1]), "cprofile": float(row[2])} for row in split
            }
        print(f"{workload} traced seed {seed}: correct={result['correct']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
