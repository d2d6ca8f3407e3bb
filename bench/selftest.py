"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Runs in about 15 seconds: every workload once in smoke mode, traced and
untraced, plus checks on metric names, the tail-percentile rule, seed
derivation and the refusal to run without featservo's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        for m in s["end_to_end"] + s["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_listed_workloads_exist(self):
        self.assertLessEqual({w["name"] for w in spec()["workloads"]}, set(WORKLOADS))


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        n = harness.min_tail_samples(99.0)
        self.assertEqual(n, 1000)
        self.assertGreaterEqual(n * (1 - 0.99), 10 - 1e-9)
        self.assertLess((n - 1) * (1 - 0.99), 10)
        self.assertEqual(harness.min_tail_samples(90.0), 100)


class Seeds(unittest.TestCase):
    def test_seed_determines_the_inputs(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                n = wl.quality_jobs + 8
                a = [wl.make(1, i, False).config for i in range(n)]
                self.assertEqual(a, [wl.make(1, i, False).config for i in range(n)])
                self.assertNotEqual(a, [wl.make(2, i, False).config for i in range(n)])
                seeds = [cfg["seed"] for cfg in a]
                self.assertEqual(len(seeds), len(set(seeds)), "jobs must not share a seed")


class Smoke(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        s = spec()
        expect = {
            0: {m["name"] for m in s["end_to_end"]},
            1: {m["name"] for m in s["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), expect[trace])

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            done = run_bench("--workload", "servo-clutter", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
