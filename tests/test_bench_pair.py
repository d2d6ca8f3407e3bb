"""tools/bench_pair.py's seed parsing and pair summary, on hand-made pairs,
and its run order, bytecode cache and host-speed record, around a fake
bench run; no benchmark runs."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def run(metrics, exit=0, correct=True):
    return {"exit": exit, "correct": correct, "metrics": metrics}


def pair(parent, change, **change_status):
    return {"seed": 0, "first": "parent", "parent": run(parent), "change": run(change, **change_status)}


def test_parse_seeds_ranges_and_singles():
    assert bench_pair.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pair.parse_seeds("5") == [5]


@pytest.mark.parametrize("better, won, lost", [("lower", 2, 1), ("higher", 1, 2)])
def test_won_lost_and_ties_follow_the_direction(better, won, lost):
    # change - parent: -1, -2, +1, 0, 0
    values = [(5.0, 4.0), (5.0, 3.0), (5.0, 6.0), (5.0, 5.0), (2.0, 2.0)]
    pairs = [pair({"m": a}, {"m": c}) for a, c in values]
    s = bench_pair.summarize(pairs, {"m": better})["m"]
    assert (s["change_won"], s["change_lost"], s["ties"]) == (won, lost, 2)
    assert s["pairs"] == 5 and s["better"] == better


def test_failed_pairs_are_left_out():
    pairs = [
        pair({"m": 1.0}, {"m": 2.0}),
        pair({"m": 1.0}, {"m": 0.0}, exit=1),
        pair({"m": 1.0}, {"m": 0.0}, correct=False),
        pair({"m": 1.0}, {}),  # the metric is missing on one side
    ]
    s = bench_pair.summarize(pairs, {"m": "lower", "absent": "lower"})
    assert list(s) == ["m"]
    assert s["m"]["pairs"] == 1
    assert (s["m"]["change_won"], s["m"]["change_lost"]) == (0, 1)


def test_quartiles_of_one_and_ten_pairs():
    one = bench_pair.summarize([pair({"m": 3.0}, {"m": 4.0})], {"m": "lower"})["m"]
    assert (one["parent_median"], one["parent_quartiles"]) == (3.0, [3.0, 3.0])
    assert (one["change_median"], one["change_quartiles"]) == (4.0, [4.0, 4.0])
    ten = [pair({"m": float(i)}, {"m": float(10 * i)}) for i in range(1, 11)]
    s = bench_pair.summarize(ten, {"m": "higher"})["m"]
    # statistics.quantiles' default (exclusive) method: positions 2.75, 5.5, 8.25
    assert (s["parent_median"], s["parent_quartiles"]) == (5.5, [2.75, 8.25])
    assert (s["change_median"], s["change_quartiles"]) == (55.0, [27.5, 82.5])
    assert (s["change_won"], s["change_lost"], s["ties"]) == (10, 0, 0)


def test_host_kernel_is_timed_right_before_each_bench_run(monkeypatch, tmp_path):
    # the fake bench run records when it starts; the kernel must have run just before
    calls = []
    monkeypatch.setattr(bench_pair, "host_kernel_us", lambda: calls.append("kernel") or 12.5)

    def fake_run(cmd, cwd, env, capture_output, text):
        calls.append(("bench", cmd[1], cwd))
        line = json.dumps({"correct": True, "metrics": {"cycle_ms_p50": {"value": 0.7}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=f"log\n{line}\n", stderr="")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    record = bench_pair.run_bench(tmp_path, "servo-clutter", 3, 1.0, 0)
    assert calls == ["kernel", ("bench", "bench/run.py", tmp_path)]
    assert record == {"exit": 0, "correct": True, "metrics": {"cycle_ms_p50": 0.7},
                      "host_kernel_us": 12.5}


def test_host_kernel_reads_a_positive_time():
    us = bench_pair.host_kernel_us(calls=5)
    assert 0 < us < 1e6


def fake_bench(monkeypatch, exits=None):
    """Replace the bench subprocess: each call appends (cwd, --seconds, the
    bytecode cache directory, whether it was empty) to the returned list and
    reports cycle_ms_p50 = the square of the call number, plus a metric that only calls 2
    and 4 report; `exits` maps a call number to its exit code."""
    calls = []
    monkeypatch.setattr(bench_pair, "host_kernel_us", lambda: 1.0)

    def fake_run(cmd, cwd, env, capture_output, text):
        cache = env["PYTHONPYCACHEPREFIX"]
        calls.append((cwd, float(cmd[cmd.index("--seconds") + 1]), cache, os.listdir(cache) == []))
        n = len(calls)
        metrics = {"cycle_ms_p50": {"value": float(n * n)}}
        if n % 2 == 0:
            metrics["even_calls"] = {"value": 1.0}
        line = json.dumps({"correct": True, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, (exits or {}).get(n, 0), stdout=line, stderr="")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    return calls


@pytest.mark.parametrize("first", ["parent", "change"])
def test_pair_runs_a_b_b_a_at_half_seconds_and_merges_by_mean(monkeypatch, first):
    calls = fake_bench(monkeypatch)
    roots = {"parent": Path("/p"), "change": Path("/c")}
    pair = bench_pair.run_pair(roots, first, "planar-dense", 4, 30.0, 0)
    second = "change" if first == "parent" else "parent"
    order = [first, second, second, first]
    assert [cwd for cwd, *_ in calls] == [roots[side] for side in order]
    assert [seconds for _, seconds, *_ in calls] == [15.0] * 4
    assert [run["side"] for run in pair["runs"]] == order
    assert [run["metrics"]["cycle_ms_p50"] for run in pair["runs"]] == [1.0, 4.0, 9.0, 16.0]
    assert all(run["host_kernel_us"] == 1.0 for run in pair["runs"])
    assert (pair["seed"], pair["first"]) == (4, first)
    # A ran calls 1 and 4, B calls 2 and 3; a metric one run lacks is left out
    for side, mean in ((first, 8.5), (second, 6.5)):
        assert pair[side] == {"exit": 0, "correct": True, "metrics": {"cycle_ms_p50": mean}}


def test_a_failed_run_fails_its_side(monkeypatch):
    fake_bench(monkeypatch, exits={3: 2})
    pair = bench_pair.run_pair({"parent": Path("/p"), "change": Path("/c")}, "parent",
                               "servo-clutter", 1, 2.0, 0)
    assert pair["change"]["exit"] == 2 and pair["parent"]["exit"] == 0
    assert [run["exit"] for run in pair["runs"]] == [0, 0, 2, 0]
    assert list(bench_pair.summarize([pair], {"cycle_ms_p50": "lower"})) == []


def test_each_run_gets_a_fresh_empty_bytecode_cache(monkeypatch):
    calls = fake_bench(monkeypatch)
    bench_pair.run_pair({"parent": Path("/p"), "change": Path("/c")}, "parent",
                        "servo-clutter", 1, 2.0, 0)
    caches = [cache for _, _, cache, _ in calls]
    assert all(empty for *_, empty in calls)
    assert len(set(caches)) == 4
    assert all(not os.path.exists(cache) for cache in caches)  # removed after the run
