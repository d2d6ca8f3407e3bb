"""tools/bench_pair.py's seed parsing and pair summary, on hand-made pairs,
and its host-speed record, around a fake bench run; no benchmark runs."""

import importlib.util
import json
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

    def fake_run(cmd, cwd, capture_output, text):
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
