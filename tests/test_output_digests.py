"""tools/output_digests.py's comparison of two digest maps, and of the
statuses and cycle counts of two hand-made output trees; no outputs are
written by featservo."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def test_equal_maps_change_nothing():
    digests = {"seed0/run/trace.csv": "a", "seed0/run/summary.json": "b"}
    assert output_digests.changed(digests, dict(digests)) == []


def test_changed_and_one_sided_paths_are_listed_in_order():
    old = {"seed1/run/trace.csv": "a", "seed0/run/trace.csv": "b", "seed0/gone.csv": "c"}
    new = {"seed1/run/trace.csv": "a", "seed0/run/trace.csv": "B", "seed0/new.csv": "d"}
    assert output_digests.changed(old, new) == [
        "seed0/gone.csv", "seed0/new.csv", "seed0/run/trace.csv"
    ]


def test_digests_key_files_by_relative_path(tmp_path):
    (tmp_path / "seed0").mkdir()
    (tmp_path / "seed0" / "a.csv").write_bytes(b"x")
    (tmp_path / "b.json").write_bytes(b"")
    assert output_digests.digests(tmp_path) == {
        "b.json": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "seed0/a.csv": "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881",
    }


def write_tree(root, run_status, run_cycles, accuracy_cycles, batch_converged):
    """A small output tree: one run summary, two accuracy rows, two batch rows."""
    (root / "seed0" / "run").mkdir(parents=True)
    (root / "seed0" / "run" / "summary.json").write_text(
        json.dumps({"status": run_status, "cycles": run_cycles, "final_mean_error_px": 1.0})
    )
    (root / "seed0" / "accuracy").mkdir()
    (root / "seed0" / "accuracy" / "accuracy.csv").write_text(
        "# featservo_accuracy_v1\nscene,goal,start,status,cycles,avg1_px,avg2_px\n"
        "0,0,0,Converged,100,1.5,1.5\n"
        f"0,0,1,Converged,{accuracy_cycles},1.25,1.25\n"
    )
    (root / "seed0" / "batch").mkdir()
    (root / "seed0" / "batch" / "batch.csv").write_text(
        "# featservo_batch_v2\nband_lo_cm,band_hi_cm,clutter,trials,converged,max_cycles,"
        "tracking_lost,insufficient_features,success_ratio\n"
        "0,1,1,2,2,0,0,0,1\n"
        f"4,8,1,2,{batch_converged},{2 - batch_converged},0,0,{batch_converged / 2:g}\n"
    )


def test_outcome_lines_name_each_changed_status_or_cycle_count(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, "Converged", 120, 90, 2)
    write_tree(new, "MaxCycles", 400, 91, 1)
    assert output_digests.outcome_lines(old, new) == [
        "outcome: seed0/accuracy/accuracy.csv scene 0 goal 0 start 1: Converged 90 -> Converged 91",
        "outcome: seed0/batch/batch.csv band 4-8 clutter 1: converged=2 max_cycles=0"
        " tracking_lost=0 insufficient_features=0 -> converged=1 max_cycles=1"
        " tracking_lost=0 insufficient_features=0",
        "outcome: seed0/run/summary.json: Converged 120 -> MaxCycles 400",
    ]


def test_outcome_lines_ignore_other_columns_and_keep_equal_outcomes_silent(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, "Converged", 120, 90, 2)
    write_tree(new, "Converged", 120, 90, 2)
    # an error that moves while the status and cycle count stay is no outcome change
    path = new / "seed0" / "accuracy" / "accuracy.csv"
    path.write_text(path.read_text().replace("1.25,1.25", "1.375,1.375"))
    assert output_digests.outcome_lines(old, new) == []
    # a run that only one side wrote is listed, with "-" for the other side
    (new / "seed0" / "stress").mkdir()
    (new / "seed0" / "stress" / "summary.json").write_text(
        json.dumps({"status": "InsufficientFeatures", "cycles": 28})
    )
    assert output_digests.outcome_lines(old, new) == [
        "outcome: seed0/stress/summary.json: - -> InsufficientFeatures 28"
    ]
