"""tools/output_digests.py's comparison of two digest maps; no outputs are
written."""

import importlib.util
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
