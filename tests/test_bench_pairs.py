"""The status rule and the output comparison of scripts/bench_pairs.py,
which writes the BENCH_*.json files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
# ten pairs in which the change is 2 s faster every time, far beyond the
# parent's interquartile distance of 0.45 s
PARENT = [6.0 + 0.1 * i for i in range(10)]
CHANGE = [4.0 + 0.1 * i for i in range(10)]


@pytest.mark.parametrize("failed, status", [
    ((0, 0), "claim met"),
    ((3, 3), "claim met"),
    ((3, 1), "claim met"),
    ((0, 1), "claim not met"),
    ((2, 5), "claim not met"),
], ids=["none", "equal", "fewer", "one_more", "more"])
def test_a_claim_is_not_met_when_the_change_fails_more_operations(failed,
                                                                  status):
    row = bench_pairs.metric_row(PARENT, CHANGE, WALL, claimed=True,
                                 failed=failed)
    assert row["wins"] == 10
    assert row["status"] == status


def test_failed_operations_leave_an_unclaimed_row_alone():
    row = bench_pairs.metric_row(PARENT, CHANGE, WALL, claimed=False,
                                 failed=(0, 1))
    assert row["status"] == "lower in every run"


def test_outputs_compare_equal_apart_from_the_hash_line(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # the two sides differ only on each CSV's hash line and the run directory
    for side, digest in ((parent, "cafe"), (change, "beef")):
        side.mkdir()
        (side / "probes.csv").write_text(f"# config_hash={digest}\nt,v\n1,0.125\n")
        (side / "scatter_summary.json").write_text(
            f'{{\n  "records": 2,\n  "trajectory": "{side}"\n}}\n')
    (change / "wtable.csv").write_text("# config_hash=beef\nv,t\n")
    assert bench_pairs.compare_outputs(parent, change) == {
        "identical": ["probes.csv", "scatter_summary.json"],
        "differ": ["wtable.csv"]}
    # one changed digit in each
    (change / "probes.csv").write_text("# config_hash=beef\nt,v\n1,0.126\n")
    (change / "scatter_summary.json").write_text(
        '{\n  "records": 3,\n  "trajectory": "elsewhere"\n}\n')
    assert bench_pairs.compare_outputs(parent, change)["differ"] == [
        "probes.csv", "scatter_summary.json", "wtable.csv"]
