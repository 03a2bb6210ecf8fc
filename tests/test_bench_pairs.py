"""The status rule of scripts/bench_pairs.py, which writes the BENCH_*.json
files."""

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
