"""Tests of the benchmark's own code: span arithmetic, tracer hygiene,
count repeatability and the correctness gate.

    python3 -m pytest perfbench/tests
"""

import gzip
import importlib
import inspect
import json
import subprocess
import sys

import pytest

import gate
from layers import iteration_metrics
from tracer import LAYERS, Tracer, covered_length, self_times, summarize
from workloads import WORKLOADS

LAUNCH = gate.REFERENCE.parent / "launch.py"
TINY_SOLVER = """[solver]
n = 0x400
L = 64
dt = 0.02
T = 2
wrap_tol = 0.5
[appendix]
N_min = 32
N_max = 64
"""


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),    # overlaps its sibling b on [3, 4]
        ("b", 3.0, 6.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("c", 9.0, 12.0, 0),   # runs past its parent's end: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])
    table = summarize(spans + [("leaf", 6.5, 7.0, 0)])
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_s"] == pytest.approx(1.5)
    assert table["root"]["self_s"] == pytest.approx(3.5)


def _bindings():
    """Identity of every attribute the tracer may touch."""
    import numpy.fft
    import scipy.fft

    owners = [scipy.fft, numpy.fft]
    for layer in LAYERS:
        module = importlib.import_module(f"shortpulse.{layer}")
        owners.append(module)
        owners.extend(v for v in vars(module).values() if inspect.isclass(v))
    owners.extend(m for n, m in sys.modules.items() if n.startswith("shortpulse") and m)
    return {(id(owner), attr): id(value)
            for owner in owners for attr, value in list(vars(owner).items())}


def test_traced_run_restores_every_wrapped_function(tmp_path):
    from shortpulse import cli, norms

    config = tmp_path / "tiny.ini"
    config.write_text(TINY_SOLVER)
    before = _bindings()
    original = norms.hyp_ell_decompose
    tracer = Tracer()
    with tracer:
        assert norms.hyp_ell_decompose is not original
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["appendix", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    assert "_kernels.spectrum" in tracer.wrapped
    names = {span[0] for span in tracer.spans}
    assert {"_kernels.spectrum", "evolve.step_checked", "counterexample.lhs",
            "config.load_config"} <= names
    assert all(span is not None for span in tracer.spans)
    assert _bindings() == before
    assert norms.hyp_ell_decompose is original


def _traced_counts(tmp_path, tag):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_SOLVER)
    stats = tmp_path / f"stats_{tag}.json"
    subprocess.run([sys.executable, str(LAUNCH), str(stats), "trace", "--",
                    "simulate", "--config", str(config), "--out", str(tmp_path / tag)],
                   check=True, capture_output=True)
    proc = json.loads(stats.read_text())
    proc.update(command="simulate", summary={"halvings": 0})
    return iteration_metrics({"procs": [proc]})


def test_count_metrics_repeat_across_traced_runs(tmp_path):
    first = _traced_counts(tmp_path, "one")
    second = _traced_counts(tmp_path, "two")
    for name in ("kernels.spectrum.calls", "spectral.fft_calls",
                 "evolve.step_checked.calls", "norms.compute_record.calls"):
        assert first[name] > 0
        assert first[name] == second[name], name


def _simulate_op(tmp_path, norms_text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "norms.csv").write_text(norms_text)
    return {"command": "simulate", "exit_code": 0, "out_dir": str(out),
            "summary": {"command": "simulate", "status": "completed"}}


def test_gate_passes_the_reference_itself(tmp_path):
    workload = WORKLOADS["mini_dense"]
    with gzip.open(gate.REFERENCE / workload.name / "norms.csv.gz", "rt") as fh:
        text = fh.read()
    assert gate.check(_simulate_op(tmp_path, text), workload, True) == []


def test_gate_fails_one_perturbed_norms_value(tmp_path):
    workload = WORKLOADS["mini_dense"]
    with gzip.open(gate.REFERENCE / workload.name / "norms.csv.gz", "rt") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    row = lines[100].split(",")
    col = header.index("Hs")
    row[col] = repr(float(row[col]) * (1.0 + 1e-5))
    lines[100] = ",".join(row)
    problems = gate.check(_simulate_op(tmp_path, "\n".join(lines) + "\n"), workload, True)
    assert len(problems) == 1 and "column Hs row 98" in problems[0]


def test_benchmark_json_matches_the_code():
    from layers import LAYER_UNITS
    from run import COMMAND_UNITS, END_TO_END_UNITS, ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**LAYER_UNITS, **COMMAND_UNITS}
