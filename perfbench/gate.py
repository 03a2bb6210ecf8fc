"""Correctness gate: one verdict per command the benchmark ran.

An operation fails when

* its process exits nonzero, or its JSON summary carries a ``status`` other
  than ``completed`` (``scatter`` and ``appendix`` print no status when they
  succeed; an error summary always has one);
* at any seed, it breaks an invariant: the L2 column of ``norms.csv`` drifts
  by more than ``L2_DRIFT`` relative, ``norms.csv``/``scan.csv`` have the
  wrong row count, ``original_unbounded`` is false, ``corrected_exponent`` is
  not negative, or the ``degenerate`` fits differ from the workload's;
* at the default seed, ``norms.csv``, ``probes.csv``, ``scan.csv`` or
  ``verdict.json`` differ from the seed commit's outputs stored under
  ``reference/`` by more than ``RTOL`` (below).

Tolerances.  ``L2_DRIFT = 1e-8`` is the acceptance battery's own bound on
L2 drift (test_mass_and_mean_conservation; the code measures ~1e-14).
``RTOL = 1e-6`` bounds the difference from the stored outputs, relative to
each column's largest magnitude for ``norms.csv``/``probes.csv`` (so
entries near zero are judged on the column's scale) and relative to each
value for ``scan.csv`` and the verdict's numbers, which span many decades.
It is 100 times the tests' agreement bounds of 1e-8 (self-convergence:
doubling n moves every t = 1 norm by <= 1e-8; the appendix quadrature
gate: doubling the resolution moves every value by <= 1e-8).  Rewrites
that keep the numbers within those bounds therefore pass: the measured
``**3``-to-multiplication kernel change moves the final field by 1.5e-15,
the planned refactors by <= 1e-14 and doubling dt to 0.02 by 3e-9.  A
change of what is computed (datum, grid, step, window or formula) moves
the outputs by far more: the seeds' +-10 % in epsilon already moves the
norms by about 10 %.  Boolean, integer and NaN entries must match exactly.
"""

import csv
import gzip
import json
import math
from pathlib import Path

RTOL = 1e-6
L2_DRIFT = 1e-8
REFERENCE = Path(__file__).resolve().parent / "reference"
# verdict.json keys compared with the reference; the hash and version stamps
# legitimately change between commits
VERDICT_KEYS = ("rho", "scales", "original_exponent", "corrected_exponent",
                "original_unbounded", "first_crossing_N", "predicted_exponent",
                "near_degenerate")


def read_table(path):
    """CSV written by shortpulse (optionally gzipped) -> {column: [floats]}."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    columns = {name: [] for name in header}
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: row of {len(row)} cells for {len(header)} columns")
        for name, cell in zip(header, row):
            columns[name].append(float(cell))
    return columns


def compare_tables(actual, reference, per_value=False, rtol=RTOL):
    """Problems found comparing two tables column by column.

    Every reference column must be present with the same length; columns
    the reference lacks are ignored, so a later version may add columns.
    """
    problems = []
    for name, ref in reference.items():
        got = actual.get(name)
        if got is None:
            problems.append(f"column {name} missing")
            continue
        if len(got) != len(ref):
            problems.append(f"column {name}: {len(got)} rows, reference has {len(ref)}")
            continue
        finite = [abs(v) for v in ref if math.isfinite(v)]
        scale = max(finite, default=0.0)
        for i, (a, b) in enumerate(zip(got, ref)):
            if math.isnan(b) or math.isnan(a):
                ok = math.isnan(a) and math.isnan(b)
            else:
                ok = abs(a - b) <= rtol * (abs(b) if per_value else scale)
            if not ok:
                problems.append(f"column {name} row {i}: {a!r} vs reference {b!r}")
                break
    return problems


def compare_verdict(actual, reference, rtol=RTOL):
    problems = []
    for key in VERDICT_KEYS:
        a, b = actual.get(key), reference.get(key)
        if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
            ok = abs(a - b) <= rtol * max(abs(b), 1e-300)
        else:
            ok = a == b
        if not ok:
            problems.append(f"verdict {key}: {a!r} vs reference {b!r}")
    return problems


def l2_drift(norms):
    l2 = norms["L2"]
    return max(abs(v - l2[0]) for v in l2) / l2[0]


def check(op, workload, compare_reference):
    """Problems with one finished operation; an empty list means it passed.

    ``op`` has ``command``, ``exit_code``, ``summary`` (the parsed stdout
    JSON, or None) and ``out_dir``.
    """
    if op["exit_code"] != 0:
        return [f"exit code {op['exit_code']}"]
    summary = op["summary"]
    if not isinstance(summary, dict) or summary.get("command") != op["command"]:
        return ["no JSON summary on stdout"]
    if summary.get("status", "completed") != "completed":
        return [f"status {summary['status']}: {summary.get('error')}"]
    out = Path(op["out_dir"])
    ref_dir = REFERENCE / workload.name
    problems = []
    try:
        if op["command"] == "simulate":
            norms = read_table(out / "norms.csv")
            if len(norms["t"]) != workload.snapshots:
                problems.append(f"norms.csv has {len(norms['t'])} rows, "
                                f"expected {workload.snapshots}")
            drift = l2_drift(norms)
            if not drift <= L2_DRIFT:
                problems.append(f"L2 drift {drift:.3e} exceeds {L2_DRIFT:g}")
            if compare_reference:
                problems += compare_tables(norms, read_table(ref_dir / "norms.csv.gz"))
        elif op["command"] == "scatter":
            found = tuple(summary.get("degenerate", ()))
            if found != workload.degenerate:
                problems.append(f"degenerate fits {found}, expected {workload.degenerate}")
            if compare_reference:
                problems += compare_tables(read_table(out / "probes.csv"),
                                           read_table(ref_dir / "probes.csv.gz"))
        elif op["command"] == "appendix":
            with open(out / "verdict.json") as fh:
                verdict = json.load(fh)
            scan = read_table(out / "scan.csv")
            if len(scan["N"]) != workload.scan_rows:
                problems.append(f"scan.csv has {len(scan['N'])} rows, "
                                f"expected {workload.scan_rows}")
            if verdict.get("original_unbounded") is not True:
                problems.append("original_unbounded is not true")
            exponent = verdict.get("corrected_exponent")
            if not (isinstance(exponent, (int, float)) and exponent < 0):
                problems.append(f"corrected_exponent {exponent!r} is not negative")
            if compare_reference:
                problems += compare_tables(scan, read_table(ref_dir / "scan.csv.gz"),
                                           per_value=True)
                with open(ref_dir / "verdict.json") as fh:
                    problems += compare_verdict(verdict, json.load(fh))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
