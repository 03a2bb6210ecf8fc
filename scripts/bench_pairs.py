"""Alternating pairs of perfbench runs on two commits -> a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV --change REV \
        --workload ref_grid --seed 0 --pairs 10 --out BENCH_19.json \
        --work DIR [--claim wall_s] [--what TEXT]

Each side runs in a fresh ``git archive`` of its commit, unpacked under
``--work``.  Pair i runs ``python3 perfbench/run.py --workload W --seed S
--seconds 30`` (the ``run_seconds`` of BENCHMARK.json) on both sides, the
parent first in even pairs and the change first in odd ones, and keeps each
end-to-end metric from the run's final result line.  The workload's entry
``<workload>_<seed>`` is written into ``--out``, which keeps the entries of
earlier invocations, so one file collects several workloads and seeds.
``--workload reference_evolve`` times, in the same alternating pairs, the
``evolve`` call of the T = 200 reference run (README's quick start: the
default config with T = 200, wrap_tol = 0.02) and counts its checked
steps, which include the band redos.  ``evolve`` fills each snapshot's
whole norms.csv row, so the timed call includes the decomposition
monitors: on a 2-core x86_64 host (Python 3.11.7, numpy 2.4.6) they took
0.48-0.62 s over the run's 63 snapshots at t >= 1, about 8 ms each at
n = 2^15.  An ``evolve_s`` of a commit whose ``evolve`` leaves the
monitors out, such as BENCH_19.json's 48.1 s, does not compare with it.

Each metric row holds both sides' runs, medians and quartiles, the pairs
the change wins and the status defined in the file's ``status`` field: the
claimed metric (``--claim``) is "claim met" when the change wins at least
nine tenths of the pairs, its median beats the parent's by more than the
parent's interquartile distance and its runs fail no more operations in sum
than the parent's; every other row compares the medians against the
metric's BENCHMARK.json bound.
"""

import argparse
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
REFERENCE_EVOLVE = "reference_evolve"
EVOLVE_SNIPPET = """
import dataclasses, json, time
from shortpulse.config import default_config
from shortpulse.evolve import Stepper, evolve
cfg = default_config()
solver = dataclasses.replace(cfg.solver, t_final=200.0, wrap_tol=0.02)
u0 = cfg.initial_field()
calls, checked = [], Stepper.step_checked

def count(self, *args):
    calls.append(1)
    return checked(self, *args)

Stepper.step_checked = count
start = time.perf_counter()
evolve(u0, solver)
print(json.dumps({"evolve_s": time.perf_counter() - start,
                  "checked_steps": len(calls)}))
"""

QUARTILES = "numpy.percentile, linear interpolation, over the runs of one side"
WIN = "the change's value is better than the parent's in the same pair " \
      "(lower for every metric here)"
STATUS = ("claim: met or not met by the rule above, and not met whenever "
          "the change's runs fail more operations in sum than the parent's; "
          "other rows: 'lower in every run' when every change run beats "
          "every parent run, else "
          "'unresolved' when either side's interquartile distance over its "
          "median exceeds the metric's BENCHMARK.json bound, else 'within "
          "bound' when the change's median is no worse than the parent's by "
          "more than the bound, else 'regression'")


def checkout(rev, dest):
    """A fresh ``git archive`` of ``rev`` unpacked at ``dest``."""
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree, workload, seed, seconds):
    """One perfbench run in ``tree`` -> its final result line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_evolve(tree):
    """The reference evolve timed in ``tree`` -> {evolve_s, checked_steps}."""
    proc = subprocess.run(
        [sys.executable, "-c", EVOLVE_SNIPPET], cwd=tree, capture_output=True,
        text=True, check=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    return json.loads(proc.stdout)


def _side(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": runs}


def metric_row(parent, change, spec, claimed, failed):
    """Both sides' statistics of one metric and its status; ``failed``
    holds the (parent, change) sums of failed operations over the runs."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    row = {"parent": _side(parent), "change": _side(change)}
    p, c = row["parent"], row["change"]
    row["wins"] = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    row["median_change_rel"] = c["median"] / p["median"] - 1.0
    gain = sign * (p["median"] - c["median"])
    if claimed:
        met = (row["wins"] >= math.ceil(0.9 * len(parent))
               and gain > p["q3"] - p["q1"] and failed[1] <= failed[0])
        row["status"] = "claim met" if met else "claim not met"
    elif all(sign * (a - b) > 0 for a in parent for b in change):
        row["status"] = "lower in every run"
    elif any((s["q3"] - s["q1"]) / s["median"] > spec["bound"] for s in (p, c)):
        row["status"] = "unresolved"
    elif -gain <= spec["bound"] * p["median"]:
        row["status"] = "within bound"
    else:
        row["status"] = "regression"
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--work", required=True,
                        help="scratch directory for the two checkouts")
    parser.add_argument("--claim", help="the end-to-end metric claimed to improve")
    parser.add_argument("--what", help="what the file measures, for its 'what' field")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    work = Path(args.work) / f"{args.workload}_{args.seed}"
    trees = {side: checkout(rev, work / side)
             for side, rev in zip(SIDES, (args.parent, args.change))}

    evolve_only = args.workload == REFERENCE_EVOLVE
    first, results = [], {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            if evolve_only:
                result = run_evolve(trees[side])
                print(f"pair {i} {side}: {result['evolve_s']:.2f} s evolve, "
                      f"{result['checked_steps']} checked steps", file=sys.stderr)
            else:
                result = run_once(trees[side], args.workload, args.seed,
                                  bench["run_seconds"])
                print(f"pair {i} {side}: "
                      f"{result['metrics']['wall_s']['value']:.3f} s wall, "
                      f"{result['failed']} failed", file=sys.stderr)
            results[side].append(result)

    if evolve_only:
        entry = {
            "workload": args.workload,
            "what": "seconds in evolve of the T = 200 reference run (the "
                    "default config with T = 200, wrap_tol = 0.02), one fresh "
                    "interpreter per run; checked_steps counts "
                    "Stepper.step_checked calls, band redos included",
            "pairs": args.pairs, "first": first,
            "checked_steps": {s: [r["checked_steps"] for r in results[s]]
                              for s in SIDES},
            "metrics": {"evolve_s": metric_row(
                *([r["evolve_s"] for r in results[s]] for s in SIDES),
                specs["wall_s"], claimed=False, failed=(0, 0))},
        }
    else:
        failed = {s: [r["failed"] for r in results[s]] for s in SIDES}
        entry = {
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "first": first,
            "failed_operations": failed,
            "attempted_operations": {s: [r["attempted"] for r in results[s]]
                                     for s in SIDES},
            "metrics": {
                name: metric_row(
                    *([r["metrics"][name]["value"] for r in results[s]]
                      for s in SIDES),
                    spec, claimed=name == args.claim,
                    failed=tuple(sum(failed[s]) for s in SIDES))
                for name, spec in specs.items()
            },
        }

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("what", args.what or "")
    doc.setdefault("host", f"{os.cpu_count()}-core {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}; "
                   "host speed varies between sessions, so compare seconds "
                   "only within this file")
    doc.update(quartiles=QUARTILES, win=WIN, status=STATUS)
    doc.setdefault("workloads", {})[f"{args.workload}_{args.seed}"] = entry
    if args.claim:
        claimed = sorted(k for k, w in doc["workloads"].items()
                         if w["metrics"][args.claim]["status"].startswith("claim"))
        doc["claim"] = (f"{args.claim} on {', '.join(claimed)} (workload_seed) "
                        "drops: the change must win at least nine tenths of "
                        "the pairs and its median must beat the parent's by "
                        "more than the parent's interquartile distance")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
