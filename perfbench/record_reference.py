"""Store the current commit's outputs as the gate's reference.

    python3 perfbench/record_reference.py [WORKLOAD ...]

runs each workload once at the default seed and writes its output tables
(gzipped) and verdict to ``perfbench/reference/<workload>/``.  The stored
files are the seed commit's outputs; re-record only when an output change
is intended and argued in the change that makes it.
"""

import gzip
import shutil
import sys

import gate
from run import WORK, Runner
from workloads import DEFAULT_SEED, WORKLOADS

TABLES = ("norms.csv", "probes.csv", "scan.csv")


def record(name):
    workload = WORKLOADS[name]
    work = WORK / f"record_{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, DEFAULT_SEED, work)
    runner.compare_reference = False
    runner.prepare()
    runner.iteration("run", keep=True)
    out_dir = runner.out_dir
    for op in runner.ops:
        if op["problems"]:
            raise SystemExit(f"{name}: {op['command']} failed the gate: {op['problems']}")
    target = gate.REFERENCE / name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for table in TABLES:
        if (out_dir / table).exists():
            with open(out_dir / table, "rb") as src, \
                    gzip.GzipFile(target / f"{table}.gz", "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
    if (out_dir / "verdict.json").exists():
        shutil.copy(out_dir / "verdict.json", target / "verdict.json")
    print(f"{name}: reference written to {target}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
