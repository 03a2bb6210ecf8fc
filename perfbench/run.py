"""End-to-end and per-layer benchmark of the shortpulse CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: the workload's commands run one at a time,
each in a fresh ``python3`` process through ``shortpulse.cli.main`` (the
console-script entry point), without ``--jobs`` or ``--force``.  Iterations
repeat until the next one would overrun ``--seconds`` (at least one runs).
Every command's outputs go through the correctness gate in ``gate.py``.

``--trace 0`` reports the end-to-end metrics: medians over the run's
iterations, untraced.  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics from the traced ones plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
restate each metric with its unit and sample count.  Scratch files and a
full ``result.json`` go to ``.perfbench_work/<workload>/`` in the checkout.
See README.md in this directory for the workloads, metrics and layer map.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from layers import LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

LAUNCH = HERE / "launch.py"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 10         # set-up-only repetitions of the workload's processes
DEADLINE_S = 170.0        # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMAND_UNITS = {"cli.simulate_s": "s", "cli.scatter_s": "s", "cli.appendix_s": "s"}


class Runner:
    """Spawns the workload's processes and keeps every operation's record."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.compare_reference = seed == DEFAULT_SEED
        self.work = work
        self.config = work / "run.ini"
        self.config.write_text(config_text(workload, seed))
        self.out_dir = work / "out"
        self.deadline = time.monotonic() + DEADLINE_S
        self.ops = []
        self.setup_samples = []   # per-iteration sums of process set-up times
        self.peak_rss_kb = 0
        self._serial = 0

    def _spawn(self, mode, args):
        """Run one launcher process to completion -> its stats dict."""
        self._serial += 1
        tag = f"{self._serial:04d}"
        stats_path = self.work / f"stats_{tag}.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline reached")
        with open(self.work / f"stdout_{tag}.txt", "w") as out, \
                open(self.work / f"stderr_{tag}.txt", "w") as err:
            spawn_t = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(stats_path), mode, "--", *args],
                stdout=out, stderr=err, cwd=ROOT)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise TimeoutError(f"command {args[:1]} overran the benchmark deadline")
            exit_t = time.monotonic()
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, ValueError):
            stats = {}
        stats_path.unlink(missing_ok=True)
        stats.update(exit_code=proc.returncode, spawn=spawn_t, exit=exit_t, tag=tag)
        ready = stats.get("ready", stats.get("main_start", exit_t))
        stats["setup_s"] = ready - spawn_t
        stats["command_s"] = exit_t - ready
        self.peak_rss_kb = max(self.peak_rss_kb, stats.get("maxrss_kb", 0))
        return stats

    def setup_probe(self):
        """Set-up only, once per process of the workload -> summed seconds."""
        total = 0.0
        for _ in self.workload.commands:
            total += self._spawn("setup", [str(self.config)])["setup_s"]
        return total

    def _command_args(self, command, out_dir):
        args = [command, "--config", str(self.config)]
        if command == "scatter":
            args += ["--traj", str(out_dir)]
        return args + ["--out", str(out_dir)]

    def iteration(self, mode="run", keep=False):
        """One pass over the workload's commands -> iteration record.

        Outputs are gated and then deleted (unless ``keep``) while their
        pages are still unwritten: on ext4 (README.md), deleting or truncating
        a snapshot file whose blocks are already allocated blocks for tens
        of milliseconds per file, which would only lengthen the run."""
        out_dir = self.out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        procs = []
        for command in self.workload.commands:
            stats = self._spawn(mode, self._command_args(command, out_dir))
            stats["command"] = command
            procs.append(stats)
        record = {
            "mode": mode,
            "wall_s": procs[-1]["exit"] - procs[0]["spawn"],
            "setup_s": sum(p["setup_s"] for p in procs),
            "commands": {p["command"]: p["command_s"] for p in procs},
            "procs": procs,
        }
        for stats in procs:
            self._gate(stats, out_dir)
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return record

    def _gate(self, stats, out_dir):
        text = (self.work / f"stdout_{stats['tag']}.txt").read_text()
        try:
            summary = json.loads(text)
        except ValueError:
            summary = None
        stats["summary"] = summary
        op = {"command": stats["command"], "exit_code": stats["exit_code"],
              "summary": summary, "out_dir": str(out_dir)}
        problems = gate.check(op, self.workload, self.compare_reference)
        self.ops.append({"command": stats["command"], "tag": stats["tag"],
                         "problems": problems})

    def prepare(self):
        """Untimed warm-up: one set-up-only process fills the file cache and
        writes the ``.pyc`` files."""
        self._spawn("setup", [str(self.config)])


def _keep_going(start, seconds, last_wall, runner):
    elapsed = time.monotonic() - start
    return (elapsed + last_wall <= seconds
            and time.monotonic() + 1.5 * last_wall < runner.deadline)


def measure(runner, seconds, trace):
    """Run iterations for about ``seconds`` -> (untraced, traced) records."""
    runner.prepare()
    for _ in range(0 if trace else SETUP_PROBES):
        runner.setup_samples.append(runner.setup_probe())
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(runner.iteration("run"))
        runner.setup_samples.append(untraced[-1]["setup_s"])
        last = untraced[-1]["wall_s"]
        if trace:
            traced.append(runner.iteration("trace"))
            last += traced[-1]["wall_s"]
        if not _keep_going(start, seconds, last, runner):
            return untraced, traced


def end_to_end_metrics(runner, untraced):
    return {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(runner.setup_samples),
        "peak_rss_mb": runner.peak_rss_kb / 1024.0,
    }


def command_metrics(untraced):
    """Untraced time of each command, 0 for commands the workload lacks."""
    return {f"cli.{command}_s": statistics.median(r["commands"].get(command, 0.0)
                                                  for r in untraced)
            for command in ("simulate", "scatter", "appendix")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shortpulse" / "cli.py").is_file():
        print(f"error: no shortpulse sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work)
    try:
        untraced, traced = measure(runner, args.seconds, bool(args.trace))
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics = layer_metrics(traced, untraced)
        metrics.update(command_metrics(untraced))
        units = dict(LAYER_UNITS, **COMMAND_UNITS)
    else:
        metrics = end_to_end_metrics(runner, untraced)
        units = END_TO_END_UNITS
    failed = sum(1 for op in runner.ops if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": len(untraced), "traced_iterations": len(traced),
        "setup_samples": runner.setup_samples,
        "untraced": [_strip(r) for r in untraced],
        "operations": runner.ops,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1, default=str))
    for op in runner.ops:
        for problem in op["problems"]:
            print(f"FAILED {op['command']} [{op['tag']}]: {problem}")
    iterations = len(traced) if args.trace else len(untraced)
    basis = {"setup_s": f"median of {len(runner.setup_samples)} set-up samples",
             "peak_rss_mb": "largest of the run's processes"}
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']} "
              f"({basis.get(name, f'median of {iterations} iterations')})")
    print(json.dumps(result))
    return 0


def _strip(record):
    """An iteration record without the bulky spans and summaries."""
    return dict(record, procs=[{k: v for k, v in p.items() if k not in ("trace", "summary")}
                               for p in record["procs"]])


if __name__ == "__main__":
    sys.exit(main())
