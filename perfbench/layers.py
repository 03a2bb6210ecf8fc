"""Per-layer metrics from traced iterations.

Metric names are ``<layer>.<function>.<stat>`` with the layer's module name;
the ``_kernels`` module is reported as ``kernels`` because a metric name
must start with a letter or a digit.  Each metric derived from a function
is reported only when the tracer found that function, so a function that a
later version deletes or renames leaves its metrics absent instead of
failing the run; a function that exists but did not run on the workload
reports 0.
"""

import statistics
from collections import Counter

from tracer import LAYERS, summarize

# the default probe ray set (17 velocities); the workloads do not override it
PROBE_VELOCITIES = 17

_TIMED = {  # span name -> stats reported for it
    "_kernels.spectrum": ("calls", "self_s", "us_p50", "us_p99"),
    "evolve.step_checked": ("calls", "self_s", "total_s", "ms_p50", "ms_p99"),
    "evolve.step_raw": ("self_s",),
    "evolve.make_snapshot": ("self_s",),
    "norms.compute_record": ("calls", "self_s", "total_s"),
    "norms.decomposition_monitors": ("self_s", "total_s"),
    "bands.hyp_ell_decompose": ("self_s", "total_s"),
    "storage.save_trajectory": ("self_s", "total_s"),
    "storage.write_field": ("self_s",),
    "storage.load_trajectory": ("self_s", "total_s"),
    "packets.probe_snapshot": ("calls", "self_s", "total_s"),
    "counterexample.lhs": ("calls", "self_s"),
    "counterexample.scan_case": ("calls",),
    # traced command times, the base for each layer's share of its command
    "cli.cmd_simulate": ("total_s",),
    "cli.cmd_scatter": ("total_s",),
    "cli.cmd_appendix": ("total_s",),
}
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_p50": "us",
          "us_p99": "us", "ms_p50": "ms", "ms_p99": "ms"}
QUADRATURE = ("counterexample.hs_sq_log", "counterexample.weighted_sq")


def metric_name(span_name, stat):
    return f"{span_name.lstrip('_')}.{stat}"


LAYER_UNITS = {metric_name(span, stat): _UNITS[stat]
               for span, stats in _TIMED.items() for stat in stats}
LAYER_UNITS.update({
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "evolve.halvings": "count",
    "evolve.fd_probe.calls": "count",
    "storage.bytes_written": "bytes",
    "storage.files_replaced": "count",
    "packets.probe_yield": "ratio",
    "counterexample.quadrature.self_s": "s",
    "config.load_config_s": "s",
    "trace.overhead_s": "s",
})
LAYER_UNITS.update({f"{layer.lstrip('_')}.self_s": "s" for layer in LAYERS})


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def iteration_metrics(record):
    """Per-layer metrics of one traced iteration (all of its processes)."""
    table, counts, wrapped = {}, Counter(), set()
    fd_probes = halvings = records = 0
    for proc in record["procs"]:
        trace = proc.get("trace")
        if not trace:
            continue
        spans = [tuple(s) for s in trace["spans"]]
        for name, row in summarize(spans).items():
            into = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "durations": []})
            for key in ("calls", "total_s", "self_s"):
                into[key] += row[key]
            into["durations"] += row["durations"]
        for owner, key, value in trace["counts"]:
            counts[(owner, key)] += value
        wrapped.update(trace["wrapped"])
        fd_probes += sum(1 for name, _, _, parent in spans
                         if name == "evolve.step_raw"
                         and (parent < 0 or spans[parent][0] != "evolve.step_checked"))
        summary = proc.get("summary") or {}
        if proc.get("command") == "simulate":
            halvings += int(summary.get("halvings") or 0)
        elif proc.get("command") == "scatter":
            records += int(summary.get("records") or 0)

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    out = {}
    for span, stats in _TIMED.items():
        if span not in wrapped:
            continue
        row = table.get(span, empty)
        for stat in stats:
            if stat in ("calls", "self_s", "total_s"):
                value = row[stat]
            else:
                scale = 1e6 if stat.startswith("us") else 1e3
                value = scale * _percentile(row["durations"], int(stat[-2:]))
            out[metric_name(span, stat)] = value

    out["spectral.fft_calls"] = sum(v for (_, k), v in counts.items() if k == "fft_calls")
    out["spectral.fft_points"] = sum(v for (_, k), v in counts.items() if k == "fft_points")
    out["evolve.halvings"] = halvings
    if {"evolve.step_raw", "evolve.step_checked"} <= wrapped:
        out["evolve.fd_probe.calls"] = fd_probes
    out["storage.bytes_written"] = counts[("storage", "bytes_written")]
    out["storage.files_replaced"] = counts[("storage", "files_replaced")]
    if "packets.probe_snapshot" in wrapped:
        calls = table.get("packets.probe_snapshot", empty)["calls"]
        out["packets.probe_yield"] = records / (calls * PROBE_VELOCITIES) if calls else 0.0
    if all(name in wrapped for name in QUADRATURE):
        out["counterexample.quadrature.self_s"] = sum(
            table.get(name, empty)["self_s"] for name in QUADRATURE)
    if "config.load_config" in wrapped:
        out["config.load_config_s"] = table.get("config.load_config", empty)["total_s"]
    for layer in LAYERS:
        prefix = layer + "."
        if any(name.startswith(prefix) for name in wrapped):
            out[f"{layer.lstrip('_')}.self_s"] = sum(
                row["self_s"] for name, row in table.items() if name.startswith(prefix))
    return out


def layer_metrics(traced, untraced):
    """Median over traced iterations of each per-layer metric, plus the
    tracing overhead: median traced wall time minus median untraced."""
    per_iteration = [iteration_metrics(record) for record in traced]
    names = [name for name in per_iteration[0] if all(name in m for m in per_iteration)]
    out = {name: statistics.median(m[name] for m in per_iteration) for name in names}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in untraced))
    return out
