"""End-to-end runs of the command-line interface via subprocess, and the
load-time config checks the CLI relies on."""

import configparser
import errno
import json
import math
import re
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shortpulse import cli, storage
from shortpulse.config import _SCHEMA, load_config
from shortpulse.errors import ConfigError
from shortpulse.evolve import Trajectory
from shortpulse.norms import NormRecord
from shortpulse.packets import HALF_WIDTH, VELOCITIES
from shortpulse.spectral import Field
from shortpulse.storage import (PROVENANCE, read_field, save_trajectory,
                                write_field)
from oracles import read_csv

TINY_INI = textwrap.dedent("""\
    [solver]
    n = 0x400
    L = 64
    dt = 0.02
    step_tol = 0
    T = 2
    snap_t0 = 1.0
    [initial]
    epsilon = 0.1
""")

TINY_HASH = "9d42fa13ff2bc9dd"
RETUNED_HASH = "26465472e22a6a91"   # same run with dt = 0.01

# measured at the fixed dt = 0.02 that TINY_INI pins with step_tol = 0
tiny_final_norms = {"L2": 0.11195151349202641, "Linf": 0.08519106086423486,
                    "Xs": 11.759277264378559, "wrapfrac": 0.0017995627998332472}

SELFTEST_NAMES = {
    "transform_round_trip", "parseval", "propagator_unitarity",
    "propagator_group_law", "vector_field_conjugation", "scaling_selftest",
    "lp_partition_of_unity", "hyp_ell_recomposition",
    "antiderivative_inverse", "hamiltonian_conservation",
}

# the statistics scatter can list as degenerate, in the order it lists
# them; modulus_drift is null exactly where phase_drift_relerr is
FIT_KEYS = ("linf_slope", "xs_exponent", "l2_drift", "h1_flux_gap",
            "ode_residual_slope", "phase_drift_relerr", "W_stability_slope",
            "profile_remainder_slope")
PER_RAY_KEYS = ("ode_residual_slope", "phase_drift_relerr", "modulus_drift")


def unformed(summary, key):
    """Whether a summary statistic is null, on some ray for a per-ray one."""
    return None in summary[key] if key in PER_RAY_KEYS else summary[key] is None


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "shortpulse.cli", *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    out = root / "run"
    proc = run_cli("simulate", "--config", str(ini), "--out", str(out))
    return ini, out, proc


@pytest.fixture(scope="module")
def zero_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("zero")
    ini = root / "zero.ini"
    ini.write_text(TINY_INI.replace("epsilon = 0.1", "epsilon = 0.0"))
    out = root / "run"
    sim = run_cli("simulate", "--config", str(ini), "--out", str(out))
    assert sim.returncode == 0
    scat_out = root / "scatter"
    scat = run_cli("scatter", "--config", str(ini), "--traj", str(out),
                   "--out", str(scat_out))
    return scat_out, scat


def test_selftest_passes_and_is_deterministic():
    first = run_cli("selftest")
    second = run_cli("selftest")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["passed"] == 10
    assert report["failed"] == 0
    assert {c["name"] for c in report["checks"]} == SELFTEST_NAMES
    assert all(c["ok"] for c in report["checks"])


def test_selftest_catches_a_seeded_corruption(monkeypatch, capsys):
    # sigma(0) != 1 by 1e-3 would leave the partition of unity off by that
    checks = [(name, err + 1e-3 if name == "lp_partition_of_unity" else err,
               tol) for name, err, tol in cli._selftest_checks()]
    monkeypatch.setattr(cli, "_selftest_checks", lambda: checks)
    assert cli.main(["selftest"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failed_names"] == ["lp_partition_of_unity"]
    assert report["passed"] == 9


def test_simulate_reports_and_stores_the_run(tiny_run):
    ini, out, proc = tiny_run
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["status"] == "completed"
    assert summary["error"] is None
    assert summary["config_hash"] == TINY_HASH
    assert summary["snapshots"] == 10
    assert summary["final_t"] == 2.0
    # 100 steps of dt and 3 cut short to land on a snapshot time
    assert summary["steps"] == 103 and summary["rejected_steps"] == 0
    assert summary["h_min"] == summary["h_max"] == 0.02
    # the datum starts on n/4 and widens to n/2 on the step from t = 0.02
    assert summary["band"] == 512 and summary["band_widenings"] == [0.02]
    assert summary["tail_headroom"] is None  # n/2 has no top quarter to watch
    provenance = json.loads((out / "manifest.json").read_text())["provenance"]
    for key in PROVENANCE:
        assert provenance[key] == summary[key]
    assert sorted(summary["files"]) == ["manifest.json", "norms.csv"]
    for key, frozen in tiny_final_norms.items():
        assert summary["final_norms"][key] == pytest.approx(frozen, rel=1e-9)
    assert (out / "manifest.json").exists()
    bins = sorted(p.name for p in out.glob("snap_*.bin"))
    assert len(bins) == 10 and bins[0] == "snap_00000.bin"
    # one stderr line per written snapshot; stdout holds the summary alone
    progress = re.findall(r"^simulate: t=(\S+) K=(\d+) steps=(\d+) "
                          r"wrapfrac=(\S+) elapsed=\d+\.\d\ds$",
                          proc.stderr, re.M)
    assert [float(t) for t, *_ in progress] == pytest.approx(
        [0.0] + [2.0 ** (m / 8) for m in range(9)], rel=1e-5)
    # the band widens to n/2 on the first step, after the t = 0 snapshot
    assert [int(k) for _, k, _, _ in progress] == [256] + [512] * 9
    steps = [int(s) for _, _, s, _ in progress]
    assert steps[0] == 0 and steps == sorted(steps) and steps[-1] == 103
    assert float(progress[-1][3]) == pytest.approx(
        tiny_final_norms["wrapfrac"], rel=1e-3)


def test_simulate_reports_the_step_controller(tmp_path):
    # the tiny run at the default step_tol: two steps are redone smaller
    # and the longest steps exceed dt
    ini = tmp_path / "controlled.ini"
    ini.write_text(TINY_INI.replace("step_tol = 0\n", ""))
    proc = run_cli("simulate", "--config", str(ini), "--out",
                   str(tmp_path / "run"))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["rejected_steps"] > 0
    assert summary["h_min"] == 0.02 < summary["h_max"] <= 4 * math.pi / 64
    assert summary["snapshots"] == 10 and summary["final_t"] == 2.0
    assert (f"simulate: {summary['steps']} steps "
            f"({summary['rejected_steps']} rejected, h in [0.02, "
            f"{summary['h_max']:.4g}])") in proc.stderr


def test_norms_table_is_traceable_and_complete(tiny_run):
    _, out, _ = tiny_run
    path = out / "norms.csv"
    first = path.read_text().splitlines()[0]
    assert first.startswith(f"# config_hash={TINY_HASH}")
    header, rows = read_csv(path)
    assert header == list(NormRecord.COLUMNS)
    assert len(rows) == 10
    ts = [row[0] for row in rows]
    assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 2.0
    i_mon = NormRecord.COLUMNS.index("p32_hyp")
    assert all(math.isfinite(c) for row in rows for c in row[:i_mon])
    assert all(math.isnan(c) for c in rows[0][i_mon:])     # t = 0: no bands
    assert all(math.isfinite(c) for c in rows[-1][i_mon:])


def test_scatter_on_a_zero_field_reports_degenerate_fits(zero_run):
    scat_out, proc = zero_run
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["records"] == 153        # 9 probe times x 17 velocities
    assert len(summary["velocities"]) == 17
    assert min(summary["velocities"]) == -4.0
    assert max(summary["velocities"]) == -0.25
    for key in FIT_KEYS + PER_RAY_KEYS:
        assert summary[key] in (None, [None, None, None])
    assert summary["degenerate"] == list(FIT_KEYS)
    for name in ("probes.csv", "wtable.csv", "scatter_summary.json"):
        assert (scat_out / name).exists()
    stored = json.loads((scat_out / "scatter_summary.json").read_text())
    assert stored == summary


def test_a_non_finite_fit_is_listed_as_degenerate(tmp_path):
    # on a zero field |gamma| = 0, so the phase fit's target is 0 and its
    # relative error inf; by T = 48 the ray v = -1/sqrt(2) holds 9 samples
    # in [20, 48], one more than the fit needs
    ini = tmp_path / "zero48.ini"
    ini.write_text(TINY_INI.replace("epsilon = 0.1", "epsilon = 0.0")
                   .replace("T = 2", "T = 48"))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(ini), "--out",
                   str(out)).returncode == 0
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(out),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["phase_drift_relerr"][1] is None
    assert summary["modulus_drift"][1] is None
    assert "phase_drift_relerr" in summary["degenerate"]
    assert all(unformed(summary, key) == (key in summary["degenerate"])
               for key in FIT_KEYS)


def test_scatter_probes_the_last_snapshot_off_the_cadence(tmp_path):
    # T = 2.5 lies between the cadence times 2^{10/8} = 2.378 and 2^{11/8}:
    # the 11 cadence times and t = 2.5 are probed at all 17 rays
    ini = tmp_path / "off.ini"
    ini.write_text(TINY_INI.replace("T = 2\n", "T = 2.5\n"))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(ini), "--out",
                   str(out)).returncode == 0
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(out),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"] == 12 * len(VELOCITIES)
    header, rows = read_csv(tmp_path / "s" / "probes.csv")
    assert rows[-1][0] == 2.5
    # the file layout: one row per probed (t, v), in increasing (t, v), the
    # residual on each ray's interior probe times only; perfbench's
    # probe_yield reads the summary's record count as this row count
    assert len(rows) == json.loads(proc.stdout)["records"]
    col = {name: k for k, name in enumerate(header)}
    keys = [(row[col["t"]], row[col["v"]]) for row in rows]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for v in VELOCITIES:
        ray = [math.isnan(row[col["abs_res"]]) for row in rows
               if row[col["v"]] == v]
        assert ray == [True] + [False] * (len(ray) - 2) + [True], v
    # wtable.csv: the in-window probes in increasing (v, t), with their W
    w_header, w_rows = read_csv(tmp_path / "s" / "wtable.csv")
    assert w_header[:4] == ["v", "t", "re_W", "im_W"]
    w_keys = [(row[0], row[1]) for row in w_rows]
    assert w_rows and all(a < b for a, b in zip(w_keys, w_keys[1:]))
    assert [row[:4] for row in w_rows] == sorted(
        [row[col["v"]], row[col["t"]], row[col["re_W"]], row[col["im_W"]]]
        for row in rows if row[col["in_window"]] == 1)


def test_scatter_counts_the_probes_it_skips(mini_traj, tmp_path):
    # the mini run's t = 64 snapshot alone, probed at t = 64 only
    ini = tmp_path / "last.ini"
    ini.write_text("[solver]\nn = 0x2000\nL = 256\ndt = 0.02\nT = 64\n"
                   "wrap_tol = 0.02\nsnap_t0 = 64\n")
    cfg = load_config(ini)
    traj = Trajectory(config=cfg.solver)
    traj.append(mini_traj.snapshots[-1], mini_traj.rows[-1])
    save_trajectory(tmp_path / "traj", traj, experiment=cfg.raw,
                    config_hash=cfg.hash())
    proc = run_cli("scatter", "--config", str(ini), "--traj",
                   str(tmp_path / "traj"), "--out", str(tmp_path / "s"))
    assert proc.returncode == 0
    # rays whose packet support [vt - a w, vt + a w] reaches x = -L/2
    t, a = 64.0, HALF_WIDTH
    out = sorted(v for v in VELOCITIES
                 if v * t - a * np.sqrt(t) * abs(v) ** 0.75 <= -128.0)
    assert len(out) == 5
    summary = json.loads(proc.stdout)
    assert summary["records"] == len(VELOCITIES) - len(out)
    assert summary["skipped_probes"] == [
        {"v": v, "reason": "OutOfBox", "count": 1} for v in out]
    stored = json.loads((tmp_path / "s" / "scatter_summary.json").read_text())
    assert stored["skipped_probes"] == summary["skipped_probes"]
    assert "12 probe records, 5 (t, v) skipped; v=-4 OutOfBox x1" \
        in proc.stderr


def test_scatter_rejects_probe_times_before_one(tmp_path):
    # snapshots from t = 0.5, which the packets cannot probe (they need
    # t >= 1): scatter reports a ConfigError instead of a traceback
    ini = tmp_path / "early.ini"
    ini.write_text("[solver]\nn = 0x400\nL = 64\ndt = 0.02\nT = 4\n"
                   "snap_t0 = 0.5\nsnap_h = 0.5\nwrap_tol = 1.0\n"
                   f"[probe]\ncadence_ratio = {2.0 ** 0.5!r}\n")
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(ini), "--out",
                   str(out)).returncode == 0
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(out),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["command"] == "scatter"
    assert summary["status"] == "ConfigError"
    assert "solver.snap_t0 >= 1" in summary["error"]


def test_scatter_refuses_a_mismatched_config_hash(tiny_run, tmp_path):
    ini, out, _ = tiny_run
    retuned = tmp_path / "retuned.ini"
    retuned.write_text(TINY_INI.replace("dt = 0.02", "dt = 0.01"))
    proc = run_cli("scatter", "--config", str(retuned), "--traj", str(out),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert TINY_HASH in proc.stderr and RETUNED_HASH in proc.stderr

    forced = run_cli("scatter", "--config", str(retuned), "--traj", str(out),
                     "--out", str(tmp_path / "sf"), "--force")
    assert forced.returncode == 0
    assert json.loads(forced.stdout)["records"] == 153


def test_scatter_rejects_a_manifest_with_a_retired_solver_key(tiny_run,
                                                              tmp_path):
    # band_delta and sobolev_s: manifests written while decomposition.delta
    # and norms.s were config keys hold them
    ini, out, _ = tiny_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["solver"].update(integrator="ifrk4", band_delta=1.0, sobolev_s=4.5)
    (old / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(old),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert ("unknown solver key(s) in manifest.json: band_delta, integrator, "
            "sobolev_s; re-simulate") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["status"] == "ConfigError"


def test_scatter_rejects_a_manifest_that_lacks_a_solver_key(tiny_run,
                                                           tmp_path):
    ini, out, _ = tiny_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    manifest = json.loads((old / "manifest.json").read_text())
    del manifest["solver"]["t_final"], manifest["solver"]["snap_h"]
    (old / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(old),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert ("missing solver key(s) in manifest.json: snap_h, t_final; "
            "re-simulate") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["status"] == "ConfigError"


DAMAGES = {"manifest_not_json": "CorruptSnapshot",
           "no_provenance": "CorruptSnapshot",
           "entry_without_t": "CorruptSnapshot",
           "snapshot_file_missing": "CorruptSnapshot",
           "no_config_hash": "ConfigError"}   # no stored hash matches the config


@pytest.mark.parametrize("damage", DAMAGES)
def test_scatter_reports_a_damaged_trajectory(tiny_run, tmp_path, damage):
    ini, out, _ = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    if damage == "no_provenance":
        del manifest["provenance"]
    if damage == "no_config_hash":
        del manifest["provenance"]["config_hash"]
    if damage == "entry_without_t":
        del manifest["snapshots"][-1]["t"]
    if damage == "snapshot_file_missing":
        (bad / manifest["snapshots"][-1]["file"]).unlink()
    (bad / "manifest.json").write_text(
        "{" if damage == "manifest_not_json" else json.dumps(manifest))
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(bad),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "re-simulate" in proc.stderr
    assert json.loads(proc.stdout)["status"] == DAMAGES[damage]


def test_scatter_reports_a_trajectory_that_ends_before_the_first_probe(
        tmp_path):
    # the wrap monitor stops this run at t = 0, so its one snapshot lies
    # before snap_t0 = 1
    ini = tmp_path / "wide.ini"
    ini.write_text(TINY_INI.replace("snap_t0 = 1.0\n", "snap_t0 = 1.0\n"
                                    "wrap_tol = 1e-9\nouter_frac = 0.45\n")
                   + "width = 6\n")
    out = tmp_path / "run"
    sim = run_cli("simulate", "--config", str(ini), "--out", str(out))
    assert sim.returncode == 2
    assert json.loads(sim.stdout)["snapshots"] == 1
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(out),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["status"] == "MissingSnapshots"
    assert "ends at t=0, before the first probe time solver.snap_t0 = 1" \
        in summary["error"]


def test_scatter_rejects_a_manifest_with_an_out_of_range_solver_value(
        tiny_run, tmp_path):
    ini, out, _ = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["solver"]["dt"] = -0.02
    (bad / "manifest.json").write_text(json.dumps(manifest))
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(bad),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "manifest.json: solver.dt: must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["status"] == "ConfigError"


def test_scatter_reports_a_stored_snapshot_with_a_nonzero_mean(tiny_run,
                                                               tmp_path):
    ini, out, _ = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    entry = json.loads((bad / "manifest.json").read_text())["snapshots"][-1]
    t, u = read_field(bad / entry["file"], load_config(ini).solver.grid())
    write_field(bad / entry["file"], Field(u.grid, u.values + 1e-3), t)
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(bad),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "MeanNotZero"
    assert "antiderivative needs a zero-mean field" in proc.stderr
    assert "Traceback" not in proc.stderr


# a trajectory with a cadence time missing (its manifest entry and norms.csv
# row dropped), with its last snapshot file truncated, or with both
FAULTS = {"time": "MissingSnapshots", "file": "CorruptSnapshot",
          "both": "MissingSnapshots"}


@pytest.mark.parametrize("fault", FAULTS)
def test_scatter_checks_the_probe_times_before_reading_a_field(
        tiny_run, tmp_path, fault):
    ini, out, _ = tiny_run
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    last = bad / manifest["snapshots"][-1]["file"]
    if fault in ("time", "both"):
        del manifest["snapshots"][2]                     # t = 2^{1/8}
        (bad / "manifest.json").write_text(json.dumps(manifest))
        lines = (bad / "norms.csv").read_text().splitlines(keepends=True)
        (bad / "norms.csv").write_text("".join(lines[:4] + lines[5:]))
    if fault in ("file", "both"):
        last.write_bytes(last.read_bytes()[:-8])
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(bad),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["status"] == FAULTS[fault]
    assert ("no snapshot at t=1.09051" if FAULTS[fault] == "MissingSnapshots"
            else f"{last.name}: expected") in summary["error"]


def test_a_rerun_that_dies_midway_leaves_no_manifest(tiny_run, tmp_path,
                                                     monkeypatch, capsys):
    # the disk fills on the fourth snapshot of a run into a directory that
    # holds an earlier trajectory: the first three files are the new run's,
    # so no manifest may index them
    ini, out, _ = tiny_run
    rerun = tmp_path / "run"
    shutil.copytree(out, rerun)
    real, written = storage.write_field, []

    def fill_up(path, field, t):
        if len(written) == 3:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        written.append(t)
        return real(path, field, t)

    monkeypatch.setattr(storage, "write_field", fill_up)
    with pytest.raises(OSError):
        cli.main(["simulate", "--config", str(ini), "--out", str(rerun)])
    assert not (rerun / "manifest.json").exists()
    assert not (rerun / "norms.csv").exists()
    assert cli.main(["scatter", "--config", str(ini), "--traj", str(rerun),
                     "--out", str(tmp_path / "s")]) == 1
    assert "no manifest.json" in capsys.readouterr().err


MEMORY_INI = textwrap.dedent("""\
    [solver]
    n = 0x2000
    L = 256
    dt = 0.02
    T = 4
    wrap_tol = 0.02
    snap_h = {snap_h!r}
    [probe]
    cadence_ratio = {ratio!r}
    [initial]
    epsilon = 0.1
""")


def test_simulate_and_scatter_hold_one_snapshot_at_a_time(tmp_path, capsys):
    # simulate + scatter at snap_h = 1/8 (18 snapshots) and 1/64 (130), both
    # probed at the cadence 2^{1/8}.  One snapshot's fields, u and its
    # spectrum uh, take 16 n = 128 KB.  Held one at a time, what grows with
    # the count is each snapshot's bookkeeping: its 17-column NormRecord,
    # its manifest entry and its time, about 1 KB.  The 112 extra snapshots
    # then add about one snapshot size to the peak, where holding the
    # fields would add at least 112; the bound of 3 leaves room for
    # allocator noise.
    snap = 16 * 0x2000

    def peak(snap_h, name):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(MEMORY_INI.format(snap_h=snap_h, ratio=2.0 ** 0.125))
        out = tmp_path / name
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for command in ("simulate", "scatter"):   # scatter reads --out
            assert cli.main([command, "--config", str(ini),
                             "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(0.125, "warm")   # lazily built tables count once, not here
        sparse, dense = peak(0.125, "sparse"), peak(1.0 / 64.0, "dense")
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len(list((tmp_path / "dense").glob("snap_*.bin"))) == 130
    assert abs(dense - sparse) < 3 * snap, (sparse / snap, dense / snap)


def test_scatter_needs_an_existing_trajectory(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = run_cli("scatter", "--config", str(ini), "--traj", str(empty),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "no manifest.json" in proc.stderr


@pytest.mark.parametrize("snap_h, ratio, loads", [
    (0.125, 2.0 ** 0.125, True),            # the default cadence
    (1.0 / 64.0, 2.0 ** (1.0 / 64.0), True),
    (0.125, 2.0 ** 0.25, True),             # every second snapshot
    (0.125, 1.1, False),
    (0.125, 2.0 ** (1.0 / 16.0), False),    # between stored snapshots
])
def test_probe_cadence_must_land_on_stored_snapshots(tmp_path, snap_h, ratio,
                                                     loads):
    ini = tmp_path / "cadence.ini"
    ini.write_text(f"[solver]\nsnap_h = {snap_h!r}\n"
                   f"[probe]\ncadence_ratio = {ratio!r}\n")
    if loads:
        assert load_config(ini).cadence_ratio == ratio
    else:
        with pytest.raises(ConfigError, match="probe.cadence_ratio"):
            load_config(ini)


# every range check on a config value: (section.key, a value outside the
# range, another line of the same section that the check needs)
OUT_OF_RANGE = [
    ("solver.n", "3", ""), ("solver.L", "0", ""), ("solver.dt", "-0.02", ""),
    ("solver.T", "0", ""), ("solver.mean_tol", "-1", ""),
    ("solver.wrap_tol", "0", ""), ("solver.wrap_tol", "1.5", ""),
    ("solver.outer_frac", "0.5", ""), ("solver.snap_t0", "-1", ""),
    ("solver.snap_t0", "64", "T = 32"), ("solver.snap_h", "0", ""),
    ("solver.step_tol", "-1e-10", ""), ("solver.blowup_factor", "0.5", ""),
    ("initial.width", "0", ""), ("probe.cadence_ratio", "1", ""),
    ("probe.cadence_ratio", "1.1", ""), ("appendix.rho", "0.5", ""),
    ("appendix.N_min", "8", ""), ("appendix.N_min", "2048", ""),
    ("appendix.N_max", "48", ""),
]


@pytest.mark.parametrize("key, value, extra", OUT_OF_RANGE,
                         ids=[f"{key}={value}" for key, value, _ in OUT_OF_RANGE])
def test_an_out_of_range_value_names_its_key(tmp_path, key, value, extra):
    section, name = key.split(".")
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{name} = {value}\n{extra}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        load_config(ini)


# integrator, dealias and power selected the retired ETDRK4, two-thirds and
# p = 2 paths; growth_limit and max_halvings set the retired step halving;
# initial.kind and initial.path read the retired file datum,
# output.formats selected the retired partial outputs, and norms.s,
# decomposition.delta, probe.delta_p, probe.alpha and probe.velocities set
# what are now the constants of norms and packets.  A key without a section
# is a [solver] key; a key of a retired section names its section.
@pytest.mark.parametrize("key, value", [
    ("bogus_knob", "3"),
    ("integrator", "etdrk4"),
    ("dealias", "two-thirds"),
    ("power", "2"),
    ("growth_limit", "1.10"),
    ("max_halvings", "4"),
    ("initial.kind", "gaussian_derivative"),
    ("initial.path", "datum.bin"),
    ("output.formats", "bin,csv"),
    ("norms.s", "4.5"),
    ("decomposition.delta", "1.0"),
    ("probe.delta_p", "1.0"),
    ("probe.alpha", "0.04"),
    ("probe.velocities", "default"),
])
def test_unknown_config_keys_fail_closed(tmp_path, key, value):
    section, _, name = key.rpartition(".")
    section = section or "solver"
    ini = tmp_path / "bad.ini"
    ini.write_text("[solver]\nn = 0x400\n" + ("" if section == "solver" else
                   f"[{section}]\n") + f"{name} = {value}\n")
    proc = run_cli("simulate", "--config", str(ini), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert (f"unknown config key {section}.{name}" if section in _SCHEMA
            else f"unknown config section [{section}]") in proc.stderr


def test_the_readme_config_block_shows_the_schema_defaults():
    # README's configuration reference says "All values shown are the
    # defaults"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    parser.optionxform = str
    parser.read_string(block)
    shown = {(name, key) for name in parser.sections() for key in parser[name]}
    assert shown == {(name, key) for name, keys in _SCHEMA.items()
                     for key in keys}
    for name, key in sorted(shown):
        parse, default, _ = _SCHEMA[name][key]
        assert parse(parser[name][key]) == default, f"{name}.{key}"


def test_unknown_subcommand_exits_with_the_config_code():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_endpoint_scan_produces_the_frozen_verdict(tmp_path):
    ini = tmp_path / "app.ini"
    ini.write_text("[appendix]\nrho = 0.25\n")
    out = tmp_path / "scan"
    proc = run_cli("appendix", "--config", str(ini), "--out", str(out))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["scales"] == [32, 64, 128, 256, 512, 1024]
    assert summary["original_exponent"] == pytest.approx(
        0.6570375176889423, abs=1e-9)
    assert summary["corrected_exponent"] < 0.0
    assert summary["original_unbounded"] is True
    assert summary["first_crossing_N"] == 32.0
    assert summary["predicted_exponent"] == 0.5
    assert summary["near_degenerate"] is False
    header, rows = read_csv(out / "scan.csv")
    assert header[0] == "N" and len(rows) == 6
    stored = json.loads((out / "verdict.json").read_text())
    assert stored == summary


def test_endpoint_scan_rejects_an_out_of_range_weight(tmp_path):
    ini = tmp_path / "app.ini"
    ini.write_text("[appendix]\nrho = 0.6\n")
    proc = run_cli("appendix", "--config", str(ini), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "appendix.rho: must lie in (0, 1/2)" in proc.stderr


def test_endpoint_scan_takes_its_range_from_the_config(tmp_path):
    ini = tmp_path / "range.ini"
    ini.write_text("[appendix]\nN_min = 64\nN_max = 256\n")
    proc = run_cli("appendix", "--config", str(ini), "--out", str(tmp_path / "o"))
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["scales"] == [64, 128, 256]
    assert summary["config_hash"] == load_config(ini).hash()
    ini.write_text("[appendix]\nN_min = 48\n")
    proc = run_cli("appendix", "--config", str(ini), "--out", str(tmp_path / "p"))
    assert proc.returncode == 1
    assert "appendix.N_min: must be a power of two" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--force"], ["appendix", "--force"], ["selftest", "--force"],
    ["selftest", "--config", "x.ini"], ["selftest", "--out", "o"],
    ["appendix", "--rho", "0.25"], ["appendix", "--N-min", "64"],
], ids=" ".join)
def test_a_flag_is_refused_by_a_command_that_does_not_read_it(argv):
    assert cli.main(argv) == 1


def test_the_benchmark_command_lines_parse():
    parse = cli.build_parser().parse_args
    for command in ("simulate", "appendix"):
        args = parse([command, "--config", "c.ini", "--out", "o"])
        assert (args.config, args.out) == ("c.ini", "o")
    args = parse(["scatter", "--config", "c.ini", "--traj", "o", "--out", "o",
                  "--force"])
    assert (args.config, args.traj, args.out, args.force) == ("c.ini", "o", "o", True)


def test_wrap_abort_exits_with_the_monitor_code(tmp_path):
    ini = tmp_path / "wrap.ini"
    ini.write_text(textwrap.dedent("""\
        [solver]
        n = 0x800
        L = 64
        dt = 0.02
        T = 8
        wrap_tol = 0.005
        snap_t0 = 1.0
        [initial]
        epsilon = 0.1
    """))
    out = tmp_path / "run"
    proc = run_cli("simulate", "--config", str(ini), "--out", str(out))
    assert proc.returncode == 2
    assert "aborted by monitor" in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["status"] == "WrapAround"
    assert "box" in summary["error"]
    assert 2.0 < summary["final_t"] < 8.0
    # the partial run is still stored, with its status
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["provenance"]["status"] == "WrapAround"
    assert len(manifest["snapshots"]) == summary["snapshots"]
