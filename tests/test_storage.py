"""Snapshot binaries, CSV tables, and trajectory directories."""

import json
import math
import struct

import numpy as np
import pytest

from shortpulse import storage
from shortpulse.errors import (ConfigError, CorruptSnapshot, MeanNotZero,
                               MissingSnapshots)
from shortpulse.evolve import Trajectory, evolve
from shortpulse.spectral import Field, Grid
from shortpulse.storage import (load_trajectory, read_field, require_times,
                                save_trajectory, write_csv, write_field,
                                write_json)
from conftest import gaussian_pulse
from oracles import (antiderivative, column_gaps, derivative, norm_record,
                     read_csv, solver_config)


def format_cell(value):
    """One CSV cell, as :func:`write_csv` writes it."""
    return storage._conversion(value) % (value,)


def save(out, traj):
    """Save a trajectory with an empty experiment and a fixed hash."""
    return save_trajectory(out, traj, {}, "cafe0123")


@pytest.fixture(scope="module")
def tiny_traj():
    cfg = solver_config(n=1 << 8, length=64.0, dt=0.05, t_final=1.0,
                        snap_t0=0.25, snap_h=1.0)
    return evolve(gaussian_pulse(cfg.grid()), cfg)


def test_snapshot_file_roundtrips_bit_exactly(tmp_path):
    g = Grid(1 << 8, 64.0)
    rng = np.random.default_rng(7)
    u = Field(g, rng.normal(size=g.n))
    t = 12.34567890123456789
    path = tmp_path / "one.bin"
    nbytes = write_field(path, u, t)
    assert nbytes == 24 + 8 * g.n
    t_back, u_back = read_field(path, g)
    assert t_back == t
    assert u_back.values.tobytes() == u.values.tobytes()


def test_snapshot_header_layout():
    assert storage.MAGIC == b"SPFLD01\x00"
    assert storage.HEADER_BYTES == 24
    assert struct.calcsize("<8sQd") == 24


def test_snapshot_header_is_self_describing(tmp_path):
    g = Grid(1 << 6, 16.0)
    path = tmp_path / "one.bin"
    write_field(path, Field(g, np.sin(g.x)), 3.0)
    raw = path.read_bytes()
    magic, n, t = struct.unpack_from("<8sQd", raw)
    assert magic == b"SPFLD01\x00"
    assert n == g.n
    assert t == 3.0


def test_snapshot_rejects_truncation_bad_magic_and_grid_mismatch(tmp_path):
    g = Grid(1 << 6, 16.0)
    path = tmp_path / "one.bin"
    write_field(path, Field(g, np.sin(g.x)), 3.0)
    raw = path.read_bytes()

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:10])
    with pytest.raises(CorruptSnapshot):
        read_field(short, g)

    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(raw[:-8])
    with pytest.raises(CorruptSnapshot):
        read_field(clipped, g)

    mangled = tmp_path / "mangled.bin"
    mangled.write_bytes(b"NOTAFLD\x00" + raw[8:])
    with pytest.raises(CorruptSnapshot):
        read_field(mangled, g)

    with pytest.raises(CorruptSnapshot):
        read_field(path, Grid(1 << 7, 16.0))


def test_snapshot_refuses_genuinely_complex_fields():
    # a Field holds real samples, so no complex field reaches write_field
    g = Grid(1 << 6, 16.0)
    with pytest.raises(ValueError):
        Field(g, np.exp(1j * g.x))


def test_csv_cells_keep_full_float_precision():
    x = 0.1 + 0.2
    assert float(format_cell(x)) == x
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(7) == "7"


def test_csv_rows_match_the_cell_by_cell_format(tmp_path):
    rows = [(True, np.int64(7), 0.1 + 0.2, "v=-1", np.float64(-1e-300)),
            (np.bool_(False), -3, float("nan"), "ray", 2.5)]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["b", "i", "x", "s", "y"], rows, "cafe0123")
    lines = path.read_text().splitlines()[2:]
    assert lines == [",".join(format_cell(v) for v in row) for row in rows]
    assert lines == ["1,7,0.30000000000000004,v=-1,-1e-300",
                     "0,-3,nan,ray,2.5"]


def test_csv_roundtrip_including_nan_and_comment(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[1.0, math.pi, float("nan")], [2.0, -1e-300, 3.5]]
    count = write_csv(path, ["t", "a", "b"], rows, "cafe0123")
    assert count == 2
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config_hash=cafe0123")
    header, back = read_csv(path)
    assert header == ["t", "a", "b"]
    assert back[0][1] == math.pi
    assert math.isnan(back[0][2])
    assert back[1][1] == -1e-300


def test_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0]], "cafe0123")


def test_csv_read_requires_a_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# config_hash=x\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_json_writer_is_deterministic(tmp_path):
    doc = {"b": 1, "a": {"z": [1, 2], "y": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, doc)
    write_json(p2, {"a": {"y": None, "z": [1, 2]}, "b": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def test_trajectory_directory_roundtrip(tmp_path, tiny_traj):
    out = tmp_path / "run"
    manifest_path = save(out, tiny_traj)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest_path == str(out / "manifest.json")
    assert manifest["format"] == {"snapshot": "SPFLD01", "version": 1}
    assert manifest["grid"] == {"n": 256, "length": 64.0}
    assert manifest["provenance"]["config_hash"] == "cafe0123"
    assert manifest["provenance"]["status"] == "completed"
    assert len(manifest["snapshots"]) == len(tiny_traj.snapshots)
    assert (out / manifest["snapshots"][0]["file"]).exists()

    back, manifest2 = load_trajectory(out)
    assert manifest2 == manifest
    assert back.config == tiny_traj.config
    for orig, copy in zip(tiny_traj.snapshots, back.snapshots):
        assert copy.t == orig.t
        assert np.array_equal(copy.u.values, orig.u.values)
        assert copy.u_x is not None and copy.u_anti is not None


def test_band_telemetry_roundtrips_and_may_be_absent(tmp_path, tiny_traj):
    out = tmp_path / "run"
    save(out, tiny_traj)
    back, manifest = load_trajectory(out)
    assert manifest["provenance"]["band"] == tiny_traj.band
    assert (back.band, back.band_widenings, back.tail_headroom) == (
        tiny_traj.band, tiny_traj.band_widenings, tiny_traj.tail_headroom)
    # manifests written before the stepper had an active band
    for key in ("band", "band_widenings", "tail_headroom"):
        del manifest["provenance"][key]
    write_json(out / "manifest.json", manifest)
    old, _ = load_trajectory(out)
    assert (old.band, old.band_widenings, old.tail_headroom) == (None, [], None)
    assert len(old.snapshots) == len(tiny_traj.snapshots)


def test_loaded_derived_fields_match_the_spectral_operators(tmp_path,
                                                           tiny_traj):
    save(tmp_path / "run", tiny_traj)
    back, _ = load_trajectory(tmp_path / "run")
    for snap in back.snapshots:
        g, u = snap.u.grid, snap.u.values
        for got, want in ((snap.u_x, derivative(g, u)),
                          (snap.u_anti, antiderivative(g, u))):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got.values - want)) <= 1e-14 * scale


def test_reloaded_snapshots_match_the_in_run_ones(tmp_path, mini_traj):
    # the in-run snapshot holds the stepper's spectrum, the reloaded one
    # the rfft of the stored node values; each quantity is compared over
    # the whole trajectory against its largest magnitude there (measured
    # 5.5e-16 for uh, 7.6e-15 for u_x, 2.8e-16 for u_anti, at most 5.1e-15
    # for a record column, p32_hyp_x), each record taken afresh from the reloaded
    # field but for h1_rate_fd, which only the stepper can take and which
    # is carried over.  The run streams its snapshots to their files, as
    # simulate does, and keeps only their rows
    cfg, out = mini_traj.config, tmp_path / "run"
    streamed = evolve(gaussian_pulse(cfg.grid()), cfg, Trajectory(
        config=cfg, snapshots=storage.SnapshotFiles(out, cfg)))
    save(out, streamed)
    back, _ = load_trajectory(out)
    assert back.times == mini_traj.times
    run = np.array([row.as_row() for row in mini_traj.rows])
    assert np.array([row.as_row() for row in back.rows]).tobytes() \
        == run.tobytes()
    pairs = list(zip(mini_traj.snapshots, back.snapshots))
    quantities = {
        "uh": lambda snap: snap.uh,
        "u_x": lambda snap: snap.u_x.values,
        "u_anti": lambda snap: snap.u_anti.values,
    }
    for name, get in quantities.items():
        diff = max(np.max(np.abs(get(a) - get(b))) for a, b in pairs)
        scale = max(np.max(np.abs(get(b))) for _, b in pairs)
        assert diff <= 1e-14 * scale, name
    gaps = column_gaps(mini_traj.rows,
                       [norm_record(b, a.h1_rate_fd)
                        for a, b in zip(mini_traj.rows, back.snapshots)])
    for col, (gap, scale) in gaps.items():
        assert gap <= 1e-14 * scale, (col, gap / scale)


def test_loaded_records_equal_the_run_bit_for_bit(tmp_path, tiny_traj):
    # %.17g round-trips binary64; the monitors are NaN before t = 1
    save(tmp_path / "run", tiny_traj)
    back, _ = load_trajectory(tmp_path / "run")
    run = np.array([row.as_row() for row in tiny_traj.rows])
    loaded = np.array([row.as_row() for row in back.rows])
    assert np.isnan(run).any() and not np.isnan(run[-1]).any()
    assert loaded.tobytes() == run.tobytes()


NORMS_DAMAGE = {
    "missing": None,
    "wrong header": lambda lines: [lines[0], lines[1].replace("Linf", "L"),
                                   *lines[2:]],
    "row dropped": lambda lines: lines[:-1],
    "t changed": lambda lines: [*lines[:-1],
                                "2" + lines[-1][lines[-1].index(","):]],
}


@pytest.mark.parametrize("damage", NORMS_DAMAGE)
def test_loading_fails_closed_on_a_damaged_norms_table(tmp_path, tiny_traj,
                                                       damage):
    out = tmp_path / "run"
    save(out, tiny_traj)
    path = out / "norms.csv"
    if NORMS_DAMAGE[damage] is None:
        path.unlink()
    else:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(NORMS_DAMAGE[damage](lines)))
    with pytest.raises(CorruptSnapshot, match="norms.csv"):
        load_trajectory(out)


def test_loading_fails_closed_on_times_out_of_order(tmp_path, tiny_traj):
    # the second and third snapshot swapped in the manifest and norms.csv
    out = tmp_path / "run"
    save(out, tiny_traj)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["snapshots"][1:3] = manifest["snapshots"][2:0:-1]
    write_json(out / "manifest.json", manifest)
    lines = (out / "norms.csv").read_text().splitlines(keepends=True)
    (out / "norms.csv").write_text(
        "".join(lines[:3] + [lines[4], lines[3]] + lines[5:]))
    with pytest.raises(CorruptSnapshot, match="row 3 t=.* does not follow"):
        load_trajectory(out)


def test_loading_a_snapshot_with_a_nonzero_mean_fails(tmp_path, tiny_traj):
    out = tmp_path / "run"
    save(out, tiny_traj)
    entry = json.loads((out / "manifest.json").read_text())["snapshots"][-1]
    u = tiny_traj.snapshots[-1].u
    write_field(out / entry["file"], Field(u.grid, u.values + 1e-3),
                entry["t"])
    back, _ = load_trajectory(out)   # reads no field
    with pytest.raises(MeanNotZero, match="antiderivative"):
        list(back.snapshots)


def test_save_without_timestamp_is_byte_deterministic(tmp_path, tiny_traj):
    # metadata.created_utc is the manifest's one non-deterministic line
    def stamped_out(path):
        return [line for line in (path / "manifest.json").read_bytes()
                .splitlines() if b'"created_utc"' not in line]

    a, b = tmp_path / "a", tmp_path / "b"
    save(a, tiny_traj)
    save(b, tiny_traj)
    assert stamped_out(a) == stamped_out(b)
    assert len(stamped_out(a)) == len((a / "manifest.json").read_bytes()
                                      .splitlines()) - 1


def test_loading_an_empty_directory_names_the_manifest(tmp_path):
    with pytest.raises(ConfigError, match="manifest.json"):
        load_trajectory(tmp_path)


def test_loader_cross_checks_header_against_manifest(tmp_path, tiny_traj):
    out = tmp_path / "run"
    save(out, tiny_traj)
    manifest = json.loads((out / "manifest.json").read_text())
    entry = manifest["snapshots"][0]
    # one check, exact: a header one ulp off is reported the same way
    for t_bad in (entry["t"] + 1.0, np.nextafter(entry["t"], np.inf)):
        write_field(out / entry["file"], tiny_traj.snapshots[0].u, t_bad)
        back, _ = load_trajectory(out)   # reads no field
        with pytest.raises(CorruptSnapshot, match="disagrees with manifest"):
            list(back.snapshots)


def test_require_times_picks_stored_snapshots(tiny_traj):
    ts = tiny_traj.times
    assert require_times(tiny_traj, [ts[0], ts[-1]]) == [0, len(ts) - 1]
    with pytest.raises(MissingSnapshots, match="t=17"):
        require_times(tiny_traj, [17.0])
