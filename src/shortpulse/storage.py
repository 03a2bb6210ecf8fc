"""Snapshot files, CSV tables, and trajectory directories.

Snapshot file layout (format tag ``SPFLD01``)::

    bytes  0..7    magic ``b"SPFLD01\\0"``
    bytes  8..15   sample count n, unsigned 64-bit little-endian
    bytes 16..23   sample time t, IEEE-754 binary64 little-endian
    bytes 24..     n node values, binary64 little-endian

A trajectory directory holds one ``manifest.json``, one snapshot file per
stored time and ``norms.csv``, one :class:`shortpulse.norms.NormRecord` row
per snapshot.  The manifest is the source of truth for the grid and the
snapshot index; the per-file headers exist so a single snapshot is
self-describing.  :func:`load_trajectory` gives each snapshot the record of
its run, bit for bit.

CSV dialect: comma separator, ``.`` decimal point, 17 significant digits,
mandatory header row.  Every table starts with a single ``#`` comment line
carrying the config hash so each output file is traceable to the run that
produced it (readers that dislike comments can skip the first line).
"""

import json
import os
import struct
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ConfigError, CorruptSnapshot, MissingSnapshots
from .evolve import SolverConfig, Trajectory
from .norms import NormRecord
from .spectral import Field, Snapshot, check_zero_mean

MAGIC = b"SPFLD01\x00"
_HEADER = struct.Struct("<8sQd")
HEADER_BYTES = _HEADER.size  # 24

MANIFEST_NAME = "manifest.json"
NORMS_NAME = "norms.csv"
# the run's outcome and stepping telemetry, as Trajectory fields
PROVENANCE = ("status", "steps", "rejected_steps", "h_min", "h_max", "band",
              "band_widenings", "tail_headroom")


# ---------------------------------------------------------------------------
# snapshot binaries


def write_field(path, field, t):
    """Write one field as a snapshot file; returns the byte count."""
    values = np.ascontiguousarray(field.values, dtype="<f8")
    blob = _HEADER.pack(MAGIC, values.size, float(t)) + values.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def read_field(path, grid):
    """Read a snapshot file -> (t, Field on ``grid``), whose sample count
    the stored one must match."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_BYTES:
        raise CorruptSnapshot(f"{path}: truncated header ({len(raw)} bytes)")
    magic, n, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptSnapshot(f"{path}: bad magic {magic!r}")
    expected = HEADER_BYTES + 8 * n
    if len(raw) != expected:
        raise CorruptSnapshot(
            f"{path}: expected {expected} bytes for n={n}, found {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=HEADER_BYTES).astype(np.float64)
    if grid.n != n:
        raise CorruptSnapshot(f"{path}: n={n} does not match grid n={grid.n}")
    return float(t), Field(grid, values)


# ---------------------------------------------------------------------------
# CSV tables


def _conversion(value):
    """The %-conversion of one CSV cell: floats at 17 significant digits,
    bools as 0/1."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    return "%s"


def write_csv(path, header, rows, config_hash):
    """Write a table under its config-hash line; returns the row count
    (excluding the header).

    Each column keeps the cell type of the first row: one format string,
    built from that row, writes every row.
    """
    count = 0
    line = None
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash} code_version={__version__}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(
                    f"row has {len(row)} cells for {len(header)} columns"
                )
            if line is None:
                line = ",".join(_conversion(v) for v in row) + "\n"
            fh.write(line % tuple(row))
            count += 1
    return count


# ---------------------------------------------------------------------------
# manifests and trajectory directories


def _snapshot_name(index):
    return f"snap_{index:05d}.bin"


def write_json(path, document):
    """Canonical JSON writer: sorted keys, 2-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_trajectory(out_dir, traj, experiment, config_hash):
    """Persist a trajectory and its norms.csv; returns the manifest path.

    ``experiment`` is the full experiment-config dict (all sections) and
    ``config_hash`` its :meth:`shortpulse.config.ExperimentConfig.hash`.
    Every snapshot carries its :class:`NormRecord`, as ``evolve`` and
    :func:`load_trajectory` leave it.  The manifest's only
    non-deterministic field is ``metadata.created_utc``.
    """
    os.makedirs(out_dir, exist_ok=True)
    index = []
    for i, snap in enumerate(traj.snapshots):
        name = _snapshot_name(i)
        write_field(os.path.join(out_dir, name), snap.u, snap.t)
        index.append({"t": snap.t, "file": name})
    manifest = {
        "format": {"snapshot": MAGIC.rstrip(b"\x00").decode(), "version": 1},
        "grid": {"n": traj.config.n, "length": traj.config.length},
        "solver": asdict(traj.config),
        "experiment": experiment,
        "provenance": {
            "config_hash": config_hash,
            "code_version": traj.code_version,
            **{name: getattr(traj, name) for name in PROVENANCE},
        },
        "snapshots": index,
        "metadata": {"created_utc": datetime.now(timezone.utc).isoformat()},
    }
    write_csv(os.path.join(out_dir, NORMS_NAME), NormRecord.COLUMNS,
              [snap.norms.as_row() for snap in traj.snapshots], config_hash)
    path = os.path.join(out_dir, MANIFEST_NAME)
    write_json(path, manifest)
    return path


def load_manifest(traj_dir):
    path = os.path.join(traj_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ConfigError(f"no {MANIFEST_NAME} in {traj_dir}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptSnapshot(f"cannot load {path}: {exc}; re-simulate") from None


def _read_records(traj_dir, count):
    """The :class:`NormRecord` rows of a directory's norms.csv, which must
    have the header :attr:`NormRecord.COLUMNS` and ``count`` rows."""
    path = os.path.join(traj_dir, NORMS_NAME)
    try:
        with open(path) as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if header != list(NormRecord.COLUMNS):
            raise ValueError(f"header {','.join(header)}")
        if len(rows) != count:
            raise ValueError(f"{len(rows)} rows for {count} snapshots")
        return [NormRecord(*map(float, cells)) for cells in rows]
    except (OSError, ValueError, TypeError) as exc:
        raise CorruptSnapshot(f"cannot load {path}: {exc}; re-simulate") from None


def load_trajectory(traj_dir):
    """Rebuild a Trajectory from a directory.

    The file format holds the bare node values; each snapshot recomputes its
    spectrum, from which derivative and antiderivative follow, so every
    stored field must have zero mean (to the stored ``mean_tol``).  Each
    snapshot gets its norms.csv row back, whose t must be the snapshot's.
    The run's config hash stays in the manifest; a :data:`PROVENANCE` field
    that an older manifest lacks takes its Trajectory default.  A manifest
    entry that is missing or of the wrong type, or a listed snapshot file
    that cannot be read, raises :class:`CorruptSnapshot`.
    """
    manifest = load_manifest(traj_dir)
    try:
        return _rebuild(traj_dir, manifest), manifest
    except (KeyError, TypeError, OSError) as exc:
        raise CorruptSnapshot(f"cannot load {traj_dir}: {type(exc).__name__} "
                              f"{exc}; re-simulate") from None


def _rebuild(traj_dir, manifest):
    solver = manifest["solver"]
    fields = set(SolverConfig.__dataclass_fields__)
    for what, keys in (("unknown", set(solver) - fields),
                       ("missing", fields - set(solver))):
        if keys:
            raise ConfigError(
                f"{traj_dir}: {what} solver key(s) in {MANIFEST_NAME}: "
                f"{', '.join(sorted(keys))}; re-simulate"
            )
    try:
        cfg = SolverConfig(**solver)
    except ConfigError as exc:
        where = os.path.join(traj_dir, MANIFEST_NAME)
        raise ConfigError(exc.reason, f"{where}: solver.{exc.key}") from None
    grid = cfg.grid()
    prov = manifest["provenance"]
    traj = Trajectory(config=cfg, code_version=prov["code_version"],
                      **{name: prov[name] for name in PROVENANCE if name in prov})
    records = _read_records(traj_dir, len(manifest["snapshots"]))
    for entry, record in zip(manifest["snapshots"], records):
        path = os.path.join(traj_dir, entry["file"])
        t, u = read_field(path, grid)
        if abs(t - entry["t"]) > 1e-9 * max(1.0, abs(entry["t"])):
            raise CorruptSnapshot(
                f"{path}: header t={t} disagrees with manifest t={entry['t']}"
            )
        check_zero_mean(u, cfg.mean_tol, "antiderivative")
        if record.t != t:
            raise CorruptSnapshot(f"{path}: t={t} disagrees with its "
                                  f"{NORMS_NAME} row t={record.t}")
        snap = Snapshot(t, u)
        snap.norms = record
        traj.append(snap)
    return traj


def require_times(traj, times):
    """Map requested times onto stored snapshots (to 1e-9 relative) or
    raise MissingSnapshots."""
    stored = np.asarray(traj.times, dtype=float)
    picked = []
    for t in times:
        if stored.size:
            j = int(np.argmin(np.abs(stored - t)))
            if abs(stored[j] - t) <= 1e-9 * max(1.0, abs(t)):
                picked.append(traj.snapshots[j])
                continue
        raise MissingSnapshots(
            f"trajectory has no snapshot at t={t:g} "
            f"(stored times {stored[0]:g}..{stored[-1]:g}, {stored.size} total)"
            if stored.size
            else f"trajectory has no snapshots (first missing t={t:g})"
        )
    return picked
