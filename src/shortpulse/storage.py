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
self-describing.  :func:`load_trajectory` gives back the rows of the run,
bit for bit.

A run streams its trajectory: it first removes the directory's manifest and
norms.csv, writes each snapshot file when the snapshot is taken, and keeps
only the snapshot's time and row; :func:`save_trajectory` then writes
norms.csv and, last, the manifest.  A directory without a manifest is not a
trajectory, whatever snapshot files it holds.  Reading one, the rows and
times come first and the fields are read one at a time, in manifest order.
So ``simulate`` and ``scatter`` each hold one snapshot's fields at a time,
whatever the snapshot count: on the ``mini_dense`` benchmark workload (322
snapshots at n = 2^13) each command's peak resident set is 41 MB, where
holding the whole trajectory took 82 MB (x86_64, Python 3.11, numpy 2.4).

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


class SnapshotFiles:
    """The snapshot files of a trajectory directory, as a
    :class:`shortpulse.evolve.Trajectory`'s ``snapshots``; it holds no field.

    Made for a run (no ``entries``), it first removes the directory's
    manifest and norms.csv, so that a run that dies midway leaves no
    manifest indexing its new files; ``append`` then writes each snapshot's
    file at once and keeps only its manifest entry.  Made for a stored
    trajectory, it holds the manifest's entries.  Iterating reads the files
    in entry order, one at a time, and checks each against its entry and
    for a zero mean.
    """

    def __init__(self, directory, config, entries=None):
        self.directory = os.fspath(directory)
        self.config = config
        if entries is None:
            os.makedirs(self.directory, exist_ok=True)
            for name in (MANIFEST_NAME, NORMS_NAME):
                path = os.path.join(self.directory, name)
                if os.path.exists(path):
                    os.remove(path)
            entries = []
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def append(self, snap):
        name = _snapshot_name(len(self.entries))
        write_field(os.path.join(self.directory, name), snap.u, snap.t)
        self.entries.append({"t": snap.t, "file": name})

    def __iter__(self):
        grid = self.config.grid()
        for entry in self.entries:
            try:
                path = os.path.join(self.directory, entry["file"])
                t, u = read_field(path, grid)
            except (KeyError, TypeError, OSError) as exc:
                raise CorruptSnapshot(
                    f"cannot load {self.directory}: {type(exc).__name__} "
                    f"{exc}; re-simulate") from None
            # norms.csv's rows carry the manifest's times exactly, so the
            # header must too
            if t != entry["t"]:
                raise CorruptSnapshot(
                    f"{path}: header t={t} disagrees with manifest t={entry['t']}"
                )
            check_zero_mean(u, self.config.mean_tol, "antiderivative")
            yield Snapshot(t, u)


def save_trajectory(out_dir, traj, experiment, config_hash):
    """Write a trajectory's norms.csv and then, last, its manifest; returns
    the manifest path.

    A trajectory whose snapshots are the :class:`SnapshotFiles` of
    ``out_dir``, a run streamed there, has its snapshot files already; the
    snapshots of any other are written here first.  ``experiment`` is the
    full experiment-config dict (all sections) and ``config_hash`` its
    :meth:`shortpulse.config.ExperimentConfig.hash`.  The manifest's only
    non-deterministic field is ``metadata.created_utc``.
    """
    files = traj.snapshots
    if not (isinstance(files, SnapshotFiles)
            and os.path.abspath(files.directory) == os.path.abspath(out_dir)):
        files = SnapshotFiles(out_dir, traj.config)
        for snap in traj.snapshots:
            files.append(snap)
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
        "snapshots": files.entries,
        "metadata": {"created_utc": datetime.now(timezone.utc).isoformat()},
    }
    write_csv(os.path.join(out_dir, NORMS_NAME), NormRecord.COLUMNS,
              (row.as_row() for row in traj.rows), config_hash)
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


def _read_records(traj_dir, times):
    """The :class:`NormRecord` rows of a directory's norms.csv, which must
    have the header :attr:`NormRecord.COLUMNS` and one row per manifest
    time in ``times``, with that time."""
    path = os.path.join(traj_dir, NORMS_NAME)
    try:
        with open(path) as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if header != list(NormRecord.COLUMNS):
            raise ValueError(f"header {','.join(header)}")
        if len(rows) != len(times):
            raise ValueError(f"{len(rows)} rows for {len(times)} snapshots")
        records = [NormRecord(*map(float, cells)) for cells in rows]
        for i, (record, t) in enumerate(zip(records, times)):
            if record.t != t:
                raise ValueError(f"row {i + 1} t={record.t} disagrees with "
                                 f"manifest t={t}")
            if i and t <= times[i - 1]:
                raise ValueError(f"row {i + 1} t={t} does not follow "
                                 f"t={times[i - 1]}")
        return records
    except (OSError, ValueError, TypeError) as exc:
        raise CorruptSnapshot(f"cannot load {path}: {exc}; re-simulate") from None


def load_trajectory(traj_dir):
    """Open a trajectory directory -> (Trajectory, manifest), reading the
    manifest and norms.csv but no field.

    The Trajectory's rows are norms.csv's, whose t must be the manifest's,
    in increasing order; its snapshots are the directory's
    :class:`SnapshotFiles`, which read and check each file as they are
    iterated.  The file format holds the bare node values; each snapshot
    recomputes its spectrum, from which derivative and antiderivative
    follow, so every stored field must have zero mean (to the stored
    ``mean_tol``).  The run's config hash stays in the manifest; a
    :data:`PROVENANCE` field that an older manifest lacks takes its
    Trajectory default.  A manifest entry that is missing or of the wrong
    type, or a listed snapshot file that cannot be read, raises
    :class:`CorruptSnapshot`.
    """
    manifest = load_manifest(traj_dir)
    try:
        return _open(traj_dir, manifest), manifest
    except (KeyError, TypeError, OSError) as exc:
        raise CorruptSnapshot(f"cannot load {traj_dir}: {type(exc).__name__} "
                              f"{exc}; re-simulate") from None


def _open(traj_dir, manifest):
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
    prov = manifest["provenance"]
    entries = [{"t": entry["t"], "file": entry["file"]}
               for entry in manifest["snapshots"]]
    rows = _read_records(traj_dir, [entry["t"] for entry in entries])
    return Trajectory(config=cfg, snapshots=SnapshotFiles(traj_dir, cfg, entries),
                      rows=rows, code_version=prov["code_version"],
                      **{name: prov[name] for name in PROVENANCE if name in prov})


def require_times(traj, times):
    """The indices of the stored snapshots at the requested times (to 1e-9
    relative), from the trajectory's times alone; raises MissingSnapshots
    for a time it does not hold."""
    stored = np.asarray(traj.times, dtype=float)
    picked = []
    for t in times:
        if stored.size:
            j = int(np.argmin(np.abs(stored - t)))
            if abs(stored[j] - t) <= 1e-9 * max(1.0, abs(t)):
                picked.append(j)
                continue
        raise MissingSnapshots(
            f"trajectory has no snapshot at t={t:g} "
            f"(stored times {stored[0]:g}..{stored[-1]:g}, {stored.size} total)"
            if stored.size
            else f"trajectory has no snapshots (first missing t={t:g})"
        )
    return picked
