"""Experiment configuration.

INI-style files (``configparser`` flavour, ``key = value``), one section per
concern::

    [solver]         n, L, dt, T, and optional monitor knobs (mean_tol,
                     wrap_tol, outer_frac, snap_t0, snap_h, growth_limit,
                     max_halvings, blowup_factor)
    [initial]        kind = gaussian_derivative | file, epsilon, width, path
    [norms]          s
    [decomposition]  delta
    [probe]          delta_p, alpha, velocities, cadence_ratio
    [appendix]       rho, N_min, N_max
    [output]         dir, formats

Unknown sections or keys are errors (fail-closed), and every module
precondition that can be checked from the numbers alone is checked at load
time, so a config that loads is a config that runs.  The solver has one
path -- IFRK4 with the exactly padded cubic -- so there is no key selecting an
integrator, a dealias mode or a power.  The effective values -- defaults and
command-line overrides filled in -- are hashed (sha256, 16 hex digits) and
that hash is stamped on every output file a run produces.
"""

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .counterexample import MIN_SCALE
from .errors import ConfigError
from .evolve import SolverConfig
from .packets import DEFAULT_VELOCITIES, PacketParams
from .spectral import Field
from . import storage

_FORMATS = ("bin", "csv", "json")
_INITIAL_KINDS = ("gaussian_derivative", "file")


def _parse_int(text):
    return int(text, 0)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_str(text):
    return text.strip()


def _parse_velocities(text):
    text = text.strip()
    if text == "default":
        return tuple(DEFAULT_VELOCITIES)
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("empty velocity list")
    return values


def _parse_formats(text):
    values = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for tok in values:
        if tok not in _FORMATS:
            raise ValueError(f"unknown format {tok!r} (choose from {_FORMATS})")
    return values


# section -> key -> (parser, default).  None defaults mean "absent unless set".
_SCHEMA = {
    "solver": {
        "n": (_parse_int, 1 << 15),
        "L": (_parse_float, 800.0),
        "dt": (_parse_float, 0.01),
        "T": (_parse_float, 50.0),
        "mean_tol": (_parse_float, 1e-10),
        "wrap_tol": (_parse_float, 0.005),
        "outer_frac": (_parse_float, 0.05),
        "snap_t0": (_parse_float, 1.0),
        "snap_h": (_parse_float, 0.125),
        "growth_limit": (_parse_float, 1.10),
        "max_halvings": (_parse_int, 4),
        "blowup_factor": (_parse_float, 2.0),
    },
    "initial": {
        "kind": (_parse_str, "gaussian_derivative"),
        "epsilon": (_parse_float, 0.1),
        "width": (_parse_float, 1.0),
        "path": (_parse_str, ""),
    },
    "norms": {"s": (_parse_float, 4.5)},
    "decomposition": {"delta": (_parse_float, 1.0)},
    "probe": {
        "delta_p": (_parse_float, 1.0),
        "alpha": (_parse_float, 0.04),
        "velocities": (_parse_velocities, tuple(DEFAULT_VELOCITIES)),
        "cadence_ratio": (_parse_float, 2.0 ** 0.125),
    },
    "appendix": {
        "rho": (_parse_float, 0.25),
        "N_min": (_parse_int, 32),
        "N_max": (_parse_int, 1024),
    },
    "output": {
        "dir": (_parse_str, "out"),
        "formats": (_parse_formats, _FORMATS),
    },
}


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted settings for one experiment."""

    solver: SolverConfig
    initial_kind: str
    epsilon: float
    width: float
    initial_path: str
    sobolev_s: float
    delta: float
    probe: PacketParams
    rho: float
    n_min: int
    n_max: int
    output_dir: str
    formats: tuple
    raw: dict

    def hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def appendix_scales(self):
        scales = []
        n = self.n_min
        while n <= self.n_max:
            scales.append(n)
            n *= 2
        return scales

    def initial_field(self):
        grid = self.solver.grid()
        if self.initial_kind == "gaussian_derivative":
            x, w = grid.x, self.width
            values = self.epsilon * (-2.0 * x / w**2) * np.exp(-((x / w) ** 2))
            return Field(grid, values, real=True)
        try:
            _, fld = storage.read_field(self.initial_path, grid)
        except storage.CorruptSnapshot as exc:
            raise ConfigError(f"initial.path: {exc}") from exc
        return fld


def _raw_defaults():
    return {
        section: {key: spec[1] for key, spec in keys.items()}
        for section, keys in _SCHEMA.items()
    }


def _read_ini(path):
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys are case-sensitive (L, T, N_min)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parser


def _validate(raw):
    """Cross-field checks; raises ConfigError naming the offending key."""
    sol = raw["solver"]
    ini = raw["initial"]

    def bad(key, message):
        raise ConfigError(f"{key}: {message}")

    n = sol["n"]
    if n < 2 or n & (n - 1):
        bad("solver.n", f"must be a power of two >= 2, got {n}")
    for key in ("L", "dt", "T"):
        if sol[key] <= 0:
            bad(f"solver.{key}", f"must be positive, got {sol[key]}")
    if not 0.0 < sol["outer_frac"] < 0.5:
        bad("solver.outer_frac", f"must lie in (0, 1/2), got {sol['outer_frac']}")
    if sol["snap_t0"] < 0 or sol["snap_t0"] > sol["T"]:
        bad("solver.snap_t0", f"must lie in [0, T], got {sol['snap_t0']}")
    if sol["snap_h"] <= 0:
        bad("solver.snap_h", f"must be positive, got {sol['snap_h']}")

    if ini["kind"] not in _INITIAL_KINDS:
        bad("initial.kind", f"must be one of {_INITIAL_KINDS}, got {ini['kind']!r}")
    if ini["kind"] == "file":
        if not ini["path"]:
            bad("initial.path", "required when initial.kind = file")
        if not os.path.exists(ini["path"]):
            bad("initial.path", f"no such file: {ini['path']}")
    if ini["width"] <= 0:
        bad("initial.width", f"must be positive, got {ini['width']}")

    s = raw["norms"]["s"]
    if s < 3.0:
        bad("norms.s", f"must be >= 3, got {s}")
    if raw["decomposition"]["delta"] <= 0:
        bad("decomposition.delta", "must be positive")

    prb = raw["probe"]
    if prb["delta_p"] <= 0:
        bad("probe.delta_p", "must be positive")
    if prb["cadence_ratio"] <= 1.0:
        bad("probe.cadence_ratio", f"must exceed 1, got {prb['cadence_ratio']}")
    # scatter probes t0 * r^j and needs a stored snapshot at each, so r must
    # step a whole number of snapshot intervals 2^snap_h; the slack is far
    # below the 1e-9 relative time matching of storage.require_times
    steps = math.log2(prb["cadence_ratio"]) / sol["snap_h"]
    if abs(steps - round(steps)) > 1e-12 * max(1.0, steps):
        bad("probe.cadence_ratio",
            f"must be an integer power of 2 ** solver.snap_h = "
            f"{2.0 ** sol['snap_h']!r}, got {prb['cadence_ratio']!r}")
    if any(v >= 0 for v in prb["velocities"]):
        bad("probe.velocities", "all probe velocities must be negative")

    app = raw["appendix"]
    if not 0.0 < app["rho"] < 0.5:
        bad("appendix.rho", f"must lie in (0, 1/2), got {app['rho']}")
    for key in ("N_min", "N_max"):
        v = app[key]
        if v < MIN_SCALE or v & (v - 1):
            bad(f"appendix.{key}", f"must be a power of two >= {MIN_SCALE}, got {v}")
    if app["N_min"] > app["N_max"]:
        bad("appendix.N_min", "must not exceed N_max")


def _build(raw):
    _validate(raw)
    sol = raw["solver"]
    try:
        solver = SolverConfig(
            n=sol["n"],
            length=sol["L"],
            dt=sol["dt"],
            t_final=sol["T"],
            mean_tol=sol["mean_tol"],
            snap_t0=sol["snap_t0"],
            snap_h=sol["snap_h"],
            growth_limit=sol["growth_limit"],
            max_halvings=sol["max_halvings"],
            blowup_factor=sol["blowup_factor"],
            wrap_tol=sol["wrap_tol"],
            outer_frac=sol["outer_frac"],
            sobolev_s=raw["norms"]["s"],
        )
        probe = PacketParams(
            delta_p=raw["probe"]["delta_p"],
            alpha=raw["probe"]["alpha"],
            velocities=tuple(raw["probe"]["velocities"]),
            cadence_ratio=raw["probe"]["cadence_ratio"],
            band_delta=raw["decomposition"]["delta"],
        )
        probe.validate_alpha(raw["norms"]["s"])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        solver=solver,
        initial_kind=raw["initial"]["kind"],
        epsilon=raw["initial"]["epsilon"],
        width=raw["initial"]["width"],
        initial_path=raw["initial"]["path"],
        sobolev_s=raw["norms"]["s"],
        delta=raw["decomposition"]["delta"],
        probe=probe,
        rho=raw["appendix"]["rho"],
        n_min=raw["appendix"]["N_min"],
        n_max=raw["appendix"]["N_max"],
        output_dir=raw["output"]["dir"],
        formats=raw["output"]["formats"],
        raw=raw,
    )


def default_config():
    """The effective config when no file is given."""
    return _build(_raw_defaults())


def with_overrides(cfg, section, values):
    """``cfg`` with the non-None ``values`` set in ``section``, re-validated.

    The overrides land in ``raw``, so the config hash covers them.
    """
    raw = {name: dict(keys) for name, keys in cfg.raw.items()}
    raw[section].update({k: v for k, v in values.items() if v is not None})
    return _build(raw)


def load_config(path):
    """Parse, validate, and default-fill a config file -> ExperimentConfig."""
    parser = _read_ini(path)
    raw = _raw_defaults()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            parse, _ = _SCHEMA[section][key]
            try:
                raw[section][key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: bad value {text!r} ({exc})") from exc
    return _build(raw)

