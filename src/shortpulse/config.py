"""Experiment configuration.

INI-style files (``configparser`` flavour, ``key = value``), one section per
concern; :data:`_SCHEMA` declares every key once, with its parser, its
default and the constructor field it fills.  Unknown sections or keys are
errors (fail-closed), and every module precondition that can be checked from
the numbers alone is checked at load time, so a config that loads is a
config that runs.  Each range check lives on the type that holds the value
(:class:`SolverConfig`, :class:`ExperimentConfig`), so a stored
trajectory's solver settings pass the same checks; :func:`_validate` adds
only the checks that span two sections.  The solver has one path -- IFRK4
with the exactly padded cubic -- so there is no key selecting an
integrator, a dealias mode or a power, and one datum, the Gaussian
derivative of ``[initial]``.  The paper's analysis constants are module
constants of :mod:`shortpulse.norms` and :mod:`shortpulse.packets`, not
keys.  The effective values -- defaults filled in -- are hashed (sha256, 16
hex digits) by :meth:`ExperimentConfig.hash`, the one identity of a run,
and that hash is stamped on every output file a run produces.
"""

import configparser
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .counterexample import MIN_SCALE
from .errors import ConfigError, check_ranges
from .evolve import SolverConfig
from .spectral import Field


def _parse_int(text):
    return int(text, 0)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_str(text):
    return text.strip()


# section -> key -> (parser, default, field): the one declaration of each
# key.  The field is the constructor argument the key fills: "solver.<name>"
# of SolverConfig, a bare <name> of ExperimentConfig.
_SCHEMA = {
    "solver": {
        "n": (_parse_int, 1 << 15, "solver.n"),
        "L": (_parse_float, 800.0, "solver.length"),
        "dt": (_parse_float, 0.01, "solver.dt"),
        "step_tol": (_parse_float, 1e-10, "solver.step_tol"),
        "T": (_parse_float, 50.0, "solver.t_final"),
        "mean_tol": (_parse_float, 1e-10, "solver.mean_tol"),
        "wrap_tol": (_parse_float, 0.005, "solver.wrap_tol"),
        "outer_frac": (_parse_float, 0.05, "solver.outer_frac"),
        "snap_t0": (_parse_float, 1.0, "solver.snap_t0"),
        "snap_h": (_parse_float, 0.125, "solver.snap_h"),
        "blowup_factor": (_parse_float, 2.0, "solver.blowup_factor"),
    },
    "initial": {
        "epsilon": (_parse_float, 0.1, "epsilon"),
        "width": (_parse_float, 1.0, "width"),
    },
    "probe": {"cadence_ratio": (_parse_float, 2.0 ** 0.125, "cadence_ratio")},
    "appendix": {
        "rho": (_parse_float, 0.25, "rho"),
        "N_min": (_parse_int, 32, "n_min"),
        "N_max": (_parse_int, 1024, "n_max"),
    },
    "output": {"dir": (_parse_str, "out", "output_dir")},
}

# field name -> (section, key, owner) of each row, the owner "solver" or ""
# (ExperimentConfig).  Names are unique across the two, so a range error,
# which names its field, is reported by the row's key.
_FIELDS = {name: (section, key, owner)
           for section, keys in _SCHEMA.items()
           for key, (_, _, field) in keys.items()
           for owner, _, name in [field.rpartition(".")]}


def _dyadic_scale(n):
    return n >= MIN_SCALE and n & (n - 1) == 0


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted settings for one experiment."""

    solver: SolverConfig
    epsilon: float
    width: float
    cadence_ratio: float
    rho: float
    n_min: int
    n_max: int
    output_dir: str
    raw: dict

    def __post_init__(self):
        check_ranges(self, (
            ("width", lambda v: v > 0.0, "be positive"),
            ("cadence_ratio", lambda v: v > 1.0, "exceed 1"),
            ("rho", lambda v: 0.0 < v < 0.5, "lie in (0, 1/2)"),
            ("n_min", _dyadic_scale, f"be a power of two >= {MIN_SCALE}"),
            ("n_max", _dyadic_scale, f"be a power of two >= {MIN_SCALE}"),
        ))

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
        """The datum: epsilon times the derivative of exp(-(x/width)^2)."""
        grid = self.solver.grid()
        x, w = grid.x, self.width
        values = self.epsilon * (-2.0 * x / w**2) * np.exp(-((x / w) ** 2))
        return Field(grid, values)


def _raw_defaults():
    return {
        section: {key: default for key, (_, default, _) in keys.items()}
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


def _validate(cfg):
    """The checks that span two sections; raises ConfigError naming the
    offending key."""
    # scatter probes t0 * r^j and needs a stored snapshot at each, so r must
    # step a whole number of snapshot intervals 2^snap_h; the slack is far
    # below the 1e-9 relative time matching of storage.require_times
    steps = math.log2(cfg.cadence_ratio) / cfg.solver.snap_h
    if abs(steps - round(steps)) > 1e-12 * max(1.0, steps):
        raise ConfigError(
            f"must be an integer power of 2 ** solver.snap_h = "
            f"{2.0 ** cfg.solver.snap_h!r}, got {cfg.cadence_ratio!r}",
            "probe.cadence_ratio")
    if cfg.n_min > cfg.n_max:
        raise ConfigError("must not exceed N_max", "appendix.N_min")


def _build(raw):
    args = {"solver": {}, "": {}}
    for name, (section, key, owner) in _FIELDS.items():
        args[owner][name] = raw[section][key]
    try:
        cfg = ExperimentConfig(solver=SolverConfig(**args["solver"]), raw=raw,
                               **args[""])
    except ConfigError as exc:
        section, key, _ = _FIELDS[exc.key]
        raise ConfigError(exc.reason, f"{section}.{key}") from None
    _validate(cfg)
    return cfg


def default_config():
    """The effective config when no file is given."""
    return _build(_raw_defaults())


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
            parse = _SCHEMA[section][key][0]
            try:
                raw[section][key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"bad value {text!r} ({exc})",
                                  f"{section}.{key}") from exc
    return _build(raw)

