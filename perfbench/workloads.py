"""The benchmark's workloads and the seeded INI files they feed the program.

A workload is a fixed sequence of ``shortpulse`` commands (one client, one
command at a time, each in a fresh process) plus the config it reads.  The
seed only perturbs the physical datum; grids, step sizes and snapshot
cadences are fixed, so every seed does the same amount of work.  Seed 0 is
the README datum (epsilon = 0.1, width = 1.0, rho = 0.25); any other seed
draws epsilon and width within +-10 % of it and rho in [0.2, 0.3].
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
EPSILON, WIDTH, RHO = 0.1, 1.0, 0.25

# the test suite's mini grid with 64 snapshots and probe times per octave
_MINI = {"n": "0x2000", "L": "256", "dt": "0.02", "wrap_tol": "0.02",
         "snap_h": "0.015625"}
_MINI_PROBE = {"cadence_ratio": repr(2.0 ** (1.0 / 64.0))}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple            # each: "simulate" | "scatter" | "appendix"
    solver: dict = None        # [solver] keys; None for appendix-only runs
    probe: dict = None         # [probe] keys
    appendix: dict = None      # [appendix] keys besides rho
    snapshots: int = 0         # norms.csv rows the config must produce
    scan_rows: int = 0         # scan.csv rows the config must produce
    degenerate: tuple = ()     # scatter fits that cannot be formed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ref_grid",
        why="simulate+scatter on the reference grid n=2^15 cut to T=16: "
            "stepping dominates and the kernel's 2^16-point arrays overflow L2",
        commands=("simulate", "scatter"),
        solver={"n": "0x8000", "L": "800", "dt": "0.01", "T": "16", "wrap_tol": "0.02"},
        snapshots=34,
        degenerate=("linf_slope", "ode_residual_slope", "phase_drift_relerr",
                    "profile_remainder_slope"),
    ),
    Workload(
        name="mini_dense",
        why="simulate+scatter on the mini grid n=2^13 with 64 snapshots per "
            "octave: per-snapshot diagnostics and probes weigh as much as stepping",
        commands=("simulate", "scatter"),
        solver=dict(_MINI, T="32"),
        probe=_MINI_PROBE,
        snapshots=322,
    ),
    Workload(
        name="appendix_wide",
        why="appendix scan over N=2^5..2^20: the quadrature layer alone, "
            "no solver; lhs/N^2 does not depend on N",
        commands=("appendix",),
        appendix={"N_min": "32", "N_max": "1048576"},
        scan_rows=16,
    ),
)}


def datum(seed):
    """(epsilon, width, rho) for a workload seed."""
    if seed == DEFAULT_SEED:
        return EPSILON, WIDTH, RHO
    rng = random.Random(seed)
    epsilon = EPSILON * (1.0 + rng.uniform(-0.1, 0.1))
    width = WIDTH * (1.0 + rng.uniform(-0.1, 0.1))
    rho = rng.uniform(0.2, 0.3)
    return epsilon, width, rho


def config_text(workload, seed):
    """The INI file the program reads for this workload and seed."""
    epsilon, width, rho = datum(seed)
    sections = {}
    if workload.solver is not None:
        sections["solver"] = workload.solver
        sections["initial"] = {"epsilon": repr(epsilon), "width": repr(width)}
    if workload.probe is not None:
        sections["probe"] = workload.probe
    if workload.appendix is not None:
        sections["appendix"] = dict(workload.appendix, rho=repr(rho))
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)
