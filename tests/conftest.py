"""Shared fixtures: one small-box trajectory reused across the suite.

The mini run (n=2^13, L=256, T=64) is big enough to show the decay laws
and the periodic-box artifacts the tests freeze, but cheap enough
(~15 s) to share session-wide.  Tests that need a real field at one
instant build a Snapshot instead of evolving.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shortpulse.config import default_config
from shortpulse.evolve import evolve
from shortpulse.norms import MONITOR_CUTOFF
from shortpulse.packets import probe_trajectory
from shortpulse.spectral import Field
from oracles import solver_config

# pyproject's pythonpath puts src/ on this process's path; the CLI tests'
# child interpreters find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


class PlainSnap:
    """Time and complex samples on a grid, for :func:`gamma`, which reads
    nothing else and also takes complex u; a Snapshot holds a real Field."""

    def __init__(self, t, grid, values):
        self.t = t
        self.u = SimpleNamespace(grid=grid, values=values)


def gaussian_pulse(grid, eps=0.1, width=1.0):
    """The standard zero-mean datum: eps * d/dx exp(-(x/width)^2)."""
    z = grid.x / width
    return Field(grid, eps * (-2.0 * z / width) * np.exp(-z ** 2))


# fixed steps of dt = 0.02 (step_tol = 0), the run every frozen mini
# reading was measured on; under the step controller its L2 drift is
# 2.9e-12, above test_norms' 1e-12 ceiling (3.3e-14 at fixed steps)
MINI_CONFIG = dict(n=1 << 13, length=256.0, dt=0.02, step_tol=0.0,
                   t_final=64.0, wrap_tol=0.02)


@pytest.fixture(scope="session")
def mini_traj():
    cfg = solver_config(**MINI_CONFIG)
    u0 = gaussian_pulse(cfg.grid())
    return evolve(u0, cfg)


@pytest.fixture(scope="session")
def mini_rows(mini_traj):
    return [s.norms for s in mini_traj.snapshots]


@pytest.fixture(scope="session")
def mini_probe_records(mini_traj):
    return probe_trajectory(mini_traj, mini_traj.config.snap_t0,
                            default_config().cadence_ratio)[1]


@pytest.fixture(scope="session")
def cutoff():
    return MONITOR_CUTOFF
