"""Command-line harness.

Four subcommands drive the library end to end::

    shortpulse simulate  --config run.ini --out runs/a     # evolve + norms
    shortpulse scatter   --config run.ini --traj runs/a    # packet probes
    shortpulse appendix  --config run.ini --out runs/b     # estimate scan
    shortpulse selftest                                     # identity suite

Diagnostics go to standard error; the final machine-readable JSON summary of
every command goes to standard output.  Exit codes: 0 success, 1 usage or
config problems (including missing snapshots and stale trajectory hashes),
2 monitor violations (blow-up, wrap-around, mean drift, step-size collapse,
under-resolved quadrature).  Outputs are deterministic for a fixed config and
code version; the manifest's ``metadata.created_utc`` is the one exception.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _kernels, bands, counterexample, norms, packets, storage
from .config import default_config, load_config
from .errors import (
    ConfigError,
    MissingSnapshots,
    MonitorViolation,
    ShortPulseError,
)
from .evolve import Trajectory, evolve
from .spectral import Field, Grid, Snapshot, l2_norm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MONITOR = 2


def _log(message):
    print(message, file=sys.stderr)


def _emit(document):
    print(json.dumps(document, sort_keys=True, indent=2))


def _jsonable(value):
    """nan/inf have no strict-JSON encoding; map them to null."""
    value = float(value)
    return value if np.isfinite(value) else None


def _load_experiment(args):
    cfg = load_config(args.config) if args.config else default_config()
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    return cfg, out_dir


# ---------------------------------------------------------------------------
# simulate


@dataclasses.dataclass
class _LoggedTrajectory(Trajectory):
    """A run's trajectory that logs one progress line per stored snapshot."""

    started: float = dataclasses.field(default_factory=time.monotonic)

    def append(self, snap):
        super().append(snap)
        _log(f"simulate: t={snap.t:.6g} K={self.band} steps={self.steps} "
             f"wrapfrac={snap.norms.wrapfrac:.3e} "
             f"elapsed={time.monotonic() - self.started:.2f}s")


def cmd_simulate(args):
    cfg, out_dir = _load_experiment(args)
    chash = cfg.hash()
    u0 = cfg.initial_field()
    _log(f"simulate: n={cfg.solver.n} L={cfg.solver.length:g} dt={cfg.solver.dt:g} "
         f"T={cfg.solver.t_final:g} [{chash}]")

    # each snapshot goes to its file as it is taken; the run keeps its row
    traj = _LoggedTrajectory(config=cfg.solver, snapshots=storage.SnapshotFiles(
        out_dir, cfg.solver))
    status, message, code = "completed", None, EXIT_OK
    try:
        evolve(u0, cfg.solver, traj)
    except MonitorViolation as exc:
        status, message, code = type(exc).__name__, str(exc), EXIT_MONITOR
        _log(f"simulate: aborted by monitor: {status}: {message}")

    widened = ", ".join(f"{t:g}" for t in traj.band_widenings) or "never"
    steps = "" if traj.h_min is None else \
        f", h in [{traj.h_min:.4g}, {traj.h_max:.4g}]"
    _log(f"simulate: {traj.steps} steps ({traj.rejected_steps} rejected"
         f"{steps}); stepped band K={traj.band} of {cfg.solver.n // 2}, "
         f"widened at t={widened}")

    storage.save_trajectory(out_dir, traj, cfg.raw, chash)

    last = traj.rows[-1] if traj.rows else None
    summary = {
        "command": "simulate",
        "status": status,
        "error": message,
        "config_hash": chash,
        "code_version": __version__,
        "out_dir": str(out_dir),
        "files": [storage.MANIFEST_NAME, storage.NORMS_NAME],
        "snapshots": len(traj.rows),
        "final_t": None if last is None else _jsonable(last.t),
        **{name: getattr(traj, name) for name in storage.PROVENANCE
           if name != "status"},
        "final_norms": None
        if last is None
        else {
            "L2": _jsonable(last.L2),
            "Xs": _jsonable(last.Xs),
            "Linf": _jsonable(last.Linf),
            "wrapfrac": _jsonable(last.wrapfrac),
        },
    }
    _emit(summary)
    return code


# ---------------------------------------------------------------------------
# scatter


def cmd_scatter(args):
    cfg, out_dir = _load_experiment(args)
    chash = cfg.hash()
    traj_dir = Path(args.traj) if args.traj else out_dir
    traj, manifest = storage.load_trajectory(traj_dir)
    stored_hash = manifest["provenance"].get("config_hash")
    if stored_hash != chash and not args.force:
        raise ConfigError(
            f"trajectory {traj_dir} was produced under config hash {stored_hash}, "
            f"not {chash}; re-simulate or pass --force"
        )
    if not traj.rows:
        raise MissingSnapshots(f"trajectory {traj_dir} holds no snapshots")

    probed, records, skipped = packets.probe_trajectory(
        traj, cfg.solver.snap_t0, cfg.cadence_ratio)
    _log(f"scatter: probed {len(probed)} snapshots x {len(packets.VELOCITIES)} "
         f"velocities from {traj_dir} [{chash}]")
    skipped_probes = [{"v": v, "reason": reason, "count": count}
                      for (v, reason), count in sorted(skipped.items())]
    _log(f"scatter: {len(records)} probe records, {sum(skipped.values())} "
         f"(t, v) skipped" + "".join(
             f"; v={row['v']:.4g} {row['reason']} x{row['count']}"
             for row in skipped_probes))
    values, degenerate = packets.acceptance_statistics(traj.rows, records)
    summary = {
        "command": "scatter",
        "config_hash": chash,
        "code_version": __version__,
        "trajectory": str(traj_dir),
        "records": len(records),
        "skipped_probes": skipped_probes,
        "velocities": sorted({r.v for r in records}),
        **values,
        "degenerate": degenerate,
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    probe_rows = [
        (
            rec.t,
            rec.v,
            rec.gamma.real,
            rec.gamma.imag,
            rec.w.real,
            rec.w.imag,
            abs(rec.ode_residual) if rec.ode_residual is not None else float("nan"),
            rec.approx_err_u,
            rec.approx_err_ux,
            rec.in_window,
        )
        for rec in sorted(records, key=lambda r: (r.t, r.v))
    ]
    storage.write_csv(
        out_dir / "probes.csv",
        ("t", "v", "re_gamma", "im_gamma", "re_W", "im_W",
         "abs_res", "err_u", "err_ux", "in_window"),
        probe_rows,
        chash,
    )
    w_rows = [
        (rec.v, rec.t, rec.w.real, rec.w.imag, abs(rec.w), float(np.angle(rec.w)))
        for rec in sorted(records, key=lambda r: (r.v, r.t))
        if rec.in_window
    ]
    storage.write_csv(
        out_dir / "wtable.csv",
        ("v", "t", "re_W", "im_W", "abs_W", "arg_W"),
        w_rows,
        chash,
    )
    storage.write_json(out_dir / "scatter_summary.json", summary)

    _emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# appendix


def cmd_appendix(args):
    cfg, out_dir = _load_experiment(args)
    rho, scales = cfg.rho, cfg.appendix_scales()

    chash = cfg.hash()
    _log(f"appendix: rho={rho:g}, N in {scales} [{chash}]")
    rows, verdict = counterexample.failure_scan(rho, scales)

    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_csv(
        out_dir / "scan.csv",
        counterexample.SCAN_COLUMNS,
        [[row[c] for c in counterexample.SCAN_COLUMNS] for row in rows],
        chash,
    )
    summary = {
        "command": "appendix",
        "config_hash": chash,
        "code_version": __version__,
        "rho": rho,
        "scales": scales,
        "original_exponent": _jsonable(verdict["original_exponent"]),
        "corrected_exponent": _jsonable(verdict["corrected_exponent"]),
        "original_unbounded": bool(verdict["original_unbounded"]),
        "first_crossing_N": verdict["first_crossing_N"],
        "predicted_exponent": _jsonable(verdict["predicted_exponent"]),
        "near_degenerate": bool(verdict["near_degenerate"]),
    }
    storage.write_json(out_dir / "verdict.json", summary)
    _emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks():
    """The identity suite: (name, max_err, tol) triples on small grids, each
    on the rfft operators that ``simulate`` runs."""
    rng = np.random.default_rng(20240811)
    checks = []

    g = Grid(n=1 << 12, length=256.0)
    noise = Field(g, rng.standard_normal(g.n))
    x = g.x
    u = Field(g, 0.5 * (-2.0 * x / 9.0) * np.exp(-((x / 3.0) ** 2)))
    inv = _kernels.derivative_symbols(g.n, g.length)[1]

    back = np.fft.irfft(np.fft.rfft(noise.values), g.n)
    checks.append((
        "transform_round_trip",
        float(np.max(np.abs(back - noise.values)) / np.max(np.abs(noise.values))),
        1e-12,
    ))

    power = norms.spectral_power(Snapshot(0.0, noise))
    checks.append((
        "parseval",
        abs(np.sqrt(np.sum(power)) - l2_norm(noise)) / l2_norm(noise),
        1e-12,
    ))

    # the linear flow exp(t dx^{-1}) the stepper's integrating factor takes
    def flow(values, t, symbol=inv):
        return np.fft.irfft(np.exp(t * symbol) * np.fft.rfft(values), values.size)

    v37 = flow(u.values, 3.7)
    checks.append((
        "propagator_unitarity",
        abs(l2_norm(Field(g, v37)) - l2_norm(u)) / l2_norm(u),
        1e-12,
    ))

    two_leg = flow(flow(u.values, 2.4), 1.3)
    checks.append((
        "propagator_group_law",
        float(np.max(np.abs(two_leg - v37)) / np.max(np.abs(v37))),
        1e-11,
    ))

    # J dx = x dx - t dx^{-1} commutes with the flow: x S(t) f - t dx^{-2}
    # S(t) f = S(t)(x f) for f = 0.1 dx^8 exp(-x^2), before anything wraps.
    # The rfft of 0.1 exp(-x^2) is taken in closed form, 0.1 sqrt(pi) / dx
    # (-1)^k exp(-xi^2 / 4): xi^8 would amplify the rounding of a sampled one
    gc = Grid(n=1 << 13, length=400.0)
    ikc, invc = _kernels.derivative_symbols(gc.n, gc.length)
    xi = _kernels.rfft_xi(gc.n, gc.length)
    fh = ikc ** 8 * (0.1 * np.sqrt(np.pi) / gc.dx) \
        * gc.phase[: gc.n // 2 + 1] * np.exp(-xi ** 2 / 4.0)
    t_c = 10.0
    gt = np.exp(t_c * invc) * fh
    lhs_vals = gc.x * np.fft.irfft(gt, gc.n) - t_c * np.fft.irfft(invc ** 2 * gt, gc.n)
    rhs = flow(gc.x * np.fft.irfft(fh, gc.n), t_c, invc)
    checks.append((
        "vector_field_conjugation",
        float(np.max(np.abs(lhs_vals - rhs)) / np.max(np.abs(rhs))),
        1e-6,
    ))

    checks.append((
        "scaling_selftest",
        max(abs(norms.scaling_selftest(u, 7.0, lam)[0] - 1.0) for lam in (2, 4)),
        1e-10,
    ))

    cut = norms.MONITOR_CUTOFF
    r = np.linspace(0.0, 100.0, 4001)
    total = cut.sigma_le(r, 1.0)
    for scale in cut.lattice(2.0, 256.0):
        total = total + cut.sigma_band(r, scale)
    checks.append((
        "lp_partition_of_unity",
        float(np.max(np.abs(total - 1.0))),
        1e-10,
    ))

    # the monitors' elliptic part u - 2 Re hyp^+ against 2 Re(P^+ u - hyp^+)
    snap = Snapshot(30.0, u)
    hyp = bands.hyp_ell_decompose(snap, cut)
    plus_h = np.zeros(g.n, dtype=np.complex128)
    plus_h[1:g.n // 2] = snap.uh[1:g.n // 2]
    ell = u.values - 2.0 * np.real(hyp)
    recon = 2.0 * np.real(np.fft.ifft(plus_h) - hyp)
    scale_u = float(np.max(np.abs(u.values)))
    checks.append((
        "hyp_ell_recomposition",
        float(np.max(np.abs(recon - ell)) / scale_u),
        1e-12,
    ))

    round_anti = Snapshot(snap.t, snap.u_anti).u_x
    checks.append((
        "antiderivative_inverse",
        float(np.max(np.abs(round_anti.values - u.values)) / scale_u),
        1e-11,
    ))

    # H = int (u^4/4 - (dx^{-1} u)^2/2) dx is conserved exactly by the
    # exactly padded semi-discrete scheme on each band, so its drift over a short run is IFRK4
    # time-step error.  The exact linear flow keeps the quadratic part, so
    # the drift is read against the quartic part.  For this pulse (eps = 0.5, n = 2^10, L = 64,
    # T = 1) the drift measured -1.1e-6 / -3.5e-8 / -1.1e-9 at dt = 0.04 /
    # 0.02 / 0.01.  The tolerance 1e-6 at dt = 0.02 sits 28x above that
    # drift and below the 1.9e-6 .. 1.3e-5 of steppers with one stage input
    # or weight wrong, and far below the 1.1e-3 at which the quartic part
    # summed on the n grid, where u^4 aliases, stalls.  The run steps at
    # the fixed dt (step_tol = 0) those numbers were measured at.
    gh = Grid(n=1 << 10, length=64.0)
    u0 = Field(gh, 0.5 * (-2.0 * gh.x) * np.exp(-gh.x ** 2))
    run = evolve(u0, dataclasses.replace(
        default_config().solver, n=gh.n, length=gh.length, dt=0.02,
        step_tol=0.0, t_final=1.0, snap_t0=0.0))
    (q0, p0), (q1, p1) = (norms.hamiltonian(snap) for snap in
                          (run.snapshots[0], run.snapshots[-1]))
    checks.append((
        "hamiltonian_conservation",
        abs((q1 + p1) - (q0 + p0)) / abs(q0),
        1e-6,
    ))

    return checks


def cmd_selftest(args):
    results = []
    failed = []
    for name, err, tol in _selftest_checks():
        ok = bool(err <= tol)
        results.append({"name": name, "ok": ok, "max_err": err, "tol": tol})
        if not ok:
            failed.append(name)
    report = {
        "command": "selftest",
        "code_version": __version__,
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "failed_names": failed,
        "checks": results,
    }
    _emit(report)
    return EXIT_OK if not failed else EXIT_CONFIG


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shortpulse",
        description="Pseudospectral simulation and long-time diagnostics "
        "for a nonlocal dispersive wave equation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config file (INI)")
    common.add_argument("--out", metavar="DIR", help="output directory (default: config output.dir)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    p = sub.add_parser("simulate", parents=[common],
                       help="evolve the configured initial data, store trajectory + norms")
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("scatter", parents=[common],
                       help="run wave-packet probes over a stored trajectory")
    p.add_argument("--traj", metavar="DIR",
                   help="trajectory directory (default: the output directory)")
    p.add_argument("--force", action="store_true",
                   help="ignore a config-hash mismatch on the trajectory")
    p.set_defaults(func=cmd_scatter)
    p = sub.add_parser("appendix", parents=[common],
                       help="scan the endpoint estimate family over dyadic scales")
    p.set_defaults(func=cmd_appendix)
    p = sub.add_parser("selftest",
                       help="run the identity suite and report pass/fail")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract says 1
        return EXIT_OK if not exc.code else EXIT_CONFIG
    try:
        return args.func(args)
    except MonitorViolation as exc:
        _log(f"monitor violation: {exc}")
        _emit({"command": args.command, "status": type(exc).__name__, "error": str(exc)})
        return EXIT_MONITOR
    except ShortPulseError as exc:
        _log(f"error: {exc}")
        _emit({"command": args.command, "status": type(exc).__name__, "error": str(exc)})
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
