"""Command-line front end.

Subcommands: simulate | shift | check | catalogue.  Every run is driven by a
JSON config (see README) and writes CSV output plus a JSON manifest into the
output directory.  Exit codes: 0 ok, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NormShiftError
from .experiment import (ConfigError, build_curve, build_field, build_init,
                         build_integrator, build_metric, build_nu, build_oracle,
                         catalogue_listing, flag, load_config, number, positive_int,
                         probe_spec, t_span_of)
from .forces import flat_from_covariant
from .normality import probe_points, residual_sweep
from .closedform import cycloid, gravity_shift
from .dynamics import integrate
from .shift import NuSolution, normal_shift, normality_report
from .tables import formatted, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(args, cfg: dict, extra: dict) -> dict:
    return {
        "config": cfg,
        "seed": args.seed,
        "version": __version__,
        **extra,
    }


def _oracle_error(oracle, traj) -> float:
    """Largest position error of ``traj`` against the closed form of
    ``oracle``, a ``build_oracle`` result."""
    kind, _, data = oracle
    ts = traj.times
    if kind == "cycloid":
        expected = cycloid(data, ts).r
    elif kind == "zero_field":
        expected = traj.positions()[0] + ts[:, None] * traj.velocities()[0]
    else:
        expected = gravity_shift(data, ts, kind.removeprefix("gravity_"))
    return float(np.max(np.abs(traj.positions() - expected)))


def _flat_field(cfg: dict):
    """The config's field as a flat field: under the config's metric g, the
    flat field flat_from_covariant(F, g), whose flow is the covariant flow of
    F in g; without one, F itself.  The only place a metric is resolved."""
    field, _ = build_field(cfg.get("field"))
    metric = build_metric(cfg.get("metric"))
    return field if metric is None else flat_from_covariant(field, metric)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    field = _flat_field(cfg)
    init = build_init(cfg)
    t0, t1 = t_span_of(cfg)
    icfg = build_integrator(cfg)
    n_t = positive_int(cfg, "n_t", 100)
    oracle = build_oracle(cfg.get("oracle"), init) if args.check_oracle else None
    t_eval = np.linspace(t0, t1, n_t)
    traj = integrate(field, init, (t0, t1), icfg, t_eval=t_eval)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trajectory.csv"
    xy = traj.write_csv(csv_path)
    extra = {
        "outputs": ["trajectory.csv"],
        "integrator": {"method": icfg.method, "abs_tol": icfg.abs_tol,
                       "rel_tol": icfg.rel_tol,
                       "accepted_nodes": traj.accepted_nodes},
    }
    if oracle is not None:
        kind, tol, _ = oracle
        err = _oracle_error(oracle, traj)
        extra["oracle"] = {"kind": kind, "max_error": err, "tol": tol,
                           "passed": err <= tol}
        if err > tol:
            _write_json(out / "manifest.json", _manifest(args, cfg, extra))
            print(f"oracle mismatch: {err:.3e} > {tol:.1e}", file=sys.stderr)
            return EXIT_NUMERIC
    if args.emit_plotdata:
        write_table(out / "plot_xy.dat", xy, sep=" ")
        extra["outputs"].append("plot_xy.dat")
    extra["outputs"].append("manifest.json")
    _write_json(out / "manifest.json", _manifest(args, cfg, extra))
    if args.json:
        print(json.dumps(extra, sort_keys=True))
    else:
        print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_shift(args) -> int:
    cfg = load_config(args.config)
    # nu is solved for the flat field, whose B makes phi'(0, s) vanish
    field = _flat_field(cfg)
    curve = build_curve(cfg.get("curve"))
    n_s, n_t = positive_int(cfg, "n_s", 64), positive_int(cfg, "n_t", 100)
    t0, t1 = t_span_of(cfg)
    icfg = build_integrator(cfg)
    phi_tol = number(cfg, "phi_tol", None, positive=True)
    # a solved nu is the run's first numerical step, so it is built last
    nu = build_nu(cfg.get("nu"), curve, field, n_s)
    grid = normal_shift(curve, field, nu, (t0, t1), n_s=n_s, n_t=n_t, cfg=icfg)
    report = normality_report(grid, phi_tol=phi_tol)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    xy = grid.write_csv(out / "shift_grid.csv")
    payload = report.to_dict()
    if isinstance(nu, NuSolution):
        payload["nu_truncated"] = nu.truncated
        payload["nu_interval"] = [nu.s_lo, nu.s_hi]
        if nu.truncated:
            payload["nu_stop_reason"] = nu.stop_reason
    _write_json(out / "normality_report.json", payload)
    extra = {"outputs": ["shift_grid.csv", "normality_report.json", "manifest.json"],
             "verdict": payload["verdict"], "max_abs_phi": report.max_abs_phi}
    if args.emit_plotdata:
        write_table(out / "plot_fronts.dat", xy, sep=" ", block=len(grid.s_nodes))
        extra["outputs"].append("plot_fronts.dat")
    _write_json(out / "manifest.json", _manifest(args, cfg, extra))
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"verdict: {payload['verdict']} (max|phi| = {report.max_abs_phi:.3e})")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    field, ansatz = build_field(cfg.get("field"))
    count, seed, box = probe_spec(cfg, args.seed)
    probes = probe_points(count, seed=seed, box=box)
    report = residual_sweep(probes, field=field, ansatz=ansatz,
                            include_complex=flag(cfg, "include_complex", False))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "residuals.csv"
    v, theta = report.probes[:, 2], report.probes[:, 3]
    if args.emit_plotdata:  # formatted once, for this table and the plot file
        v, theta = formatted(v), formatted(theta)
    cols = {"x": report.probes[:, 0], "y": report.probes[:, 1], "v": v, "theta": theta}
    if report.r1 is not None:
        cols.update(r1=report.r1, r2=report.r2)
    if report.r_reduced is not None:
        cols.update(r_reduced=report.r_reduced)
    if report.r_complex is not None:
        cols.update(re_rc=report.r_complex.real, im_rc=report.r_complex.imag)
    write_table(csv_path, cols.values(), header=",".join(cols))
    summary = report.summary()
    _write_json(out / "residual_summary.json", summary)
    extra = {"outputs": ["residuals.csv", "residual_summary.json", "manifest.json"],
             "summary": summary}
    if args.emit_plotdata:
        vals = report.r1 if report.r1 is not None else report.r_reduced
        write_table(out / "plot_residuals.dat", [v, theta, np.abs(vals)], sep=" ")
        extra["outputs"].append("plot_residuals.dat")
    _write_json(out / "manifest.json", _manifest(args, cfg, extra))
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for name, stats in summary.items():
            print(f"{name}: max {stats['max']:.3e}, mean {stats['mean']:.3e}")
    return EXIT_OK


def cmd_catalogue(args) -> int:
    rows = catalogue_listing()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            flag = "normal-shift" if row["claims_normality"] else "generic"
            print(f"{row['name']:16s} [{flag}] {row['description']}")
            for key, val in row["params"].items():
                print(f"{'':16s}   {key}: {val}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "shift": cmd_shift,
    "check": cmd_check,
    "catalogue": cmd_catalogue,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normshift",
        description="Simulate and verify planar Newtonian systems admitting "
                    "the normal shift of curves.")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="simulate | shift | check | catalogue")
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for probe sweeps")
    parser.add_argument("--check-oracle", action="store_true",
                        help="compare the run against the closed-form oracle in the config")
    parser.add_argument("--emit-plotdata", action="store_true",
                        help="write gnuplot-ready column files next to the CSV output")
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON to stdout")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 and prints usage on bad commands/flags
        return int(exc.code or 0)
    handler = _COMMANDS[args.command]
    if args.command != "catalogue" and not args.config:
        print("--config is required for this subcommand", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NormShiftError as exc:
        notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"numeric failure: {type(exc).__name__}: {exc}{notes}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
