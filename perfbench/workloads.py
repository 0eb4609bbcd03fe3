"""Seeded op generators and per-op expectations for the benchmark workloads.

An op is one CLI invocation with its own generated config.  Each workload
draws its ops in cycles: a cycle holds a fixed list of op kinds, each with a
fixed size, and the seed decides every continuous parameter (geometry,
coefficients, probe sets).  A run measures whole cycles, so the mix behind
each median is the same for every seed.

Every expectation below comes from the mathematics of the normal shift, never
from the program's own output:

- a field that claims normality, shifted on the flat path with the speed
  profile that solves the initial-speed ODE, gives ``normal``;
- gravity with an affine speed on the horizontal axis has phi = a1 t, and the
  oscillator on the 45-degree line cannot shift normally: ``not normal``;
- under a conformal metric, a flow whose flat form is a geodesic flow (zero
  force, geodesic fields, metrizable fields with H(u) = k u), launched at
  constant speed from a level line of the total conformal factor, gives
  ``normal`` by the Gauss lemma; off a level line, or with a varying speed,
  it gives ``not normal``;
- known solutions of the normality equations have residuals near rounding,
  the non-solutions have order-one residuals;
- simulated trajectories match closed forms computed here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Residual maxima of known solutions stay below SMALL (1.3e-7 at most when
# the benchmark was written); non-solutions exceed LARGE on every op.
SMALL = 1e-5
LARGE = 1e-2
# A "not normal" verdict must come with an order-one deviation.
PHI_FLOOR = 1e-3

# Defects present when the benchmark was written.  A failure that matches one
# of them is listed under its key and still counts as failed; any other
# failure makes the run incorrect.
KNOWN_DEFECTS = {
    "zero-metric": "build_metric({'kind': 'zero'}) returns a Euclidean "
                   "ConformalMetric instead of None, so the shift takes the "
                   "differencing branch and queries nu outside its interval",
    "metric-nu-solve": "any non-flat metric with nu: solve queries nu outside "
                       "its interval at the first s-node",
    "metric-differencing": "under a metric, phi is a central difference with "
                           "delta = 1e-5 of two separately integrated "
                           "trajectories; at the default tolerances their "
                           "integration error can push max|phi| of a normal "
                           "shift past phi_tol (3.5e-6 against 2e-6)",
}


@dataclass
class Op:
    """One CLI invocation: its config, flags, size and expected outcome."""

    kind: str
    subcommand: str
    config: dict
    work: int
    expect: dict
    flags: tuple[str, ...] = ()
    index: int = -1

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.subcommand, "--config", str(config_path),
                "--out", str(out_dir), *self.flags]


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _poly(rng, *ranges) -> dict:
    return {"kind": "poly", "coeffs": [_u(rng, lo, hi) for lo, hi in ranges]}


# ---------------------------------------------------------------------------
# shift-flat
# ---------------------------------------------------------------------------

def _flat_curve(rng, kind: str) -> dict:
    """A curve near the origin, of one of three shapes."""
    normal = "left" if rng.random() < 0.5 else "right"
    if kind == "spline":
        n = int(rng.integers(3, 6))
        xs = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.1, 0.1, n)
        ys = rng.uniform(-0.35, 0.35, n)
        return {"kind": "spline", "points": [[float(x), float(y)] for x, y in zip(xs, ys)],
                "normal": normal}
    if kind == "arc":
        radius = _u(rng, 1.2, 1.6)
        start = _u(rng, 0.0, 2.0 * math.pi)
        # arclength parameter; the arc spans 0.6 to 1.0 radians
        s0 = start * radius
        return {"kind": "circle", "center": [_u(rng, -0.2, 0.2), _u(rng, -0.2, 0.2)],
                "radius": radius, "s_range": [s0, s0 + radius * _u(rng, 0.6, 1.0)],
                "normal": normal}
    angle = _u(rng, 0.0, math.pi)
    half = _u(rng, 0.5, 0.9)
    c = [_u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)]
    d = [math.cos(angle) * half, math.sin(angle) * half]
    return {"kind": "segment", "p0": [c[0] - d[0], c[1] - d[1]],
            "p1": [c[0] + d[0], c[1] + d[1]], "normal": normal}


def _curve_normal_dir(curve: dict) -> float:
    """Angle of the launch normal at the middle of a generated curve."""
    if curve["kind"] == "spline":
        pts = np.asarray(curve["points"])
        tangent = pts[-1] - pts[0]
    elif curve["kind"] == "circle":
        mid = 0.5 * sum(curve["s_range"]) / curve["radius"]
        tangent = np.array([-math.sin(mid), math.cos(mid)])
    else:
        tangent = np.asarray(curve["p1"]) - np.asarray(curve["p0"])
    ang = math.atan2(tangent[1], tangent[0])
    return ang + (math.pi / 2 if curve["normal"] == "left" else -math.pi / 2)


def _claiming_field(rng, kind: str, curve: dict) -> dict:
    if kind == "mdtype":
        return {"catalogue": "mdtype",
                "params": {"f": {"kind": "sin_cos", "amplitude": _u(rng, 0.1, 0.3)},
                           "h": _poly(rng, (0.0, 0.2), (0.1, 0.3))}}
    if kind == "metrizable":
        f = ({"kind": "sin_cos", "amplitude": _u(rng, 0.1, 0.3)} if rng.random() < 0.5
             else {"kind": "linear", "ax": _u(rng, -0.3, 0.3), "ay": _u(rng, -0.3, 0.3)})
        return {"catalogue": "metrizable", "params": {"f": f, "H": _poly(rng, (0.0, 0.2), (0.1, 0.3))}}
    if kind == "anisotropic":
        # m within 25 degrees of the launch normal, so every front speeds up
        ang = _curve_normal_dir(curve) + _u(rng, -0.45, 0.45)
        return {"catalogue": "anisotropic",
                "params": {"profile": _poly(rng, (0.3, 0.6), (-0.1, 0.1)),
                           "m": [math.cos(ang), math.sin(ang)]}}
    if kind == "marked_point":
        ang = _u(rng, 0.0, 2.0 * math.pi)
        dist = _u(rng, 2.8, 3.5)
        return {"catalogue": "marked_point",
                "params": {"profile": {"kind": "constant", "value": _u(rng, 0.2, 0.6)},
                           "center": [dist * math.cos(ang), dist * math.sin(ang)]}}
    if kind == "disc_invariant":
        return {"catalogue": "disc_invariant",
                "params": {"R": _u(rng, 3.5, 4.5), "profile": _poly(rng, (0.8, 1.2), (0.1, 0.4))}}
    raise ValueError(kind)


# each claiming field with the curve shape it is launched from
CLAIMING = {"mdtype": "spline", "metrizable": "arc", "anisotropic": "segment",
            "marked_point": "spline", "disc_invariant": "arc"}


def _solve_nu(rng, curve: dict) -> dict:
    """nu: solve normalized at the middle of the curve's parameter range."""
    if curve["kind"] == "spline":
        s0 = 0.5
    elif curve["kind"] == "circle":
        s0 = 0.5 * sum(curve["s_range"])
    else:
        s0 = 0.5 * math.dist(curve["p0"], curve["p1"])
    return {"kind": "solve", "s0": s0, "nu0": _u(rng, 0.8, 1.2)}


def shift_flat_cycle(rng) -> list[Op]:
    """Five claiming fields, two controls, two ops spelled as the README does."""
    n_s, n_t = 32, 50
    nodes = n_s * n_t
    ops = []
    for kind, ckind in CLAIMING.items():
        curve = _flat_curve(rng, ckind)
        cfg = {"field": _claiming_field(rng, kind, curve), "curve": curve,
               "nu": _solve_nu(rng, curve), "t_span": [0.0, 0.5],
               "n_s": n_s, "n_t": n_t}
        ops.append(Op(f"{kind}/{ckind}", "shift", cfg, nodes, {"verdict": "normal"}))

    lo = _u(rng, 0.8, 1.2)
    a1 = _u(rng, 0.15, 0.3) * (1 if rng.random() < 0.5 else -1)
    ops.append(Op("gravity/affine-nu", "shift", {
        "field": {"catalogue": "gravity"},
        "curve": {"kind": "segment_on_axis", "s_min": -lo, "s_max": lo, "normal": "right"},
        "nu": {"kind": "affine", "a0": _u(rng, 0.9, 1.1), "a1": a1},
        "t_span": [0.0, 0.5], "n_s": n_s, "n_t": n_t},
        nodes, {"verdict": "not normal"}))
    half = _u(rng, 0.8, 1.2)
    ops.append(Op("oscillator/tilted-line", "shift", {
        "field": {"catalogue": "oscillator", "params": {"omega": _u(rng, 0.8, 1.5)}},
        "curve": {"kind": "tilted_line", "s_min": -half, "s_max": half},
        "nu": {"kind": "solve", "s0": 0.0, "nu0": _u(rng, 0.8, 1.2)},
        "t_span": [0.0, 1.0], "n_s": n_s, "n_t": n_t},
        nodes, {"verdict": "not normal"}))

    # The README's spelling of the flat metric, on two of the claiming fields.
    for kind in ("mdtype", "metrizable"):
        curve = _flat_curve(rng, "spline")
        cfg = {"field": _claiming_field(rng, kind, curve), "metric": {"kind": "zero"},
               "curve": curve, "nu": _solve_nu(rng, curve),
               "t_span": [0.0, 0.5], "n_s": n_s, "n_t": n_t}
        ops.append(Op(f"{kind}/metric-zero", "shift", cfg, nodes, {"verdict": "normal"}))
    return ops


# ---------------------------------------------------------------------------
# shift-metric
# ---------------------------------------------------------------------------

def _metric_geometry(rng):
    """A non-flat conformal factor with one level line and one transversal.

    Returns (metric spec, level segment, off-level segment, aligned factor
    maker): the aligned factor has the same level segment, so the sum of the
    two factors is still constant along it.
    """
    normal = "left" if rng.random() < 0.5 else "right"
    if rng.random() < 0.5:
        amp = _u(rng, 0.2, 0.4)
        metric = {"kind": "sin_cos", "amplitude": amp}
        y0, length = _u(rng, -0.9, -0.6), _u(rng, 1.2, 1.6)
        level = {"kind": "segment", "p0": [0.0, y0], "p1": [0.0, y0 + length], "normal": normal}
        yc = _u(rng, -0.3, 0.3)
        off = {"kind": "segment", "p0": [-0.8, yc], "p1": [0.8, yc], "normal": normal}

        def aligned(scale):
            return ({"kind": "sin_cos", "amplitude": scale * amp} if rng.random() < 0.5
                    else {"kind": "linear", "ax": scale * amp, "ay": 0.0})
    else:
        rho, alpha = _u(rng, 0.2, 0.4), _u(rng, 0.0, 2.0 * math.pi)
        gx, gy = rho * math.cos(alpha), rho * math.sin(alpha)
        metric = {"kind": "linear", "ax": gx, "ay": gy}
        c = [_u(rng, -0.2, 0.2), _u(rng, -0.2, 0.2)]
        half = _u(rng, 0.6, 0.8)
        d = [-math.sin(alpha) * half, math.cos(alpha) * half]
        level = {"kind": "segment", "p0": [c[0] - d[0], c[1] - d[1]],
                 "p1": [c[0] + d[0], c[1] + d[1]], "normal": normal}
        g = [math.cos(alpha) * half, math.sin(alpha) * half]
        off = {"kind": "segment", "p0": [c[0] - g[0], c[1] - g[1]],
               "p1": [c[0] + g[0], c[1] + g[1]], "normal": normal}

        def aligned(scale):
            return {"kind": "linear", "ax": scale * gx, "ay": scale * gy}
    return metric, level, off, aligned


ZERO_FORCE = {"ansatz": {"kind": "speed_profile", "profile": {"kind": "constant", "value": 0.0}}}


def shift_metric_cycle(rng) -> list[Op]:
    """Five geodesic-flow shifts with n_t from 25 to 100, two with nu: solve.

    Three of the five have n_t = 50, so the median op is one of them; the op
    that can hit the differencing defect is the smallest, so its failure
    barely moves the throughput.  Eight s-nodes (four at n_t = 100) keep
    every op near a second or below, short enough for the speed scaling in
    run.py.
    """
    ops = []

    def add(kind, fld, metric, curve, nu, n_t, verdict, n_s=8):
        cfg = {"field": fld, "metric": metric, "curve": curve, "nu": nu,
               "t_span": [0.0, 0.75], "n_s": n_s, "n_t": n_t}
        ops.append(Op(f"{kind}/{metric['kind']}", "shift", cfg, n_s * n_t,
                      {"verdict": verdict}))

    def const_nu():
        return {"kind": "constant", "value": _u(rng, 0.8, 1.2)}

    metric, level, off, aligned = _metric_geometry(rng)
    add("zero-force/level", ZERO_FORCE, metric, level, const_nu(), 50, "normal")
    metric, level, off, aligned = _metric_geometry(rng)
    add("zero-force/off-level", ZERO_FORCE, metric, off, const_nu(), 50, "not normal")
    metric, level, off, aligned = _metric_geometry(rng)
    a1 = _u(rng, 0.2, 0.35) * (1 if rng.random() < 0.5 else -1)
    add("zero-force/affine-nu", ZERO_FORCE, metric, level,
        {"kind": "affine", "a0": _u(rng, 0.9, 1.1), "a1": a1}, 100, "not normal", n_s=4)
    metric, level, off, aligned = _metric_geometry(rng)
    add("geodesic/level", {"catalogue": "geodesic", "params": {"f": aligned(_u(rng, -1, 1))}},
        metric, level, const_nu(), 50, "normal")
    metric, level, off, aligned = _metric_geometry(rng)
    metrizable = {"catalogue": "metrizable",
                  "params": {"f": aligned(_u(rng, -1, 1)), "H": _poly(rng, (0.0, 0.0), (0.1, 0.4))}}
    add("metrizable/level", metrizable, metric, level, const_nu(), 25, "normal")

    # nu: solve under a metric; on a level line the solved speed is constant
    metric, level, off, aligned = _metric_geometry(rng)
    add("zero-force/nu-solve", ZERO_FORCE, metric, level, _solve_nu(rng, level),
        50, "normal")
    metric, level, off, aligned = _metric_geometry(rng)
    metrizable = {"catalogue": "metrizable",
                  "params": {"f": aligned(_u(rng, -1, 1)), "H": _poly(rng, (0.0, 0.0), (0.1, 0.4))}}
    add("metrizable/nu-solve", metrizable, metric, level, _solve_nu(rng, level),
        50, "normal")
    return ops


# ---------------------------------------------------------------------------
# check-sweep
# ---------------------------------------------------------------------------

# (field, probe count, include_complex, custom probe box).  The counts give
# the five slow ops about the same time, so the median op lies among them.
CHECK_OPS = (("cos_profile", 700, True, False),
             ("speed_profile", 1000, False, True),
             ("disc_invariant", 700, True, True),
             ("angular_monomial", 1000, False, False),
             ("mdtype", 800, False, False),
             ("oscillator", 2000, False, False))


def check_sweep_cycle(rng) -> list[Op]:
    """Four generators and two catalogue fields, 700 to 2000 probes each."""
    ops = []
    for kind, count, with_complex, boxed in CHECK_OPS:
        probes = {"count": count, "seed": int(rng.integers(1 << 30))}
        cfg = {"probes": probes}
        if kind in ("cos_profile", "speed_profile"):
            cfg["field"] = {"ansatz": {"kind": kind,
                                       "profile": _poly(rng, (0.2, 1.0), (-0.5, 0.5), (-0.1, 0.1))}}
        elif kind == "disc_invariant":
            radius = _u(rng, 2.5, 4.0)
            half = 0.45 * radius
            cfg["field"] = {"ansatz": {"kind": kind, "R": radius,
                                       "profile": _poly(rng, (0.5, 1.5), (0.0, 0.5))}}
            probes["box"] = {"x": [-half, half], "y": [-half, half],
                             "v": [0.5, 3.0], "theta": [-3.1, 3.1]}
        elif kind == "angular_monomial":
            cfg["field"] = {"ansatz": {"kind": kind, "coef": _u(rng, 0.5, 2.0),
                                       "power": _u(rng, 1.0, 3.0)}}
        elif kind == "mdtype":
            cfg["field"] = {"catalogue": "mdtype",
                            "params": {"f": {"kind": "sin_cos", "amplitude": _u(rng, 0.1, 0.3)},
                                       "h": _poly(rng, (0.0, 0.3), (0.1, 0.3))}}
        else:
            cfg["field"] = {"catalogue": "oscillator", "params": {"omega": _u(rng, 0.5, 2.0)}}
        if boxed and "box" not in probes:
            lo_v = _u(rng, 0.4, 1.0)
            probes["box"] = {"x": [-1.5, 1.5], "y": [-1.0, 1.0],
                             "v": [lo_v, lo_v + 2.0], "theta": [-3.1, 3.1]}
        if with_complex:
            cfg["include_complex"] = True

        if kind == "angular_monomial":
            expect = {"r1": "small", "r2": "large", "r_reduced": "large"}
        elif kind == "oscillator":
            expect = {"r1": "large", "r2": "large"}
        elif kind == "mdtype":
            expect = {"r1": "small", "r2": "small"}
        else:
            expect = {"r1": "small", "r2": "small", "r_reduced": "small"}
        if with_complex:
            expect["r_complex"] = expect["r_reduced"]
        ops.append(Op(kind + ("/complex" if with_complex else ""),
                      "check", cfg, count, {"residuals": expect}))
    return ops


# ---------------------------------------------------------------------------
# simulate-oracle
# ---------------------------------------------------------------------------

# Five sizes, one op each, so the median op is the one in the middle.
SIM_OPS = (("cycloid", 1000), ("zero_field", 2000), ("gravity_constant_nu", 3000),
           ("cycloid", 4000), ("zero_field", 5000))


def simulate_oracle_cycle(rng) -> list[Op]:
    """Ops on the three closed forms, 1000 to 5000 output times each."""
    ops = []
    flags = ("--check-oracle", "--emit-plotdata")
    for kind, n_t in SIM_OPS:
        if kind == "cycloid":
            th0, v0, a0 = _u(rng, 0.4, 2.7), _u(rng, 0.6, 1.5), _u(rng, 0.5, 1.5)
            x0, y0 = _u(rng, -1, 1), _u(rng, -1, 1)
            omega = a0 * math.sin(th0) / v0
            lo, hi = -th0 / omega, (math.pi - th0) / omega
            t_end = 0.85 * (hi if rng.random() < 0.5 else lo)
            oracle = {"kind": "cycloid", "x0": x0, "y0": y0, "theta0": th0,
                      "v0": v0, "a0": a0, "tol": 1e-6}
            cfg = {"field": {"catalogue": "anisotropic",
                             "params": {"profile": {"kind": "constant", "value": a0}}},
                   "init": {"r": [x0, y0], "v": [v0 * math.cos(th0), v0 * math.sin(th0)]},
                   "t_span": [0.0, t_end], "n_t": n_t, "oracle": oracle}
        elif kind == "gravity_constant_nu":
            s = _u(rng, -2.0, 2.0)
            cfg = {"field": {"catalogue": "gravity"},
                   "init": {"r": [s, 0.0], "v": [0.0, -1.0]},
                   "t_span": [0.0, _u(rng, 0.5, 2.0)], "n_t": n_t,
                   "oracle": {"kind": kind, "s": s, "tol": 1e-8}}
        else:
            ang, speed = _u(rng, -math.pi, math.pi), _u(rng, 0.3, 2.0)
            cfg = {"field": ZERO_FORCE,
                   "init": {"r": [_u(rng, -1, 1), _u(rng, -1, 1)],
                            "v": [speed * math.cos(ang), speed * math.sin(ang)]},
                   "t_span": [0.0, _u(rng, 1.0, 3.0)], "n_t": n_t,
                   "oracle": {"kind": kind, "tol": 1e-10}}
        ops.append(Op(kind, "simulate", cfg, n_t, {"oracle": kind}, flags=flags))
    return ops


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _closed_form_positions(cfg: dict, ts: np.ndarray) -> np.ndarray:
    """Positions of the closed form named in the config, written out here."""
    spec = cfg["oracle"]
    if spec["kind"] == "cycloid":
        x0, y0, th0, v0, a0 = (spec[k] for k in ("x0", "y0", "theta0", "v0", "a0"))
        w = a0 * math.sin(th0) / v0
        th = th0 + w * ts
        c = a0 / (4.0 * w * w)
        return np.column_stack([x0 - c * (np.cos(2 * th) - math.cos(2 * th0)),
                                y0 + a0 * ts / (2 * w) - c * (np.sin(2 * th) - math.sin(2 * th0))])
    if spec["kind"] == "gravity_constant_nu":
        return np.column_stack([np.full_like(ts, spec["s"]), -0.5 * ts * ts - ts])
    r0 = np.asarray(cfg["init"]["r"], float)
    v0 = np.asarray(cfg["init"]["v"], float)
    return r0 + ts[:, None] * v0


def _csv_rows(path: Path) -> list[list[float]]:
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(x) for x in row] for row in reader]


def exit_defect(op: Op, rc: int, message: str) -> str | None:
    """The known defect behind a non-zero exit, or None."""
    metric = op.config.get("metric")
    if (op.subcommand == "shift" and metric is not None and rc == 3
            and op.config["nu"]["kind"] == "solve" and "NuBlowup" in message):
        return "zero-metric" if metric == {"kind": "zero"} else "metric-nu-solve"
    return None


def check_output(op: Op, out_dir: Path) -> tuple[str, str | None] | None:
    """None when the op's output meets its expectation, else the reason and
    the known defect behind it (None when it matches none)."""
    try:
        reason = _check(op, out_dir)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", None
    return (reason, None) if isinstance(reason, str) else reason


def _check(op: Op, out_dir: Path) -> str | tuple[str, str] | None:
    if op.subcommand == "shift":
        report = json.loads((out_dir / "normality_report.json").read_text())
        n_rows = sum(1 for _ in open(out_dir / "shift_grid.csv")) - 1
        expected_rows = op.config["n_s"] * op.config["n_t"]
        if n_rows != expected_rows:
            return f"shift_grid.csv has {n_rows} rows, expected {expected_rows}"
        want = op.expect["verdict"]
        if report["verdict"] != want:
            reason = (f"verdict {report['verdict']!r} (max|phi| {report['max_abs_phi']:.3g}), "
                      f"expected {want!r}")
            if (want == "normal" and "metric" in op.config
                    and report["max_abs_phi"] < PHI_FLOOR):
                return reason, "metric-differencing"
            return reason
        if want == "not normal" and report["max_abs_phi"] < PHI_FLOOR:
            return f"'not normal' with max|phi| {report['max_abs_phi']:.3g} < {PHI_FLOOR}"
        return None
    if op.subcommand == "check":
        summary = json.loads((out_dir / "residual_summary.json").read_text())
        n_rows = sum(1 for _ in open(out_dir / "residuals.csv")) - 1
        if n_rows != op.work:
            return f"residuals.csv has {n_rows} rows, expected {op.work}"
        expect = op.expect["residuals"]
        if set(summary) != set(expect):
            return f"residuals {sorted(summary)}, expected {sorted(expect)}"
        for name, cls in expect.items():
            worst = summary[name]["max"]
            if cls == "small" and not worst <= SMALL:
                return f"{name} max {worst:.3g} above {SMALL} for a known solution"
            if cls == "large" and not worst >= LARGE:
                return f"{name} max {worst:.3g} below {LARGE} for a non-solution"
        return None
    rows = np.asarray(_csv_rows(out_dir / "trajectory.csv"))
    n_t = op.config["n_t"]
    if rows.shape != (n_t, 5):
        return f"trajectory.csv has shape {rows.shape}, expected ({n_t}, 5)"
    t0, t1 = op.config["t_span"]
    if not np.allclose(rows[:, 0], np.linspace(t0, t1, n_t), rtol=0, atol=1e-12):
        return "trajectory.csv times differ from the requested grid"
    err = float(np.max(np.abs(rows[:, 1:3] - _closed_form_positions(op.config, rows[:, 0]))))
    tol = op.config["oracle"]["tol"]
    if not err <= tol:
        return f"position error {err:.3g} against the closed form exceeds {tol}"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest.get("oracle", {}).get("passed") is not True:
        return "manifest does not record a passed oracle check"
    n_plot = sum(1 for _ in open(out_dir / "plot_xy.dat"))
    if n_plot != n_t:
        return f"plot_xy.dat has {n_plot} lines, expected {n_t}"
    return None


@dataclass(frozen=True)
class Workload:
    """A workload's cycle generator and run lengths.

    ``cycle_s`` is the time one cycle took at nominal speed when the
    benchmark was written.  A run of S seconds measures round(S / cycle_s)
    whole cycles, so both sides of a comparison run the same ops, however
    fast the program is.
    """

    name: str
    unit: str                              # one unit of work, for the throughput
    cycle: Callable[..., list[Op]]
    cycle_s: float
    trace_cycles: int                      # whole cycles the traced run repeats

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))


WORKLOADS = {
    "shift-flat": Workload("shift-flat", "nodes", shift_flat_cycle, 5.4, 1),
    "shift-metric": Workload("shift-metric", "nodes", shift_metric_cycle, 3.3, 1),
    "check-sweep": Workload("check-sweep", "probes", check_sweep_cycle, 4.3, 1),
    "simulate-oracle": Workload("simulate-oracle", "samples", simulate_oracle_cycle, 0.75, 8),
}


def ops_for(workload: Workload, seed: int, warmup: bool = False):
    """Endless stream of cycles (lists of ops) for a seed; op indices count up.

    The warm-up stream draws from its own generator, so warming up leaves the
    measured ops unchanged.
    """
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name), int(warmup)])
    index = 0
    while True:
        cycle = workload.cycle(rng)
        for op in cycle:
            op.index = index
            index += 1
        yield cycle
