"""Spans and counts recorded around the public entry points of each layer.

Nothing under ``src/`` changes: ``Tracer.install`` replaces module attributes
and class members with wrappers and ``Tracer.uninstall`` puts the originals
back.  A name imported with ``from module import name`` is a separate binding
in the importing module, so each such binding is patched where it is used.

A span is (name, start, end, parent, op).  Spans are kept in memory, in flat
arrays, and written out once when the run ends.  A span's self time is its
duration minus the durations of its direct children; the self times of all
spans of one op add up to the op's root span.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = "cli"

# Dormand-Prince evaluates the right side once at the start and six times per
# attempted step (the seventh stage is reused); RK4 once plus four per step.
_RHS_PER_ATTEMPT = {"solve_dopri": 6, "solve_rk4": 4}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_index = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span."""
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def wrapped(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_index)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, key: str, fn):
        """Wrap fn so that each call only increments a count."""
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def run_op(self, index: int, main, argv):
        """Call main(argv) as the root span of op ``index``."""
        self.op_index = index
        try:
            return self.span(ROOT, main)(argv)
        finally:
            self.op_index = -1

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _solver(self, solver_name: str, solve):
        """Span around one ODE solve; its right side becomes a span too."""
        rhs_span = self.span("dynamics.rhs", lambda f, t, y: f(t, y))
        counts = self.counts

        def solve_traced(rhs, *args, **kwargs):
            calls = [0]

            def rhs_traced(t, y):
                calls[0] += 1
                return rhs_span(rhs, t, y)

            sol = solve(rhs_traced, *args, **kwargs)
            accepted = len(sol.ts) - 1
            attempts = (calls[0] - 1) // _RHS_PER_ATTEMPT[solver_name]
            counts["odesolve.solves"] += 1
            counts["odesolve.steps_accepted"] += accepted
            counts["odesolve.steps_rejected"] += attempts - accepted
            return sol

        return self.span("odesolve", solve_traced)

    def install(self):
        from normshift import (cli, closedform, dynamics, experiment, forces,
                               geometry, normality, numdiff, odesolve, shift)

        for name in ("load_config", "build_field", "build_metric", "build_curve",
                     "build_nu", "build_integrator", "build_init", "t_span_of"):
            self._patch(cli, name, self.span("experiment", getattr(experiment, name)))
        self._patch(experiment, "solve_nu", self.span("shift.solve_nu", shift.solve_nu))
        self._patch(cli, "normal_shift", self.span("shift.normal_shift", shift.normal_shift))
        self._patch(cli, "normality_report", self.span("shift.report", shift.normality_report))

        integrate = self.span("dynamics.integrate", dynamics.integrate)
        for module in (cli, shift):
            self._patch(module, "integrate", integrate)
        states = dynamics.Trajectory.__dict__["states"]
        self._patch(dynamics.Trajectory, "states",
                    property(self.span("dynamics.states", states.fget)))

        for solver in ("solve_dopri", "solve_rk4"):
            self._patch(odesolve, solver, self._solver(solver, getattr(odesolve, solver)))
        self._patch(odesolve.OdeSolution, "__call__",
                    self.span("odesolve.dense", odesolve.OdeSolution.__call__))

        self._patch(forces.ForceField, "force", self.span("forces", forces.ForceField.force))
        for jac, member in (("jac_spatial", "spatial_jacobian"),
                            ("jac_velocity", "velocity_jacobian")):
            analytic = self.span("forces.jac", getattr(forces.ForceField, jac))
            by_fd = self.span("forces.jac_fd", getattr(forces.ForceField, jac))

            def pick(fld, r, v, _a=analytic, _f=by_fd, _m=member):
                return (_a if getattr(fld, _m) is not None else _f)(fld, r, v)

            self._patch(forces.ForceField, jac, pick)

        christoffel = self.span("geometry.christoffel", geometry.christoffel)
        for module in (geometry, dynamics, forces):
            self._patch(module, "christoffel", christoffel)
        frame = self.counted("geometry.frame.calls", geometry.frame)
        for module in (geometry, forces, dynamics, shift, normality):
            self._patch(module, "frame", frame)

        for stencil in ("central", "richardson", "richardson2", "richardson_mixed"):
            self._patch(numdiff, stencil, self.span(f"numdiff.{stencil}",
                                                    getattr(numdiff, stencil)))

        self._patch(cli, "probe_points", self.span("normality.probes", normality.probe_points))
        self._patch(cli, "residual_sweep", self.span("normality.sweep", normality.residual_sweep))
        for attr, name in (("weak_residuals", "normality.weak"),
                           ("weak_residuals_cartesian", "normality.weak_cartesian"),
                           ("reduced_residual", "normality.reduced"),
                           ("complex_residual", "normality.complex")):
            self._patch(normality, attr, self.span(name, getattr(normality, attr)))

        for attr in ("cycloid", "gravity_shift"):
            self._patch(cli, attr, self.span("closedform", getattr(closedform, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so the arrays can keep growing afterwards
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span count and summed self time for each span name."""
        a = self.arrays()
        selfs = self.self_times()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=selfs, minlength=n)
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def op_durations(self) -> dict[int, float]:
        a = self.arrays()
        root = (a["name"] == self._ids[ROOT]) & (a["parent"] < 0)
        return {int(o): float(e - s) for o, s, e in
                zip(a["op"][root], a["start"][root], a["end"][root])}

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, probes: int) -> dict[str, tuple[float, str]]:
    """The per-layer rows of BENCHMARK.json from one traced run."""
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    rhs = calls("dynamics.rhs")
    evals = calls("forces")
    accepted = counts["odesolve.steps_accepted"]
    attempts = accepted + counts["odesolve.steps_rejected"]
    stencils = ("central", "richardson", "richardson2", "richardson_mixed")
    rows = {
        "cli.self_s": (self_s("cli"), "s"),
        "experiment.self_s": (self_s("experiment"), "s"),
        "shift.solve_nu.calls": (calls("shift.solve_nu"), "count"),
        "shift.solve_nu.self_s": (self_s("shift.solve_nu"), "s"),
        "shift.normal_shift.self_s": (self_s("shift.normal_shift"), "s"),
        "shift.report.self_s": (self_s("shift.report"), "s"),
        "dynamics.integrate.self_s": (self_s("dynamics.integrate"), "s"),
        "dynamics.rhs.calls": (rhs, "count"),
        "dynamics.rhs.self_s": (self_s("dynamics.rhs"), "s"),
        "dynamics.states.calls": (calls("dynamics.states"), "count"),
        "dynamics.states.self_s": (self_s("dynamics.states"), "s"),
        "odesolve.solves": (counts["odesolve.solves"], "count"),
        "odesolve.steps_accepted": (accepted, "count"),
        "odesolve.steps_rejected": (counts["odesolve.steps_rejected"], "count"),
        "odesolve.accept_ratio": (ratio(accepted, attempts), "ratio"),
        "odesolve.rhs_per_step": (ratio(rhs, accepted), "ratio"),
        "odesolve.self_s": (self_s("odesolve"), "s"),
        "odesolve.dense.calls": (calls("odesolve.dense"), "count"),
        "odesolve.dense.self_s": (self_s("odesolve.dense"), "s"),
        "forces.evals": (evals, "count"),
        "forces.evals_per_rhs": (ratio(evals, rhs), "ratio"),
        "forces.self_s": (self_s("forces", "forces.jac", "forces.jac_fd"), "s"),
        "forces.jac_fd.calls": (calls("forces.jac_fd"), "count"),
        "geometry.christoffel.calls": (calls("geometry.christoffel"), "count"),
        "geometry.christoffel.self_s": (self_s("geometry.christoffel"), "s"),
        "geometry.frame.calls": (counts["geometry.frame.calls"], "count"),
        "normality.sweep.self_s": (self_s("normality.sweep", "normality.probes"), "s"),
        "normality.weak.calls": (calls("normality.weak"), "count"),
        "normality.weak.self_s": (self_s("normality.weak"), "s"),
        "normality.weak_cartesian.self_s": (self_s("normality.weak_cartesian"), "s"),
        "normality.reduced.self_s": (self_s("normality.reduced"), "s"),
        "normality.complex.self_s": (self_s("normality.complex"), "s"),
        "normality.evals_per_probe": (ratio(_evals_under(tracer, "normality.sweep"), probes),
                                      "ratio"),
        "numdiff.calls": (sum(calls(f"numdiff.{s}") for s in stencils), "count"),
        "numdiff.self_s": (self_s(*(f"numdiff.{s}" for s in stencils)), "s"),
        "closedform.calls": (calls("closedform"), "count"),
        "closedform.self_s": (self_s("closedform"), "s"),
    }
    for s in stencils:
        rows[f"numdiff.{s}.calls"] = (calls(f"numdiff.{s}"), "count")
        rows[f"numdiff.{s}.self_s"] = (self_s(f"numdiff.{s}"), "s")
    return rows


def _evals_under(tracer: Tracer, ancestor: str) -> int:
    """Force evaluations made inside spans of the given name."""
    if ancestor not in tracer._ids or "forces" not in tracer._ids:
        return 0
    a = tracer.arrays()
    # Spans are stored in order of their start, so the descendants of span i
    # are the spans after it that start before it ends.
    is_force = np.concatenate([[0], np.cumsum(a["name"] == tracer._ids["forces"])])
    heads = np.flatnonzero(a["name"] == tracer._ids[ancestor])
    tails = np.searchsorted(a["start"], a["end"][heads], side="left")
    return int(np.sum(is_force[tails] - is_force[heads + 1]))
