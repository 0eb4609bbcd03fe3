"""The normal-shift construction.

A curve is launched along trajectories by the Cauchy data r(0, s) = r(s),
v(0, s) = nu(s) n(s).  The shift is normal exactly when the deviation
function phi(t, s) = <dr/ds, N> vanishes on the grid; phi(0, s) = 0 holds by
construction and phi'(0, s) = 0 is equivalent to the initial-speed ODE

    d nu / ds = -<r'(s), M> B(r(s), nu n(s)) / nu,

which reduces to the classical form -B/nu for an arclength parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from . import numdiff, odesolve
from .errors import NormShiftError, NuBlowup, SingularCurve, StepFailure
from .forces import ForceField, ab_decompose, flat_from_covariant
from .geometry import ConformalMetric, frame
from .dynamics import IntegratorConfig, integrate_deviation
from .tables import write_table
# Never called here; perfbench/tracing.py patches this binding by name.
from .dynamics import integrate  # noqa: F401

_REGULARITY_EPS = 1e-12


@dataclass(frozen=True)
class Curve:
    """Regular parametric curve with first and second derivative evaluators.

    ``normal`` selects which unit normal the shift launches along: "left" is
    the tangent rotated by +90 degrees, "right" by -90 degrees.
    """

    r: Callable[[float], np.ndarray]
    dr: Callable[[float], np.ndarray]
    ddr: Callable[[float], np.ndarray]
    s_range: tuple[float, float]
    normal: str = "left"

    def __post_init__(self):
        if self.normal not in ("left", "right"):
            raise ValueError("normal must be 'left' or 'right'")

    def point(self, s: float) -> np.ndarray:
        return np.asarray(self.r(s), float)

    def velocity(self, s: float) -> np.ndarray:
        return np.asarray(self.dr(s), float)

    def acceleration(self, s: float) -> np.ndarray:
        return np.asarray(self.ddr(s), float)


def line_segment(p0, p1, *, normal: str = "left") -> Curve:
    """Straight segment from p0 to p1, unit-speed with s in [0, |p1 - p0|]."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = float(np.hypot(*(p1 - p0)))
    if length < _REGULARITY_EPS:
        raise SingularCurve("degenerate segment")
    direction = (p1 - p0) / length
    return Curve(r=lambda s: p0 + s * direction,
                 dr=lambda s: direction.copy(),
                 ddr=lambda s: np.zeros(2),
                 s_range=(0.0, length), normal=normal)


def segment_on_axis(s_min: float = -1.0, s_max: float = 1.0, *,
                    normal: str = "right") -> Curve:
    """The horizontal segment r(s) = (s, 0); the right normal points down."""
    return Curve(r=lambda s: np.array([s, 0.0]),
                 dr=lambda s: np.array([1.0, 0.0]),
                 ddr=lambda s: np.zeros(2),
                 s_range=(float(s_min), float(s_max)), normal=normal)


def tilted_line(s_min: float = -1.0, s_max: float = 1.0, *,
                normal: str = "left") -> Curve:
    """The 45-degree line r(s) = s/sqrt(2) (1, 1), arclength parameterized."""
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return Curve(r=lambda s: s * d, dr=lambda s: d.copy(),
                 ddr=lambda s: np.zeros(2),
                 s_range=(float(s_min), float(s_max)), normal=normal)


def circle_arc(center, radius: float, s_range=(0.0, math.pi), *,
               normal: str = "left") -> Curve:
    """Arclength-parameterized arc of a circle; s is arclength, angle = s/R."""
    c = np.asarray(center, float)
    radius = float(radius)
    if radius <= 0:
        raise SingularCurve("circle radius must be positive")

    def r(s):
        a = s / radius
        return c + radius * np.array([math.cos(a), math.sin(a)])

    def dr(s):
        a = s / radius
        return np.array([-math.sin(a), math.cos(a)])

    def ddr(s):
        a = s / radius
        return -np.array([math.cos(a), math.sin(a)]) / radius

    return Curve(r=r, dr=dr, ddr=ddr, s_range=(float(s_range[0]), float(s_range[1])),
                 normal=normal)


def spline_through(points, *, normal: str = "left") -> Curve:
    """Natural cubic spline through the given points, s in [0, 1]."""
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise SingularCurve("need at least three planar points")
    s_nodes = np.linspace(0.0, 1.0, len(pts))
    sx = CubicSpline(s_nodes, pts[:, 0])
    sy = CubicSpline(s_nodes, pts[:, 1])
    dx, dy = sx.derivative(), sy.derivative()
    ddx, ddy = sx.derivative(2), sy.derivative(2)
    return Curve(r=lambda s: np.array([float(sx(s)), float(sy(s))]),
                 dr=lambda s: np.array([float(dx(s)), float(dy(s))]),
                 ddr=lambda s: np.array([float(ddx(s)), float(ddy(s))]),
                 s_range=(0.0, 1.0), normal=normal)


def frenet(curve: Curve, s: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Unit tangent, the chosen unit normal, and the signed curvature at s.

    The curvature sign follows the chosen normal: k = <dT/ds, n>/|r'|, so the
    Frenet relations read T' = |r'| k n and n' = -|r'| k T.
    """
    tangent, n, speed = _unit_frame(curve, s, curve.velocity(s))
    dd = curve.acceleration(s)
    k = float(dd @ n) / speed**2
    return tangent, n, k


def _unit_frame(curve: Curve, s: float, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Unit tangent, the chosen unit normal and |r'| from r'(s) = d."""
    speed = float(np.hypot(d[0], d[1]))
    if speed < _REGULARITY_EPS:
        raise SingularCurve(f"|r'({s})| = {speed:.3e}; curve not regular")
    tangent = d / speed
    n = np.array([-tangent[1], tangent[0]])
    if curve.normal == "right":
        n = -n
    return tangent, n, speed


@dataclass
class NuSolution:
    """Initial-speed profile nu(s) on the reached sub-interval.

    ``branches`` maps 0 and 1 to the solutions from s0 toward the lower and
    the upper end (a branch is absent where s0 is that end), and ``rate`` is
    the right side d nu/ds at (s, nu).  ``truncated`` marks that integration
    stopped before covering the full requested range (nu approached zero or
    the ODE blew up), and ``stop_reason`` says where and why; queries outside
    the reached interval raise NuBlowup.
    """

    s_lo: float
    s_hi: float
    truncated: bool
    s0: float
    nu0: float
    branches: dict[int, odesolve.OdeSolution]
    rate: Callable[[float, float], float]
    stop_reason: str | None = None

    def __call__(self, s: float) -> float:
        return float(self.values([s])[0])

    def deriv(self, s: float) -> float:
        return self.rate(s, self(s))

    def values(self, s) -> np.ndarray:
        """nu at every s, from one dense-output sample per branch; nu0 at s0."""
        s = np.asarray(s, float)
        outside = ~((self.s_lo - 1e-12 <= s) & (s <= self.s_hi + 1e-12))
        if np.any(outside):
            raise NuBlowup(f"nu(s) only reached [{self.s_lo:.6g}, {self.s_hi:.6g}]; "
                           f"queried s={s[outside][0]:.6g}")
        nu = np.full(s.shape, float(self.nu0))
        at_s0 = s == self.s0
        if len(self.branches) == 2:
            at_s0 |= np.abs(s - self.s0) < 1e-15
        for idx, branch in self.branches.items():
            pick = ~at_s0 & ((s < self.s0) if idx == 0 else (s > self.s0))
            if np.any(pick):
                nu[pick] = branch.sample(s[pick])[:, 0]
        return nu

    def sample(self, s) -> tuple[np.ndarray, np.ndarray]:
        """nu and nu' at every s; nu' is the right side at (s, nu(s))."""
        nu = self.values(s)
        return nu, np.array([self.rate(a, b) for a, b in
                             zip(np.asarray(s, float).tolist(), nu.tolist())])


def solve_nu(curve: Curve, field: ForceField, s0: float, nu0: float,
             s_range=None, *, nu_floor_ratio: float = 1e-3,
             abs_tol: float = 1e-12, rel_tol: float = 1e-12) -> NuSolution:
    """Solve the initial-speed ODE with nu(s0) = nu0 over s_range.

    Integration proceeds from s0 toward both endpoints and stops early if
    |nu| falls below ``nu_floor_ratio * |nu0|`` (the right side is singular
    at nu = 0) or a sub-step fails with a package error or a float overflow
    or zero division; in that case the returned profile is marked truncated.
    """
    if nu0 == 0.0:
        raise ValueError("nu0 must be nonzero")
    lo, hi = curve.s_range if s_range is None else (float(s_range[0]), float(s_range[1]))
    if not (lo <= s0 <= hi):
        raise ValueError(f"s0={s0} outside [{lo}, {hi}]")
    floor = abs(nu0) * nu_floor_ratio

    def rhs_scalar(s: float, nu: float) -> float:
        d = curve.velocity(s)
        _, n, _ = _unit_frame(curve, s, d)
        v = nu * n
        b = ab_decompose(field, curve.point(s), v).B
        return -float(d @ frame(v).M) * b / nu

    def rhs(s, y):
        return np.array([rhs_scalar(s, float(y[0]))])

    branches = {}
    reasons = []
    reached = [s0, s0]
    for idx, target in enumerate((lo, hi)):
        if target == s0:
            continue
        # march in fixed sub-steps so an approach to nu = 0 is caught early
        n_sub = 64
        grid = np.linspace(s0, target, n_sub + 1)
        ts_all = [np.array([s0])]
        ys_all = [np.array([[nu0]])]
        fs_all = [np.array([rhs(s0, [nu0])])]
        y = np.array([float(nu0)])
        stop = s0
        for a, b in zip(grid[:-1], grid[1:]):
            try:
                sol = odesolve.solve_dopri(rhs, a, y, b, abs_tol=abs_tol,
                                           rel_tol=rel_tol, first_step=b - a)
                if not np.all(np.isfinite(sol.ys)) or np.min(np.abs(sol.ys)) < floor:
                    raise NuBlowup(f"|nu| fell below {floor:.6g} or is not finite")
            except (NormShiftError, ArithmeticError) as exc:
                reasons.append(f"on [{a:.6g}, {b:.6g}]: {type(exc).__name__}: {exc}")
                break
            ts_all.append(sol.ts[1:])
            ys_all.append(sol.ys[1:])
            fs_all.append(sol.fs[1:])
            y = sol.ys[-1]
            stop = b
        branches[idx] = odesolve.OdeSolution(np.concatenate(ts_all),
                                             np.vstack(ys_all),
                                             np.vstack(fs_all))
        reached[idx] = stop

    s_lo = min(reached[0], s0) if 0 in branches else s0
    s_hi = max(reached[1], s0) if 1 in branches else s0
    return NuSolution(s_lo=s_lo, s_hi=s_hi, truncated=bool(reasons), s0=s0, nu0=nu0,
                      branches=branches, rate=rhs_scalar,
                      stop_reason="; ".join(reasons) or None)


def constant_nu(value: float) -> Callable[[float], float]:
    return lambda s: float(value)


@dataclass
class ShiftGrid:
    """States, deviation data and nu over the (t, s) grid of a shift.

    Index [i, j] is the node (t_nodes[i], s_nodes[j]); column j is the
    trajectory launched from s_nodes[j].
    """

    s_nodes: np.ndarray
    t_nodes: np.ndarray
    r: np.ndarray                         # shape (n_t, n_s, 2)
    v: np.ndarray                         # shape (n_t, n_s, 2)
    tau: np.ndarray                       # shape (n_t, n_s, 2)
    nu: np.ndarray                        # nu per s-node
    phi: np.ndarray                       # shape (n_t, n_s)
    psi: np.ndarray

    def max_abs_phi(self) -> float:
        return float(np.max(np.abs(self.phi)))

    def max_tau_norm(self) -> float:
        return float(np.max(np.hypot(self.tau[..., 0], self.tau[..., 1])))

    def write_csv(self, path):
        n_t, n_s = self.phi.shape
        write_table(path, np.column_stack([
            np.repeat(self.t_nodes, n_s), np.tile(self.s_nodes, n_t),
            self.r.reshape(-1, 2), self.v.reshape(-1, 2),
            self.phi.ravel(), self.psi.ravel(), np.tile(self.nu, n_t)]),
            header="t,s,x,y,vx,vy,phi,psi,nu")


def normal_shift(curve: Curve, field: ForceField, metric: ConformalMetric | None,
                 nu, t_span, n_s: int = 64, n_t: int = 100,
                 cfg: IntegratorConfig | None = None,
                 s_range=None) -> ShiftGrid:
    """Populate the (t, s) grid of the shift launched from the curve.

    Under a metric the shift is that of ``flat_from_covariant(field,
    metric)``: the same trajectories, and a conformal metric keeps the angle
    between dr/ds and v, so phi vanishes on the same nodes.  ``nu`` is either
    a NuSolution (solved for the flat field) or any callable s -> speed.
    Deviations use tau(0) = r'(s) and tau'(0) = nu' n + nu n', with nu' from
    the initial-speed ODE for a NuSolution and otherwise from a central
    difference of ``nu`` clipped to the shifted range, one-sided at its ends.
    All s-nodes are integrated as one stacked system; an error from it gets
    a note naming the s-nodes whose rows went non-finite, when known, and
    otherwise the shifted s-range.
    """
    if metric is not None:
        field = flat_from_covariant(field, metric)
    lo, hi = curve.s_range if s_range is None else (float(s_range[0]), float(s_range[1]))
    if isinstance(nu, NuSolution):
        lo = max(lo, nu.s_lo)
        hi = min(hi, nu.s_hi)
    s_nodes = np.linspace(lo, hi, n_s)
    t_nodes = np.linspace(float(t_span[0]), float(t_span[1]), n_t)

    if isinstance(nu, NuSolution):
        nu_vals, dnu = nu.sample(s_nodes)
    else:
        nu_vals = np.array([nu(s) for s in s_nodes], dtype=float)
        h = numdiff.central_step(s_nodes)
        a, b = s_nodes - h, s_nodes + h
        if hi > lo:
            a, b = np.maximum(lo, a), np.minimum(hi, b)
        dnu = np.array([(nu(y) - nu(x)) / (y - x) for x, y in zip(a.tolist(), b.tolist())])

    # launch data (r, v, tau, tau') per s-node: r(s), nu n, r'(s), nu' n + nu n'
    launch = np.empty((4, n_s, 2))
    for j, s in enumerate(s_nodes):
        tangent, n, k = frenet(curve, s)
        d = curve.velocity(s)
        n_prime = -k * float(np.hypot(*d)) * tangent
        launch[:, j] = (curve.point(s), nu_vals[j] * n, d, dnu[j] * n + nu_vals[j] * n_prime)
    try:
        samples, phi, psi = integrate_deviation(field, *launch, t_nodes, cfg)
    except Exception as exc:
        rows = list(exc.rows) if isinstance(exc, StepFailure) else []
        exc.add_note(f"at s={', '.join(f'{s:.6g}' for s in s_nodes[rows])}" if rows
                     else f"at s in [{lo:.6g}, {hi:.6g}]")
        raise
    return ShiftGrid(s_nodes=s_nodes, t_nodes=t_nodes, r=samples[..., 0:2],
                     v=samples[..., 2:4], tau=samples[..., 4:6], nu=nu_vals,
                     phi=phi, psi=psi)


@dataclass
class NormalityReport:
    """Verdict and extrema of the deviation data over a shift grid."""

    max_abs_phi: float
    max_angle_dev_deg: float
    max_tau_norm: float
    phi_tol: float
    normal: bool
    nu: list[float]

    def to_dict(self) -> dict:
        return {
            "verdict": "normal" if self.normal else "not normal",
            "max_abs_phi": self.max_abs_phi,
            "max_angle_deviation_deg": self.max_angle_dev_deg,
            "max_tau_norm": self.max_tau_norm,
            "phi_tol": self.phi_tol,
            "nu_per_s_node": self.nu,
        }


def normality_report(grid: ShiftGrid, phi_tol: float | None = None) -> NormalityReport:
    """Summarize a shift grid: max |phi|, worst angle between dr/ds and v.

    The default tolerance scales with the deviation magnitude,
    phi_tol = 1e-6 (1 + max |tau|), separating integrator-level phi from
    order-one failures.
    """
    max_tau = grid.max_tau_norm()
    tol = phi_tol if phi_tol is not None else 1e-6 * (1.0 + max_tau)
    max_phi = grid.max_abs_phi()

    n_tau = np.hypot(grid.tau[..., 0], grid.tau[..., 1])
    n_v = np.hypot(grid.v[..., 0], grid.v[..., 1])
    kept = (n_tau >= 1e-14) & (n_v >= 1e-14)
    cosang = np.abs(np.vecdot(grid.tau, grid.v)[kept]) / (n_tau * n_v)[kept]
    worst = float(np.degrees(np.max(np.arcsin(np.minimum(1.0, cosang)), initial=0.0)))
    return NormalityReport(max_abs_phi=max_phi, max_angle_dev_deg=worst,
                           max_tau_norm=max_tau, phi_tol=tol,
                           normal=max_phi < tol, nu=[float(x) for x in grid.nu])
