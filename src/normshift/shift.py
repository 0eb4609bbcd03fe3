"""The normal-shift construction.

A curve is launched along trajectories by the Cauchy data r(0, s) = r(s),
v(0, s) = nu(s) n(s).  The shift is normal exactly when the deviation
function phi(t, s) = <dr/ds, N> vanishes on the grid; phi(0, s) = 0 holds by
construction and phi'(0, s) = 0 is equivalent to the initial-speed ODE

    d nu / ds = -<r'(s), M> B(r(s), nu n(s)) / nu,

which reduces to the classical form -B/nu for an arclength parameterization.
The frame of v = nu n has M = +-r'/|r'|, as n is perpendicular to r', so
<r', M> B = <r', M> <F, M> = <F, r'> and the ODE is the work-energy balance

    d nu / ds = -<F(r(s), nu n(s)), r'(s)> / nu,  i.e.  d(nu^2/2)/ds = -<F, r'>,

which needs no velocity frame.

Fields here are flat: the shift under a conformal metric g is that of
flat_from_covariant(F, g), with the same trajectories and, as g keeps angles,
the same nodes where phi vanishes.  The CLI converts the field once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from . import numdiff, odesolve
from .errors import NormShiftError, NuBlowup, SingularCurve, StepFailure
from .forces import ForceField
from .geometry import checked_speed
from .dynamics import IntegratorConfig, integrate_deviation
from .tables import formatted, write_table
# Never called here; perfbench/tracing.py patches these bindings by name.
from .dynamics import integrate  # noqa: F401
from .geometry import frame  # noqa: F401

_REGULARITY_EPS = 1e-12

# The chosen normal is the tangent reversed and multiplied by this ("left").
_ROTATE = np.array([-1.0, 1.0])

# A solve_nu branch that runs into the floor on |nu| (or goes non-finite)
# ends on the last of this many equally spaced checkpoints of its span that
# it passed, so a shift does not launch from the sliver next to nu = 0.
_NU_CHECKPOINTS = 64
# solve_nu's floor on |nu / nu0|, and its absolute and relative tolerance.
_NU_FLOOR_RATIO = 1e-3
_NU_TOL = 1e-12


@dataclass(frozen=True)
class Curve:
    """Regular parametric curve with first and second derivative evaluators.

    ``r``, ``dr`` and ``ddr`` map s to a point or vector; ``point``,
    ``velocity`` and ``acceleration`` evaluate them at a number or an array
    of s and return shape ``np.shape(s) + (2,)``, so an evaluator that
    returns one constant vector still gives one row per s.

    ``normal`` selects which unit normal the shift launches along: "left" is
    the tangent rotated by +90 degrees, "right" by -90 degrees.  ``breaks``
    are the s where a derivative of r may jump (a spline's knots); solve_nu
    stops there, since an adaptive step across one is much less accurate
    than its error estimate says.
    """

    r: Callable
    dr: Callable
    ddr: Callable
    s_range: tuple[float, float]
    normal: str = "left"
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.normal not in ("left", "right"):
            raise ValueError("normal must be 'left' or 'right'")

    def point(self, s) -> np.ndarray:
        return _rows(self.r, s)

    def velocity(self, s) -> np.ndarray:
        return _rows(self.dr, s)

    def acceleration(self, s) -> np.ndarray:
        return _rows(self.ddr, s)


def _rows(fn, s) -> np.ndarray:
    s = np.asarray(s, float)
    out = np.asarray(fn(s), float)
    if out.shape != s.shape + (2,):
        out = np.array(np.broadcast_to(out, s.shape + (2,)))
    return out


def line_segment(p0, p1, *, normal: str = "left") -> Curve:
    """Straight segment from p0 to p1, unit-speed with s in [0, |p1 - p0|]."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = float(np.hypot(*(p1 - p0)))
    if length < _REGULARITY_EPS:
        raise SingularCurve("degenerate segment")
    direction = (p1 - p0) / length
    return Curve(r=lambda s: p0 + s[..., None] * direction,
                 dr=lambda s: direction, ddr=lambda s: np.zeros(2),
                 s_range=(0.0, length), normal=normal)


def segment_on_axis(s_min: float = -1.0, s_max: float = 1.0, *,
                    normal: str = "right") -> Curve:
    """The horizontal segment r(s) = (s, 0); the right normal points down."""
    return Curve(r=lambda s: np.stack([s, np.zeros_like(s)], axis=-1),
                 dr=lambda s: np.array([1.0, 0.0]), ddr=lambda s: np.zeros(2),
                 s_range=(float(s_min), float(s_max)), normal=normal)


def tilted_line(s_min: float = -1.0, s_max: float = 1.0, *,
                normal: str = "left") -> Curve:
    """The 45-degree line r(s) = s/sqrt(2) (1, 1), arclength parameterized."""
    d = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return Curve(r=lambda s: s[..., None] * d, dr=lambda s: d,
                 ddr=lambda s: np.zeros(2),
                 s_range=(float(s_min), float(s_max)), normal=normal)


def circle_arc(center, radius: float, s_range=(0.0, math.pi), *,
               normal: str = "left") -> Curve:
    """Arclength-parameterized arc of a circle; s is arclength, angle = s/R."""
    c = np.asarray(center, float)
    radius = float(radius)
    if radius <= 0:
        raise SingularCurve("circle radius must be positive")

    def unit(s):
        a = s / radius
        return np.stack([np.cos(a), np.sin(a)], axis=-1)

    return Curve(r=lambda s: c + radius * unit(s),
                 dr=lambda s: unit(s)[..., ::-1] * _ROTATE,
                 ddr=lambda s: -unit(s) / radius,
                 s_range=(float(s_range[0]), float(s_range[1])), normal=normal)


def spline_through(points, *, normal: str = "left") -> Curve:
    """Cubic spline (not-a-knot ends) through the given points, s in [0, 1].

    One piecewise cubic over both coordinates and its two derivatives, so
    each of r, r' and r'' is one evaluation.  Its coefficients are those of
    each coordinate's own spline: for three points scipy fits a parabola
    with a dense solve, which rounds differently for two columns at once.
    """
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise SingularCurve("need at least three planar points")
    knots = np.linspace(0.0, 1.0, len(pts))
    spline = PPoly(np.stack([CubicSpline(knots, p).c for p in pts.T], axis=-1), knots)
    return Curve(r=spline, dr=spline.derivative(), ddr=spline.derivative(2),
                 s_range=(0.0, 1.0), normal=normal, breaks=tuple(knots[1:-1].tolist()))


def frenet(curve: Curve, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit tangent, the chosen unit normal, and the signed curvature at s.

    s may be a number or an array; tangent and normal have shape
    ``np.shape(s) + (2,)``.  The curvature sign follows the chosen normal:
    k = <dT/ds, n>/|r'|, so the Frenet relations read T' = |r'| k n and
    n' = -|r'| k T.
    """
    tangent, n, speed = _unit_frame(curve, s, curve.velocity(s))
    k = np.vecdot(curve.acceleration(s), n) / speed**2
    return tangent, n, k


def _unit_frame(curve: Curve, s, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit tangent, the chosen unit normal and |r'| from r'(s) = d, row by row."""
    speed = np.hypot(d[..., 0], d[..., 1])
    low = speed < _REGULARITY_EPS
    if np.any(low):
        raise SingularCurve(f"|r'({np.asarray(s, float)[low][0]})| = "
                            f"{np.min(speed[low]):.3e}; curve not regular")
    tangent = d / speed[..., None]
    n = tangent[..., ::-1] * (_ROTATE if curve.normal == "left" else -_ROTATE)
    return tangent, n, speed


@dataclass
class NuSolution:
    """Initial-speed profile nu(s) on the reached sub-interval.

    Both branches, from s0 toward the lower end and toward the upper end,
    are one integration in sigma in [0, 1], with s = s0 + sigma (end - s0)
    per branch.  ``branches`` maps 0 (lower) and 1 (upper) to the solution
    of that branch in sigma, shape (n, 1); a branch is absent where s0 is
    that end.  ``ends`` are the requested ends, ``rate`` is the right side
    d nu/ds at arrays of (s, nu).  ``truncated`` marks that a branch stopped
    before its end (nu approached zero, went non-finite, or the right side
    raised a package error or a float overflow or zero division), and
    ``stop_reason`` says, per stopped branch, its span, where it stopped and
    why; queries outside the reached interval [s_lo, s_hi] raise NuBlowup.
    """

    s_lo: float
    s_hi: float
    truncated: bool
    s0: float
    nu0: float
    ends: tuple[float, float]
    branches: dict[int, odesolve.OdeSolution]
    rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stop_reason: str | None = None

    def __call__(self, s: float) -> float:
        return float(self.values([s])[0])

    def deriv(self, s: float) -> float:
        return float(self.sample([s])[1][0])

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
                sigma = (s[pick] - self.s0) / (self.ends[idx] - self.s0)
                nu[pick] = branch.sample(np.minimum(sigma, branch.ts[-1]))[:, 0]
        return nu

    def sample(self, s) -> tuple[np.ndarray, np.ndarray]:
        """nu and nu' at every s; nu' is the right side at (s, nu(s))."""
        nu = self.values(s)
        return nu, self.rate(np.asarray(s, float), nu)


def _nu_rate(curve: Curve, field: ForceField):
    """The right side d nu/ds = -<r'(s), M> B(r(s), nu n(s)) / nu of the
    initial-speed ODE, at arrays of s and nu of one shape, in its work-energy
    form -<F(r(s), nu n(s)), r'(s)> / nu: M = +-r'/|r'| because n is
    perpendicular to r', so <r', M> B = <F, r'>.  |nu| below geometry.V_MIN
    is a rest point, where B is undefined, and raises DegenerateVelocity."""

    def rate(s, nu):
        d = curve.velocity(s)
        _, n, _ = _unit_frame(curve, s, d)
        checked_speed(np.abs(nu))
        return -np.vecdot(field.force(curve.point(s), nu[..., None] * n), d) / nu

    return rate


def solve_nu(curve: Curve, field: ForceField, s0: float, nu0: float,
             *, s_stops=None) -> NuSolution:
    """Solve the initial-speed ODE with nu(s0) = nu0 over the curve's s_range.

    One adaptive solve integrates both branches, s0 toward each end, as a
    stacked (m, 1) state in sigma in [0, 1], s = s0 + sigma (end - s0).
    Each s in ``s_stops`` (the s-nodes a shift will sample) and each of the
    curve's breaks is an accepted node of its branch, so nu at an s-node
    needs no interpolation and no step straddles a break.

    A branch stops early, and the profile is marked truncated, where |nu|
    would fall below ``_NU_FLOOR_RATIO * |nu0|`` (the right side is singular
    at nu = 0), where it goes non-finite, or where its right side raises a
    package error, a float overflow or a zero division.  Such a row is NaN
    in the right side, the step size shrinks toward the failure until it
    underflows, and the row is frozen at its last accepted node while the
    other branch goes on in a fresh solve from there.  A row stopped by the
    floor or a non-finite value then ends on the last of ``_NU_CHECKPOINTS``
    checkpoints of its span that it passed.  ``stop_reason`` names each
    stopped branch's span, the s it ends at and the error.  Any other
    exception propagates.
    """
    if nu0 == 0.0:
        raise ValueError("nu0 must be nonzero")
    lo, hi = curve.s_range
    if not (lo <= s0 <= hi):
        raise ValueError(f"s0={s0} outside [{lo}, {hi}]")
    floor = abs(nu0) * _NU_FLOOR_RATIO
    rate = _nu_rate(curve, field)
    ends = (lo, hi)
    active = [idx for idx in (0, 1) if ends[idx] != s0]
    s_stops = np.concatenate([np.asarray(s_stops if s_stops is not None else (), float),
                              curve.breaks])
    stops = []
    for idx in active:
        # divide only the stops inside the branch: their quotients are at most 1
        inside = s_stops[(min(s0, ends[idx]) < s_stops) & (s_stops < max(s0, ends[idx]))]
        stops += [sigma for sigma in (inside - s0) / (ends[idx] - s0) if 0.0 < sigma < 1.0]
    failures: dict[int, Exception] = {}
    blowup = NuBlowup(f"|nu| fell below {floor:.6g} or is not finite")

    def rhs(sigma, y):
        """d nu/d sigma of the active rows (``width`` is set per solve below),
        all rows in one call; row by row only if one is below the floor or
        the call raised, with NaN in a row that cannot go on, whose cause
        goes to ``failures``."""
        s, nu = s0 + sigma * width, y[:, 0]
        ok = np.abs(nu) >= floor
        if ok.all():
            try:
                return (rate(s, nu) * width)[:, None]
            except (NormShiftError, ArithmeticError):
                pass
        out = np.full(nu.shape, np.nan)
        # a NaN row comes from an earlier stage, whose cause is already kept
        for row in np.flatnonzero(~ok & np.isfinite(nu)):
            failures[row] = blowup
        for row in np.flatnonzero(ok):
            try:
                out[row] = rate(s[row:row + 1], nu[row:row + 1])[0] * width[row]
            except (NormShiftError, ArithmeticError) as exc:
                failures[row] = exc
        return out[:, None]

    parts = {idx: [] for idx in active}
    reach = {idx: 0.0 for idx in (0, 1)}  # sigma each branch reached
    reasons = {}
    sigma, y = 0.0, np.full((len(active), 1), float(nu0))
    while active:
        width = np.array([ends[idx] - s0 for idx in active])
        failures.clear()
        try:
            sol = odesolve.solve_dopri(rhs, sigma, y, 1.0, abs_tol=_NU_TOL,
                                       rel_tol=_NU_TOL, t_stops=stops)
            causes = {}
        except StepFailure as exc:
            sol = exc.solution
            causes = ({row: failures.get(row, blowup) for row in exc.rows} if exc.rows
                      else dict.fromkeys(range(len(active)), exc))
        for row, idx in enumerate(active):
            first = 1 if parts[idx] else 0  # a restart repeats the node it starts from
            parts[idx].append((sol.ts[first:], sol.ys[first:, row], sol.fs[first:, row]))
            if not causes:
                reach[idx] = 1.0
            elif row in causes:
                reach[idx] = float(sol.ts[-1])
                if causes[row] is blowup:
                    reach[idx] = math.floor(reach[idx] * _NU_CHECKPOINTS) / _NU_CHECKPOINTS
                reasons[idx] = (f"on [{s0:.6g}, {ends[idx]:.6g}], stopped at "
                                f"s={_s_at(s0, ends[idx], reach[idx]):.6g}: "
                                f"{type(causes[row]).__name__}: {causes[row]}")
        keep = [row for row in range(len(active)) if causes and row not in causes]
        sigma, y, active = float(sol.ts[-1]), sol.ys[-1][keep], [active[row] for row in keep]

    branches = {idx: odesolve.OdeSolution(*(np.concatenate(a) for a in zip(*p)))
                for idx, p in parts.items()}
    s_lo, s_hi = (_s_at(s0, ends[idx], reach[idx]) for idx in (0, 1))
    return NuSolution(s_lo=s_lo, s_hi=s_hi, truncated=bool(reasons), s0=s0, nu0=nu0,
                      ends=ends, branches=branches, rate=rate,
                      stop_reason="; ".join(reasons[i] for i in sorted(reasons)) or None)


def _s_at(s0: float, end: float, sigma: float) -> float:
    """s = s0 + sigma (end - s0), exactly ``end`` at sigma = 1."""
    return end if sigma == 1.0 else s0 + sigma * (end - s0)


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
        """Write one row per node, t-major.  Returns the text of x and y, for
        a plot file that repeats them."""
        n_t, n_s = self.phi.shape
        x, y = formatted(self.r[..., 0].ravel()), formatted(self.r[..., 1].ravel())
        write_table(path, [
            np.repeat(formatted(self.t_nodes), n_s), np.tile(formatted(self.s_nodes), n_t),
            x, y, *self.v.reshape(-1, 2).T,
            self.phi.ravel(), self.psi.ravel(), np.tile(formatted(self.nu), n_t)],
            header="t,s,x,y,vx,vy,phi,psi,nu")
        return x, y


def normal_shift(curve: Curve, field: ForceField, nu, t_span,
                 n_s: int = 64, n_t: int = 100,
                 cfg: IntegratorConfig | None = None,
                 s_range=None) -> ShiftGrid:
    """Populate the (t, s) grid of the shift of the curve by a flat field.

    ``nu`` is either a NuSolution (solved for the same field) or any callable
    s -> speed.  Deviations use tau(0) = r'(s) and tau'(0) = nu' n + nu n',
    with nu' from the initial-speed ODE for a NuSolution and otherwise from a
    central difference of ``nu`` clipped to the shifted range, one-sided at
    its ends.
    All s-nodes are integrated as one stacked system; an error from it gets
    a note naming the s-nodes whose rows went non-finite, when known, and
    otherwise the shifted s-range.
    """
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
    tangent, n, k = frenet(curve, s_nodes)
    d = curve.velocity(s_nodes)
    n_prime = (-k * np.hypot(d[:, 0], d[:, 1]))[:, None] * tangent
    launch = (curve.point(s_nodes), nu_vals[:, None] * n, d,
              dnu[:, None] * n + nu_vals[:, None] * n_prime)
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
    phi_tol = 1e-6 (1 + max |tau|).  On shifts of the normality-claiming
    catalogue fields (random splines, n_s = 32, n_t = 50, t in [0, 0.5])
    max |phi| is 5e-8 to 1.5e-7.  That floor is set by the cubic Hermite
    dense output that samples the grid times, not by the integrator: at
    accepted nodes phi is 3e-12 to 1e-10.  The default lies 130x to 800x
    above that floor, and far below the order-one phi of a shift that is
    not normal.
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
