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

which needs no velocity frame.  ``solve_nu`` integrates it with
Chebyshev–Picard steps, which evaluate the right side at every node of a
step in one call, and samples nu between step ends from each step's
spectral interpolant.

Fields here are flat: the shift under a conformal metric g is that of
flat_from_covariant(F, g), with the same trajectories and, as g keeps angles,
the same nodes where phi vanishes.  The CLI converts the field once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import odesolve
from .errors import NormShiftError, NuBlowup, SingularCurve, StepFailure
from .forces import ForceField
from .geometry import PiecewiseCubic, checked_speed
from .dynamics import IntegratorConfig, integrate_deviation
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
    """Regular parametric curve, given by its jet.

    ``jet(s)`` returns r, r' and r'' at a number or an array of s, each a
    writable array of shape ``np.shape(s) + (2,)``; a constant r' or r''
    still gives one row per s.  A curve of your own is one such callable.
    ``s_range`` is the parameter interval, with ``s_range[0] < s_range[1]``.

    ``normal`` selects which unit normal the shift launches along: "left" is
    the tangent rotated by +90 degrees, "right" by -90 degrees.  ``breaks``
    are the s where a derivative of r may jump (a spline's knots); solve_nu
    ends a step there, since the interpolant of a step across one converges
    only slowly in its degree.
    """

    jet: Callable
    s_range: tuple[float, float]
    normal: str = "left"
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.normal not in ("left", "right"):
            raise ValueError("normal must be 'left' or 'right'")
        lo, hi = self.s_range
        if not lo < hi:
            raise SingularCurve(f"the curve's s_range [{lo}, {hi}] is empty or reversed")


def _line(p0, direction, s_range, normal: str) -> Curve:
    """The line r(s) = p0 + s direction over s_range."""

    def jet(s):
        s = np.asarray(s, float)
        shape = s.shape + (2,)
        return (p0 + s[..., None] * direction, np.broadcast_to(direction, shape).copy(),
                np.zeros(shape))

    return Curve(jet=jet, s_range=(float(s_range[0]), float(s_range[1])), normal=normal)


def line_segment(p0, p1, *, normal: str = "left") -> Curve:
    """Straight segment from p0 to p1, unit-speed with s in [0, |p1 - p0|]."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = float(np.hypot(*(p1 - p0)))
    if length < _REGULARITY_EPS:
        raise SingularCurve("degenerate segment")
    return _line(p0, (p1 - p0) / length, (0.0, length), normal)


def segment_on_axis(s_min: float = -1.0, s_max: float = 1.0, *,
                    normal: str = "right") -> Curve:
    """The horizontal segment r(s) = (s, 0); the right normal points down."""
    return _line(np.zeros(2), np.array([1.0, 0.0]), (s_min, s_max), normal)


def tilted_line(s_min: float = -1.0, s_max: float = 1.0, *,
                normal: str = "left") -> Curve:
    """The 45-degree line r(s) = s/sqrt(2) (1, 1), arclength parameterized."""
    return _line(np.zeros(2), np.array([1.0, 1.0]) / math.sqrt(2.0), (s_min, s_max), normal)


def circle_arc(center, radius: float, s_range=(0.0, math.pi), *,
               normal: str = "left") -> Curve:
    """Arclength-parameterized arc of a circle; s is arclength, angle = s/R.

    SingularCurve if the radius is not positive, if the curvature 1/R
    overflows, or if the arc turns more than 1e4 radians, |hi - lo| / R: the
    work of a nu solve grows with the turning.  Within that bound every
    angle s/R on ``s_range`` is finite.
    """
    c = np.asarray(center, float)
    radius = float(radius)
    if radius <= 0:
        raise SingularCurve("circle radius must be positive")
    lo, hi = float(s_range[0]), float(s_range[1])
    turning = abs(hi - lo) / radius
    if not (math.isfinite(1.0 / radius) and turning <= 1e4):
        raise SingularCurve(f"circle radius {radius!r} is too small: its curvature "
                            f"overflows, or on [{lo}, {hi}] it turns {turning:.6g} "
                            f"radians, more than 1e4")

    def jet(s):
        a = np.asarray(s, float) / radius
        unit = np.stack([np.cos(a), np.sin(a)], axis=-1)
        return c + radius * unit, unit[..., ::-1] * _ROTATE, -unit / radius

    return Curve(jet=jet, s_range=(lo, hi), normal=normal)


def spline_through(points, *, normal: str = "left") -> Curve:
    """Cubic spline (not-a-knot ends) through the given points, s in [0, 1].

    Three points give the parabola through them.  Both coordinates are one
    ``geometry.PiecewiseCubic``, fitted column by column; its ``jet`` is the
    curve's, r, r' and r'' from one lookup of the pieces.
    """
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise SingularCurve("need at least three planar points")
    knots = np.linspace(0.0, 1.0, len(pts))
    return Curve(jet=PiecewiseCubic(knots, pts).jet, s_range=(0.0, 1.0), normal=normal,
                 breaks=tuple(knots[1:-1].tolist()))


def frenet(curve: Curve, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit tangent, the chosen unit normal, and the signed curvature at s.

    s may be a number or an array; tangent and normal have shape
    ``np.shape(s) + (2,)``.  The curvature sign follows the chosen normal:
    k = <dT/ds, n>/|r'|, so the Frenet relations read T' = |r'| k n and
    n' = -|r'| k T.
    """
    _, d, dd = curve.jet(s)
    tangent, n, _, k = _frenet(curve, s, d, dd)
    return tangent, n, k


def _frenet(curve: Curve, s, d: np.ndarray, dd: np.ndarray):
    """``frenet`` from r'(s) = d and r''(s) = dd, with |r'| before the curvature."""
    tangent, n, speed = _unit_frame(curve, s, d)
    return tangent, n, speed, np.vecdot(dd, n) / (speed * speed)


def _unit_frame(curve: Curve, s, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit tangent, the chosen unit normal and |r'| from r'(s) = d, row by row."""
    speed = np.hypot(d[..., 0], d[..., 1])
    low = speed < _REGULARITY_EPS
    if low.any():
        raise SingularCurve(f"|r'({np.asarray(s, float)[low][0]})| = "
                            f"{np.min(speed[low]):.3e}; curve not regular")
    tangent = d / speed[..., None]
    n = tangent[..., ::-1] * (_ROTATE if curve.normal == "left" else -_ROTATE)
    return tangent, n, speed


@dataclass
class NuSolution:
    """Initial-speed profile nu(s), solved on the reached interval [s_lo, s_hi].

    Like a ``forces.Profile``, it is called as ``nu(s)`` for nu and
    ``nu.jet(s)`` for nu and nu' at a number or an array of s.  ``solution``
    is one Chebyshev–Picard solution ascending in s, state shape (1,): its
    step ends and its values at each step's nodes, between which nu is the
    step's barycentric interpolant, and the work of the solves whose steps
    it joins, plus the right sides of a dropped stacked attempt.  ``rate``
    is the right side d nu/ds at arrays of (s, nu), and nu' is the rate at
    (s, nu(s)).  ``stop_reason`` is None when both branches, from s0 toward
    each end, reached their ends; otherwise it says, per branch that stopped
    early (nu approached zero, went non-finite, or the right side raised a
    package error or a float overflow or zero division), its span, where it
    stopped and why, and ``truncated`` is true.  Queries outside
    [s_lo, s_hi] raise NuBlowup.
    """

    s_lo: float
    s_hi: float
    solution: odesolve.ChebyshevSolution
    rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stop_reason: str | None = None

    @property
    def truncated(self) -> bool:
        """Whether a branch stopped before its end."""
        return self.stop_reason is not None

    def __call__(self, s):
        """nu at every s, from one sample of the solution."""
        s = np.asarray(s, float)
        outside = ~((self.s_lo - 1e-12 <= s) & (s <= self.s_hi + 1e-12))
        if np.any(outside):
            raise NuBlowup(f"nu(s) only reached [{self.s_lo:.6g}, {self.s_hi:.6g}]; "
                           f"queried s={s[outside][0]:.6g}")
        return self.solution.sample(s.ravel())[:, 0].reshape(s.shape)[()]

    def jet(self, s) -> tuple:
        """nu and nu' at every s from one sample: nu' is the rate at (s, nu(s))."""
        nu = self(s)
        return nu, self.rate(np.asarray(s, float), nu)


def _nu_rate(curve: Curve, field: ForceField):
    """The right side d nu/ds = -<r'(s), M> B(r(s), nu n(s)) / nu of the
    initial-speed ODE, at arrays of s and nu of one shape, in its work-energy
    form -<F(r(s), nu n(s)), r'(s)> / nu: M = +-r'/|r'| because n is
    perpendicular to r', so <r', M> B = <F, r'>.  |nu| below geometry.V_MIN
    is a rest point, where B is undefined, and raises DegenerateVelocity."""

    def rate(s, nu):
        r, d, _ = curve.jet(s)
        _, n, _ = _unit_frame(curve, s, d)
        checked_speed(np.abs(nu))
        return -np.vecdot(field.force(r, nu[..., None] * n), d) / nu

    return rate


def solve_nu(curve: Curve, field: ForceField, s0: float, nu0: float) -> NuSolution:
    """Solve the initial-speed ODE with nu(s0) = nu0 over the curve's s_range.

    Each branch, s0 toward each end, is solved in sigma in [0, 1],
    s = s0 + sigma (end - s0), by Chebyshev–Picard steps
    (``odesolve.solve_chebyshev``) that end only at the curve's breaks, so
    that none straddles one, and at the branch ends; nu between step ends
    comes from each step's spectral interpolant.  The first attempt stacks
    both branches as one (2, 1) state: each iteration evaluates the right
    side at every node of the step and both branches in one call.

    A branch stops early, and the profile is marked truncated, where |nu|
    would fall below ``_NU_FLOOR_RATIO * |nu0|`` (the right side is singular
    at nu = 0), where it goes non-finite, or where its right side raises a
    package error, a float overflow or a zero division.  The first such
    failure drops the stacked attempt, and each branch is solved alone from
    s0, where a failure is NaN and the step halves toward it until it
    underflows.  A branch stopped by the floor or a non-finite value ends on
    the last of ``_NU_CHECKPOINTS`` checkpoints of its span that it passed.
    ``stop_reason`` names each stopped branch's span, the s it ends at and
    the error.  Any other exception propagates.  The branches' solutions
    are mapped to s and joined into one ascending in s.
    """
    if nu0 == 0.0:
        raise ValueError("nu0 must be nonzero")
    lo, hi = curve.s_range
    if not (lo <= s0 <= hi):
        raise ValueError(f"s0={s0} outside [{lo}, {hi}]")
    floor = abs(nu0) * _NU_FLOOR_RATIO
    rate = _nu_rate(curve, field)
    breaks = np.asarray(curve.breaks, float)
    calls = 0

    def solve(ends):
        """The branches toward ``ends`` solved as one stacked state: per
        branch, its solution in sigma, the s it reached and its stop reason,
        None if it reached its end.  A right side that fails ends a solve of
        more than one branch with a StepFailure; of one, it is NaN."""
        width = np.array([end - s0 for end in ends])
        stops = []
        for end in ends:
            # divide only the breaks inside the branch: their quotients are at most 1
            inside = breaks[(min(s0, end) < breaks) & (breaks < max(s0, end))]
            stops += [sigma for sigma in (inside - s0) / (end - s0) if 0.0 < sigma < 1.0]
        error = None  # the error of the last right side that failed, if it raised

        def rhs(sigma, y):
            nonlocal calls, error
            calls += 1
            s, nu = s0 + sigma[:, None] * width, y[..., 0]
            out = raised = None
            if (np.abs(nu) >= floor).all():
                try:
                    out = (rate(s, nu) * width)[..., None]
                except (NormShiftError, ArithmeticError) as exc:
                    raised = exc
            if out is not None and np.isfinite(out).all():
                return out
            if len(ends) > 1:
                raise StepFailure("a branch of the stacked nu solve stopped")
            error = raised
            return np.full(y.shape, np.nan)

        try:
            sol = odesolve.solve_chebyshev(rhs, 0.0, np.full((len(ends), 1), float(nu0)), 1.0,
                                           tol=_NU_TOL, t_stops=stops)
        except StepFailure as exc:
            if len(ends) > 1:
                raise
            sigma, cause = float(exc.solution.ts[-1]), (error if exc.rows else exc)
            if cause is None:
                cause = NuBlowup(f"|nu| fell below {floor:.6g} or is not finite")
                sigma = math.floor(sigma * _NU_CHECKPOINTS) / _NU_CHECKPOINTS
            s = _s_at(s0, ends[0], sigma)
            return [(exc.solution.row(0), s, f"on [{s0:.6g}, {ends[0]:.6g}], stopped at "
                                             f"s={s:.6g}: {type(cause).__name__}: {cause}")]
        return [(sol.row(i), end, None) for i, end in enumerate(ends)]

    ends = [end for end in (lo, hi) if end != s0]
    try:
        branches = solve(ends)
    except StepFailure:  # a branch stopped: solve each alone from s0
        branches = [branch for end in ends for branch in solve([end])]

    in_s = []
    for end, (sol, _, _) in zip(ends, branches):
        ts = np.array([_s_at(s0, end, sigma) for sigma in sol.ts.tolist()])
        # the lower branch runs down in s: reverse its steps and their nodes,
        # which are symmetric, as are their weights, so each step is the
        # same polynomial
        in_s.append(replace(sol, ts=ts) if end > s0 else
                    replace(sol, ts=ts[::-1], ys=sol.ys[::-1], nodes=sol.nodes[::-1, ::-1]))
    reached = [s0] + [s for _, s, _ in branches]
    return NuSolution(s_lo=min(reached), s_hi=max(reached),
                      solution=replace(odesolve.ChebyshevSolution.joined(in_s), rhs_calls=calls),
                      rate=rate, stop_reason="; ".join(r for _, _, r in branches if r) or None)


def _s_at(s0: float, end: float, sigma: float) -> float:
    """s = s0 + sigma (end - s0), exactly ``end`` at sigma = 1."""
    return end if sigma == 1.0 else s0 + sigma * (end - s0)


@dataclass
class ShiftGrid:
    """States, deviation data and nu over the (t, s) grid of a shift.

    Index [i, j] is the node (t_nodes[i], s_nodes[j]); column j is the
    trajectory launched from s_nodes[j].  ``work`` is the work of the one
    solve that integrated every column, ``OdeSolution.work``.
    """

    s_nodes: np.ndarray
    t_nodes: np.ndarray
    r: np.ndarray                         # shape (n_t, n_s, 2)
    v: np.ndarray                         # shape (n_t, n_s, 2)
    tau: np.ndarray                       # shape (n_t, n_s, 2)
    nu: np.ndarray                        # nu per s-node
    phi: np.ndarray                       # shape (n_t, n_s)
    psi: np.ndarray
    work: dict

    def max_abs_phi(self) -> float:
        return float(np.max(np.abs(self.phi)))

    def max_tau_norm(self) -> float:
        return float(np.max(np.hypot(self.tau[..., 0], self.tau[..., 1])))


def normal_shift(curve: Curve, field: ForceField, nu, t_span,
                 n_s: int = 64, n_t: int = 100,
                 cfg: IntegratorConfig | None = None) -> ShiftGrid:
    """Populate the (t, s) grid of the shift of the curve by a flat field.

    The s-nodes span the curve's ``s_range``; to shift a part of the curve,
    pass ``dataclasses.replace(curve, s_range=...)``.  ``nu`` is a speed
    profile: a ``forces.Profile``, or a NuSolution solved for the same field,
    whose reached interval clips the grid; NuBlowup, naming the solve's stop
    reason, if no interval of s is left.  Deviations use tau(0) = r'(s)
    and tau'(0) = nu' n + nu n', with nu and nu' from one ``nu.jet(s)`` at
    all s-nodes at once.
    All s-nodes are integrated as one stacked system; an error from it gets
    a note naming the s-nodes whose rows went non-finite, when known, and
    otherwise the shifted s-range.
    """
    lo, hi = curve.s_range
    if isinstance(nu, NuSolution):
        lo = max(lo, nu.s_lo)
        hi = min(hi, nu.s_hi)
        if not lo < hi:
            raise NuBlowup(f"nu(s) reached [{nu.s_lo:.6g}, {nu.s_hi:.6g}], which leaves no "
                           f"interval of s to shift: {nu.stop_reason}")
    s_nodes = np.linspace(lo, hi, n_s)
    t_nodes = np.linspace(float(t_span[0]), float(t_span[1]), n_t)
    # launch data (r, v, tau, tau') per s-node: r(s), nu n, r'(s), nu' n + nu n';
    # integrate_deviation refuses a non-finite launch, so it is not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nu_vals, dnu = nu.jet(s_nodes)
        r, d, dd = curve.jet(s_nodes)
        tangent, n, speed, k = _frenet(curve, s_nodes, d, dd)
        n_prime = (-k * speed)[:, None] * tangent
        launch = (r, nu_vals[:, None] * n, d, dnu[:, None] * n + nu_vals[:, None] * n_prime)
    try:
        deviation = integrate_deviation(field, *launch, t_nodes, cfg)
    except Exception as exc:
        rows = list(exc.rows) if isinstance(exc, StepFailure) else []
        exc.add_note(f"at s={', '.join(f'{s:.6g}' for s in s_nodes[rows])}" if rows
                     else f"at s in [{lo:.6g}, {hi:.6g}]")
        raise
    samples = deviation.samples
    return ShiftGrid(s_nodes=s_nodes, t_nodes=t_nodes, r=samples[..., 0:2],
                     v=samples[..., 2:4], tau=samples[..., 4:6], nu=nu_vals,
                     phi=deviation.phi, psi=deviation.psi, work=deviation.work)


def normality_report(grid: ShiftGrid, phi_tol: float | None = None) -> dict:
    """The report that ``normality_report.json`` holds: the ``verdict``
    ("normal" or "not normal"), ``max_abs_phi``, the worst angle between
    dr/ds and v as ``max_angle_deviation_deg``, ``max_tau_norm``, the
    ``phi_tol`` it was judged by and ``nu_per_s_node``.

    The shift is normal where max |phi| < phi_tol.  The default tolerance
    scales with the deviation magnitude, phi_tol = 1e-6 (1 + max |tau|).  On
    shifts of the normality-claiming catalogue fields (random splines,
    n_s = 32, n_t = 50, t in [0, 0.5]) max |phi| is 2.1e-10 to 2.4e-9,
    sampled from the integrator's own 7th-order dense output at tolerance
    1e-10.  The default lies 10000x to 90000x above that floor, and far
    below the order-one phi of a shift that is not normal.  The angle's
    cosine is <tau, v> / (|tau| |v|), or, where |tau| |v| overflows, the
    product of the unit vectors.
    """
    max_tau = grid.max_tau_norm()
    tol = phi_tol if phi_tol is not None else 1e-6 * (1.0 + max_tau)
    max_phi = grid.max_abs_phi()

    n_tau = np.hypot(grid.tau[..., 0], grid.tau[..., 1])
    n_v = np.hypot(grid.v[..., 0], grid.v[..., 1])
    kept = (n_tau >= 1e-14) & (n_v >= 1e-14)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (n_tau * n_v)[kept]
        cosang = np.abs(np.vecdot(grid.tau, grid.v)[kept]) / norms
    big = ~np.isfinite(norms)
    unit_tau = grid.tau[kept][big] / n_tau[kept][big, None]
    unit_v = grid.v[kept][big] / n_v[kept][big, None]
    cosang[big] = np.abs(np.vecdot(unit_tau, unit_v))
    worst = float(np.degrees(np.max(np.arcsin(np.minimum(1.0, cosang)), initial=0.0)))
    return {"verdict": "normal" if max_phi < tol else "not normal",
            "max_abs_phi": max_phi, "max_angle_deviation_deg": worst,
            "max_tau_norm": max_tau, "phi_tol": tol,
            "nu_per_s_node": [float(x) for x in grid.nu]}
