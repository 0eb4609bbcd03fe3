"""Analytic and quadrature reference solutions used as oracles.

Everything here is independent of the phase-flow integrator: gravity shift
fronts, the oscillator deviation formula on the tilted line, cycloid
trajectories of the constant anisotropic field, and the quadrature pipeline
for the marked-point field.  A mismatch with direct integration beyond the
stated tolerances is a test failure, not a tolerance to be widened.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import OutOfInterval, SingularQuadrature
from .forces import Profile
from .dynamics import PhaseState
from .geometry import PiecewiseCubic


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson quadrature with the classic 1/15 error estimate."""
    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        flm, frm = f(0.5 * (lo + mid)), f(0.5 * (mid + hi))
        left = simpson(lo, flo, mid, fmid, flm)
        right = simpson(mid, fmid, hi, fhi, frm)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, flo, mid, fmid, flm, left, eps / 2.0, depth + 1)
                + recurse(mid, fmid, hi, fhi, frm, right, eps / 2.0, depth + 1))

    if a == b:
        return 0.0
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    if not all(map(math.isfinite, (fa, fb, fm))):
        raise SingularQuadrature("integrand not finite on the interval")
    whole = simpson(a, fa, b, fb, fm)
    return recurse(a, fa, b, fb, fm, whole, tol, 0)


# ---------------------------------------------------------------------------
# Gravity shift fronts.
# ---------------------------------------------------------------------------

def gravity_shift(s: float, t, variant: str = "constant_nu") -> np.ndarray:
    """Shifted position of the horizontal segment under unit downward gravity,
    shape (..., 2) for t of any shape.

    constant_nu: r = (s, -t^2/2 - t).  linear_nu uses nu(s) = (3 - s)/4,
    giving r = (s, -t^2/2 - nu(s) t); the front tilts and the shift is not
    normal.
    """
    nu = {"constant_nu": 1.0, "linear_nu": (3.0 - s) / 4.0}.get(variant)
    if nu is None:
        raise ValueError(f"unknown variant {variant!r}")
    t = np.asarray(t, float)
    return np.stack([np.full_like(t, s), -0.5 * t * t - nu * t], axis=-1)


def oscillator_phi(nu: Profile, omega: float, s: float, t: float) -> float:
    """Deviation function of the oscillator shift launched from the 45-degree line.

    phi = nu nu' t + (nu nu'/w - s w) cos(wt) sin(wt)
          + (nu + s nu') cos^2(wt) - (nu + s nu').

    Normalization: this equals 2 <dr/ds, dr/dt> of the explicit solution,
    i.e. 2 |v(t)| times the unit-frame deviation function.  ``nu`` is any
    speed profile, read as nu.jet(s): a Profile, or a solved
    ``shift.NuSolution``.
    """
    if omega == 0.0:
        raise ValueError("omega must be nonzero")
    n, dn = nu.jet(s)
    c, si = math.cos(omega * t), math.sin(omega * t)
    return (n * dn * t + (n * dn / omega - s * omega) * c * si
            + (n + s * dn) * c * c - (n + s * dn))


# ---------------------------------------------------------------------------
# Cycloids of the constant anisotropic field.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycloidParams:
    """Start data of a cycloid trajectory: angle theta0 in (0, pi), speed
    v0 > 0, constant force magnitude a0 > 0; omega = a0 sin(theta0) / v0,
    whose 4 omega^2 must be a positive normal float, and 10 a0 / (4 omega^2)
    finite."""

    x0: float
    y0: float
    theta0: float
    v0: float
    a0: float
    omega: float = dc_field(init=False)

    def __post_init__(self):
        if not (0.0 < self.theta0 < math.pi):
            raise ValueError("theta0 must lie in (0, pi)")
        if self.v0 <= 0 or self.a0 <= 0:
            raise ValueError("v0 and a0 must be positive")
        omega = self.a0 * math.sin(self.theta0) / self.v0
        # the closed form divides by 4 omega^2, and its points lie within
        # 2 R of x0 and (2 pi + 2) R of y0, R = a0 / (4 omega^2)
        if not sys.float_info.min <= 4.0 * omega * omega < math.inf:
            raise ValueError(f"omega = a0 sin(theta0) / v0 = {omega!r}: 4 omega^2 "
                             f"is not a positive normal float")
        if not math.isfinite(10.0 * self.a0 / (4.0 * omega * omega)):
            raise ValueError(f"the cycloid's size a0 / (4 omega^2), omega = {omega!r}, "
                             f"overflows")
        object.__setattr__(self, "omega", omega)

    @property
    def t_interval(self) -> tuple[float, float]:
        return (-self.theta0 / self.omega, (math.pi - self.theta0) / self.omega)


def cycloid(p: CycloidParams, t) -> PhaseState:
    """Exact trajectory points of the constant anisotropic field at the
    times t (any shape; a number gives one point).

    theta(t) = theta0 + w t, v(t) = (a0/w) sin(theta),
    x = x0 - a0/(4 w^2) (cos 2theta - cos 2theta0),
    y = y0 + a0 t/(2w) - a0/(4 w^2) (sin 2theta - sin 2theta0).
    """
    w = p.omega
    lo, hi = p.t_interval
    t = np.asarray(t, float)
    if not np.all((lo - 1e-12 <= t) & (t <= hi + 1e-12)):
        raise OutOfInterval(f"t in [{np.min(t):.6g}, {np.max(t):.6g}] leaves "
                            f"[{lo:.6g}, {hi:.6g}]")
    theta = p.theta0 + w * t
    v = p.a0 / w * np.sin(theta)
    x = p.x0 - p.a0 / (4 * w * w) * (np.cos(2 * theta) - math.cos(2 * p.theta0))
    y = (p.y0 + p.a0 * t / (2 * w)
         - p.a0 / (4 * w * w) * (np.sin(2 * theta) - math.sin(2 * p.theta0)))
    return PhaseState(np.stack([x, y], axis=-1),
                      np.stack([v * np.cos(theta), v * np.sin(theta)], axis=-1))


# ---------------------------------------------------------------------------
# Marked-point field: integration in quadratures.
# ---------------------------------------------------------------------------

@dataclass
class QuadratureTable:
    """theta-indexed tables of the marked-point quadrature pipeline.

    Columns along the monotone theta grid: speed v, radius rho, elapsed time
    t (zero at the first node), and polar angle gamma of the position.  theta
    is the angle from the radius direction to the velocity, so the velocity
    heading is gamma + theta.

    v and rho are splined over theta, and (theta, v, rho, gamma) over t,
    which is monotone along the grid, so a state at a time is one spline
    lookup.
    """

    theta: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    t: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        by_theta, by_t = np.argsort(self.theta), np.argsort(self.t)
        self._spline = PiecewiseCubic(
            self.theta[by_theta], np.stack([self.v, self.rho], axis=-1)[by_theta])
        self._state = PiecewiseCubic(
            self.t[by_t], np.stack([self.theta, self.v, self.rho, self.gamma], axis=-1)[by_t])

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    def v_at(self, theta):
        """v at each theta, elementwise."""
        return self._spline(theta)[..., 0][()]

    def rho_at(self, theta):
        """rho at each theta, elementwise."""
        return self._spline(theta)[..., 1][()]

    def state_at(self, t: float) -> PhaseState:
        """The state at time t; OutOfInterval outside the tabulated times."""
        lo, hi = sorted((self.t[0], self.t[-1]))
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise OutOfInterval(f"t={t:.6g} outside the tabulated range")
        th, v, rho, gamma = self._state(t).tolist()
        heading = gamma + th
        return PhaseState(rho * np.array([math.cos(gamma), math.sin(gamma)]),
                          v * np.array([math.cos(heading), math.sin(heading)]))


def marked_point_quadrature(profile: Profile, init, theta_end: float,
                            n_nodes: int = 200, tol: float = 1e-10) -> QuadratureTable:
    """Quadrature tables for the marked-point field with speed profile A(v).

    ``init`` is (rho0, gamma0, v0, theta0); the grid runs from theta0 to
    theta_end.  The pipeline, valid on a window where sin(theta) keeps one
    sign and A(v) - v^2 does not vanish:

      v(theta):   int_{v0}^{v} g(u) du = log|sin th / sin th0|,
                  g(u) = (A(u) - u^2)/(u A(u))
      rho(theta): d log rho / d th = v^2 cot(th) / (A - v^2)
      t(theta):   dt/d th = rho v / ((A - v^2) sin th)
      gamma(th):  d gamma / d th = v^2 / (A - v^2)

    The speed relation is solved node by node from the previous node's
    speed by Newton's method in s = log v, where it reads int v g(v) ds and
    its integrand v g(v) = 1 - v^2/A(v) is its own derivative.  Every
    iterate must keep the launch sign of A(v) - v^2: a speed that would
    have to reach A(v) = v^2 raises SingularQuadrature naming theta.
    Downstream integrands interpolate v across grid nodes with a cubic
    spline, and every integral is adaptive Simpson.

    The pipeline runs twice.  The first pass, on a grid uniform in theta,
    gives t(theta), whose steps vary along that grid as 1/sin(theta); the
    table is the second pass, on the nodes at equal steps of t, so that the
    spline in t of ``state_at`` has no wide gaps.
    """
    rho0, gamma0, v0, theta0 = (float(x) for x in init)
    if rho0 <= 0 or v0 <= 0:
        raise ValueError("rho0 and v0 must be positive")
    start = (rho0, gamma0, v0)
    uniform = _quadrature_pass(profile, start, np.linspace(theta0, float(theta_end), n_nodes), tol)
    by_t = np.argsort(uniform.t)
    grid = PiecewiseCubic(uniform.t[by_t], uniform.theta[by_t])(
        np.linspace(0.0, uniform.t[-1], n_nodes))
    grid[0], grid[-1] = uniform.theta[0], uniform.theta[-1]
    return _quadrature_pass(profile, start, grid, tol)


def _quadrature_pass(profile: Profile, start, theta_grid: np.ndarray,
                     tol: float) -> QuadratureTable:
    """The tables of ``marked_point_quadrature`` on one monotone theta grid,
    from (rho0, gamma0, v0) at its first node."""
    rho0, gamma0, v0 = start
    n_nodes = len(theta_grid)
    sins = np.sin(theta_grid)
    if np.min(np.abs(sins)) < 1e-9 or np.min(sins) * np.max(sins) < 0:
        raise SingularQuadrature("sin(theta) must keep one sign on the grid")
    a_start = profile(v0)
    if abs(a_start) < 1e-12 or abs(a_start - v0 * v0) < 1e-12:
        raise SingularQuadrature("A(v0) or A(v0) - v0^2 vanishes at the start")
    branch_sign = math.copysign(1.0, a_start - v0 * v0)

    def speed_integrand(s: float) -> float:
        # g(u) du in s = log u: u g(u) = 1 - u^2/A(u), bounded as u -> 0
        u = math.exp(s)
        au = profile(u)
        if abs(au) < 1e-14:
            raise SingularQuadrature(f"A({u:.6g}) = 0 inside the speed quadrature")
        return 1.0 - u * u / au

    log_sins = np.log(np.abs(sins))
    v_tab = np.empty(n_nodes)
    v_tab[0] = v0
    # Newton from the previous node's s on G(s) = int_{log v0}^{s} u g =
    # log|sin th_i / sin th0|, whose derivative is its integrand; G grows by
    # one Simpson piece per step
    s, big_g = math.log(v0), 0.0
    for i in range(1, n_nodes):
        for _ in range(50):
            ds = (log_sins[i] - log_sins[0] - big_g) / speed_integrand(s)
            if abs(ds) <= 1e-14:
                break
            with np.errstate(over="ignore", invalid="ignore"):  # u = inf fails the check
                u = np.exp(s + ds)
                on_branch = branch_sign * (profile(u) - u * u) >= 1e-10
            if not on_branch:
                raise SingularQuadrature(
                    f"A(v) - v^2 vanishes or changes sign near theta={theta_grid[i]:.6g}")
            big_g += adaptive_simpson(speed_integrand, s, s + ds, tol)
            s += ds
        else:
            raise SingularQuadrature(f"Newton's method on the speed relation did not "
                                     f"converge near theta={theta_grid[i]:.6g}")
        v_tab[i] = math.exp(s)

    order = np.argsort(theta_grid)
    v_spline = PiecewiseCubic(theta_grid[order], v_tab[order])

    def v_of(th: float) -> float:
        return float(v_spline(th))

    def log_rho_integrand(th: float) -> float:
        u = v_of(th)
        return u * u / (math.tan(th) * (profile(u) - u * u))

    def gamma_integrand(th: float) -> float:
        u = v_of(th)
        return u * u / (profile(u) - u * u)

    log_rho = np.empty(n_nodes)
    log_rho[0] = math.log(rho0)
    gamma_tab = np.empty(n_nodes)
    gamma_tab[0] = gamma0
    for i in range(1, n_nodes):
        log_rho[i] = log_rho[i - 1] + adaptive_simpson(
            log_rho_integrand, theta_grid[i - 1], theta_grid[i], tol)
        gamma_tab[i] = gamma_tab[i - 1] + adaptive_simpson(
            gamma_integrand, theta_grid[i - 1], theta_grid[i], tol)
    rho_tab = np.exp(log_rho)
    rho_spline = PiecewiseCubic(theta_grid[order], rho_tab[order])

    def time_integrand(th: float) -> float:
        u = v_of(th)
        return float(rho_spline(th)) * u / ((profile(u) - u * u) * math.sin(th))

    t_tab = np.empty(n_nodes)
    t_tab[0] = 0.0
    for i in range(1, n_nodes):
        t_tab[i] = t_tab[i - 1] + adaptive_simpson(
            time_integrand, theta_grid[i - 1], theta_grid[i], tol)
    dt = np.diff(t_tab)
    if not (np.all(dt > 0) or np.all(dt < 0)):
        raise SingularQuadrature("t(theta) is not monotone on the grid")

    return QuadratureTable(theta=theta_grid, v=v_tab, rho=rho_tab,
                           t=t_tab, gamma=gamma_tab)
