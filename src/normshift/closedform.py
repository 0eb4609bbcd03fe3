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
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import OutOfInterval, SingularQuadrature
from .forces import Profile
from .dynamics import PhaseState
from .tables import write_table


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
    i.e. 2 |v(t)| times the unit-frame deviation function.
    """
    if omega == 0.0:
        raise ValueError("omega must be nonzero")
    n = nu(s)
    dn = nu.d(s)
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
    """

    theta: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    t: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        # monotone-ascending theta views for the spline interpolants
        order = np.argsort(self.theta)
        th = self.theta[order]
        self._v_spl = CubicSpline(th, self.v[order])
        self._rho_spl = CubicSpline(th, self.rho[order])
        self._t_spl = CubicSpline(th, self.t[order])
        self._gamma_spl = CubicSpline(th, self.gamma[order])

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    def v_at(self, theta):
        """v at each theta, elementwise."""
        return self._v_spl(theta)[()]

    def rho_at(self, theta):
        """rho at each theta, elementwise."""
        return self._rho_spl(theta)[()]

    def theta_at(self, t: float) -> float:
        """Invert the monotone map t(theta) by bisection on the grid segment."""
        ts = self.t
        lo, hi = (ts[0], ts[-1]) if ts[-1] >= ts[0] else (ts[-1], ts[0])
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise OutOfInterval(f"t={t:.6g} outside the tabulated range")
        t_asc = ts if ts[-1] >= ts[0] else ts[::-1]
        th_asc = self.theta if ts[-1] >= ts[0] else self.theta[::-1]
        k = int(np.clip(np.searchsorted(t_asc, t) - 1, 0, len(ts) - 2))
        a, b = th_asc[k], th_asc[k + 1]
        fa = float(self._t_spl(a)) - t
        fb = float(self._t_spl(b)) - t
        if fa == 0.0:
            return float(a)
        if fb == 0.0:
            return float(b)
        if fa * fb > 0:  # spline overshoot at a segment end; fall back to linear
            w = (t - t_asc[k]) / (t_asc[k + 1] - t_asc[k])
            return float((1 - w) * a + w * b)
        return float(brentq(lambda th: float(self._t_spl(th)) - t,
                            min(a, b), max(a, b), xtol=1e-14))

    def state_at(self, t: float) -> PhaseState:
        th = self.theta_at(t)
        v = float(self._v_spl(th))
        rho = float(self._rho_spl(th))
        gamma = float(self._gamma_spl(th))
        heading = gamma + th
        return PhaseState(rho * np.array([math.cos(gamma), math.sin(gamma)]),
                          v * np.array([math.cos(heading), math.sin(heading)]))

    def write_csv(self, path):
        write_table(path, [self.theta, self.v, self.rho, self.t, self.gamma],
                    header="theta,v,rho,t,gamma")


def marked_point_quadrature(profile: Profile, init, theta_end: float,
                            n_nodes: int = 200, tol: float = 1e-10) -> QuadratureTable:
    """Quadrature tables for the marked-point field with speed profile A(v).

    ``init`` is (rho0, gamma0, v0, theta0); the grid runs from theta0 to
    theta_end.  The pipeline, valid on a window where sin(theta) keeps one
    sign and A(v) - v^2 does not vanish:

      v(theta):   int_{v0}^{v} (A(u) - u^2)/(u A(u)) du = log|sin th / sin th0|
      rho(theta): d log rho / d th = v^2 cot(th) / (A - v^2)
      t(theta):   dt/d th = rho v / ((A - v^2) sin th)
      gamma(th):  d gamma / d th = v^2 / (A - v^2)

    The speed relation is inverted pointwise with a bracketing root solve;
    downstream integrands interpolate v across grid nodes with a cubic
    spline, and every integral is adaptive Simpson.
    """
    rho0, gamma0, v0, theta0 = (float(x) for x in init)
    if rho0 <= 0 or v0 <= 0:
        raise ValueError("rho0 and v0 must be positive")
    theta_grid = np.linspace(theta0, float(theta_end), n_nodes)
    sins = np.sin(theta_grid)
    if np.min(np.abs(sins)) < 1e-9 or np.min(sins) * np.max(sins) < 0:
        raise SingularQuadrature("sin(theta) must keep one sign on the grid")
    a_start = profile(v0)
    if abs(a_start) < 1e-12 or abs(a_start - v0 * v0) < 1e-12:
        raise SingularQuadrature("A(v0) or A(v0) - v0^2 vanishes at the start")
    branch_sign = math.copysign(1.0, a_start - v0 * v0)

    def speed_integrand(u: float) -> float:
        au = profile(u)
        if abs(au) < 1e-14:
            raise SingularQuadrature(f"A({u:.6g}) = 0 inside the speed quadrature")
        return (au - u * u) / (u * au)

    log_sin0 = math.log(abs(math.sin(theta0)))
    cache: dict[float, float] = {v0: 0.0}

    def big_g(u: float) -> float:
        # cumulative speed integral from v0, cached at solved nodes
        if u in cache:
            return cache[u]
        base = min(cache, key=lambda w: abs(w - u))
        val = cache[base] + adaptive_simpson(speed_integrand, base, u, tol)
        return val

    v_tab = np.empty(n_nodes)
    v_tab[0] = v0
    for i in range(1, n_nodes):
        target = math.log(abs(sins[i])) - log_sin0

        def f(u: float) -> float:
            return big_g(u) - target

        # expand a bracket around the previous node's speed
        u_prev = v_tab[i - 1]
        increasing = speed_integrand(u_prev) > 0
        fa = f(u_prev)
        if fa == 0.0:
            v_tab[i] = u_prev
        else:
            direction = -1.0 if (fa > 0) == increasing else 1.0
            step = max(1e-4, 0.05 * u_prev)
            a, b = u_prev, u_prev
            fb = fa
            for _ in range(200):
                b = max(a + direction * step, 1e-9)
                fb = f(b)
                if fa * fb <= 0.0 or b == 1e-9:
                    break
                a, fa = b, fb
                step *= 1.6
            if fa * fb > 0.0:
                raise SingularQuadrature("could not bracket the speed relation root")
            v_tab[i] = brentq(f, min(a, b), max(a, b), xtol=1e-14, rtol=8.9e-16)
        cache[v_tab[i]] = target
        anew = profile(v_tab[i])
        if abs(anew - v_tab[i] ** 2) < 1e-10 or \
           math.copysign(1.0, anew - v_tab[i] ** 2) != branch_sign:
            raise SingularQuadrature(
                f"A(v) - v^2 vanishes or changes sign near theta={theta_grid[i]:.6g}")

    order = np.argsort(theta_grid)
    v_spline = CubicSpline(theta_grid[order], v_tab[order])

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
    rho_spline = CubicSpline(theta_grid[order], rho_tab[order])

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
