"""Residual evaluators for every formulation of the normality equations.

The two first-order constraints on a force field F = A N + B M are

    r1 = alpha4 + B/v,
    r2 = B A / v^2 - beta1 - beta3 A / v - beta4 B / v - alpha2 + alpha3 B / v,

with alpha/beta the frame components of the spatial and velocity gradients of
A and B.  A field admits the normal shift of curves exactly when both vanish
identically.  For scalar-ansatz fields r1 is an identity and r2 collapses to
a single second-order equation for the generator A, evaluated here in polar
velocity coordinates and, independently, in complex form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff, odesolve
from .errors import DegenerateVelocity, FormulationMismatch, SingularDenominator
from .forces import ForceField, ScalarFieldA, ab_decompose
from .geometry import frame


@dataclass(frozen=True)
class ABGradients:
    """Frame components of grad A, grad_v A, grad B, grad_v B."""

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float


def ab_gradients(field: ForceField, r, v) -> ABGradients:
    """Gradient components assembled from the force Jacobians.

    grad A = J_r^T N, grad_v A = J_v^T N + (B/v) M, and similarly for B with
    grad_v B = J_v^T M - (A/v) M; the extra terms come from differentiating
    the frame itself.
    """
    r = np.asarray(r, float)
    v = np.asarray(v, float)
    fr = frame(v)
    speed = float(np.hypot(v[0], v[1]))
    ab = ab_decompose(field, r, v)
    jr = field.jac_spatial(r, v)
    jv = field.jac_velocity(r, v)
    grad_a = jr @ fr.N
    grad_b = jr @ fr.M
    gradv_a = jv @ fr.N + (ab.B / speed) * fr.M
    gradv_b = jv @ fr.M - (ab.A / speed) * fr.M
    return ABGradients(
        alpha1=float(grad_a @ fr.N), alpha2=float(grad_a @ fr.M),
        alpha3=float(gradv_a @ fr.N), alpha4=float(gradv_a @ fr.M),
        beta1=float(grad_b @ fr.N), beta2=float(grad_b @ fr.M),
        beta3=float(gradv_b @ fr.N), beta4=float(gradv_b @ fr.M),
    )


def weak_residuals(field: ForceField, r, v, *, cross_validate: bool = True,
                   cross_tol: float = 1e-4) -> tuple[float, float]:
    """Residuals (r1, r2) of the two weak normality equations at (r, v).

    Computed from the alpha/beta coefficients; with ``cross_validate`` the
    same residuals are recomputed directly from the Cartesian form (raw force
    Jacobians contracted with the frame) and the two paths must agree.
    """
    ab = ab_decompose(field, r, v)
    g = ab_gradients(field, r, v)
    speed = float(np.hypot(*np.asarray(v, float)))
    r1 = g.alpha4 + ab.B / speed
    r2 = (ab.B * ab.A / speed**2 - g.beta1 - g.beta3 * ab.A / speed
          - g.beta4 * ab.B / speed - g.alpha2 + g.alpha3 * ab.B / speed)
    if cross_validate:
        c1, c2 = weak_residuals_cartesian(field, r, v)
        scale = 1.0 + abs(r1) + abs(r2)
        if abs(r1 - c1) > cross_tol * scale or abs(r2 - c2) > cross_tol * scale:
            raise FormulationMismatch(
                f"weak-residual formulations disagree: ({r1:.3e},{r2:.3e}) vs "
                f"({c1:.3e},{c2:.3e})")
    return r1, r2


def weak_residuals_cartesian(field: ForceField, r, v) -> tuple[float, float]:
    """The same residuals assembled term by term from raw force Jacobians."""
    r = np.asarray(r, float)
    v = np.asarray(v, float)
    fr = frame(v)
    speed = float(np.hypot(v[0], v[1]))
    f = field.force(r, v)
    jr = field.jac_spatial(r, v)   # jr[i, j] = dF_j/dr^i
    jv = field.jac_velocity(r, v)  # jv[i, j] = dF_j/dv^i

    # r1 = sum_i (F_i/v + d/dv^i <F, N>) M^i
    dn = (np.eye(2) - np.outer(fr.N, fr.N)) / speed  # dN^j/dv^i
    grad_fn = jv @ fr.N + dn @ f
    r1 = float((f / speed + grad_fn) @ fr.M)

    # r2 assembled from its five Cartesian pieces.
    ba = float(f @ fr.N) * float(f @ fr.M) / speed**2
    sym = -float(fr.M @ (jr + jr.T) @ fr.N)
    t12 = ba - float(fr.M @ jv.T @ fr.M) * float(f @ fr.M) / speed
    t13 = -float(fr.M @ jv.T @ fr.N) * float(f @ fr.N) / speed
    t14 = float(fr.N @ jv.T @ fr.N) * float(f @ fr.M) / speed
    r2 = ba + sym + t12 + t13 + t14
    return r1, r2


def reduced_residual(a: ScalarFieldA, x: float, y: float, v: float, theta: float) -> float:
    """Residual of the reduced normality equation in polar velocity form.

    (A_y - A_tx) cos t - (A_x + A_ty) sin t + A A_t / v^2
    + A_t A_tt / v^2 + A_t A_v / v - A A_tv / v,  t = theta.
    """
    if v < 1e-300:
        raise DegenerateVelocity("reduced residual undefined at v = 0")
    a0 = a(x, y, v, theta)
    at = a.a_theta(x, y, v, theta)
    att = a.a_theta_theta(x, y, v, theta)
    atv = a.a_theta_v(x, y, v, theta)
    atx = a.a_theta_x(x, y, v, theta)
    aty = a.a_theta_y(x, y, v, theta)
    ax = a.a_x(x, y, v, theta)
    ay = a.a_y(x, y, v, theta)
    av = a.a_v(x, y, v, theta)
    return ((ay - atx) * math.cos(theta) - (ax + aty) * math.sin(theta)
            + a0 * at / v**2 + at * att / v**2 + at * av / v - a0 * atv / v)


def complex_residual(a: ScalarFieldA, z: complex, w: complex) -> complex:
    """Residual of the normality equation in complex form.

    With D+_w = w d_w + wbar d_wbar, D-_w = w d_w - wbar d_wbar and the
    analogous z-operators weighted by (w, wbar):

        D-_w A (D-_w D-_w - D+_w) A - |w| D-_z A
        + A (D+_w - 1) D-_w A + |w| D+_z D-_w A.

    All Wirtinger derivatives are finite differences of A in Cartesian
    position/velocity components, independent of the polar partial closures.
    Each group of stencils (first, pure second and mixed derivatives) goes
    to A in one stacked call.
    """
    speed = abs(w)
    if speed < 1e-300:
        raise DegenerateVelocity("complex residual undefined at w = 0")
    wb = w.conjugate()
    p = np.array([z.real, z.imag, w.real, w.imag])  # (x, y, v1, v2)
    moved = np.eye(4, dtype=bool)

    def ac(q):
        return a.cartesian(q[..., 0], q[..., 1], q[..., 2], q[..., 3])

    def one_axis(axes):
        # stencil values t[..., j] replace argument axes[j] of p
        return lambda t: ac(np.where(moved[axes], t[..., None], p))

    a0 = float(ac(p))
    a_x, a_y, a_v1, a_v2 = numdiff.richardson_stacked(one_axis([0, 1, 2, 3]), p).tolist()
    a_v1v1, a_v2v2 = numdiff.richardson2_stacked(one_axis([2, 3]), p[2:]).tolist()
    first, second = [2, 0, 0, 1, 1], [3, 2, 3, 2, 3]
    a_v1v2, a_xv1, a_xv2, a_yv1, a_yv2 = numdiff.richardson_mixed_stacked(
        lambda t, u: ac(np.where(moved[first], t[..., None],
                                 np.where(moved[second], u[..., None], p))),
        p[first], p[second]).tolist()

    a_w = 0.5 * (a_v1 - 1j * a_v2)
    a_wb = 0.5 * (a_v1 + 1j * a_v2)
    a_z = 0.5 * (a_x - 1j * a_y)
    a_zb = 0.5 * (a_x + 1j * a_y)
    a_ww = 0.25 * (a_v1v1 - 2j * a_v1v2 - a_v2v2)
    a_wbwb = 0.25 * (a_v1v1 + 2j * a_v1v2 - a_v2v2)
    a_wwb = 0.25 * (a_v1v1 + a_v2v2)
    a_zw = 0.25 * (a_xv1 - 1j * a_xv2 - 1j * a_yv1 - a_yv2)
    a_zwb = 0.25 * (a_xv1 + 1j * a_xv2 - 1j * a_yv1 + a_yv2)
    a_zbw = 0.25 * (a_xv1 - 1j * a_xv2 + 1j * a_yv1 + a_yv2)
    a_zbwb = 0.25 * (a_xv1 + 1j * a_xv2 + 1j * a_yv1 - a_yv2)

    dm_w_a = w * a_w - wb * a_wb
    dmdm_minus_dp = w * w * a_ww - 2.0 * w * wb * a_wwb + wb * wb * a_wbwb
    dm_z_a = w * a_z - wb * a_zb
    dp_minus1_dm = w * w * a_ww - wb * wb * a_wbwb
    dp_z_dm_w = w * w * a_zw + w * wb * (a_zbw - a_zwb) - wb * wb * a_zbwb

    return (dm_w_a * dmdm_minus_dp - speed * dm_z_a
            + a0 * dp_minus1_dm + speed * dp_z_dm_w)


# ---------------------------------------------------------------------------
# Symmetry-reduced equation for spatially homogeneous generators, the
# first-order equation for b = A_theta / A, and its closed-form solution.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityAngleField:
    """Function of (v, theta) with optional analytic partials (FD fallback)."""

    fn: Callable[[float, float], float]
    fn_v: Callable[[float, float], float] | None = None
    fn_theta: Callable[[float, float], float] | None = None

    def __call__(self, v: float, theta: float) -> float:
        return float(self.fn(v, theta))

    def d_v(self, v: float, theta: float) -> float:
        if self.fn_v is not None:
            return float(self.fn_v(v, theta))
        return numdiff.richardson(lambda t: self.fn(t, theta), v)

    def d_theta(self, v: float, theta: float) -> float:
        if self.fn_theta is not None:
            return float(self.fn_theta(v, theta))
        return numdiff.richardson(lambda t: self.fn(v, t), theta)


def reduction_b_residual(b: VelocityAngleField, v: float, theta: float) -> float:
    """Residual of b b_theta - v b_v + b^3 + b at (v, theta)."""
    if v < 1e-300:
        raise DegenerateVelocity("b-equation undefined at v = 0")
    bv = b(v, theta)
    return bv * b.d_theta(v, theta) - v * b.d_v(v, theta) + bv**3 + bv


def first_integrals(v: float, theta: float, b: float, u: float = 1.0) -> tuple[float, float]:
    """Invariants of the characteristic flow: I1 = theta + arctan b,
    I2 = u b / (v sqrt(1 + b^2))."""
    return theta + math.atan(b), u * b / (v * math.sqrt(1.0 + b * b))


def characteristic_flow(v0: float, theta0: float, b0: float, t_span,
                        *, abs_tol: float = 1e-12, rel_tol: float = 1e-12,
                        n_out: int = 50):
    """Integrate the characteristic system v' = -v, theta' = b, b' = -b^3 - b.

    Returns (times, states) with states rows (v, theta, b).
    """

    def rhs(t, y):
        v, th, b = y
        return np.array([-v, b, -b**3 - b])

    t0, t1 = float(t_span[0]), float(t_span[1])
    t_out = np.linspace(t0, t1, n_out)
    sol = odesolve.solve_dopri(rhs, t0, [v0, theta0, b0], t1,
                               abs_tol=abs_tol, rel_tol=rel_tol,
                               t_stops=t_out[1:-1])
    return t_out, sol.sample(t_out)


def b_closed_form(v: float, theta: float, u: float = 1.0) -> float:
    """Closed-form b(v, theta) solving the reduced b-equation.

    b = (v^2 sin 2t + 2 v u cos t + v sqrt(v^2 + 4 u v sin t + 2 u^2))
        / (4 u v sin t + 2 u^2 - v^2 cos 2t).
    """
    den = 4.0 * u * v * math.sin(theta) + 2.0 * u * u - v * v * math.cos(2.0 * theta)
    if abs(den) < 1e-12:
        raise SingularDenominator(f"denominator vanishes at (v={v}, theta={theta})")
    rad = v * v + 4.0 * u * v * math.sin(theta) + 2.0 * u * u
    if rad < 0.0:
        raise SingularDenominator(f"negative radicand at (v={v}, theta={theta})")
    num = v * v * math.sin(2.0 * theta) + 2.0 * v * u * math.cos(theta) + v * math.sqrt(rad)
    return num / den


def b_closed_form_field(u: float = 1.0) -> VelocityAngleField:
    """The closed-form b with hand-differentiated partials."""

    def parts(v: float, theta: float):
        s, c = math.sin(theta), math.cos(theta)
        den = 4.0 * u * v * s + 2.0 * u * u - v * v * math.cos(2.0 * theta)
        rad = v * v + 4.0 * u * v * s + 2.0 * u * u
        if abs(den) < 1e-12 or rad < 0.0:
            raise SingularDenominator(f"singular at (v={v}, theta={theta})")
        sq = math.sqrt(rad)
        num = v * v * math.sin(2.0 * theta) + 2.0 * v * u * c + v * sq
        return s, c, den, sq, num

    def fn(v, theta):
        _, _, den, _, num = parts(v, theta)
        return num / den

    def fn_v(v, theta):
        s, c, den, sq, num = parts(v, theta)
        num_v = 2.0 * v * math.sin(2.0 * theta) + 2.0 * u * c + sq + v * (v + 2.0 * u * s) / sq
        den_v = 4.0 * u * s - 2.0 * v * math.cos(2.0 * theta)
        return (num_v * den - num * den_v) / (den * den)

    def fn_theta(v, theta):
        s, c, den, sq, num = parts(v, theta)
        num_t = (2.0 * v * v * math.cos(2.0 * theta) - 2.0 * v * u * s
                 + 2.0 * u * v * v * c / sq)
        den_t = 4.0 * u * v * c + 2.0 * v * v * math.sin(2.0 * theta)
        return (num_t * den - num * den_t) / (den * den)

    return VelocityAngleField(fn=fn, fn_v=fn_v, fn_theta=fn_theta)


def symmetry_reduced_residual(profile: VelocityAngleField, v: float, theta: float,
                              *, second_partials=None) -> float:
    """Residual of the rotation-reduced equation for a profile a(v, theta):

    a a_t / v^2 + a_t a_tt / v^2 + a_t a_v / v + (a + a_tt) sin t - a a_tv / v.
    """
    a0 = profile(v, theta)
    at = profile.d_theta(v, theta)
    av = profile.d_v(v, theta)
    if second_partials is not None:
        att, atv = second_partials(v, theta)
    else:
        att = numdiff.richardson2(lambda t: profile.fn(v, t), theta)
        atv = numdiff.richardson_mixed(lambda t, uu: profile.fn(uu, t), theta, v)
    return (a0 * at / v**2 + at * att / v**2 + at * av / v
            + (a0 + att) * math.sin(theta) - a0 * atv / v)


def symmetry_reduced_ansatz(profile: Callable[[float, float], float],
                            *, label: str = "rotation-invariant") -> ScalarFieldA:
    """Full generator A(x, y, v, theta) = a(v, theta - gamma) / rho built from
    a two-variable profile, where (rho, gamma) are polar coordinates of (x, y).
    Elementwise on arrays when the profile is."""

    def fn(x, y, v, theta):
        rho = np.hypot(x, y)
        if np.count_nonzero(rho < 1e-12):
            raise SingularDenominator("rotation-invariant generator singular at the origin")
        return profile(v, theta - np.arctan2(y, x)) / rho

    return ScalarFieldA(fn, label=label)


# ---------------------------------------------------------------------------
# Probe sets and residual sweeps.
# ---------------------------------------------------------------------------

def probe_points(n: int, seed: int = 0, box: dict | None = None) -> np.ndarray:
    """Deterministic probes (x, y, v, theta), drawn in that order from one
    generator, uniform in ``box`` (name -> (lo, hi)); the default box is
    x, y in [-2, 2], v in [0.5, 3], theta in (-pi, pi]."""
    box = box or {"x": (-2.0, 2.0), "y": (-2.0, 2.0), "v": (0.5, 3.0),
                  "theta": (-math.pi, math.pi)}
    rng = np.random.default_rng(seed)
    pts = np.empty((n, 4))
    for col, name in enumerate(("x", "y", "v", "theta")):
        pts[:, col] = rng.uniform(box[name][0], box[name][1], n)
    return pts


@dataclass
class ResidualReport:
    """Residual values over a probe set plus max/mean norms."""

    probes: np.ndarray
    r1: np.ndarray | None = None
    r2: np.ndarray | None = None
    r_reduced: np.ndarray | None = None
    r_complex: np.ndarray | None = None

    def summary(self) -> dict:
        out = {}
        for name in ("r1", "r2", "r_reduced", "r_complex"):
            vals = getattr(self, name)
            if vals is None:
                continue
            mags = np.abs(vals)
            out[name] = {"max": float(mags.max()), "mean": float(mags.mean())}
        return out


def residual_sweep(probes: np.ndarray, *, field: ForceField | None = None,
                   ansatz: ScalarFieldA | None = None,
                   include_complex: bool = False,
                   cross_validate: bool = True) -> ResidualReport:
    """Evaluate the available residuals at every probe."""
    if field is None and ansatz is None:
        raise ValueError("need a force field or a scalar generator")
    n = len(probes)
    report = ResidualReport(probes=np.asarray(probes, float))
    if field is not None:
        report.r1 = np.empty(n)
        report.r2 = np.empty(n)
    if ansatz is not None:
        report.r_reduced = np.empty(n)
        if include_complex:
            report.r_complex = np.empty(n, dtype=complex)
    for i, (x, y, v, th) in enumerate(probes):
        if field is not None:
            pos = np.array([x, y])
            vel = np.array([v * math.cos(th), v * math.sin(th)])
            r1, r2 = weak_residuals(field, pos, vel, cross_validate=cross_validate)
            report.r1[i] = r1
            report.r2[i] = r2
        if ansatz is not None:
            report.r_reduced[i] = reduced_residual(ansatz, x, y, v, th)
            if include_complex:
                report.r_complex[i] = complex_residual(
                    ansatz, complex(x, y), complex(v * math.cos(th), v * math.sin(th)))
    return report
