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
from .forces import ForceField, ScalarFieldA
from .geometry import elementwise, frame


@dataclass(frozen=True)
class ABGradients:
    """A = <F, N>, B = <F, M> and the frame components of grad A, grad_v A,
    grad B, grad_v B, one per point."""

    A: np.ndarray
    B: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    alpha4: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    beta4: np.ndarray


def _evaluate(field: ForceField, r, v):
    """F, J_r, J_v, the frame and the speed at (..., 2) r, v, for both assemblies."""
    v = np.asarray(v, float)
    fr = frame(v)
    return (field.force(r, v), field.jac_spatial(r, v), field.jac_velocity(r, v),
            fr, np.hypot(v[..., 0], v[..., 1]))


def ab_gradients(field: ForceField, r, v) -> ABGradients:
    """Gradient components assembled from the force Jacobians at (..., 2) r, v.

    grad A = J_r^T N, grad_v A = J_v^T N + (B/v) M, and similarly for B with
    grad_v B = J_v^T M - (A/v) M; the extra terms come from differentiating
    the frame itself.
    """
    return _gradients(*_evaluate(field, r, v))


def _gradients(f, jr, jv, fr, speed) -> ABGradients:
    n, m = fr.N, fr.M
    a, b = np.vecdot(f, n), np.vecdot(f, m)
    grad_a, grad_b = np.matvec(jr, n), np.matvec(jr, m)
    gradv_a = np.matvec(jv, n) + (b / speed)[..., None] * m
    gradv_b = np.matvec(jv, m) - (a / speed)[..., None] * m
    return ABGradients(
        A=a, B=b,
        alpha1=np.vecdot(grad_a, n), alpha2=np.vecdot(grad_a, m),
        alpha3=np.vecdot(gradv_a, n), alpha4=np.vecdot(gradv_a, m),
        beta1=np.vecdot(grad_b, n), beta2=np.vecdot(grad_b, m),
        beta3=np.vecdot(gradv_b, n), beta4=np.vecdot(gradv_b, m),
    )


def weak_residuals(field: ForceField, r, v, *, cross_validate: bool = True):
    """Residuals (r1, r2) of the two weak normality equations at (..., 2) r, v.

    Computed from the alpha/beta coefficients.  With ``cross_validate`` the
    Cartesian assembly recomputes them from the same evaluation of the force
    and its Jacobians, and the two assemblies must agree at every point.
    """
    sample = _evaluate(field, r, v)
    g = _gradients(*sample)
    a, b, speed = g.A, g.B, sample[-1]
    r1 = g.alpha4 + b / speed
    r2 = (b * a / speed**2 - g.beta1 - g.beta3 * a / speed
          - g.beta4 * b / speed - g.alpha2 + g.alpha3 * b / speed)
    if cross_validate:
        c1, c2 = _weak_cartesian(*sample)
        tol = 1e-4 * (1.0 + np.abs(r1) + np.abs(r2))
        bad = (np.abs(r1 - c1) > tol) | (np.abs(r2 - c2) > tol)
        if np.count_nonzero(bad):
            p1, p2, q1, q2 = (np.broadcast_to(x, bad.shape)[bad][0] for x in (r1, r2, c1, c2))
            raise FormulationMismatch(
                f"weak-residual formulations disagree at {np.count_nonzero(bad)} of "
                f"{bad.size} points, first ({p1:.3e},{p2:.3e}) vs ({q1:.3e},{q2:.3e})")
    return r1, r2


def weak_residuals_cartesian(field: ForceField, r, v):
    """The same residuals assembled term by term from raw force Jacobians."""
    return _weak_cartesian(*_evaluate(field, r, v))


def _weak_cartesian(f, jr, jv, fr, speed):
    n, m = fr.N, fr.M

    # r1 = sum_i (F_i/v + d/dv^i <F, N>) M^i
    dn = (np.eye(2) - n[..., :, None] * n[..., None, :]) / speed[..., None, None]  # dN^j/dv^i
    r1 = np.vecdot(f / speed[..., None] + np.matvec(jv, n) + np.matvec(dn, f), m)

    # r2 assembled from its five Cartesian pieces.
    f_n, f_m = np.vecdot(f, n), np.vecdot(f, m)
    jv_t = np.swapaxes(jv, -1, -2)
    ba = f_n * f_m / speed**2
    sym = -np.vecdot(np.vecmat(m, jr + np.swapaxes(jr, -1, -2)), n)
    t12 = ba - np.vecdot(np.vecmat(m, jv_t), m) * f_m / speed
    t13 = -np.vecdot(np.vecmat(m, jv_t), n) * f_n / speed
    t14 = np.vecdot(np.vecmat(n, jv_t), n) * f_m / speed
    return r1, ba + sym + t12 + t13 + t14


def reduced_residual(a: ScalarFieldA, x, y, v, theta):
    """Residual of the reduced normality equation in polar velocity form.

    (A_y - A_tx) cos t - (A_x + A_ty) sin t + A A_t / v^2
    + A_t A_tt / v^2 + A_t A_v / v - A A_tv / v,  t = theta,

    elementwise in x, y, v and theta (arrays of one shape, or numbers).
    """
    if np.count_nonzero(np.asarray(v) < 1e-300):
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
    return ((ay - atx) * np.cos(theta) - (ax + aty) * np.sin(theta)
            + a0 * at / v**2 + at * att / v**2 + at * av / v - a0 * atv / v)


def complex_residual(a: ScalarFieldA, z, w):
    """Residual of the normality equation in complex form, one per point of
    the complex arrays (or numbers) z and w.

    With D+_w = w d_w + wbar d_wbar, D-_w = w d_w - wbar d_wbar and the
    analogous z-operators weighted by (w, wbar):

        D-_w A (D-_w D-_w - D+_w) A - |w| D-_z A
        + A (D+_w - 1) D-_w A + |w| D+_z D-_w A.

    All Wirtinger derivatives are finite differences of A in Cartesian
    position/velocity components, independent of the polar partial closures.
    Each group of stencils (first, pure second and mixed derivatives) goes
    to A in one stacked call for all points.
    """
    z = np.asarray(z, complex)
    w = np.asarray(w, complex)
    speed = np.abs(w)  # A.cartesian raises DegenerateVelocity where it is 0
    wb = w.conjugate()
    p = np.stack([z.real, z.imag, w.real, w.imag], axis=-1)  # (x, y, v1, v2)
    held = p[..., None, :]  # a group's column j moves one argument of its point
    moved = np.eye(4, dtype=bool)

    def ac(q):
        return a.cartesian(q[..., 0], q[..., 1], q[..., 2], q[..., 3])

    def one_axis(axes):
        # stencil values t[..., j] replace argument axes[j] of p
        return lambda t: ac(np.where(moved[axes], t[..., None], held))

    def per_column(d):
        return np.moveaxis(d, -1, 0)

    a0 = ac(p)
    a_x, a_y, a_v1, a_v2 = per_column(numdiff.richardson(one_axis([0, 1, 2, 3]), p))
    a_v1v1, a_v2v2 = per_column(numdiff.richardson2(one_axis([2, 3]), p[..., 2:]))
    first, second = [2, 0, 0, 1, 1], [3, 2, 3, 2, 3]
    a_v1v2, a_xv1, a_xv2, a_yv1, a_yv2 = per_column(numdiff.richardson_mixed(
        lambda t, u: ac(np.where(moved[first], t[..., None],
                                 np.where(moved[second], u[..., None], held))),
        p[..., first], p[..., second]))

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
    """Function of (v, theta) with optional analytic partials (FD fallback).

    ``fn`` and the partials work elementwise on arrays of one shape, or on
    numbers, and each evaluator returns one value per point.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fn_v: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fn_theta: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, v, theta):
        return elementwise(self.fn(v, theta), v, theta)

    def d_v(self, v, theta):
        if self.fn_v is not None:
            return elementwise(self.fn_v(v, theta), v, theta)
        v, theta = np.broadcast_arrays(v, theta)
        return numdiff.richardson(lambda t: self(t, theta), v)

    def d_theta(self, v, theta):
        if self.fn_theta is not None:
            return elementwise(self.fn_theta(v, theta), v, theta)
        v, theta = np.broadcast_arrays(v, theta)
        return numdiff.richardson(lambda t: self(v, t), theta)


def reduction_b_residual(b: VelocityAngleField, v, theta):
    """Residual of b b_theta - v b_v + b^3 + b at (v, theta), elementwise."""
    if np.count_nonzero(np.asarray(v) < 1e-300):
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


def b_closed_form(v, theta, u: float = 1.0):
    """Closed-form b(v, theta) solving the reduced b-equation, elementwise.

    b = (v^2 sin 2t + 2 v u cos t + v sqrt(v^2 + 4 u v sin t + 2 u^2))
        / (4 u v sin t + 2 u^2 - v^2 cos 2t).
    """
    return b_closed_form_field(u).fn(v, theta)


def b_closed_form_field(u: float = 1.0) -> VelocityAngleField:
    """The closed-form b with hand-differentiated partials."""

    def parts(v, theta):
        s, c = np.sin(theta), np.cos(theta)
        den = 4.0 * u * v * s + 2.0 * u * u - v * v * np.cos(2.0 * theta)
        rad = v * v + 4.0 * u * v * s + 2.0 * u * u
        singular = (np.abs(den) < 1e-12) | (rad < 0.0)
        if np.count_nonzero(singular):
            bv, bt = (np.broadcast_to(a, singular.shape)[singular][0] for a in (v, theta))
            raise SingularDenominator(f"singular at (v={bv}, theta={bt})")
        sq = np.sqrt(rad)
        num = v * v * np.sin(2.0 * theta) + 2.0 * v * u * c + v * sq
        return s, c, den, sq, num

    def fn(v, theta):
        _, _, den, _, num = parts(v, theta)
        return num / den

    def fn_v(v, theta):
        s, c, den, sq, num = parts(v, theta)
        num_v = 2.0 * v * np.sin(2.0 * theta) + 2.0 * u * c + sq + v * (v + 2.0 * u * s) / sq
        den_v = 4.0 * u * s - 2.0 * v * np.cos(2.0 * theta)
        return (num_v * den - num * den_v) / (den * den)

    def fn_theta(v, theta):
        s, c, den, sq, num = parts(v, theta)
        num_t = (2.0 * v * v * np.cos(2.0 * theta) - 2.0 * v * u * s
                 + 2.0 * u * v * v * c / sq)
        den_t = 4.0 * u * v * c + 2.0 * v * v * np.sin(2.0 * theta)
        return (num_t * den - num * den_t) / (den * den)

    return VelocityAngleField(fn=fn, fn_v=fn_v, fn_theta=fn_theta)


def symmetry_reduced_residual(profile: VelocityAngleField, v, theta,
                              *, second_partials=None):
    """Residual of the rotation-reduced equation for a profile a(v, theta),
    elementwise:

    a a_t / v^2 + a_t a_tt / v^2 + a_t a_v / v + (a + a_tt) sin t - a a_tv / v.
    """
    v, theta = np.broadcast_arrays(v, theta)
    a0 = profile(v, theta)
    at = profile.d_theta(v, theta)
    av = profile.d_v(v, theta)
    if second_partials is not None:
        att, atv = second_partials(v, theta)
    else:
        att = numdiff.richardson2(lambda t: profile(v, t), theta)
        atv = numdiff.richardson_mixed(lambda t, uu: profile(uu, t), theta, v)
    return (a0 * at / v**2 + at * att / v**2 + at * av / v
            + (a0 + att) * np.sin(theta) - a0 * atv / v)


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
    return np.column_stack([rng.uniform(*box[name], n) for name in ("x", "y", "v", "theta")])


# Probes per block of a residual sweep.  Every stencil point of a block's
# probes is held at once (about 3.5 kB per probe for the complex residual),
# so this bounds a sweep's peak memory.
PROBE_BLOCK = 4096


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
                   include_complex: bool = False) -> ResidualReport:
    """Evaluate the available residuals at every probe (rows of an (n, 4)
    array), one call per formulation for each block of ``PROBE_BLOCK``
    probes, so the memory a sweep holds does not grow with n."""
    if field is None and ansatz is None:
        raise ValueError("need a force field or a scalar generator")
    probes = np.asarray(probes, float)
    blocks = [_residuals(probes[i:i + PROBE_BLOCK], field, ansatz, include_complex)
              for i in range(0, len(probes), PROBE_BLOCK)]
    return ResidualReport(probes, *(None if parts[0] is None else np.concatenate(parts)
                                    for parts in zip(*blocks)))


def _residuals(probes: np.ndarray, field, ansatz, include_complex: bool) -> tuple:
    """(r1, r2, r_reduced, r_complex) at the probes; None where not asked for."""
    x, y, v, th = np.moveaxis(probes, -1, 0)
    vel = np.stack([v * np.cos(th), v * np.sin(th)], axis=-1)
    r1 = r2 = r_reduced = r_complex = None
    if field is not None:
        r1, r2 = weak_residuals(field, probes[..., :2], vel)
    if ansatz is not None:
        r_reduced = reduced_residual(ansatz, x, y, v, th)
        if include_complex:
            r_complex = complex_residual(ansatz, x + 1j * y, vel[..., 0] + 1j * vel[..., 1])
    return r1, r2, r_reduced, r_complex
