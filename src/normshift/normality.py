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
from .errors import FormulationMismatch, InvalidParams, SingularDenominator
from .forces import ForceField, ScalarFieldA, complex_probes, operator_directions
from .geometry import atan2, checked_speed, frame, hypot


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
    """F, J_r, J_v, the frame and the speed at (..., 2) r, v, for both
    assemblies: one ``linearize`` of the field."""
    v = np.asarray(v, float)
    fr = frame(v)
    return (*field.linearize(r, v), fr, fr.speed)


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


def weak_residuals(field: ForceField, r, v):
    """Residuals (r1, r2) of the two weak normality equations at (..., 2) r, v.

    Computed from the alpha/beta coefficients.  The Cartesian assembly
    recomputes them from the same evaluation of the force and its Jacobians;
    FormulationMismatch unless the two agree at every point.
    """
    sample = _evaluate(field, r, v)
    g = _gradients(*sample)
    a, b, speed = g.A, g.B, sample[-1]
    r1 = g.alpha4 + b / speed
    r2 = (b * a / (speed * speed) - g.beta1 - g.beta3 * a / speed
          - g.beta4 * b / speed - g.alpha2 + g.alpha3 * b / speed)
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
    ba = f_n * f_m / (speed * speed)
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
    With N = (cos t, sin t) and M = (-sin t, cos t) its position terms are
    D_M A - D_N A_t.  Every term comes from two complex evaluations
    (``numdiff.complex_step``) at three points per probe, moved along v,
    along theta and along a direction in (x, y): ``a`` along M gives A, A_v,
    A_t and D_M A, and ``a.a_theta`` along N gives A_tv, A_tt and D_N A_t.
    DegenerateVelocity if any v is below ``geometry.V_MIN``.
    """
    x, y, v, theta = np.broadcast_arrays(*(numdiff.floats(p) for p in (x, y, v, theta)))
    checked_speed(v)
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    at = tuple(p[..., None] for p in (x, y, v, theta))
    axes = np.eye(3)  # a probe's points move along v, theta and (x, y)

    def along(nx, ny):
        return nx * axes[2], ny * axes[2], axes[0], axes[1]

    values, d = numdiff.complex_step(a, at, along(-s, c))
    av, a_t, dm_a = np.moveaxis(d, -1, 0)
    atv, att, dn_at = np.moveaxis(numdiff.complex_step(a.a_theta, at, along(c, s))[1], -1, 0)
    a0 = values[..., 0]
    return (dm_a - dn_at + a0 * a_t / (v * v) + a_t * att / (v * v) + a_t * av / v
            - a0 * atv / v)[()]


@complex_probes
def complex_residual(a: ScalarFieldA, z, w):
    """Residual of the normality equation in complex form, one per point of
    the complex arrays (or numbers) z and w.

    With D+_w = w d_w + wbar d_wbar, D-_w = w d_w - wbar d_wbar and the
    analogous z-operators weighted by (w, wbar):

        D-_w A (D-_w D-_w - D+_w) A - |w| D-_z A
        + A (D+_w - 1) D-_w A + |w| D+_z D-_w A.

    In Cartesian components (x, y, v1, v2) each operator is a direction: D+
    is (v1, v2) and D-_w is i (v2, -v1), in velocity for the w-operators and
    in position for the z-operators.  Holding the coefficients of the outer
    operator fixed, (D-_w D-_w - D+_w) A, (D+_w - 1) D-_w A and D+_z D-_w A
    are the second derivatives of A along (D-_w, D-_w), (D+_w, D-_w) and
    (D+_z, D-_w).  So four jets of ``a.cartesian`` (``numdiff.jet``) give
    every term, exact to rounding and independent of the polar complex
    steps of ``reduced_residual`` and of any A_theta closure.
    DegenerateVelocity if any |w| is below ``geometry.V_MIN``.
    """
    speed = checked_speed(np.abs(w))
    args = (z.real, z.imag, w.real, w.imag)  # (x, y, v1, v2)
    dm_w, dp_w, dm_z, dp_z = operator_directions(w)

    def jet(d1, d2=(0.0,) * 4):
        return numdiff.jet(a.cartesian, args, d1, d2)

    a0, dm_w_a, _, dmdm_minus_dp = jet(dm_w, dm_w)
    dm_z_a = jet(dm_z)[1]
    dp_minus1_dm = jet(dp_w, dm_w)[3]
    dp_z_dm_w = jet(dp_z, dm_w)[3]
    return (dm_w_a * dmdm_minus_dp - speed * dm_z_a
            + a0 * dp_minus1_dm + speed * dp_z_dm_w)


# ---------------------------------------------------------------------------
# Symmetry-reduced equation for spatially homogeneous generators, the
# first-order equation for b = A_theta / A, and its closed-form solution.
# ---------------------------------------------------------------------------

def reduction_b_residual(b: Callable, v, theta):
    """Residual of b b_theta - v b_v + b^3 + b at (v, theta), elementwise,
    for a function b(v, theta) that takes jets: b, b_v and b_theta are one
    jet of b along (v, theta) (``numdiff.jet``).  DegenerateVelocity if any
    v is below ``geometry.V_MIN``."""
    v, theta = np.broadcast_arrays(numdiff.floats(v), numdiff.floats(theta))
    checked_speed(v)
    bv, b_v, b_theta, _ = numdiff.jet(b, (v, theta), (1.0, 0.0), (0.0, 1.0))
    return (bv * b_theta - v * b_v + bv**3 + bv)[()]


def first_integrals(v, theta, b, u: float = 1.0):
    """Invariants of the characteristic flow, elementwise: I1 = theta + arctan b,
    I2 = u b / (v sqrt(1 + b^2))."""
    return theta + np.arctan(b), u * b / (v * np.sqrt(1.0 + b * b))


def characteristic_flow(v0: float, theta0: float, b0: float, t_span):
    """Integrate the characteristic system v' = -v, theta' = b, b' = -b^3 - b.

    Dormand-Prince with absolute and relative tolerance 1e-12, its dense
    output sampled at 50 equally spaced times of ``t_span``, both ends
    included.  Returns (times, states) with states rows (v, theta, b).
    """

    def rhs(t, y):
        v, th, b = y
        return np.array([-v, b, -b**3 - b])

    t0, t1 = float(t_span[0]), float(t_span[1])
    t_out = np.linspace(t0, t1, 50)
    sol = odesolve.solve_dopri(rhs, t0, [v0, theta0, b0], t1, abs_tol=1e-12, rel_tol=1e-12)
    return t_out, sol.sample(t_out)


def b_closed_form(v, theta, u: float = 1.0):
    """Closed-form b(v, theta) solving the reduced b-equation, elementwise;
    it takes jets.

    b = (v^2 sin 2t + 2 v u cos t + v sqrt(v^2 + 4 u v sin t + 2 u^2))
        / (4 u v sin t + 2 u^2 - v^2 cos 2t).
    """
    s = np.sin(theta)
    den = 4.0 * u * v * s + 2.0 * u * u - v * v * np.cos(2.0 * theta)
    rad = v * v + 4.0 * u * v * s + 2.0 * u * u
    singular = (np.abs(den.real) < 1e-12) | (rad.real < 0.0)
    if np.count_nonzero(singular):
        bv, bt = (np.broadcast_to(a.real, singular.shape)[singular][0] for a in (v, theta))
        raise SingularDenominator(f"singular at (v={bv}, theta={bt})")
    return (v * v * np.sin(2.0 * theta) + 2.0 * v * u * np.cos(theta) + v * np.sqrt(rad)) / den


def symmetry_reduced_residual(profile: Callable, v, theta):
    """Residual of the rotation-reduced equation for a profile a(v, theta)
    that takes jets, elementwise:

    a a_t / v^2 + a_t a_tt / v^2 + a_t a_v / v + (a + a_tt) sin t - a a_tv / v.

    Two jets of ``profile`` (``numdiff.jet``) give every term: along (v,
    theta) a, a_v, a_t and a_tv, and along (theta, theta) a_tt.
    DegenerateVelocity if any v is below ``geometry.V_MIN``.
    """
    v, theta = np.broadcast_arrays(numdiff.floats(v), numdiff.floats(theta))
    checked_speed(v)
    a0, av, at, atv = numdiff.jet(profile, (v, theta), (1.0, 0.0), (0.0, 1.0))
    att = numdiff.jet(profile, (v, theta), (0.0, 1.0), (0.0, 1.0))[3]
    return (a0 * at / (v * v) + at * att / (v * v) + at * av / v
            + (a0 + att) * np.sin(theta) - a0 * atv / v)[()]


def symmetry_reduced_ansatz(profile: Callable[[float, float], float]) -> ScalarFieldA:
    """Full generator A(x, y, v, theta) = a(v, theta - gamma) / rho built from
    a two-variable profile, where (rho, gamma) are polar coordinates of (x, y).
    Elementwise on arrays when the profile is."""

    def fn(x, y, v, theta):
        rho = hypot(x, y)
        if np.count_nonzero(rho.real < 1e-12):
            raise SingularDenominator("rotation-invariant generator singular at the origin")
        return profile(v, theta - atan2(y, x)) / rho

    return ScalarFieldA(fn)


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


# Probes per block of a residual sweep.  Every point of a block's probes is
# held at once (0.53 to 0.56 kB per probe, set by the weak residuals and, for
# a generator such as ``disc_invariant_ansatz``, by the reduced residual), so
# this bounds a sweep's peak memory.
PROBE_BLOCK = 4096


def residual_sweep(probes: np.ndarray, *, field: ForceField | None = None,
                   ansatz: ScalarFieldA | None = None,
                   include_complex: bool = False) -> dict[str, np.ndarray]:
    """The residuals at every probe (rows of an (n, 4) array), as
    {name: values} in the order r1, r2 (of ``field``), r_reduced and
    r_complex (of ``ansatz``, the latter if ``include_complex``).  One call
    per formulation for each block of ``PROBE_BLOCK`` probes, so the memory
    a sweep holds does not grow with n.  InvalidParams if a residual is not
    finite at a probe, which no cross-check would see, so the blocks run
    with NumPy's floating-point warnings off."""
    if field is None and ansatz is None:
        raise ValueError("need a force field or a scalar generator")
    probes = np.asarray(probes, float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        blocks = [_residuals(probes[i:i + PROBE_BLOCK], field, ansatz, include_complex)
                  for i in range(0, len(probes), PROBE_BLOCK)]
    residuals = {name: np.concatenate([block[name] for block in blocks])
                 for name in (blocks[0] if blocks else ())}
    for name, vals in residuals.items():
        bad = ~np.isfinite(vals)
        if np.any(bad):
            first = ", ".join(f"{p:.6g}" for p in probes[np.argmax(bad)])
            raise InvalidParams(f"the {name} residual is not finite at {np.count_nonzero(bad)} "
                                f"of {len(probes)} probes, first (x, y, v, theta) = ({first})")
    return residuals


def _residuals(probes: np.ndarray, field, ansatz, include_complex: bool) -> dict:
    """``residual_sweep``'s {name: values} at the probes of one block."""
    x, y, v, th = np.moveaxis(probes, -1, 0)
    vel = np.stack([v * np.cos(th), v * np.sin(th)], axis=-1)
    out = {}
    if field is not None:
        out["r1"], out["r2"] = weak_residuals(field, probes[..., :2], vel)
    if ansatz is not None:
        out["r_reduced"] = reduced_residual(ansatz, x, y, v, th)
        if include_complex:
            out["r_complex"] = complex_residual(ansatz, x + 1j * y, vel[..., 0] + 1j * vel[..., 1])
    return out
