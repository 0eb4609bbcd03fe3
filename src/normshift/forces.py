"""Force fields of planar Newtonian systems and their constructors.

A force field F(r, v) is expanded in the velocity frame as
F = A * N + B * M.  The scalar ansatz builds F from a single generator
A(x, y, v, theta) via F = A * N - A_theta * M, which is the parameterization
used by all built-in fields that admit the normal shift of curves.

Every evaluator works row by row on stacked arguments: a field takes r and v
of shape (..., 2) and returns (..., 2), its Jacobians (..., 2, 2); profiles,
generators and their partials take arrays of any one shape and return that
shape.  A single point is the (2,) case (scalars for generators).

Everything here takes typed arguments; ``experiment`` reads the JSON specs,
the catalogue of named fields among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DegenerateVelocity, InvalidParams
from .geometry import ConformalMetric, christoffel, dot, elementwise, frame, polar_frame

# _EYE[i, c]: component c of the i-th stencil point is the moved one.
_EYE = np.eye(2, dtype=bool)


@dataclass(frozen=True)
class Profile:
    """Smooth function of one variable with a derivative evaluator."""

    fn: Callable[[float], float]
    deriv: Callable[[float], float] | None = None

    def __call__(self, x):
        return elementwise(self.fn(x), x)

    def d(self, x):
        if self.deriv is not None:
            return elementwise(self.deriv(x), x)
        return numdiff.richardson(lambda t: elementwise(self.fn(t), t), x)

    @staticmethod
    def constant(c: float) -> "Profile":
        return Profile(fn=lambda x: c, deriv=lambda x: 0.0)

    @staticmethod
    def polynomial(coeffs) -> "Profile":
        c = [float(a) for a in coeffs]
        dc = [i * c[i] for i in range(1, len(c))]

        def horner(coeffs, x):
            out = coeffs[-1] if coeffs else 0.0
            for a in reversed(coeffs[:-1]):
                out = out * x + a
            return out

        return Profile(fn=lambda x: horner(c, x), deriv=lambda x: horner(dc, x))


@dataclass(frozen=True)
class ForceField:
    """Evaluator F(r, v) with optional analytic Jacobians.

    Jacobian convention: spatial_jacobian(r, v)[..., i, j] = dF_j / dr^i and
    velocity_jacobian(r, v)[..., i, j] = dF_j / dv^i.  When absent, Jacobians
    are computed by Richardson-extrapolated central differences, with the
    stencil points of all rows in one call of the field.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    spatial_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    velocity_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    claims_normality: bool = False
    label: str = ""

    def force(self, r, v) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(r, float), np.asarray(v, float)), dtype=float)

    def jac_spatial(self, r, v) -> np.ndarray:
        return self._jacobian(self.spatial_jacobian, r, v, 0)

    def jac_velocity(self, r, v) -> np.ndarray:
        return self._jacobian(self.velocity_jacobian, r, v, 1)

    def _jacobian(self, analytic, r, v, wrt: int) -> np.ndarray:
        """Jacobian with respect to r (wrt=0) or v (wrt=1), one row per component."""
        rv = [np.asarray(r, float), np.asarray(v, float)]
        if analytic is not None:
            return np.asarray(analytic(*rv), dtype=float)
        x, fixed = rv[wrt], rv[1 - wrt]

        def f_at(t: np.ndarray) -> np.ndarray:
            # t: (4, ..., 2) stencil values; point [k, ..., i] moves component i
            moved = np.where(_EYE, t[..., :, None], x[..., None, :])
            held = np.broadcast_to(fixed[..., None, :], moved.shape)
            return self.force(*((moved, held) if wrt == 0 else (held, moved)))

        return numdiff.richardson(f_at, x)


@dataclass(frozen=True)
class ABDecomposition:
    """Components of the force along N (A) and along M (B), one per point."""

    A: np.ndarray
    B: np.ndarray


def ab_decompose(field: ForceField, r, v) -> ABDecomposition:
    """Project F(r, v) on the velocity frame: A = <F, N>, B = <F, M>."""
    fr = frame(v)
    f = field.force(r, v)
    return ABDecomposition(A=np.vecdot(f, fr.N), B=np.vecdot(f, fr.M))


# ---------------------------------------------------------------------------
# Scalar generator A(x, y, v, theta) and the ansatz F = A N - A_theta M.
# ---------------------------------------------------------------------------

# Partial name -> (numdiff stencil, indices into (x, y, v, theta) it perturbs).
# Mixed partials perturb theta first: the order fixes the rounding of the result.
_PARTIALS = {
    "a_x": ("richardson", (0,)),
    "a_y": ("richardson", (1,)),
    "a_v": ("richardson", (2,)),
    "a_theta": ("richardson", (3,)),
    "a_theta_theta": ("richardson2", (3,)),
    "a_theta_v": ("richardson_mixed", (3, 2)),
    "a_theta_x": ("richardson_mixed", (3, 0)),
    "a_theta_y": ("richardson_mixed", (3, 1)),
}


def _along(fn, args: tuple, axes: tuple[int, ...]):
    """fn of the arguments at ``axes``, the others held at ``args``, one value
    per point; and the values of those arguments in ``args``."""
    args = np.broadcast_arrays(*args)

    def f(*stencil):
        moved = list(args)
        for axis, t in zip(axes, stencil):
            moved[axis] = t
        return elementwise(fn(*moved), *moved)
    return f, tuple(args[axis] for axis in axes)


class ScalarFieldA:
    """Scalar generator A(x, y, v, theta) with the partials the residual needs.

    theta is measured against the fixed direction (1, 0).  Each partial in
    ``_PARTIALS`` is a member called as ``a.a_x(x, y, v, theta)`` and is
    resolved once, in ``__init__``: to the analytic closure passed under its
    name (same signature as ``fn``) if there is one, otherwise to the table's
    Richardson stencil of ``fn`` (wider steps for the second-order ones),
    which calls ``fn`` once, with the stencil's points stacked on a new
    leading axis.  ``fn`` and the closures work elementwise on arrays; the
    generator and its partials return one value per point even where a
    closure returns a constant.
    """

    def __init__(self, fn, *, label: str = "", **partials):
        unknown = sorted(partials.keys() - _PARTIALS.keys())
        if unknown:
            raise TypeError(f"unknown partials {unknown}")
        self.fn = fn
        self.label = label
        for name, (stencil, axes) in _PARTIALS.items():
            setattr(self, name, self._resolve(partials.get(name), stencil, axes))

    def _resolve(self, analytic, stencil: str, axes: tuple[int, ...]):
        if analytic is not None:
            return lambda x, y, v, theta: elementwise(analytic(x, y, v, theta), x, y, v, theta)
        fn = self.fn

        def fallback(x, y, v, theta):
            f, at = _along(fn, (x, y, v, theta), axes)
            # looked up per call, so a patched numdiff stencil is the one used
            return getattr(numdiff, stencil)(f, *at)
        return fallback

    def __call__(self, x, y, v, theta):
        return elementwise(self.fn(x, y, v, theta), x, y, v, theta)

    def cartesian(self, x, y, v1, v2):
        """A evaluated with the velocity in Cartesian components."""
        speed = np.hypot(v1, v2)
        if np.count_nonzero(speed < 1e-300):
            raise DegenerateVelocity("scalar generator undefined at v = 0")
        return self(x, y, speed, np.arctan2(v2, v1))


def speed_profile_ansatz(profile: Profile) -> ScalarFieldA:
    """Generator A = a(v): force along the velocity, all angle partials zero."""
    zero = lambda x, y, v, t: 0.0
    return ScalarFieldA(lambda x, y, v, t: profile(v),
                        a_x=zero, a_y=zero,
                        a_v=lambda x, y, v, t: profile.d(v),
                        a_theta=zero, a_theta_theta=zero, a_theta_v=zero,
                        a_theta_x=zero, a_theta_y=zero, label="speed-profile")


def cos_profile_ansatz(profile: Profile) -> ScalarFieldA:
    """Generator A = a(v) cos(theta) of the homogeneous anisotropic family."""
    zero = lambda x, y, v, t: 0.0
    return ScalarFieldA(
        lambda x, y, v, t: profile(v) * np.cos(t),
        a_x=zero, a_y=zero,
        a_v=lambda x, y, v, t: profile.d(v) * np.cos(t),
        a_theta=lambda x, y, v, t: -profile(v) * np.sin(t),
        a_theta_theta=lambda x, y, v, t: -profile(v) * np.cos(t),
        a_theta_v=lambda x, y, v, t: -profile.d(v) * np.sin(t),
        a_theta_x=zero, a_theta_y=zero, label="cos-profile")


def from_scalar_ansatz(a: ScalarFieldA, *, claims_normality: bool = False) -> ForceField:
    """Force field F = A N - A_theta M generated by a scalar field A.

    Such fields satisfy the first of the two normality constraints
    identically; they admit the normal shift exactly when A also solves the
    reduced normality equation.
    """

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        p, fr = polar_frame(v)
        x, y = r[..., 0], r[..., 1]
        a_val = a(x, y, p.v, p.theta)
        b_val = -a.a_theta(x, y, p.v, p.theta)
        return a_val[..., None] * fr.N + b_val[..., None] * fr.M

    return ForceField(fn=fn, claims_normality=claims_normality,
                      label=a.label or "scalar-ansatz")


def complex_force(a: ScalarFieldA, z: complex, w: complex) -> complex:
    """Complex form of the scalar ansatz: F = (w/|w|)(A + w A_w - wbar A_wbar).

    Position and velocity are packed as z = x + iy, w = v1 + iv2.  The
    Wirtinger derivatives are taken numerically on the Cartesian-velocity
    representation of A, so this path is independent of the polar partial
    closures that ``from_scalar_ansatz`` uses.
    """
    speed = abs(w)
    if speed < 1e-300:
        raise DegenerateVelocity("complex ansatz undefined at w = 0")
    x, y = z.real, z.imag
    v1, v2 = w.real, w.imag
    a_val = a.cartesian(x, y, v1, v2)
    a_v1 = numdiff.richardson(lambda t: a.cartesian(x, y, t, v2), v1)
    a_v2 = numdiff.richardson(lambda t: a.cartesian(x, y, v1, t), v2)
    a_w = 0.5 * (a_v1 - 1j * a_v2)
    a_wbar = 0.5 * (a_v1 + 1j * a_v2)
    return (w / speed) * (a_val + w * a_w - w.conjugate() * a_wbar)


# ---------------------------------------------------------------------------
# Conformal transport between metric representations.
# ---------------------------------------------------------------------------

def _gamma_vv(metric: ConformalMetric, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Quadratic connection term (Gamma v v)^k = sum_ij gamma[k,i,j] v^i v^j."""
    gamma = christoffel(metric, r)
    return np.einsum("...kij,...i,...j->...k", gamma, v, v)


def conformal_transport(a_prime: ScalarFieldA, metric: ConformalMetric,
                        *, inverse: bool = False) -> ScalarFieldA:
    """Map the flat-metric generator A' to the conformal-metric generator A.

    A = A' exp(-f) + <Gamma v v, N_cov>, where N_cov are the covariant
    components of the metric-unit vector along v (exp(-f) v / |v|).  With
    ``inverse=True`` the map is inverted, recovering A' from A.  Partials of
    the returned field use the finite-difference fallback.
    """

    def fn(x, y, v, theta):
        x, y, v, theta = np.broadcast_arrays(x, y, v, theta)
        r = np.stack([x, y], axis=-1)
        unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        ef = np.exp(-metric.value(r))
        gvv = _gamma_vv(metric, r, v[..., None] * unit)
        term = dot(gvv, ef[..., None] * unit)
        if inverse:
            return (a_prime(x, y, v, theta) - term) / ef
        return a_prime(x, y, v, theta) * ef + term

    suffix = "<-metric" if inverse else "->metric"
    return ScalarFieldA(fn, label=(a_prime.label or "A") + suffix)


def flat_from_covariant(field: ForceField, metric: ConformalMetric) -> ForceField:
    """Euclidean-side field F' = F - Gamma v v of a covariant-side field F.

    The two systems (covariant dynamics of F in the metric, flat dynamics of
    F') trace identical trajectories.  The connection term here uses the
    closed-form conformal contraction Gamma v v = |v|^2 grad f - 2 <grad f, v> v
    rather than the component sum, so agreement of the two integrations also
    cross-checks the Christoffel components.
    """

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = metric.gradient(r)
        return field.force(r, v) - (dot(v, v)[..., None] * g - 2.0 * dot(g, v)[..., None] * v)

    return ForceField(fn=fn, claims_normality=field.claims_normality,
                      label=(field.label or "field") + "-flat")


def covariant_from_flat(field: ForceField, metric: ConformalMetric) -> ForceField:
    """Covariant-side field F = F' + Gamma v v of a Euclidean-side field F'."""

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        return field.force(r, v) + _gamma_vv(metric, r, v)

    return ForceField(fn=fn, claims_normality=field.claims_normality,
                      label=(field.label or "field") + "-covariant")


# ---------------------------------------------------------------------------
# Built-in field families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MDTypeParams:
    """Data of a multidimensional-type field.

    W(x, y, v) must satisfy W_v != 0 on the working domain; h is a function
    of one variable applied to W.  grad_w returns (W_x, W_y); grad_w_v its
    v-derivative (W_xv, W_yv); w_vv is optional and only used by closed-form
    coefficient checks.
    """

    w: Callable[[float, float, float], float]
    w_v: Callable[[float, float, float], float]
    grad_w: Callable[[float, float, float], tuple[float, float]]
    h: Profile
    w_vv: Callable[[float, float, float], float] | None = None
    grad_w_v: Callable[[float, float, float], tuple[float, float]] | None = None

    @staticmethod
    def from_conformal(f: ConformalMetric, h: Profile) -> "MDTypeParams":
        """W = v exp(-f(x, y)): the metrizable sub-family."""

        def w(x, y, v):
            return v * np.exp(-f.f(x, y))

        def w_v(x, y, v):
            return np.exp(-f.f(x, y))

        def grad_w(x, y, v):
            fx, fy = f.partials(x, y)
            e = np.exp(-f.f(x, y))
            return (-v * e * fx, -v * e * fy)

        def w_vv(x, y, v):
            return 0.0

        def grad_w_v(x, y, v):
            fx, fy = f.partials(x, y)
            e = np.exp(-f.f(x, y))
            return (-e * fx, -e * fy)

        return MDTypeParams(w=w, w_v=w_v, grad_w=grad_w, h=h,
                            w_vv=w_vv, grad_w_v=grad_w_v)


def mdtype_field(md: MDTypeParams, *, label: str = "mdtype") -> ForceField:
    """Multidimensional-type field F = h(W) N / W_v - |v| (2<gW,N>N - gW)/W_v."""

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = frame(v)
        speed = np.hypot(v[..., 0], v[..., 1])
        x, y = r[..., 0], r[..., 1]
        wv = elementwise(md.w_v(x, y, speed), speed)
        vanishing = np.abs(wv) < 1e-12
        if np.count_nonzero(vanishing):
            bx, by, bv = (np.broadcast_to(a, wv.shape)[vanishing][0] for a in (x, y, speed))
            raise InvalidParams(f"W_v vanishes at ({bx:.3g}, {by:.3g}, v={bv:.3g})")
        gw = np.empty(fr.N.shape)
        gw[..., 0], gw[..., 1] = md.grad_w(x, y, speed)
        h = md.h(md.w(x, y, speed))[..., None]
        along = 2.0 * dot(gw, fr.N)[..., None] * fr.N - gw
        return (h * fr.N - speed[..., None] * along) / wv[..., None]

    return ForceField(fn=fn, claims_normality=True, label=label)


def _per_point(value: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A constant vector or matrix repeated for every point of r."""
    out = np.empty(np.shape(r)[:-1] + value.shape)
    out[...] = value
    return out


def gravity_field(magnitude: float = 1.0) -> ForceField:
    const = np.array([0.0, -float(magnitude)])
    zero = np.zeros((2, 2))
    return ForceField(fn=lambda r, v: _per_point(const, r),
                      spatial_jacobian=lambda r, v: _per_point(zero, r),
                      velocity_jacobian=lambda r, v: _per_point(zero, r),
                      claims_normality=False, label="gravity")


def oscillator_field(omega: float) -> ForceField:
    om2 = float(omega) ** 2
    jr = np.array([[0.0, 0.0], [0.0, -om2]])
    zero = np.zeros((2, 2))

    def fn(r, v):
        out = np.zeros(np.shape(r))
        out[..., 1] = -om2 * r[..., 1]
        return out

    return ForceField(fn=fn,
                      spatial_jacobian=lambda r, v: _per_point(jr, r),
                      velocity_jacobian=lambda r, v: _per_point(zero, r),
                      claims_normality=False, label="oscillator")


def anisotropic_field(profile: Profile, m=(1.0, 0.0)) -> ForceField:
    """Spatially homogeneous anisotropic field F = A(|v|)(2 <N, m> N - m)."""
    mv = np.asarray(m, float)
    norm = float(np.hypot(mv[0], mv[1]))
    if norm < 1e-12:
        raise InvalidParams("anisotropy direction must be nonzero")
    mv = mv / norm

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = frame(v)
        a = profile(np.hypot(v[..., 0], v[..., 1]))
        return a[..., None] * (2.0 * dot(fr.N, mv)[..., None] * fr.N - mv)

    return ForceField(fn=fn, claims_normality=True, label="anisotropic")


def marked_point_field(profile: Profile, center=(0.0, 0.0)) -> ForceField:
    """Marked-point field F = A(|v|)(2 <N, r> N - r)/|r|^2, r relative to the center."""
    c = np.asarray(center, float)

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        rr = np.asarray(r, float) - c
        rho2 = dot(rr, rr)
        if np.count_nonzero(rho2 < 1e-24):
            raise InvalidParams("marked-point field is singular at its center")
        fr = frame(v)
        a = profile(np.hypot(v[..., 0], v[..., 1]))
        return a[..., None] * (2.0 * dot(fr.N, rr)[..., None] * fr.N - rr) / rho2[..., None]

    return ForceField(fn=fn, claims_normality=True, label="marked_point")


def geodesic_field(metric: ConformalMetric) -> ForceField:
    """Geodesic flow of the conformal metric, as a flat-space field.

    F = -|v|^2 grad f + 2 <grad f, v> v; equal to -(Gamma v v).
    """

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = metric.gradient(r)
        return -dot(v, v)[..., None] * g + 2.0 * dot(g, v)[..., None] * v

    return ForceField(fn=fn, claims_normality=True, label="geodesic")


def metrizable_field(metric: ConformalMetric, h: Profile) -> ForceField:
    """Geodesic-flow field plus a speed-dependent drive along the velocity.

    F = -|v|^2 grad f + 2 <grad f, v> v + (v/|v|) H(|v| exp(-f)) exp(f).
    """

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = frame(v)
        g = metric.gradient(r)
        speed = np.hypot(v[..., 0], v[..., 1])
        v2 = speed * speed
        ef = np.exp(metric.value(r))
        return (-v2[..., None] * g + 2.0 * dot(g, v)[..., None] * v
                + fr.N * h(speed / ef)[..., None] * ef[..., None])

    return ForceField(fn=fn, claims_normality=True, label="metrizable")


def disc_invariant_ansatz(radius: float, profile: Profile) -> ScalarFieldA:
    """Invariant solution on a disc of the given radius.

    A = -2 v^2 (x cos th + y sin th) / Q + v f(v / Q) with Q = R^2 - x^2 - y^2.
    Defined strictly inside the disc; a small margin keeps evaluations away
    from the singular boundary circle.
    """
    if float(radius) <= 0.0:
        raise InvalidParams("disc radius must be positive")
    r2 = float(radius) ** 2
    margin = 1e-6 * r2

    def q_of(x, y):
        q = r2 - x * x - y * y
        if np.count_nonzero(q <= margin):
            raise InvalidParams("evaluation point too close to the disc boundary")
        return q

    def fn(x, y, v, th):
        q = q_of(x, y)
        return -2.0 * v * v * (x * np.cos(th) + y * np.sin(th)) / q + v * profile(v / q)

    def a_theta(x, y, v, th):
        q = q_of(x, y)
        return -2.0 * v * v * (-x * np.sin(th) + y * np.cos(th)) / q

    def a_theta_theta(x, y, v, th):
        q = q_of(x, y)
        return 2.0 * v * v * (x * np.cos(th) + y * np.sin(th)) / q

    def a_theta_v(x, y, v, th):
        q = q_of(x, y)
        return -4.0 * v * (-x * np.sin(th) + y * np.cos(th)) / q

    def a_theta_x(x, y, v, th):
        q = q_of(x, y)
        core = -x * np.sin(th) + y * np.cos(th)
        return 2.0 * v * v * np.sin(th) / q - 4.0 * x * v * v * core / (q * q)

    def a_theta_y(x, y, v, th):
        q = q_of(x, y)
        core = -x * np.sin(th) + y * np.cos(th)
        return -2.0 * v * v * np.cos(th) / q - 4.0 * y * v * v * core / (q * q)

    def a_x(x, y, v, th):
        q = q_of(x, y)
        core = x * np.cos(th) + y * np.sin(th)
        return (-2.0 * v * v * np.cos(th) / q - 4.0 * x * v * v * core / (q * q)
                + 2.0 * x * v * v * profile.d(v / q) / (q * q))

    def a_y(x, y, v, th):
        q = q_of(x, y)
        core = x * np.cos(th) + y * np.sin(th)
        return (-2.0 * v * v * np.sin(th) / q - 4.0 * y * v * v * core / (q * q)
                + 2.0 * y * v * v * profile.d(v / q) / (q * q))

    def a_v(x, y, v, th):
        q = q_of(x, y)
        core = x * np.cos(th) + y * np.sin(th)
        return -4.0 * v * core / q + profile(v / q) + v * profile.d(v / q) / q

    return ScalarFieldA(fn, a_x=a_x, a_y=a_y, a_v=a_v, a_theta=a_theta,
                        a_theta_theta=a_theta_theta, a_theta_v=a_theta_v,
                        a_theta_x=a_theta_x, a_theta_y=a_theta_y,
                        label="disc_invariant")
