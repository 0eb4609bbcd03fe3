"""Force fields of planar Newtonian systems and their constructors.

A force field F(r, v) is expanded in the velocity frame as
F = A * N + B * M.  The scalar ansatz builds F from a single generator
A(x, y, v, theta) via F = A * N - A_theta * M, which is the parameterization
used by all built-in fields that admit the normal shift of curves.

Every evaluator works row by row on stacked arguments: a field takes r and v
of shape (..., 2) and returns (..., 2), its Jacobians (..., 2, 2); profiles,
generators and their partials take arrays of any one shape and return that
shape.  A single point is the (2,) case (scalars for generators).  All are
complex-safe (``geometry``).

Everything here takes typed arguments; ``experiment`` reads the JSON specs,
the catalogue of named fields among them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import InvalidParams
from .geometry import (ConformalMetric, checked_speed, christoffel, dot, elementwise, frame,
                       polar_frame, speed_angle)

@dataclass(frozen=True)
class Profile:
    """Smooth function of one variable, complex-safe; ``jet`` gives its value
    and derivative, as a curve's ``jet`` does."""

    fn: Callable[[float], float]

    def __call__(self, x):
        return elementwise(self.fn(x), x)

    def jet(self, x) -> tuple:
        return numdiff.complex_step(self, (numdiff.floats(x),), (1.0,))

    @staticmethod
    def constant(c: float) -> "Profile":
        return Profile(fn=lambda x: c)

    @staticmethod
    def polynomial(coeffs) -> "Profile":
        c = [float(a) for a in coeffs]

        def horner(x):
            out = c[-1] if c else 0.0
            for a in reversed(c[:-1]):
                out = out * x + a
            return out

        return Profile(fn=horner)


# Points per complex evaluation.  numpy computes a * tmp as tmp *= a once
# tmp holds 256 KiB, and complex a * b and b * a can differ in the last bit:
# with larger calls a row's derivative would depend on the rows beside it.
# At 16400 points (one complex number a point past 256 KiB) the rows of
# the ``cos_profile_ansatz`` and ``conformal_transport`` fields do; at 12000
# no built-in field's rows do.
COMPLEX_BLOCK = 2048


@dataclass(frozen=True)
class ForceField:
    """Evaluator F(r, v); nothing else.

    A field carries no name and no claim: which built-in fields claim to
    admit the normal shift is recorded in ``experiment.CATALOGUE``.

    Every derivative of F is one complex evaluation of ``fn``
    (``derivative``), which must therefore be complex-safe.  Jacobian
    convention: J_r[..., i, j] = dF_j / dr^i and J_v[..., i, j] = dF_j / dv^i.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def force(self, r, v) -> np.ndarray:
        return numdiff.floats(self.fn(numdiff.floats(r), numdiff.floats(v)))

    def derivative(self, r, v, dr, dv) -> tuple[np.ndarray, np.ndarray]:
        """F(r, v) and its derivative along (dr, dv), arrays of shape
        (..., 2) that broadcast together, by ``numdiff.complex_step``."""
        return numdiff.complex_step(self._complex_force, (r, v), (dr, dv))

    def _complex_force(self, r, v) -> np.ndarray:
        """F at complex points, in calls of at most COMPLEX_BLOCK points.
        TypeError if ``fn`` is not complex-safe."""
        n = max(r.size, v.size) // 2
        if n > COMPLEX_BLOCK:
            r, v = np.broadcast_arrays(r, v)
            rows = [a.reshape(n, 2) for a in (r, v)]
            return np.concatenate([self._complex_force(*(a[i:i + COMPLEX_BLOCK] for a in rows))
                                   for i in range(0, n, COMPLEX_BLOCK)]).reshape(r.shape)
        try:
            f = self.force(r, v)
            if f.dtype.kind != "c":
                raise TypeError("fn returned a real force for complex points")
        except (TypeError, np.exceptions.ComplexWarning) as exc:
            raise TypeError("a force field must be complex-safe: for complex r and v, fn "
                            "returns a complex force (README, 'Writing your own field')") from exc
        return f

    def linearize(self, r, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F(r, v), J_r and J_v at (..., 2) r, v: one ``derivative`` of four
        points per row, one along each phase axis, whose real part is F."""
        r, v = np.asarray(r, float), np.asarray(v, float)
        f, d = self.derivative(r[..., None, :], v[..., None, :], *_PHASE_AXES)
        return f[..., 0, :], d[..., :2, :], d[..., 2:, :]

    def jac_spatial(self, r, v) -> np.ndarray:
        return self.linearize(r, v)[1]

    def jac_velocity(self, r, v) -> np.ndarray:
        return self.linearize(r, v)[2]


# (dr, dv) of the four phase axes
_PHASE_AXES = (np.eye(4)[:, :2], np.eye(4)[:, 2:])


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

class ScalarFieldA:
    """Scalar generator A(x, y, v, theta), and its partial A_theta.

    theta is measured against the fixed direction (1, 0).  ``fn`` and the
    optional closure ``a_theta`` (same signature) work elementwise on arrays
    and are complex-safe: every other partial the residuals need is a
    complex step of one of them (``normality.reduced_residual``).  The
    member ``a.a_theta(x, y, v, theta)`` is the closure, or else the e part
    of one jet of ``fn`` in theta (``numdiff.jet``), so that ``fn`` must then
    take jets.  Both return one value per point, also where a closure
    returns a constant.
    """

    def __init__(self, fn, a_theta=None):
        self.fn = fn
        if a_theta is None:
            self.a_theta = self._theta_jet
        else:
            self.a_theta = lambda x, y, v, theta: elementwise(a_theta(x, y, v, theta),
                                                               x, y, v, theta)

    def _theta_jet(self, x, y, v, theta):
        return numdiff.jet(self, (x, y, v, theta), (0.0, 0.0, 0.0, 1.0), (0.0,) * 4)[1]

    def __call__(self, x, y, v, theta):
        return elementwise(self.fn(x, y, v, theta), x, y, v, theta)

    def cartesian(self, x, y, v1, v2):
        """A evaluated with the velocity in Cartesian components, at the
        speed and angle of ``geometry.speed_angle``."""
        return self(x, y, *speed_angle(v1, v2))


def speed_profile_ansatz(profile: Profile) -> ScalarFieldA:
    """Generator A = a(v): force along the velocity, A_theta zero."""
    return ScalarFieldA(lambda x, y, v, t: profile(v), a_theta=lambda x, y, v, t: 0.0)


def speed_profile_field(profile: Profile) -> ForceField:
    """Field F = a(|v|) N of ``speed_profile_ansatz(profile)``, evaluated in
    the frame: equal to its ``from_scalar_ansatz`` field but for the sign of
    a zero, without the angle, the generator or the A_theta that is zero."""

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = frame(v)
        return profile(fr.speed)[..., None] * fr.N

    return ForceField(fn=fn)


def cos_profile_ansatz(profile: Profile) -> ScalarFieldA:
    """Generator A = a(v) cos(theta) of the homogeneous anisotropic family."""
    return ScalarFieldA(lambda x, y, v, t: profile(v) * np.cos(t),
                        a_theta=lambda x, y, v, t: -profile(v) * np.sin(t))


def from_scalar_ansatz(a: ScalarFieldA) -> ForceField:
    """Force field F = A N - A_theta M generated by a scalar field A.

    Such fields satisfy the first of the two normality constraints
    identically; they admit the normal shift exactly when A also solves the
    reduced normality equation.
    """

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        theta, fr = polar_frame(v)
        x, y = r[..., 0], r[..., 1]
        a_val = a(x, y, fr.speed, theta)
        b_val = -a.a_theta(x, y, fr.speed, theta)
        return a_val[..., None] * fr.N + b_val[..., None] * fr.M

    return ForceField(fn=fn)


def complex_probes(evaluate: Callable) -> Callable:
    """``evaluate(a, z, w)`` with z and w broadcast to complex arrays of one
    shape.  A single probe runs as a one-element array, so that its value
    keeps the bits of its row in a stack of probes: NumPy's loops over 0-d
    and over n-d arrays can round differently."""

    @functools.wraps(evaluate)
    def wrapped(a, z, w):
        z, w = np.broadcast_arrays(np.asarray(z, complex), np.asarray(w, complex))
        if z.ndim == 0:
            return evaluate(a, z[None], w[None])[0]
        return evaluate(a, z, w)

    return wrapped


def operator_directions(w) -> tuple[tuple, tuple, tuple, tuple]:
    """D-_w, D+_w, D-_z and D+_z as directions in (x, y, v1, v2), one per
    point of the complex velocity w = v1 + i v2: D+ = w d + wbar dbar is
    (v1, v2) and D- = w d - wbar dbar is i (v2, -v1), in velocity for the
    w-operators and in position for the z-operators."""
    minus, plus = (1j * w.imag, -1j * w.real), (w.real, w.imag)
    return (0.0, 0.0, *minus), (0.0, 0.0, *plus), (*minus, 0.0, 0.0), (*plus, 0.0, 0.0)


@complex_probes
def complex_force(a: ScalarFieldA, z, w):
    """Complex form of the scalar ansatz: F = (w/|w|)(A + D-_w A), with
    D-_w = w d_w - wbar d_wbar.

    Position and velocity are packed as z = x + iy, w = v1 + iv2, numbers or
    arrays of one shape, elementwise.  A and D-_w A come from one jet of the
    Cartesian-velocity representation of A along D-_w's direction
    (``operator_directions``, ``numdiff.jet``), so this path is independent
    of the polar A_theta that ``from_scalar_ansatz`` uses.
    DegenerateVelocity if any |w| is below ``geometry.V_MIN``.
    """
    speed = checked_speed(np.abs(w))
    a_val, dm_w_a, _, _ = numdiff.jet(a.cartesian, (z.real, z.imag, w.real, w.imag),
                                      operator_directions(w)[0], (0.0,) * 4)
    return (w / speed) * (a_val + dm_w_a)


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
    components of the metric-unit vector along v (exp(-f) v / |v|).  For a
    conformal metric Gamma v v = |v|^2 grad f - 2 <grad f, v> v, so the
    connection term is -exp(-f) v^2 (f_x cos theta + f_y sin theta), which
    is evaluated elementwise.  With ``inverse=True`` the map is inverted,
    recovering A' from A.  The returned generator's A_theta is a jet of its
    ``fn``.
    """

    def fn(x, y, v, theta):
        ef = np.exp(-metric.f(x, y))
        fx, fy = metric.partials(x, y)
        term = -ef * v * v * (fx * np.cos(theta) + fy * np.sin(theta))
        if inverse:
            return (a_prime(x, y, v, theta) - term) / ef
        return a_prime(x, y, v, theta) * ef + term

    return ScalarFieldA(fn)


def flat_from_covariant(field: ForceField, metric: ConformalMetric) -> ForceField:
    """Euclidean-side field F' = F - Gamma v v of a covariant-side field F.

    The two systems (covariant dynamics of F in the metric, flat dynamics of
    F') trace identical trajectories.  The connection term is the force of
    ``geodesic_field(metric)``, the closed-form conformal contraction
    -Gamma v v = -|v|^2 grad f + 2 <grad f, v> v, rather than the component
    sum, so agreement of the two integrations also cross-checks the
    Christoffel components.
    """
    connection = geodesic_field(metric).fn

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        return field.force(r, v) + connection(r, v)

    return ForceField(fn=fn)


def covariant_from_flat(field: ForceField, metric: ConformalMetric) -> ForceField:
    """Covariant-side field F = F' + Gamma v v of a Euclidean-side field F'."""

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        return field.force(r, v) + _gamma_vv(metric, r, v)

    return ForceField(fn=fn)


# ---------------------------------------------------------------------------
# Built-in field families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MDTypeParams:
    """Data of a multidimensional-type field: W(x, y, v) and h.

    ``w(x, y, v)`` returns (W, W_v, W_x, W_y) from one call, the only data
    of W that ``mdtype_field`` reads; W_v must not vanish on the working
    domain.  h is a function of one variable applied to W.
    """

    w: Callable[[float, float, float], tuple[float, float, float, float]]
    h: Profile

    @staticmethod
    def from_conformal(f: ConformalMetric, h: Profile) -> "MDTypeParams":
        """W = v exp(-f(x, y)), the metrizable sub-family: one evaluation of
        f and one of its partials give W and its three partials.  Its field
        is the geodesic field of f plus the drive N h(|v| exp(-f)) exp(f)."""

        def w(x, y, v):
            e = np.exp(-f.f(x, y))
            fx, fy = f.partials(x, y)
            ve = v * e
            minus_ve = -ve
            return ve, e, minus_ve * fx, minus_ve * fy

        return MDTypeParams(w=w, h=h)


def mdtype_field(md: MDTypeParams) -> ForceField:
    """Multidimensional-type field F = h(W) N / W_v - |v| (2<gW,N>N - gW)/W_v,
    from one call of ``md.w`` per evaluation; a constant W_v or partial is
    broadcast to the points."""

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = frame(v)
        n, speed = fr.N, fr.speed
        x, y = r[..., 0], r[..., 1]
        w, wv, wx, wy = md.w(x, y, speed)
        wv = elementwise(wv, speed)
        vanishing = np.abs(wv.real) < 1e-12
        if np.count_nonzero(vanishing):
            bx, by, bv = (np.broadcast_to(a.real, wv.shape)[vanishing][0] for a in (x, y, speed))
            raise InvalidParams(f"W_v vanishes at ({bx:.3g}, {by:.3g}, v={bv:.3g})")
        # 2 <gW, N> N - gW, without an array for gW
        along = 2.0 * (wx * n[..., 0] + wy * n[..., 1])[..., None] * n
        along[..., 0] -= wx
        along[..., 1] -= wy
        return (md.h(w)[..., None] * n - speed[..., None] * along) / wv[..., None]

    return ForceField(fn=fn)


def gravity_field(magnitude: float = 1.0) -> ForceField:
    const = np.array([0.0, -float(magnitude)])
    return ForceField(fn=lambda r, v: np.broadcast_to(const, r.shape).astype(r.dtype))


def oscillator_field(omega: float) -> ForceField:
    om2 = float(omega) ** 2

    def fn(r, v):
        out = np.zeros_like(r)
        out[..., 1] = -om2 * r[..., 1]
        return out

    return ForceField(fn=fn)


def anisotropic_field(profile: Profile, m=(1.0, 0.0)) -> ForceField:
    """Spatially homogeneous anisotropic field F = A(|v|)(2 <N, m> N - m)."""
    mv = np.asarray(m, float)
    norm = float(np.hypot(mv[0], mv[1]))
    if norm < 1e-12:
        raise InvalidParams("anisotropy direction must be nonzero")
    mv = mv / norm

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        fr = frame(v)
        a = profile(fr.speed)
        return a[..., None] * (2.0 * dot(fr.N, mv)[..., None] * fr.N - mv)

    return ForceField(fn=fn)


def marked_point_field(profile: Profile, center=(0.0, 0.0)) -> ForceField:
    """Marked-point field F = A(|v|)(2 <N, r> N - r)/|r|^2, r relative to the center."""
    c = np.asarray(center, float)

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        rr = r - c
        rho2 = dot(rr, rr)
        if np.count_nonzero(rho2.real < 1e-24):
            raise InvalidParams("marked-point field is singular at its center")
        fr = frame(v)
        a = profile(fr.speed)
        return a[..., None] * (2.0 * dot(fr.N, rr)[..., None] * fr.N - rr) / rho2[..., None]

    return ForceField(fn=fn)


def geodesic_field(metric: ConformalMetric) -> ForceField:
    """Geodesic flow of the conformal metric, as a flat-space field.

    F = -|v|^2 grad f + 2 <grad f, v> v; equal to -(Gamma v v).
    """

    def fn(r: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = metric.gradient(r)
        return -dot(v, v)[..., None] * g + 2.0 * dot(g, v)[..., None] * v

    return ForceField(fn=fn)


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
        if np.count_nonzero(q.real <= margin):
            raise InvalidParams("evaluation point too close to the disc boundary")
        return q

    def fn(x, y, v, th):
        q = q_of(x, y)
        return -2.0 * v * v * (x * np.cos(th) + y * np.sin(th)) / q + v * profile(v / q)

    def a_theta(x, y, v, th):
        q = q_of(x, y)
        return -2.0 * v * v * (-x * np.sin(th) + y * np.cos(th)) / q

    return ScalarFieldA(fn, a_theta=a_theta)
