"""Shared construction helpers for the test suite.

Random fields are built from small closed families with hand-coded
derivatives so that residual checks run in the analytic-partials regime;
finite-difference fallbacks are exercised separately.  Every closure is
elementwise NumPy, so the fields take stacked points like the built-in ones.
"""

import numpy as np

from normshift.forces import MDTypeParams, Profile, ScalarFieldA
from normshift.geometry import ConformalMetric, christoffel
from normshift.numdiff import H1_PLAIN, H1_RICH, H2_RICH, richardson_step
from normshift.odesolve import solve_dopri

# (f, df) pairs for speed factors
_SPEED_BASIS = [
    (lambda v: 1.0, lambda v: 0.0),
    (lambda v: v, lambda v: 1.0),
    (lambda v: v * v, lambda v: 2.0 * v),
    (lambda v: np.sin(v), lambda v: np.cos(v)),
]

# (g, dg, ddg) for angle factors
_ANGLE_BASIS = [
    (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0),
    (lambda t: np.cos(t), lambda t: -np.sin(t), lambda t: -np.cos(t)),
    (lambda t: np.sin(t), lambda t: np.cos(t), lambda t: -np.sin(t)),
    (lambda t: np.cos(2 * t), lambda t: -2 * np.sin(2 * t), lambda t: -4 * np.cos(2 * t)),
]

# (h, hx, hy) for position factors
_XY_BASIS = [
    (lambda x, y: 1.0, lambda x, y: 0.0, lambda x, y: 0.0),
    (lambda x, y: np.sin(x), lambda x, y: np.cos(x), lambda x, y: 0.0),
    (lambda x, y: np.cos(y), lambda x, y: 0.0, lambda x, y: -np.sin(y)),
    (lambda x, y: 0.25 * x * y, lambda x, y: 0.25 * y, lambda x, y: 0.25 * x),
]


def random_ansatz(rng, n_terms=3, label="random-ansatz") -> ScalarFieldA:
    """Random smooth generator A(x, y, v, theta) with analytic partials."""
    terms = []
    for _ in range(n_terms):
        c = float(rng.uniform(0.3, 1.0)) * float(rng.choice([-1.0, 1.0]))
        fv = _SPEED_BASIS[rng.integers(len(_SPEED_BASIS))]
        gt = _ANGLE_BASIS[rng.integers(len(_ANGLE_BASIS))]
        hxy = _XY_BASIS[rng.integers(len(_XY_BASIS))]
        terms.append((c, fv, gt, hxy))

    def total(part):
        def fn(x, y, v, t):
            return sum(part(c, fv, gt, hxy, x, y, v, t) for c, fv, gt, hxy in terms)
        return fn

    return ScalarFieldA(
        total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[0](t) * hxy[0](x, y)),
        a_x=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[0](t) * hxy[1](x, y)),
        a_y=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[0](t) * hxy[2](x, y)),
        a_v=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[1](v) * gt[0](t) * hxy[0](x, y)),
        a_theta=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[1](t) * hxy[0](x, y)),
        a_theta_theta=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[2](t) * hxy[0](x, y)),
        a_theta_v=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[1](v) * gt[1](t) * hxy[0](x, y)),
        a_theta_x=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[1](t) * hxy[1](x, y)),
        a_theta_y=total(lambda c, fv, gt, hxy, x, y, v, t: c * fv[0](v) * gt[1](t) * hxy[2](x, y)),
        label=label)


def random_metric(rng, scale=0.3) -> ConformalMetric:
    a, b, c = rng.uniform(-scale, scale, 3)
    return ConformalMetric(
        f=lambda x, y: a * np.sin(x) + b * np.cos(y) + 0.1 * c * x * y,
        grad_f=lambda x, y: (a * np.cos(x) + 0.1 * c * y,
                             -b * np.sin(y) + 0.1 * c * x))


def christoffel_flow_positions(field, metric, init, t_eval) -> np.ndarray:
    """Reference covariant flow r'' = F - Gamma v v from the Christoffel components.

    The package integrates covariant flows as flat flows of the transported
    field; this integrates the connection term directly, as an independent
    check of that transport.
    """

    def rhs(t, y):
        v = y[2:4]
        gamma_vv = np.einsum("kij,i,j->k", christoffel(metric, y[:2]), v, v)
        return np.concatenate([v, field.force(y[:2], v) - gamma_vv])

    sol = solve_dopri(rhs, t_eval[0], init.packed(), t_eval[-1])
    return sol.sample(t_eval)[:, :2]


def perturbed_mdtype(rng) -> MDTypeParams:
    """W = v exp(-f) + eps g(x, y) sin(v) with W_v bounded away from zero."""
    m = random_metric(rng)
    eps = float(rng.uniform(0.05, 0.15))
    p, q = rng.uniform(-0.5, 0.5, 2)
    h = Profile.polynomial(rng.uniform(-0.5, 0.5, 3))

    def g(x, y):
        return p * np.sin(x) + q * np.cos(y)

    def gx(x, y):
        return p * np.cos(x)

    def gy(x, y):
        return -q * np.sin(y)

    def ef(x, y):
        return np.exp(-m.f(x, y))

    def w(x, y, v):
        return v * ef(x, y) + eps * g(x, y) * np.sin(v)

    def w_v(x, y, v):
        return ef(x, y) + eps * g(x, y) * np.cos(v)

    def w_vv(x, y, v):
        return -eps * g(x, y) * np.sin(v)

    def grad_w(x, y, v):
        fx, fy = np.moveaxis(m.gradient(np.stack([x, y], axis=-1)), -1, 0)
        e = ef(x, y)
        return (-v * e * fx + eps * gx(x, y) * np.sin(v),
                -v * e * fy + eps * gy(x, y) * np.sin(v))

    def grad_w_v(x, y, v):
        fx, fy = np.moveaxis(m.gradient(np.stack([x, y], axis=-1)), -1, 0)
        e = ef(x, y)
        return (-e * fx + eps * gx(x, y) * np.cos(v),
                -e * fy + eps * gy(x, y) * np.cos(v))

    return MDTypeParams(w=w, w_v=w_v, grad_w=grad_w, h=h,
                        w_vv=w_vv, grad_w_v=grad_w_v)


def random_spline_points(rng, n=5, box=1.2) -> np.ndarray:
    """Well-separated random points for a regular test spline."""
    while True:
        pts = rng.uniform(-box, box, (n, 2))
        steps = np.diff(pts, axis=0)
        if np.min(np.hypot(steps[:, 0], steps[:, 1])) > 0.3:
            return pts


def two_call_deviation_rhs(field):
    """Right side of the flow and its variation, y = (r, v, tau, tau'), as the
    package computed it for a field without analytic Jacobians before the
    base point joined the stencil: one call of the field at (r, v), and one
    at the eight points of the Richardson stencils along tau (moving r) and
    tau' (moving v), extrapolated from steps h and h/2."""

    def rhs(t, y):
        r, v, tau, tau_dot = y[..., 0:2], y[..., 2:4], y[..., 4:6], y[..., 6:8]
        base, along = np.stack([r, v]), np.stack([tau, tau_dot])
        length = np.hypot(along[..., 0], along[..., 1])
        h = richardson_step(np.hypot(base[..., 0], base[..., 1])) / np.where(
            length > 0.0, length, 1.0)
        steps = np.zeros(length.shape) + np.array([1.0, -1.0, 0.5, -0.5]).reshape(
            (4,) + (1,) * h.ndim) * h
        moved = base + steps[..., None] * along
        held = np.broadcast_to(base, moved.shape)
        fp, fm, fhp, fhm = field.force(np.stack([moved[:, 0], held[:, 0]], axis=1),
                                       np.stack([held[:, 1], moved[:, 1]], axis=1))
        h = h[..., None]
        d = (4.0 * ((fhp - fhm) / h) - (fp - fm) / (2.0 * h)) / 3.0
        return np.concatenate([v, field.force(r, v), tau_dot, d[0] + d[1]], axis=-1)

    return rhs


# numdiff's stencils written out one point at a time, for a scalar f at a
# number x: the points and the arithmetic that the stacked stencils must
# reproduce bit for bit.

def central_one_point(f, x):
    h = H1_PLAIN * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_one_point(f, x):
    h = H1_RICH * max(1.0, abs(x))
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def richardson2_one_point(f, x):
    h = H2_RICH * max(1.0, abs(x))
    f0, half = f(x), h / 2
    d2_half = (f(x + half) - 2.0 * f0 + f(x - half)) / (half * half)
    d2_full = (f(x + h) - 2.0 * f0 + f(x - h)) / (h * h)
    return (4.0 * d2_half - d2_full) / 3.0


def richardson_mixed_one_point(f, x, y):
    hx, hy = H2_RICH * max(1.0, abs(x)), H2_RICH * max(1.0, abs(y))

    def cross(a, b):
        return (f(x + a, y + b) - f(x + a, y - b) - f(x - a, y + b)
                + f(x - a, y - b)) / (4.0 * a * b)

    return (4.0 * cross(hx / 2, hy / 2) - cross(hx, hy)) / 3.0
