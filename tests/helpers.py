"""Shared construction helpers for the test suite.

Random fields are built from small closed families with hand-coded
derivatives, which serve as exact references for the derivatives the
package takes by complex steps and jets.  Every closure is
elementwise NumPy, so the fields take stacked points like the built-in ones.
"""

import numpy as np

from normshift.forces import (ForceField, MDTypeParams, Profile, ScalarFieldA, gravity_field,
                              oscillator_field)
from normshift.geometry import ConformalMetric, christoffel
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


def random_generator(rng, n_terms=3) -> tuple[ScalarFieldA, dict]:
    """Random smooth generator A(x, y, v, theta): the ScalarFieldA of its
    ``fn`` and ``a_theta`` closure, and its closed-form partials by name
    ("a", "a_x", ..., "a_theta_y"), the exact references of the partials
    that ``reduced_residual`` takes by complex steps."""
    terms = []
    for _ in range(n_terms):
        c = float(rng.uniform(0.3, 1.0)) * float(rng.choice([-1.0, 1.0]))
        fv = _SPEED_BASIS[rng.integers(len(_SPEED_BASIS))]
        gt = _ANGLE_BASIS[rng.integers(len(_ANGLE_BASIS))]
        hxy = _XY_BASIS[rng.integers(len(_XY_BASIS))]
        terms.append((c, fv, gt, hxy))

    def total(i, j, k):
        # derivative i of the speed factor, j of the angle factor, and the
        # position factor (k = 0), its x partial (1) or its y partial (2)
        def fn(x, y, v, t):
            return sum(c * fv[i](v) * gt[j](t) * hxy[k](x, y) for c, fv, gt, hxy in terms)
        return fn

    partials = {"a": total(0, 0, 0), "a_x": total(0, 0, 1), "a_y": total(0, 0, 2),
                "a_v": total(1, 0, 0), "a_theta": total(0, 1, 0),
                "a_theta_theta": total(0, 2, 0), "a_theta_v": total(1, 1, 0),
                "a_theta_x": total(0, 1, 1), "a_theta_y": total(0, 1, 2)}
    return ScalarFieldA(partials["a"], a_theta=partials["a_theta"]), partials


def random_ansatz(rng, n_terms=3) -> ScalarFieldA:
    """Random smooth generator A(x, y, v, theta) with an A_theta closure."""
    return random_generator(rng, n_terms)[0]


def reduced_residual_from(partials: dict, x, y, v, t):
    """The reduced residual assembled term by term from closed-form partials
    (``random_generator``), as ``normality.reduced_residual`` states it."""
    p = {name: f(x, y, v, t) for name, f in partials.items()}
    return ((p["a_y"] - p["a_theta_x"]) * np.cos(t) - (p["a_x"] + p["a_theta_y"]) * np.sin(t)
            + p["a"] * p["a_theta"] / v**2 + p["a_theta"] * p["a_theta_theta"] / v**2
            + p["a_theta"] * p["a_v"] / v - p["a"] * p["a_theta_v"] / v)


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
    """W = v exp(-f) + eps g(x, y) sin(v) with W_v bounded away from zero,
    g = p sin(x) + q cos(y)."""
    m = random_metric(rng)
    eps = float(rng.uniform(0.05, 0.15))
    p, q = rng.uniform(-0.5, 0.5, 2)
    h = Profile.polynomial(rng.uniform(-0.5, 0.5, 3))

    def w(x, y, v):
        e = np.exp(-m.f(x, y))
        fx, fy = m.partials(x, y)
        g = p * np.sin(x) + q * np.cos(y)
        return (v * e + eps * g * np.sin(v), e + eps * g * np.cos(v),
                -v * e * fx + eps * (p * np.cos(x)) * np.sin(v),
                -v * e * fy + eps * (-q * np.sin(y)) * np.sin(v))

    return MDTypeParams(w=w, h=h)


# fields that claim normality, with parameters that keep nu healthy on the
# curves of test_shift.py
NU_FIELDS = {
    "anisotropic": {"profile": {"kind": "poly", "coeffs": [0.8, 0.3]}},
    "marked_point": {"profile": {"kind": "poly", "coeffs": [0.9, 0.2]}, "center": [4.0, 4.0]},
    "metrizable": {"f": {"kind": "sin_cos", "amplitude": 0.25},
                   "H": {"kind": "poly", "coeffs": [0.1, 0.2]}},
    "mdtype": {"f": {"kind": "linear", "ax": 0.2, "ay": -0.1},
               "h": {"kind": "poly", "coeffs": [0.2, 0.1]}},
    "disc_invariant": {"R": 4.0, "profile": {"kind": "poly", "coeffs": [1.0, 0.2]}},
}

# parameters that keep each catalogue field finite on the curves
# of test_shift.py
RATE_PARAMS = {**NU_FIELDS, "oscillator": {"omega": 1.3},
               "geodesic": {"f": {"kind": "sin_cos", "amplitude": 0.25}}}


def random_spline_points(rng, n=5, box=1.2) -> np.ndarray:
    """Well-separated random points for a regular test spline."""
    while True:
        pts = rng.uniform(-box, box, (n, 2))
        steps = np.diff(pts, axis=0)
        if np.min(np.hypot(steps[:, 0], steps[:, 1])) > 0.3:
            return pts


def phase_direction_deviation_rhs(field):
    """Right side of the flow and its variation, y = (r, v, tau, tau'),
    written out plainly: one call of the field at the complex phase points
    p + 1e-200 i d, p = (r, v) and d = (tau, tau'); the real part of the
    force is F(p) and its imaginary part over 1e-200 the derivative of F
    along d."""

    def rhs(t, y):
        p, d = y[..., :4], y[..., 4:]
        q = p + 1e-200j * d
        f = field.force(q[..., :2], q[..., 2:])
        return np.concatenate([p[..., 2:], f.real, d[..., 2:], f.imag / 1e-200], axis=-1)

    return rhs


# Finite-difference references for a scalar f at a number x, independent of
# the package's complex steps and jets.  Each step lies below the balance of
# truncation and rounding: the central difference's h^2 |f"'| / 6 against
# eps |f| / h, the extrapolated one's h^4 against eps |f| / h.
H_CENTRAL = 1e-6
H_RICHARDSON = 1e-5


def central_one_point(f, x):
    h = H_CENTRAL * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_one_point(f, x):
    """Central differences at steps h and h/2, extrapolated to O(h^4)."""
    h = H_RICHARDSON * max(1.0, abs(x))
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def sympy_field():
    """A field with large derivatives, written in sympy: the ForceField of
    its numpy form, and its exact Jacobian in phase space, jacobian(r, v)
    of shape (..., 4, 2) with [..., i, j] = dF_j / dp^i, p = (x, y, vx, vy),
    from sympy's derivatives."""
    import sympy
    p = sympy.symbols("x y a b")
    x, y, a, b = p
    parts = [sympy.sin(20 * x + 6 * a) * (1 + a * a / 4) + b * sympy.exp(y / 2),
             sympy.cos(16 * y - 8 * b) - a * b / 2]
    fn = sympy.lambdify(p, parts)
    jac = sympy.lambdify(p, [[sympy.diff(part, s) for part in parts] for s in p])

    def stacked(values):
        return np.stack(np.broadcast_arrays(*values), axis=-1)

    def force(r, v):
        return stacked(fn(r[..., 0], r[..., 1], v[..., 0], v[..., 1]))

    def jacobian(r, v):
        rows = jac(r[..., 0], r[..., 1], v[..., 0], v[..., 1])
        return np.stack([stacked(row) for row in rows], axis=-2)

    return ForceField(fn=force), jacobian


def linear_fields(c: float) -> dict:
    """Gravity of magnitude c and the oscillator of frequency c, by name, each
    with its exact Jacobians (J_r, J_v): constants, of which only the
    oscillator's dF_y / dy = -c^2 is nonzero."""
    zero, jr = np.zeros((2, 2)), np.zeros((2, 2))
    jr[1, 1] = -(c * c)
    return {"gravity": (gravity_field(c), zero, zero),
            "oscillator": (oscillator_field(c), jr, zero)}
