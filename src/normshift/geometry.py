"""Metric-aware planar primitives.

Conformally Euclidean metrics g_ij = exp(-2 f(x, y)) delta_ij, their
Christoffel symbols, the orthonormal frame (N, M) attached to a velocity
vector, the orthogonal projector onto the normal line, and polar velocity
coordinates referenced to the fixed direction m = (1, 0).  Also the cubic
spline that interpolates spline curves and quadrature tables.

Points and vectors are arrays whose last axis holds the two components; any
leading axes stack independent points, and every function works row by row
on them.  A single point is the (2,) case of the same code.  Every
evaluator is complex-safe for ``numdiff.complex_step``: speeds and angles
come from ``hypot`` and ``atan2``, and domain tests compare real parts.

All operations are pure functions; evaluators carry no mutable state and may
be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateVelocity
from . import numdiff
from .numdiff import atan2, hypot

# Frames are undefined at rest points; speeds below this are rejected.
V_MIN = 1e-9

# M = (-N_y, N_x) is N reversed and multiplied by this.
_ROTATE = np.array([-1.0, 1.0])


def _as_points(v) -> np.ndarray:
    a = numdiff.floats(v)
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError(f"expected 2-vectors along the last axis, got shape {a.shape}")
    return a


def dot(a, b):
    """Planar dot product over the last axis, row by row."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def elementwise(value, *args):
    """``value`` as ``numdiff.floats``, or a ``numdiff.Jet`` as it is, of the
    broadcast shape of ``args`` (numbers, arrays or jets).

    A closure that returns one constant for stacked arguments still gives one
    value per point; for scalar arguments the result is a NumPy scalar.
    """
    jet = isinstance(value, numdiff.Jet)
    out = value if jet else numdiff.floats(value)
    for a in args:
        if (a.shape if isinstance(a, np.ndarray | np.generic) else np.shape(a)) != out.shape:
            shape = np.broadcast(*(a.a if isinstance(a, numdiff.Jet) else a for a in args)).shape
            return out + np.zeros(shape) if jet else np.full(shape, out)[()]
    return out if jet else out[()]


def _speed(v: np.ndarray) -> np.ndarray:
    return checked_speed(hypot(v[..., 0], v[..., 1]))


def checked_speed(speed: np.ndarray) -> np.ndarray:
    """``speed`` itself; DegenerateVelocity if any of it is below V_MIN."""
    low = speed.real < V_MIN
    if np.count_nonzero(low):
        raise DegenerateVelocity(f"speed {np.min(speed.real[low]):.3e} below v_min={V_MIN:.0e}")
    return speed


@dataclass(frozen=True)
class ConformalMetric:
    """Conformal factor f(x, y) of the metric g = exp(-2f) * identity.

    ``grad_f`` returns (df/dx, df/dy); if omitted, both partials are the
    e parts of one jet of ``f`` (``numdiff.jet``), so ``f`` must then take
    jets.
    """

    f: Callable[[float, float], float]
    grad_f: Callable[[float, float], tuple[float, float]] | None = None

    def value(self, point):
        """f at each point, shape point.shape[:-1]."""
        p = _as_points(point)
        x, y = p[..., 0], p[..., 1]
        return elementwise(self.f(x, y), x)

    def gradient(self, point) -> np.ndarray:
        """(df/dx, df/dy) at each point, the shape of ``point``."""
        p = _as_points(point)
        out = np.empty(p.shape, p.dtype)
        out[..., 0], out[..., 1] = self.partials(p[..., 0], p[..., 1])
        return out

    def partials(self, x, y):
        """df/dx and df/dy at coordinates x, y (arrays of one shape, or numbers)."""
        if self.grad_f is not None:
            return self.grad_f(x, y)

        def f(x, y):
            return elementwise(self.f(x, y), x, y)

        return numdiff.jet(f, (x, y), (1.0, 0.0), (0.0, 1.0))[1:3]

    @staticmethod
    def euclidean() -> "ConformalMetric":
        return ConformalMetric(f=lambda x, y: 0.0, grad_f=lambda x, y: (0.0, 0.0))

    @staticmethod
    def constant(c: float) -> "ConformalMetric":
        return ConformalMetric(f=lambda x, y: c, grad_f=lambda x, y: (0.0, 0.0))


@dataclass(frozen=True)
class Frame:
    """Right-oriented orthonormal pair: N along the velocity, M = N rotated by
    +90 deg; and the speed |v| that N was scaled by."""

    N: np.ndarray
    M: np.ndarray
    speed: np.ndarray


def christoffel(metric: ConformalMetric, point) -> np.ndarray:
    """Connection components of a conformal metric, shape (..., 2, 2, 2).

    gamma[k, i, j] = f_k delta_ij - f_i delta_kj - f_j delta_ik, where f_k is
    the k-th partial of the conformal factor.  Symmetric in (i, j).
    """
    g = metric.gradient(point)[..., :, None, None]
    e = np.eye(2)
    return (g * e - np.swapaxes(g, -3, -2) * e[:, None, :]
            - np.swapaxes(g, -3, -1) * e[:, :, None])


def frame(v) -> Frame:
    """Unit vector along v and its +90 degree rotation, row by row."""
    v = _as_points(v)
    return _frame(v, _speed(v))


def _frame(v: np.ndarray, speed: np.ndarray) -> Frame:
    n = v / speed[..., None]
    return Frame(N=n, M=n[..., ::-1] * _ROTATE, speed=speed)


def projector(v) -> np.ndarray:
    """Orthogonal projector onto the line perpendicular to v: P = I - N N^T."""
    n = frame(v).N
    return np.eye(2) - n[..., :, None] * n[..., None, :]


def speed_angle(vx, vy):
    """The speed and the angle theta in (-pi, pi] of the velocity (vx, vy),
    elementwise, NumPy scalars for a single one; DegenerateVelocity where the
    speed is below V_MIN."""
    speed = checked_speed(hypot(vx, vy))
    theta = atan2(vy, vx)
    if np.count_nonzero(theta.real <= -np.pi):  # atan2(-0.0, x < 0) is -pi
        # x - 0.0 is x, -0.0 included, and the subtraction takes a jet
        theta = theta - np.where(theta.real <= -np.pi, -2.0 * np.pi, 0.0)
    return speed, theta


def polar_frame(v) -> tuple[np.ndarray, Frame]:
    """The angle theta in (-pi, pi] of each velocity (``speed_angle``) and
    ``frame(v)``, whose ``speed`` is the speed, from one speed and one
    rest-point check."""
    v = _as_points(v)
    speed, theta = speed_angle(v[..., 0], v[..., 1])
    return theta, _frame(v, speed)


class PiecewiseCubic:
    """Cubic spline through (x[i], y[i]) with not-a-knot ends, the fit of
    scipy's ``CubicSpline``: the parabola through three points, and from
    four points up the cubic whose third derivative does not jump at x[1]
    and x[-2].

    x is strictly increasing; y has shape (len(x), ...), and each trailing
    column is fitted on its own, with the same arithmetic as a fit of that
    column alone.  Outside [x[0], x[-1]] the end pieces extrapolate.
    """

    def __init__(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        n = len(x)
        if n < 3 or y.shape[0] != n:
            raise ValueError(f"need at least three knots and one value per knot, "
                             f"got x of shape {x.shape} and y of shape {y.shape}")
        self._tail = (1,) * (y.ndim - 1)
        dx = np.diff(x).reshape((n - 1,) + self._tail)
        slope = np.diff(y, axis=0) / dx
        # each piece in powers of (s - x[i]): c0 h^3 + c1 h^2 + c2 h + y[i]
        zero = np.zeros_like(slope)
        if n == 3:
            # the not-a-knot conditions coincide: the parabola through the points
            curvature = (slope[1] - slope[0]) / (dx[0] + dx[1])
            c0, c1, c2 = zero, np.stack([curvature, curvature]), slope - curvature * dx
        else:
            d = _not_a_knot_slopes(dx, slope)
            t = (d[:-1] + d[1:] - 2.0 * slope) / dx
            c0, c1, c2 = t / dx, (slope - d[:-1]) / dx - t, d[:-1]
        c3 = y[:-1]
        knot = np.broadcast_to(x[:-1].reshape(dx.shape), slope.shape)
        # [k, j]: the k-th Horner coefficient of the j-th derivative, the
        # derivatives padded to degree three; [4, j] is the piece's left knot
        self._table = np.array([[c0, zero, zero], [c1, 3.0 * c0, zero],
                                [c2, 2.0 * c1, 6.0 * c0], [c3, c2, 2.0 * c1],
                                [knot, knot, knot]])
        self._inner = x[1:-1]

    def __call__(self, s):
        """The spline at every s, shape ``np.shape(s) + y.shape[1:]``."""
        return self.jet(s)[0]

    def jet(self, s):
        """The spline and its first two derivatives at every s, from one
        lookup of the pieces and one Horner evaluation of all three."""
        s = np.asarray(s, float)
        c = self._table.take(np.searchsorted(self._inner, s, side="right"), axis=2)
        h = s.reshape(s.shape + self._tail) - c[4]
        out = ((c[0] * h + c[1]) * h + c[2]) * h + c[3]
        return out[0], out[1], out[2]


def _not_a_knot_slopes(dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """The slopes at the knots of the not-a-knot spline, from its tridiagonal
    system (that of scipy's ``CubicSpline``), solved by elimination without
    pivoting, whose pivots all stay positive (that of inner row k >= 2
    exceeds 2 dx[k-1] + dx[k])."""
    n = len(dx) + 1
    lower, diag, upper = np.zeros(n), np.empty(n), np.zeros(n)
    rhs = np.empty((n,) + slope.shape[1:])
    h = dx.reshape(-1)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    lower[1:-1], upper[1:-1] = h[1:], h[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    span, span_end = h[0] + h[1], h[-1] + h[-2]
    diag[0], upper[0] = h[1], span
    rhs[0] = ((dx[0] + 2.0 * span) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / span
    lower[-1], diag[-1] = span_end, h[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * span_end + dx[-1]) * dx[-2] * slope[-1]) / span_end
    for k in range(1, n):
        m = lower[k] / diag[k - 1]
        diag[k] -= m * upper[k - 1]
        rhs[k] -= m * rhs[k - 1]
    out = np.empty_like(rhs)
    out[-1] = rhs[-1] / diag[-1]
    for k in range(n - 2, -1, -1):
        out[k] = (rhs[k] - upper[k] * out[k + 1]) / diag[k]
    return out
