"""Metric-aware planar primitives.

Conformally Euclidean metrics g_ij = exp(-2 f(x, y)) delta_ij, their
Christoffel symbols, the orthonormal frame (N, M) attached to a velocity
vector, the orthogonal projector onto the normal line, and polar velocity
coordinates referenced to the fixed direction m = (1, 0).

Points and vectors are arrays whose last axis holds the two components; any
leading axes stack independent points, and every function works row by row
on them.  A single point is the (2,) case of the same code.

All operations are pure functions; evaluators carry no mutable state and may
be called concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateVelocity
from . import numdiff

# Frames are undefined at rest points; speeds below this are rejected.
V_MIN = 1e-9

# M = (-N_y, N_x) is N reversed and multiplied by this.
_ROTATE = np.array([-1.0, 1.0])


def _as_points(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError(f"expected 2-vectors along the last axis, got shape {a.shape}")
    return a


def dot(a, b):
    """Planar dot product over the last axis, row by row."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def elementwise(value, *args):
    """``value`` as floats of the broadcast shape of ``args``.

    A closure that returns one constant for stacked arguments still gives one
    value per point; for scalar arguments the result is a NumPy scalar.
    """
    out = np.asarray(value, dtype=float)
    for a in args:
        if (a.shape if isinstance(a, np.ndarray | np.generic) else np.shape(a)) != out.shape:
            return np.full(np.broadcast(*args).shape, out)[()]
    return out[()]


def _speed(v: np.ndarray) -> np.ndarray:
    speed = np.hypot(v[..., 0], v[..., 1])
    low = speed < V_MIN
    if np.count_nonzero(low):
        raise DegenerateVelocity(f"speed {np.min(speed[low]):.3e} below v_min={V_MIN:.0e}")
    return speed


@dataclass(frozen=True)
class ConformalMetric:
    """Conformal factor f(x, y) of the metric g = exp(-2f) * identity.

    ``grad_f`` returns (df/dx, df/dy); if omitted, central differences of
    ``f`` are used.
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
        out = np.empty(p.shape)
        out[..., 0], out[..., 1] = self.partials(p[..., 0], p[..., 1])
        return out

    def partials(self, x, y):
        """df/dx and df/dy at coordinates x, y (arrays of one shape, or numbers)."""
        if self.grad_f is not None:
            return self.grad_f(x, y)
        return (numdiff.central(lambda t: self.f(t, y), x),
                numdiff.central(lambda t: self.f(x, t), y))

    @staticmethod
    def euclidean() -> "ConformalMetric":
        return ConformalMetric(f=lambda x, y: 0.0, grad_f=lambda x, y: (0.0, 0.0))

    @staticmethod
    def constant(c: float) -> "ConformalMetric":
        return ConformalMetric(f=lambda x, y: c, grad_f=lambda x, y: (0.0, 0.0))


@dataclass(frozen=True)
class Frame:
    """Right-oriented orthonormal pair: N along the velocity, M = N rotated by +90 deg."""

    N: np.ndarray
    M: np.ndarray


@dataclass(frozen=True)
class PolarVelocity:
    """Velocity in polar form: speed v > 0 and angle theta in (-pi, pi]."""

    v: float
    theta: float


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
    return Frame(N=n, M=n[..., ::-1] * _ROTATE)


def projector(v) -> np.ndarray:
    """Orthogonal projector onto the line perpendicular to v: P = I - N N^T."""
    n = frame(v).N
    return np.eye(2) - n[..., :, None] * n[..., None, :]


def polar_from_cartesian(v) -> PolarVelocity:
    """Speed and angle of each velocity; NumPy scalars for a single one."""
    return polar_frame(v)[0]


def polar_frame(v) -> tuple[PolarVelocity, Frame]:
    """``polar_from_cartesian(v)`` and ``frame(v)`` from one speed and one
    rest-point check."""
    v = _as_points(v)
    speed = _speed(v)
    theta = np.arctan2(v[..., 1], v[..., 0])
    if np.count_nonzero(theta <= -np.pi):  # atan2(-0.0, x < 0) is -pi
        theta = np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)[()]
    return PolarVelocity(v=speed, theta=theta), _frame(v, speed)


def cartesian_from_polar(p: PolarVelocity) -> np.ndarray:
    return np.array([p.v * math.cos(p.theta), p.v * math.sin(p.theta)])


def conformal_speed(metric: ConformalMetric, point, v) -> float:
    """Length of v in the metric: exp(-f) times the Euclidean length."""
    v = _as_points(v)
    return np.exp(-metric.value(point)) * np.hypot(v[..., 0], v[..., 1])
