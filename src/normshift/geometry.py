"""Metric-aware planar primitives.

Conformally Euclidean metrics g_ij = exp(-2 f(x, y)) delta_ij, their
Christoffel symbols, the orthonormal frame (N, M) attached to a velocity
vector, the orthogonal projector onto the normal line, and polar velocity
coordinates referenced to the fixed direction m = (1, 0).

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


def _as_vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ConformalMetric:
    """Conformal factor f(x, y) of the metric g = exp(-2f) * identity.

    ``grad_f`` returns (df/dx, df/dy); if omitted, central differences of
    ``f`` are used.
    """

    f: Callable[[float, float], float]
    grad_f: Callable[[float, float], tuple[float, float]] | None = None

    def value(self, point) -> float:
        x, y = _as_vec(point)
        return float(self.f(x, y))

    def gradient(self, point) -> np.ndarray:
        x, y = _as_vec(point)
        if self.grad_f is not None:
            gx, gy = self.grad_f(x, y)
            return np.array([gx, gy], dtype=float)
        fx = numdiff.central(lambda t: self.f(t, y), x)
        fy = numdiff.central(lambda t: self.f(x, t), y)
        return np.array([fx, fy])

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
    """Connection components of a conformal metric, shape (2, 2, 2).

    gamma[k, i, j] = f_k delta_ij - f_i delta_kj - f_j delta_ik, where f_k is
    the k-th partial of the conformal factor.  Symmetric in (i, j).
    """
    g = metric.gradient(point)
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                gamma[k, i, j] = g[k] * (i == j) - g[i] * (k == j) - g[j] * (i == k)
    return gamma


def frame(v) -> Frame:
    """Unit vector along v and its +90 degree rotation."""
    v = _as_vec(v)
    speed = float(np.hypot(v[0], v[1]))
    if speed < V_MIN:
        raise DegenerateVelocity(f"speed {speed:.3e} below v_min={V_MIN:.0e}")
    n = v / speed
    m = np.array([-n[1], n[0]])
    return Frame(N=n, M=m)


def projector(v) -> np.ndarray:
    """Orthogonal projector onto the line perpendicular to v: P = I - N N^T."""
    fr = frame(v)
    return np.eye(2) - np.outer(fr.N, fr.N)


def polar_from_cartesian(v) -> PolarVelocity:
    v = _as_vec(v)
    speed = float(np.hypot(v[0], v[1]))
    if speed < V_MIN:
        raise DegenerateVelocity(f"speed {speed:.3e} below v_min={V_MIN:.0e}")
    theta = math.atan2(v[1], v[0])
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    return PolarVelocity(v=speed, theta=theta)


def cartesian_from_polar(p: PolarVelocity) -> np.ndarray:
    return np.array([p.v * math.cos(p.theta), p.v * math.sin(p.theta)])


def conformal_speed(metric: ConformalMetric, point, v) -> float:
    """Length of v in the metric: exp(-f) times the Euclidean length."""
    v = _as_vec(v)
    return math.exp(-metric.value(point)) * float(np.hypot(v[0], v[1]))
