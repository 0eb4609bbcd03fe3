"""Finite-difference helpers: central stencils with optional Richardson extrapolation.

Plain central differences use h = 1e-6 * max(1, |x|), which balances
truncation against rounding for first derivatives in double precision.
Richardson variants combine two step sizes (h and h/2) and use larger base
steps; they are meant for the residual evaluators, where second derivatives
enter and plain O(h^2) stencils are not accurate enough.

Each stencil calls f once, with its points stacked on a new leading axis.
x (and y, and the steps) may be numbers or arrays of one shape, so f must
work elementwise; it returns its values stacked the same way and may add
trailing axes, which the derivative keeps.  A scalar x gives a scalar.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Base steps per derivative order.  First-order Richardson tolerates a small
# step; second-order stencils need a much larger one to beat round-off.
H1_PLAIN = 1e-6
H1_RICH = 1e-5
H2_RICH = 2e-3


def _step(x, base: float):
    """The step at x, elementwise when x is an array."""
    return base * np.maximum(1.0, np.abs(x))


def central_step(x: float) -> float:
    """The step ``central`` takes at x when none is given."""
    return _step(x, H1_PLAIN)


def richardson_step(x: float) -> float:
    """The step ``richardson`` takes at x when none is given."""
    return _step(x, H1_RICH)


def _at(x, h, base: float):
    """x and its step (``base`` scaled when h is None), as float arrays of
    one shape."""
    x = np.asarray(x, float)
    return np.broadcast_arrays(x, _step(x, base) if h is None else np.asarray(h, float))


def central(f: Callable, x, h=None):
    """First derivative by the two-point central stencil, O(h^2)."""
    x, h = _at(x, h, H1_PLAIN)
    values = np.asarray(f(np.stack([x + h, x - h])))
    return (values[0] - values[1]) / (2.0 * _trailing(h, values))


_FIRST_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])


def richardson(f: Callable, x, h=None):
    """First derivative, central stencil at steps h and h/2, extrapolated to O(h^4)."""
    x, h = _at(x, h, H1_RICH)
    return richardson_extrapolated(h, f(richardson_points(x, h)))


def richardson_points(x, h: np.ndarray) -> np.ndarray:
    """The four points of ``richardson``'s stencil at x with steps h, stacked
    on a new leading axis, for a caller that evaluates them together with
    points of its own."""
    # x + h * (1, -1, 1/2, -1/2) is x + h, x - h, x + h/2, x - h/2 exactly
    return x + _FIRST_OFFSETS.reshape((4,) + (1,) * h.ndim) * h


def richardson_extrapolated(h: np.ndarray, values) -> np.ndarray:
    """The first derivative from the values of f at ``richardson_points(x, h)``,
    stacked as the points are; trailing axes that f added are kept."""
    values = np.asarray(values)
    return _first(_trailing(h, values), *values)


def richardson2(f: Callable, x, h=None):
    """Second derivative, extrapolated central stencil, O(h^4)."""
    x, h = _at(x, h, H2_RICH)
    values = np.asarray(f(np.stack([x, x + h, x - h, x + h / 2, x - h / 2])))
    return _second(_trailing(h, values), *values)


def richardson_mixed(f: Callable, x, y, hx=None, hy=None):
    """Mixed second derivative d^2 f / dx dy, extrapolated cross stencil."""
    x, hx, y, hy = np.broadcast_arrays(*_at(x, hx, H2_RICH), *_at(y, hy, H2_RICH))
    values = np.asarray(f(*(np.stack(c) for c in _cross_points(x, y, hx, hy))))
    return _mixed(_trailing(hx, values), _trailing(hy, values), values)


def _trailing(h: np.ndarray, values: np.ndarray) -> np.ndarray:
    """h with an axis appended for each trailing axis f added to its values."""
    extra = values.ndim - 1 - h.ndim
    return h.reshape(h.shape + (1,) * extra) if extra else h


def _first(h, fp, fm, fhp, fhm):
    """Central differences at steps h and h/2, extrapolated."""
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fhp - fhm) / h
    return (4.0 * d2 - d1) / 3.0


def _second(h, f0, fp, fm, fhp, fhm):
    """Second differences at steps h/2 and h, extrapolated."""
    half = h / 2
    d2_half = (fhp - 2.0 * f0 + fhm) / (half * half)
    d2_full = (fp - 2.0 * f0 + fm) / (h * h)
    return (4.0 * d2_half - d2_full) / 3.0


def _cross_points(x, y, hx, hy):
    """The cross stencil's x and y coordinates: at half steps, then full steps."""
    xs, ys = [], []
    for a, b in ((hx / 2, hy / 2), (hx, hy)):
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            xs.append(x + a if sa > 0 else x - a)
            ys.append(y + b if sb > 0 else y - b)
    return xs, ys


def _mixed(hx, hy, values):
    """Cross differences at half and full steps, extrapolated."""
    def cross(a, b, pp, pm, mp, mm):
        return (pp - pm - mp + mm) / (4.0 * a * b)

    return (4.0 * cross(hx / 2, hy / 2, *values[:4]) - cross(hx, hy, *values[4:])) / 3.0
