"""Finite-difference helpers: central stencils with optional Richardson extrapolation.

Plain central differences use h = 1e-6 * max(1, |x|), which balances
truncation against rounding for first derivatives in double precision.
Richardson variants combine two step sizes (h and h/2) and use larger base
steps; they are meant for the residual evaluators, where second derivatives
enter and plain O(h^2) stencils are not accurate enough.
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


def central(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """First derivative by the two-point central stencil, O(h^2)."""
    if h is None:
        h = central_step(x)
    return (f(x + h) - f(x - h)) / (2.0 * h)


_FIRST_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])

# Each Richardson stencil below comes in two forms with the same points and
# the same arithmetic.  The plain form calls f at one point at a time.  The
# ``_stacked`` form calls f once, with the stencil's points stacked on a new
# leading axis (x and the steps may be arrays of one shape), for functions
# that work elementwise; f returns its values stacked the same way and may
# add trailing axes, which the derivative keeps.


def richardson(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """First derivative, central stencil at steps h and h/2, extrapolated to O(h^4).

    ``f`` may return an array; the derivative is then taken componentwise.
    """
    if h is None:
        h = richardson_step(x)
    return _first(h, f(x + h), f(x - h), f(x + h / 2), f(x - h / 2))


def richardson_stacked(f, x, h=None):
    """``richardson`` with one call of f on its four points."""
    x = np.asarray(x, float)
    h = richardson_step(x) if h is None else np.asarray(h, float)
    # x + h * (1, -1, 1/2, -1/2) is x + h, x - h, x + h/2, x - h/2 exactly
    values = np.asarray(f(x + _FIRST_OFFSETS.reshape((4,) + (1,) * h.ndim) * h))
    return _first(_trailing(h, values), *values)


def richardson2(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """Second derivative, extrapolated central stencil, O(h^4)."""
    if h is None:
        h = _step(x, H2_RICH)
    return _second(h, f(x), f(x + h), f(x - h), f(x + h / 2), f(x - h / 2))


def richardson2_stacked(f, x, h=None):
    """``richardson2`` with one call of f on its five points."""
    x = np.asarray(x, float)
    h = _step(x, H2_RICH) if h is None else np.asarray(h, float)
    values = np.asarray(f(np.stack([x, x + h, x - h, x + h / 2, x - h / 2])))
    return _second(_trailing(h, values), *values)


def richardson_mixed(
    f: Callable[[float, float], float],
    x: float,
    y: float,
    hx: float | None = None,
    hy: float | None = None,
) -> float:
    """Mixed second derivative d^2 f / dx dy, extrapolated cross stencil."""
    if hx is None:
        hx = _step(x, H2_RICH)
    if hy is None:
        hy = _step(y, H2_RICH)
    return _mixed(hx, hy, [f(t, u) for t, u in zip(*_cross_points(x, y, hx, hy))])


def richardson_mixed_stacked(f, x, y, hx=None, hy=None):
    """``richardson_mixed`` with one call of f on its eight points."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    hx = _step(x, H2_RICH) if hx is None else np.asarray(hx, float)
    hy = _step(y, H2_RICH) if hy is None else np.asarray(hy, float)
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
