"""Finite-difference helpers: central stencils with optional Richardson extrapolation.

A stencil at x steps h = base * max(1, |x|).  Each base is set against the
stencil's two errors, truncation and the rounding of f's values (relative
size eps = 2.2e-16), as the "Base steps" comment below sets out.
Richardson variants combine two step sizes (h and h/2) and cancel the
leading truncation term; they serve the residual evaluators, where second
derivatives enter and plain O(h^2) stencils are not accurate enough, and
the variational right side, whose rounding the integrator would see.

Each stencil calls f once, with its points stacked on a new leading axis.
x (and y, and the steps) may be numbers or arrays of one shape, so f must
work elementwise; it returns its values stacked the same way and may add
trailing axes, which the derivative keeps.  A scalar x gives a scalar.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Base steps, one per use.
# - H1_PLAIN, ``central``: truncation h^2 |f'''| / 6 against rounding
#   eps |f| / h; 1e-6 lies below their balance, (3 eps)^(1/3) = 9e-6 where
#   |f'''| is about |f|.
# - H1_RICH, ``richardson``: the residual stencils (finite-difference
#   Jacobians, generator partials, a Profile's nu').  1e-5 lies far below
#   the balance of H1_DIRECTIONAL, so that few probes put a stencil point
#   across a generator's cut, such as ``angular_monomial``'s at
#   theta = +-pi; its rounding, about 3 eps |f| / h = 7e-11 |f|, is the
#   floor of the residuals.
# - H1_DIRECTIONAL, ``directional_step``: the same Richardson stencil
#   along a unit direction, on the variational right side.  It
#   extrapolates central differences at h and h/2, so its truncation is
#   h^4 |f^(5)| / 480, and the rounding of its four values, weighted
#   4 / (3h) at +-h/2 and 1 / (6h) at +-h, is at most 3 eps |f| / h.  Their
#   sum is least at h = (360 eps |f| / |f^(5)|)^(1/5): eps^(1/5) = 7.4e-4
#   up to the constants, 2.4e-3 where |f^(5)| is about |f|.  1e-3 is where
#   it is least for |f^(5)| = 80 |f|, a field that varies on a scale of 0.4
#   in phase space, and leaves about 7e-13 |f| of rounding.
# - H2_RICH, the second-derivative stencils: truncation h^4 against
#   rounding eps / h^2, balanced near eps^(1/6) = 2.5e-3.
H1_PLAIN = 1e-6
H1_RICH = 1e-5
H1_DIRECTIONAL = 1e-3
H2_RICH = 2e-3


def _step(x, base: float):
    """The step at x, elementwise when x is an array."""
    return base * np.maximum(1.0, np.abs(x))


def directional_step(x: float) -> float:
    """The step of a Richardson derivative along a unit direction at a point
    of norm x: H1_DIRECTIONAL max(1, x), elementwise."""
    return _step(x, H1_DIRECTIONAL)


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


def per_component(stencil: Callable, f: Callable, x):
    """``stencil`` of f along each component of the last axis of x, all in
    one call of f: element [..., i] of the result (with f's trailing axes
    after it) is the derivative by component i at the point x[...].

    f takes points shaped (stencil points,) + x.shape + (n,), n the last
    axis of x, where [k, ..., i, :] is the k-th point of the stencil along
    component i; it returns one value per point, shaped as the points less
    their last axis, and may add trailing axes.
    """
    x = np.asarray(x, float)
    moved = np.eye(x.shape[-1], dtype=bool)  # [i, c]: point i moves component c
    return stencil(lambda t: f(np.where(moved, t[..., :, None], x[..., None, :])), x)


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
