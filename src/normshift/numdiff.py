"""Derivatives: a complex step wherever the function is complex-safe, and
central stencils with optional Richardson extrapolation for the rest.

``complex_step`` evaluates f once at x + i h d: the real part is f(x), the
imaginary part over h the derivative along d, with nothing subtracted and
no step to balance (Squire & Trapp 1998; Martins, Sturdza & Alonso 2003).
It gives the first derivatives of a force, a Profile's derivative and the
partials of the reduced residual.  A stencil at x steps
h = base * max(1, |Re x|), each base set against truncation and rounding as
the "Base steps" comment below sets out; the Richardson variants combine
steps h and h/2.  The steps are this module's decision: no stencil takes
one as an argument.  Stencils take what a complex step cannot: a
generator's A_theta without a closure, which the force evaluates at complex
points, a metric's gradient without a closure, and the Wirtinger
derivatives of the complex formulation.  Each calls f once, with its points
stacked on a new leading axis; ``partial`` applies one to some of f's
arguments and holds the others.  x (and y) may be numbers or arrays of one
shape, so f must work elementwise; it returns its values stacked the same
way and may add trailing axes, which the derivative keeps.  A scalar x
gives a scalar.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Base steps, one per use.
# - H_COMPLEX, ``complex_step``: its square underflows, so no second-order
#   term reaches the real part, while h |d| |F'| stays a normal number.
# - H1_PLAIN, ``central``: truncation h^2 |f'''| / 6 against rounding
#   eps |f| / h; 1e-6 lies below their balance, (3 eps)^(1/3) = 9e-6 where
#   |f'''| is about |f|.
# - H1_RICH, ``richardson``: a generator's A_theta without a closure, the
#   complex formulation's first derivatives.  1e-5 lies far below its balance
#   (eps^(1/5) = 7.4e-4), so that few probes put a stencil point across a
#   generator's cut, such as ``angular_monomial``'s at theta = +-pi; its
#   rounding, about 3 eps |f| / h = 7e-11 |f|, floors those residuals.
# - H2_RICH, the second-derivative stencils: truncation h^4 against
#   rounding eps / h^2, balanced near eps^(1/6) = 2.5e-3.
H_COMPLEX = 1e-200
H1_PLAIN = 1e-6
H1_RICH = 1e-5
H2_RICH = 2e-3


def floats(x) -> np.ndarray:
    """x as an array, float64 unless it holds floats or complex numbers: the
    cast of a complex-safe evaluator, where np.asarray(x, float) is not."""
    x = np.asarray(x)
    return x if x.dtype.kind in "fc" else x.astype(float)


def complex_step(f: Callable, x: tuple, d: tuple):
    """f(*x) and its derivative along d (one array per argument of f each),
    the real part and the imaginary part over h of f at x + i h d."""
    values = f(*(a + (1j * H_COMPLEX) * b for a, b in zip(x, d)))
    return values.real, values.imag / H_COMPLEX


def _at(x, base: float):
    """x as ``floats``, and the step at x, ``base`` scaled by its real part,
    as an array of x's shape."""
    x = floats(x)
    return np.broadcast_arrays(x, base * np.maximum(1.0, np.abs(x.real)))


def central(f: Callable, x):
    """First derivative by the two-point central stencil, O(h^2)."""
    x, h = _at(x, H1_PLAIN)
    values = np.asarray(f(np.stack([x + h, x - h])))
    return (values[0] - values[1]) / (2.0 * _trailing(h, values))


# x + h * (1, -1, 1/2, -1/2) is x + h, x - h, x + h/2, x - h/2 exactly
_FIRST_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])


def richardson(f: Callable, x):
    """First derivative, central stencil at steps h and h/2, extrapolated to O(h^4)."""
    x, h = _at(x, H1_RICH)
    values = np.asarray(f(x + _FIRST_OFFSETS.reshape((4,) + (1,) * h.ndim) * h))
    return _first(_trailing(h, values), *values)


def richardson2(f: Callable, x):
    """Second derivative, extrapolated central stencil, O(h^4)."""
    x, h = _at(x, H2_RICH)
    values = np.asarray(f(np.stack([x, x + h, x - h, x + h / 2, x - h / 2])))
    return _second(_trailing(h, values), *values)


def richardson_mixed(f: Callable, x, y):
    """Mixed second derivative d^2 f / dx dy, extrapolated cross stencil."""
    x, hx, y, hy = np.broadcast_arrays(*_at(x, H2_RICH), *_at(y, H2_RICH))
    values = np.asarray(f(*(np.stack(c) for c in _cross_points(x, y, hx, hy))))
    return _mixed(_trailing(hx, values), _trailing(hy, values), values)


def partial(stencil: Callable, f: Callable, args: tuple, *moved: int):
    """``stencil`` of f(*args) in the arguments at the indices ``moved`` (two
    for ``richardson_mixed``, else one), in one call of f.  The stencil's
    points replace the moved arguments; each held one is passed as a view of
    its values broadcast to the points' shape, so f still gets arrays of one
    shape and no held value is copied.  ``args`` are numbers or arrays that
    broadcast together.
    """
    args = np.broadcast_arrays(*(floats(a) for a in args))

    def at(*points):
        full = [np.broadcast_to(a, points[0].shape) for a in args]
        for j, t in zip(moved, points):
            full[j] = t
        return f(*full)

    return stencil(at, *(args[j] for j in moved))


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
