"""Derivatives exact to rounding: a complex step, and a hyper-dual jet for
what a complex step cannot take.

``complex_step`` evaluates f once at x + i h d: the real part is f(x), the
imaginary part over h the derivative along d, with nothing subtracted and
no step to balance (Squire & Trapp 1998; Martins, Sturdza & Alonso 2003).
It gives the first derivatives of a force, a Profile's derivative and the
partials of the reduced residual.

``jet`` evaluates f once at the hyper-dual point x + e1 d1 + e2 d2, with
e1^2 = e2^2 = 0 (Fike & Alonso 2011): its four parts are f(x), the
derivatives along d1 and along d2, and the second derivative along both,
again with nothing subtracted.  It takes what a complex step cannot: a
generator's A_theta without a closure and a metric's gradient without a
closure, which a force evaluates at complex points (so a jet's parts may be
complex); the complex formulation's operators, which are complex directions
and keep it independent of the complex step; and the second partials of
the two (v, theta) residuals.  f must work elementwise and reach its
arguments only through NumPy's arithmetic operators and the ufuncs that
``Jet`` implements; domain tests read ``.real``.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

# The step of ``complex_step``: its square underflows, so no second-order
# term reaches the real part, while h |d| |F'| stays a normal number.
H_COMPLEX = 1e-200


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


def jet(f: Callable, x: tuple, d1: tuple, d2: tuple) -> tuple:
    """f(*x), its derivatives along d1 and along d2, and its second
    derivative along d1 and d2 (one array or number per argument of f each),
    the four parts of f at x + e1 d1 + e2 d2, from one call of f.  A
    direction may differ from point to point and may be complex: a complex
    direction is a complex combination of real ones, and each part is that
    combination of their derivatives.  An argument that neither moves is
    passed as it is.  Each part has the shape of f(*x), a scalar for a
    scalar; where f returns a plain value, its derivatives are zero."""
    parts = _parts(f(*(Jet(a, b, c, 0.0) if np.any(b) or np.any(c) else a
                       for a, b, c in zip(x, d1, d2))))
    shape = np.shape(parts[0])
    # parts that are jets themselves, where x holds jets, keep their shape
    return tuple(p if isinstance(p, Jet) else np.broadcast_to(p, shape)[()] for p in parts)


def _complex(x, y) -> bool:
    return getattr(x, "dtype", None) == complex or getattr(y, "dtype", None) == complex


def hypot(x, y):
    """np.hypot(x, y) for real x and y; sqrt(x^2 + y^2) where either is
    complex, which np.hypot rejects."""
    if _complex(x, y):
        return np.sqrt(x * x + y * y)
    return np.hypot(x, y)


def atan2(y, x):
    """np.arctan2(y, x) for real x and y.  Where either is complex, that of
    the real parts, with its first-order change (x Im y - y Im x) / |x + iy|^2
    as the imaginary part."""
    if _complex(x, y):
        xr, yr = x.real, y.real
        return np.arctan2(yr, xr) + 1j * ((xr * y.imag - yr * x.imag) / (xr * xr + yr * yr))
    return np.arctan2(y, x)


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """The hyper-dual number a + b e1 + c e2 + d e1 e2, e1^2 = e2^2 = 0,
    elementwise: its parts are numbers or real or complex arrays that
    broadcast to the shape of ``a``.  NumPy's arithmetic operators and the
    ufuncs of ``_RULES`` act on it, each part exact to rounding, and ``a``
    is the value a plain evaluation gives.  Any other ufunc, a comparison
    among them, raises TypeError: a domain test reads ``.real``."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def shape(self) -> tuple:
        return np.shape(self.a)

    @property
    def real(self):
        """The real part of the value."""
        return self.a.real

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _RULES.get(ufunc)
        if rule is None or method != "__call__" or kwargs:
            raise TypeError(f"np.{ufunc.__name__} ({method}) is not defined on a jet; "
                            f"a jet takes {', '.join(f'np.{u.__name__}' for u in _RULES)}")
        return rule(*inputs)


def _parts(x) -> tuple:
    """The four parts of a jet, or of a plain operand as a constant jet."""
    return (x.a, x.b, x.c, x.d) if isinstance(x, Jet) else (x, 0.0, 0.0, 0.0)


# In the binary rules (a, b, c, d) are the parts of x, (p, q, r, s) those of y.

def _multiply(x, y):
    if not isinstance(x, Jet):  # a plain factor scales each part
        return Jet(x * y.a, x * y.b, x * y.c, x * y.d)
    if not isinstance(y, Jet):
        return Jet(x.a * y, x.b * y, x.c * y, x.d * y)
    (a, b, c, d), (p, q, r, s) = _parts(x), _parts(y)
    return Jet(a * p, a * q + b * p, a * r + c * p, a * s + b * r + c * q + d * p)


def _divide(x, y):
    (a, b, c, d), (p, q, r, s) = _parts(x), _parts(y)
    v = a / p
    e, f = (b - v * q) / p, (c - v * r) / p
    return Jet(v, e, f, (d - v * s - e * r - f * q) / p)


def _hypot(x, y):
    (a, b, c, d), (p, q, r, s) = _parts(x), _parts(y)
    h = hypot(a, p)
    e, f = (a * b + p * q) / h, (a * c + p * r) / h
    return Jet(h, e, f, (a * d + b * c + p * s + q * r - e * f) / h)


def _arctan2(y, x):
    (a, b, c, d), (p, q, r, s) = _parts(x), _parts(y)
    n = a * a + p * p
    e, f = (a * q - p * b) / n, (a * r - p * c) / n
    return Jet(atan2(p, a), e, f, (a * s - p * d + c * q - r * b - 2.0 * e * (a * c + p * r)) / n)


def _chain(x: Jet, f0, f1, f2) -> Jet:
    """f(x) from f, f' and f'' at x.a."""
    return Jet(f0, f1 * x.b, f1 * x.c, f1 * x.d + f2 * x.b * x.c)


def _power(x, p):
    if isinstance(p, Jet):
        raise TypeError("np.power is defined on a jet only for a plain exponent")
    return _chain(x, np.power(x.a, p), p * np.power(x.a, p - 1),
                  p * (p - 1) * np.power(x.a, p - 2))


def _sqrt(x):
    root = np.sqrt(x.a)
    half = 0.5 / root
    return _chain(x, root, half, -0.5 * half / x.a)


def _sin(x):
    sin, cos = np.sin(x.a), np.cos(x.a)
    return _chain(x, sin, cos, -sin)


def _cos(x):
    cos, sin = np.cos(x.a), np.sin(x.a)
    return _chain(x, cos, -sin, -cos)


def _exp(x):
    e = np.exp(x.a)
    return _chain(x, e, e, e)


_RULES = {np.add: lambda x, y: Jet(*map(operator.add, _parts(x), _parts(y))),
          np.subtract: lambda x, y: Jet(*map(operator.sub, _parts(x), _parts(y))),
          np.negative: lambda x: Jet(-x.a, -x.b, -x.c, -x.d),
          np.multiply: _multiply, np.divide: _divide, np.power: _power, np.sqrt: _sqrt,
          np.sin: _sin, np.cos: _cos, np.exp: _exp, np.hypot: _hypot, np.arctan2: _arctan2}

# Never called; perfbench/tracing.py patches these names.
central = richardson = richardson2 = richardson_mixed = None
