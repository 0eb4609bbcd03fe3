"""Finite-difference helpers: central stencils with optional Richardson extrapolation.

Plain central differences use h = 1e-6 * max(1, |x|), which balances
truncation against rounding for first derivatives in double precision.
Richardson variants combine two step sizes (h and h/2) and use larger base
steps; they are meant for the residual evaluators, where second derivatives
enter and plain O(h^2) stencils are not accurate enough.
"""

from __future__ import annotations

from typing import Callable

# Base steps per derivative order.  First-order Richardson tolerates a small
# step; second-order stencils need a much larger one to beat round-off.
H1_PLAIN = 1e-6
H1_RICH = 1e-5
H2_RICH = 2e-3


def _step(x: float, base: float) -> float:
    return base * max(1.0, abs(x))


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


def richardson(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """First derivative, central stencil at steps h and h/2, extrapolated to O(h^4).

    ``f`` may return an array; the derivative is then taken componentwise.
    """
    if h is None:
        h = richardson_step(x)
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def richardson2(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """Second derivative, extrapolated central stencil, O(h^4)."""
    if h is None:
        h = _step(x, H2_RICH)
    f0 = f(x)

    def d2(step: float) -> float:
        return (f(x + step) - 2.0 * f0 + f(x - step)) / (step * step)

    return (4.0 * d2(h / 2) - d2(h)) / 3.0


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

    def cross(a: float, b: float) -> float:
        return (f(x + a, y + b) - f(x + a, y - b) - f(x - a, y + b) + f(x - a, y - b)) / (4.0 * a * b)

    return (4.0 * cross(hx / 2, hy / 2) - cross(hx, hy)) / 3.0
