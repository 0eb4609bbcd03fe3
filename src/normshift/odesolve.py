"""Generic ODE stepping: embedded Dormand-Prince 5(4), fixed-step RK4, and
Chebyshev–Picard steps.

Dormand-Prince and RK4 march through an optional sorted list of stop times so
that the solution is exact (to integrator accuracy) at requested output
nodes; between accepted steps a cubic Hermite interpolant provides dense
output.  Time may run backward (t1 < t0).  ``solve_chebyshev`` steps forward
only; it evaluates the right side at all nodes of a step in one call, and
its dense output is each step's interpolant on those nodes.

The state may be stacked, shape (..., d): independent systems advanced
together on shared steps.  The adaptive error norm is the RMS over the last
axis, then the maximum over the leading ones, so every accepted step passes
each row's own test; for a 1-D state it is the plain RMS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepFailure

# Dormand-Prince 5(4) tableau (Hairer, Norsett, Wanner).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Steps below this times max(1, |t|) are an underflow; a stop that would
# force a shorter step is dropped.
_MIN_STEP = 1e-14
# Every solver fails after this many attempted steps.
_MAX_ATTEMPTS = 2_000_000


@dataclass
class OdeSolution:
    """Accepted nodes (ts, ys) plus derivatives (fs) for Hermite dense output.

    ys and fs have shape (len(ts),) + the state's shape.
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def sample(self, ts) -> np.ndarray:
        """Dense output at every time in ``ts``, shape (len(ts),) + state shape."""
        t = np.asarray(ts, float)
        nodes = self.ts
        lo, hi = sorted((nodes[0], nodes[-1]))
        outside = ~((lo - 1e-12 <= t) & (t <= hi + 1e-12))
        if np.any(outside):
            raise ValueError(f"t={t[outside][0]} outside the integrated interval [{lo}, {hi}]")
        if len(nodes) == 1:
            return np.repeat(self.ys, len(t), axis=0)
        ascending = nodes[-1] >= nodes[0]
        k = np.searchsorted(nodes if ascending else nodes[::-1], t, side="right") - 1
        k = np.clip(k, 0, len(nodes) - 2)
        if not ascending:
            k = len(nodes) - 2 - k
        ta, h = nodes[k], nodes[k + 1] - nodes[k]
        # one time per row, broadcast over the state's axes
        expand = (slice(None),) + (None,) * (self.ys.ndim - 1)
        s = ((t - ta) / np.where(h == 0, 1.0, h))[expand]
        h = h[expand]
        # float_power is C pow, as ** on a scalar is; ** 2 on an array squares
        h00 = (1 + 2 * s) * np.float_power(1 - s, 2.0)
        h10 = s * np.float_power(1 - s, 2.0)
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (h00 * self.ys[k] + h10 * h * self.fs[k]
               + h01 * self.ys[k + 1] + h11 * h * self.fs[k + 1])
        repeated = h.ravel() == 0  # a zero-length step returns its first node
        out[repeated] = self.ys[k[repeated]]
        return out


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                abs_tol: float, rel_tol: float, width: int) -> float:
    """RMS of the scaled error over rows of ``width`` components, the worst row."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    rows = (err / scale).reshape(-1, width)
    return float(np.max(np.sqrt(np.mean(rows ** 2, axis=-1))))


def nonfinite_rows(y: np.ndarray) -> list[int]:
    """Rows of a stacked state (..., d), counted over its leading axes, that
    have a non-finite component; none for a 1-D state."""
    if y.ndim < 2:
        return []
    return np.flatnonzero(~np.all(np.isfinite(y), axis=-1).ravel()).tolist()


def _stops(t: float, t1: float, t_stops, direction: float) -> list[float]:
    """The requested stops strictly inside (t, t1) in marching order, then t1;
    none for a zero span.  A stop that would force a nonzero step below the
    underflow threshold, after the stop before it (or t) or before t1, is
    dropped; a repeated stop is kept."""
    stops = []
    if t1 != t:
        last = t
        for s in sorted((float(s) for s in (t_stops if t_stops is not None else ())
                         if (s - t) * direction > 0 and (t1 - s) * direction > 0),
                        key=lambda s: s * direction):
            if s == last or ((s - last) * direction >= _MIN_STEP * max(1.0, abs(last))
                             and (t1 - s) * direction >= _MIN_STEP * max(1.0, abs(s))):
                stops.append(s)
                last = s
        stops.append(t1)
    return stops


def _start(rhs, t0: float, y0, t1: float, t_stops):
    """Initial node, marching direction and stop list shared by both steppers.

    The steppers work on the state flattened to one axis.  Returns (shape,
    flat_rhs, [t0], [y0], [rhs(t0, y0)], direction, stops): the state's shape,
    the right side on flat states, and the ``_stops`` of the span; a repeated
    stop is a zero-length step for RK4 and no step for Dormand-Prince.
    """
    y = np.array(y0, dtype=float)
    shape = y.shape
    y = y.ravel()

    def flat_rhs(t, y):
        return np.asarray(rhs(t, y.reshape(shape)), float).ravel()

    t = float(t0)
    f = flat_rhs(t, y)
    direction = 1.0 if float(t1) > t else -1.0
    return shape, flat_rhs, [t], [y], [f], direction, _stops(t, float(t1), t_stops, direction)


def _solution(ts, ys, fs, shape) -> OdeSolution:
    return OdeSolution(np.array(ts), np.array(ys).reshape((-1,) + shape),
                       np.array(fs).reshape((-1,) + shape))


def solve_dopri(rhs: Callable[[float, np.ndarray], np.ndarray],
                t0: float, y0, t1: float, *,
                abs_tol: float = 1e-10, rel_tol: float = 1e-10,
                t_stops=None) -> OdeSolution:
    """Adaptive 5(4) integration from t0 to t1 (either direction).

    Every stop is an accepted node: a step clipped to reach one ends on it
    exactly.  A StepFailure carries the accepted prefix as its ``solution``;
    one from a step-size underflow also names the rows of a stacked state
    that made the last attempted step non-finite, if any did.
    """
    shape, rhs, ts, ys, fs, direction, stops = _start(rhs, t0, y0, t1, t_stops)
    t, y, f = ts[0], ys[0], fs[0]
    span = abs(float(t1) - t)
    h = span / 100.0
    k = np.zeros((7, y.size))
    width = shape[-1] if shape else 1

    attempts = 0
    bad_rows: list[int] = []
    for target in stops:
        while (target - t) * direction > 0:
            if attempts >= _MAX_ATTEMPTS:
                raise StepFailure(f"exceeded {_MAX_ATTEMPTS} step attempts at t={t:.6g}",
                                  solution=_solution(ts, ys, fs, shape))
            attempts += 1

            remaining, tiny = abs(target - t), _MIN_STEP * max(1.0, abs(t))
            proposed = h
            if h > remaining - tiny:
                h = remaining  # end on the stop rather than leave a sliver before it
            if h < tiny:
                raise StepFailure(f"step size underflow at t={t:.6g}", rows=bad_rows,
                                  solution=_solution(ts, ys, fs, shape))
            hs = direction * h

            k[0] = f
            for i in range(1, 7):
                yi = y + hs * (_A[i][:i] @ k[:i])
                k[i] = rhs(t + _C[i] * hs, yi)
            y_new = y + hs * (_B5 @ k)
            err = hs * (_E @ k)
            norm = (_error_norm(err, y, y_new, abs_tol, rel_tol, width)
                    if np.all(np.isfinite(y_new)) else math.inf)
            if not math.isfinite(norm):  # the last stage enters only the error
                bad_rows = nonfinite_rows((y_new + err).reshape(shape))
                h *= 0.25
                continue

            if norm <= 1.0:
                bad_rows = []
                t_new = target if h == remaining else t + hs
                f_new = k[6].copy()  # FSAL: last stage is rhs at (t_new, y_new)
                t, y, f = t_new, y_new, f_new
                ts.append(t)
                ys.append(y.copy())
                fs.append(f.copy())
                factor = _MAX_FACTOR if norm == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
                # a step clipped to a stop says nothing of the step size allowed
                h = h * factor if h == proposed else max(h * factor, proposed)
            else:
                h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)

    return _solution(ts, ys, fs, shape)


def solve_rk4(rhs: Callable[[float, np.ndarray], np.ndarray],
              t0: float, y0, t1: float, *, step: float,
              t_stops=None) -> OdeSolution:
    """Classic fixed-step RK4; the step is shrunk per segment to hit stop times."""
    if step <= 0:
        raise ValueError("rk4 step must be positive")
    shape, rhs, ts, ys, fs, _, stops = _start(rhs, t0, y0, t1, t_stops)
    t, y, f = ts[0], ys[0], fs[0]
    total = 0
    for target in stops:
        seg = target - t
        n = max(1, int(np.ceil(abs(seg) / step - 1e-12)))
        h = seg / n
        for _ in range(n):
            total += 1
            if total > _MAX_ATTEMPTS:
                raise StepFailure(f"exceeded {_MAX_ATTEMPTS} step attempts at t={t:.6g}")
            k1 = f
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t + h
            f = rhs(t, y)
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
        t = target  # kill accumulated round-off at segment boundaries
        ts[-1] = t

    return _solution(ts, ys, fs, shape)


# Chebyshev–Picard steps (Bai & Junkins, J. Astronaut. Sci. 58, 2011) on
# N + 1 Chebyshev–Lobatto nodes.
_CHEB_N = 24
# a step whose update has not fallen below tol after this many right sides,
# or has grown, is halved
_PICARD_ITERATIONS = 20


@functools.cache
def _chebyshev() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, w, C, S) of the n + 1 = _CHEB_N + 1 Chebyshev–Lobatto nodes of
    [-1, 1], built in closed form on first use, so that a run that takes no
    Chebyshev step does not hold them.

    x_j = -cos(pi j / n), ascending, written as a sine so that the nodes are
    antisymmetric and the ends exact; w are their barycentric weights; C
    maps values at the nodes to the coefficients a_k of their interpolant
    sum_k a_k T_k, and S maps them to the integral of that interpolant from
    -1 to each node.  math.cos and sums of (n + 1)^2 products keep NumPy's
    trigonometric loops, a matrix product and a 3-D temporary out of it.
    """
    n = _CHEB_N
    x = np.array([math.sin(math.pi * (2 * j - n) / (2 * n)) for j in range(n + 1)])
    w = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    # T_k(x_j) = cos(k phi_j), phi_j = pi (n - j) / n, for k = 0 .. n + 1
    cos = np.array([[math.cos(math.pi * k * (n - j) / n) for k in range(n + 2)]
                    for j in range(n + 1)])
    halve = np.abs(w)
    coeffs = (2.0 / n) * halve[:, None] * halve * cos[:, :n + 1].T
    # int T_0 = T_1, and int T_k = T_{k+1} / (2 (k + 1)) - T_{k-1} / (2 (k - 1))
    # for k >= 2 (int T_1 = T_2 / 4 up to a constant): the antiderivative's
    # coefficients b_m = (a_{m-1} - a_{m+1}) / (2 m), m = 1 .. n + 1, but
    # b_1 = a_0 - a_2 / 2, with a_{n+1} = a_{n+2} = 0
    a = np.concatenate([coeffs, np.zeros((2, n + 1))])
    m = np.arange(1, n + 2)
    antider = (a[m - 1] - a[m + 1]) / (2.0 * m[:, None])
    antider[0] = a[0] - a[2] / 2
    # the antiderivative at each node less its value T_m(-1) = (-1)^m at -1
    at_nodes = cos[:, 1:] - np.where(m % 2, -1.0, 1.0)
    integral = sum(at_nodes[:, i, None] * antider[i] for i in range(n + 1))
    integral[0] = 0.0  # the step's first node is its initial value, exactly
    return x, w, coeffs, integral


@dataclass
class ChebyshevSolution:
    """Steps of ``solve_chebyshev``: step ends ``ts``, the state there ``ys``
    (shape (len(ts),) + the state's shape), and each step's values at its
    Chebyshev–Lobatto nodes, ``nodes`` (shape (len(ts) - 1, N + 1) + the
    state's shape), first at ts[k] and last at ts[k + 1]."""

    ts: np.ndarray
    ys: np.ndarray
    nodes: np.ndarray

    def row(self, i: int) -> ChebyshevSolution:
        """The solution of row i of a stacked state."""
        return ChebyshevSolution(self.ts, self.ys[:, i], self.nodes[:, :, i])

    @staticmethod
    def joined(parts) -> ChebyshevSolution:
        """One solution from consecutive ones, each starting where the one
        before it ends."""
        parts = list(parts)
        return ChebyshevSolution(
            np.concatenate([parts[0].ts] + [p.ts[1:] for p in parts[1:]]),
            np.concatenate([parts[0].ys] + [p.ys[1:] for p in parts[1:]]),
            np.concatenate([p.nodes for p in parts]))

    def sample(self, ts) -> np.ndarray:
        """Barycentric interpolation on each step's nodes at every time in
        ``ts``, shape (len(ts),) + the state's shape; exact at the nodes."""
        t = np.asarray(ts, float)
        outside = ~((self.ts[0] - 1e-12 <= t) & (t <= self.ts[-1] + 1e-12))
        if np.any(outside):
            raise ValueError(f"t={t[outside][0]} outside the integrated interval "
                             f"[{self.ts[0]}, {self.ts[-1]}]")
        if len(self.ts) == 1:
            return np.repeat(self.ys, len(t), axis=0)
        k = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        ta, tb = self.ts[k], self.ts[k + 1]
        x = np.clip(2.0 * (t - ta) / (tb - ta) - 1.0, -1.0, 1.0)
        # one node at a time, so memory grows with len(ts), not 25 times that
        nodes, w, _, _ = _chebyshev()
        expand = (-1,) + (1,) * (self.ys.ndim - 1)
        num, den = np.zeros((len(t),) + self.ys.shape[1:]), np.zeros(len(t))
        at_node = np.full(len(t), -1)
        for j, (node, weight) in enumerate(zip(nodes, w)):
            diff = x - node
            at_node[diff == 0.0] = j
            weight = weight / np.where(diff == 0.0, 1.0, diff)
            num += weight.reshape(expand) * self.nodes[k, j]
            den += weight
        out = num / den.reshape(expand)
        hit = at_node >= 0
        out[hit] = self.nodes[k[hit], at_node[hit]]  # a node's own value, exactly
        return out


def solve_chebyshev(rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    t0: float, y0, t1: float, *, tol: float,
                    t_stops=None) -> ChebyshevSolution:
    """Chebyshev–Picard integration forward from t0 to t1 >= t0.

    A step maps [t, t + h] onto the N + 1 Chebyshev–Lobatto nodes and
    iterates Y <- y(t) + int_t rhs(., Y) through the spectral integration
    matrix, from Y = y(t) at every node.  ``rhs(t, y)`` takes the node
    times, shape (N + 1,), and the states at them, stacked, shape (N + 1,)
    + the state's shape, and is called once per iteration.  A step is
    accepted when the last update and the last two Chebyshev coefficients
    of Y are each within tol (1 + |y|), component by component; it is halved
    when a value is not finite, or when the update grows or has not
    converged within ``_PICARD_ITERATIONS`` calls.  An accepted step that
    was not clipped doubles the next one.  tol should lie well above the
    rounding of y, or the update may stall above it.

    Every stop is a step end.  A StepFailure, from a step-size underflow or
    after ``_MAX_ATTEMPTS`` attempted steps, carries the accepted prefix
    as its ``solution``; one from an underflow also names the rows of a
    stacked state that made the last attempted step non-finite, if any did.
    """
    y = np.array(y0, dtype=float)
    shape = y.shape
    t, t1 = float(t0), float(t1)
    if t1 < t:
        raise ValueError(f"solve_chebyshev steps forward, but t1={t1} < t0={t}")
    ts, ys, nodes = [t], [y], []

    def solution():
        return ChebyshevSolution(np.array(ts), np.array(ys),
                                 np.array(nodes).reshape((-1, _CHEB_N + 1) + shape))

    h = t1 - t
    attempts = 0
    bad_rows: list[int] = []
    for target in _stops(t, t1, t_stops, 1.0):
        while target > t:
            if attempts >= _MAX_ATTEMPTS:
                raise StepFailure(f"exceeded {_MAX_ATTEMPTS} step attempts at t={t:.6g}",
                                  solution=solution())
            attempts += 1
            remaining, tiny = target - t, _MIN_STEP * max(1.0, abs(t))
            step = remaining if h > remaining - tiny else h
            if step < tiny:
                raise StepFailure(f"step size underflow at t={t:.6g}", rows=bad_rows,
                                  solution=solution())
            values, rows = _picard(rhs, t, y, step, tol, shape)
            if values is None:
                bad_rows = rows or bad_rows
                h = step / 2
                continue
            bad_rows = []
            if step == h:
                h *= 2
            t, y = (target if step == remaining else t + step), values[-1]
            ts.append(t)
            ys.append(y)
            nodes.append(values)
    return solution()


def _picard(rhs, t: float, y: np.ndarray, h: float, tol: float, shape):
    """The values at the nodes of the step [t, t + h] as (values, []), or
    (None, rows) if the step is not accepted, with the rows of a stacked
    state that went non-finite."""
    x, _, coeffs, integral = _chebyshev()
    times = t + (h / 2) * (x + 1.0)
    flat = y.reshape(1, -1)
    values = np.repeat(flat, len(x), axis=0)
    last = math.inf
    for _ in range(_PICARD_ITERATIONS):
        f = np.asarray(rhs(times, values.reshape((-1,) + shape)), float).reshape(len(x), -1)
        # vecdot, not @: a matrix product pages in BLAS's GEMM, 0.25 MB more
        # resident memory in a run that uses no other
        new = (flat + (h / 2) * np.vecdot(integral[:, None], f.T)
               if np.all(np.isfinite(f)) else f)
        if not np.all(np.isfinite(new)):
            # a row is bad if any of its components is, at any node
            return None, nonfinite_rows(np.where(np.isfinite(new).all(axis=0), 0.0, np.nan)
                                        .reshape(shape))
        update = float(np.max(np.abs(new - values) / (1.0 + np.abs(new))))
        values = new
        if update <= tol:
            break
        if update >= last:
            return None, []
        last = update
    else:
        return None, []
    tail = (np.abs(np.vecdot(coeffs[-2:, None], values.T))
            / (1.0 + np.max(np.abs(values), axis=0)))
    if not np.max(tail) <= tol:
        return None, []
    return values.reshape((-1,) + shape), []
