"""Generic ODE stepping: adaptive Dormand–Prince 8(5,3), fixed-step RK4, and
Chebyshev–Picard steps.

Each solver steps from t0 to t1 and returns an ``OdeSolution``; output times
are sampled from its dense output: for ``solve_dopri`` the 8th-order pair's
own 7th-order continuous extension, for ``solve_rk4`` its first three rows,
the cubic Hermite through the node values and slopes (one ``_Nested`` form),
and for ``solve_chebyshev`` each step's interpolant on its Chebyshev–Lobatto
nodes.  Dormand–Prince and Chebyshev–Picard steps share one adaptive
march; Chebyshev–Picard steps also end on an optional list of stop times,
such as a spline's knots, where the right side is not smooth.  Time may run
backward (t1 < t0), except for ``solve_chebyshev``, which evaluates the
right side at all nodes of a step in one call.

DOP853 proposes each step with Gustafsson's predictive controller (Hairer &
Wanner, Solving ODEs II, §IV.8, as in Hairer's RADAU5): from the second
accepted step on, the smaller of the plain proposal, which looks at the last
error alone, and one that also follows the trend of the last two.  On a
flow whose steps must keep shrinking, such as a cycloid run toward its
rest point, the plain proposal overshoots every other step and has it
rejected; the prediction does not.  The first attempt is the starting
step of Hairer, Nørsett & Wanner (Solving ODEs I, §II.4) grown once by the
controller's largest factor, five: at the default tolerance that estimate
is about 0.03 whatever the flow, and a step of it would only confirm that
the flow allows one five times longer.

The state may be stacked, shape (..., d): independent systems advanced
together on shared steps.  The adaptive error norm is taken over each row of
the last axis, then the maximum over the leading ones, so every accepted step
passes each row's own test.  A package error raised by the right side of
``solve_dopri`` or ``solve_rk4`` gets a note naming the time of the stage
that raised it and the last accepted t.

A non-finite value is how a solve fails, so each solve runs with NumPy's
floating-point warnings off, its right side included: a trial stage may
leave the right side's domain, and an adaptive step with a non-finite value
is rejected (RK4's callers refuse a non-finite node).  Outside a solve,
NumPy's defaults hold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NormShiftError, StepFailure

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Steps below this times max(1, |t|) are an underflow, unless one is the
# whole of a shorter span; a stop that would force a shorter step is dropped.
_MIN_STEP = 1e-14
# Every solver fails after this many attempted steps.
_MAX_ATTEMPTS = 2_000_000
# every solve's quiet region; as a decorator it enters afresh, so solves may nest
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@functools.cache
def _dop853() -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray, list[np.ndarray]]:
    """(C, A, E5, E3, D) of DOP853 (Hairer, Nørsett & Wanner, Solving ODEs I,
    §II.5–II.6), with the coefficients of
    scipy/integrate/_ivp/dop853_coefficients.py, as arrays: A as its rows
    A[i, :i], E5 and E3 over the 12 stages of a step, and D as its 4 rows
    over all 16 stages.  Built on first use, literals included: held as
    module constants, they raised the peak RSS of a ``check`` run, which
    takes no such step, by 0.25 MB (CPython 3.11, x86-64 Linux)."""
    # the nonzero entries of row i of A, {j: a_ij}: rows 1-11 are the stages
    # of a step, row 12 its weights B (its stage, at y_new, is the next
    # step's first), and rows 13-15 the extra stages of its dense output
    c = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
         0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
         0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
         0.7777777777777778)
    a = (
        {},
        {0: 0.05260015195876773},
        {0: 0.0197250569845379, 1: 0.0591751709536137},
        {0: 0.02958758547680685, 2: 0.08876275643042054},
        {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
        {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
        {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
        {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
         5: -0.015319437748624402, 6: 0.008273789163814023},
        {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
         5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
        {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
         5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
         8: -0.020331201708508627},
        {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
        {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
        {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
        {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
        {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
         12: -0.00034046500868740456, 13: 0.1413124436746325},
        {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
         13: 2.9475147891527724, 14: -9.15095847217987},
    )
    # the 5th-order error weights, and the 3rd-order ones less B
    e5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
          7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
          10: 0.08192320648511571, 11: -0.022355307863886294}
    e3_less_b = {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766}
    # the last four rows of the interpolant, F_3..F_6 = h D K over all 16 stages
    d = (
        {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
         7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
         10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
         13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
        {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
         7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
         10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
         13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
        {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
         7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
         10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
         13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
        {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
         7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
         10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
         13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
    )

    def dense(row, n):
        out = np.zeros(n)
        out[list(row)] = list(row.values())
        return out

    rows = [dense(row, i) for i, row in enumerate(a)]
    e3 = rows[12].copy()
    e3[list(e3_less_b)] -= list(e3_less_b.values())
    return np.array(c), rows, dense(e5, 12), e3, [dense(row, 16) for row in d]


@dataclass
class OdeSolution:
    """Accepted nodes ``ts`` and the state there, ``ys`` (shape (len(ts),) +
    the state's shape), the right-side calls and rejected step attempts of
    the solve that found them, and dense output between the nodes.  A time
    equal to a node gives that node's value; of the two nodes of a
    zero-length step, the first."""

    ts: np.ndarray
    ys: np.ndarray
    rhs_calls: int
    rejected_steps: int

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    @property
    def work(self) -> dict:
        """The solve's work: the nodes it accepted, both ends included, its
        right-side calls and its rejected step attempts, and the lengths
        |ts[k + 1] - ts[k]| of its accepted steps: the first, the least and
        the greatest, each None when it took no step."""
        steps = np.abs(np.diff(self.ts)).tolist()
        return {"accepted_nodes": len(self.ts), "rhs_calls": self.rhs_calls,
                "rejected_steps": self.rejected_steps,
                "first_step": steps[0] if steps else None,
                "min_step": min(steps, default=None), "max_step": max(steps, default=None)}

    def sample(self, ts) -> np.ndarray:
        """Dense output at every time in ``ts``, shape (len(ts),) + state shape."""
        t = np.asarray(ts, float)
        nodes = self.ts
        lo, hi = sorted((nodes[0], nodes[-1]))
        outside = ~((lo - 1e-12 <= t) & (t <= hi + 1e-12))
        if outside.any():
            raise ValueError(f"t={t[outside][0]} outside the integrated interval [{lo}, {hi}]")
        n = len(nodes)
        if n == 1:
            return np.repeat(self.ys, len(t), axis=0)
        # i: the first node at or past t in marching order; t lies on step i - 1
        if nodes[-1] >= nodes[0]:
            i = np.searchsorted(nodes, t, side="left")
        else:
            i = n - np.searchsorted(nodes[::-1], t, side="right")
        k = np.clip(i - 1, 0, n - 2)
        ta, h = nodes[k], nodes[k + 1] - nodes[k]
        # a zero-length step is not divided by: its only times are its nodes
        u = (t - ta) / np.where(h == 0.0, 1.0, h)
        out = self._between(k, u.reshape((-1,) + (1,) * (self.ys.ndim - 1)))
        hit = nodes[np.minimum(i, n - 1)] == t
        out[hit] = self.ys[i[hit]]
        return out

    def _between(self, k: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The interpolant of step k[i] at the fraction u[i] of it, for every
        i; u has one row per i, broadcast over the state's axes."""
        raise NotImplementedError


@dataclass
class _Nested(OdeSolution):
    """Runge–Kutta nodes with each step's interpolant rows F_0..F_m,
    ``coeffs`` (shape (len(ts) - 1, m + 1) + the state's shape): DOP853's 7,
    or RK4's first 3 (``_hermite_rows``).  On step k, at
    x = (t - ts[k]) / (ts[k + 1] - ts[k]),

        y = ys[k] + x (F_0 + (1 - x)(F_1 + x (F_2 + (1 - x)(F_3 + ...))))."""

    coeffs: np.ndarray

    def _between(self, k, x):
        x1 = 1.0 - x
        # one coefficient row at a time, so that every temporary is (len(t),)
        # + state; np.take gathers several times faster than indexing
        top = self.coeffs.shape[1] - 1
        out = np.take(self.coeffs[:, top], k, axis=0)
        out *= x1 if top % 2 else x
        for j in range(top - 1, -1, -1):
            out += np.take(self.coeffs[:, j], k, axis=0)
            out *= x1 if j % 2 else x
        out += np.take(self.ys, k, axis=0)
        return out


def _hermite_rows(h, y0, y1, f0, f1) -> list[np.ndarray]:
    """F_0..F_2 of ``_Nested``, the cubic Hermite through (y0, slope f0) and
    (y1, slope f1), h (signed) apart; arrays of steps broadcast."""
    dy = y1 - y0
    return [dy, h * f0 - dy, 2.0 * dy - h * (f0 + f1)]


def _row_rms(x: np.ndarray, width: int) -> float:
    """RMS over rows of ``width`` components, the worst row."""
    return float(np.max(np.sqrt(np.mean(x.reshape(-1, width) ** 2, axis=-1))))


def _error_norm(h: float, err5: np.ndarray, err3: np.ndarray, y0: np.ndarray,
                y1: np.ndarray, abs_tol: float, rel_tol: float, width: int) -> float:
    """DOP853's combined error norm, h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) width)
    of the scaled 5th- and 3rd-order estimates (scipy's
    ``DOP853._estimate_error_norm``), over each row of ``width`` components;
    the worst row."""
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    e5 = np.sum(((err5 / scale) ** 2).reshape(-1, width), axis=-1)
    e3 = np.sum(((err3 / scale) ** 2).reshape(-1, width), axis=-1)
    denom = np.sqrt((e5 + 0.01 * e3) * width)
    return h * float(np.max(e5 / np.where(denom > 0.0, denom, 1.0)))


def nonfinite_rows(finite: np.ndarray) -> list[int]:
    """Rows of a stacked state (..., d), counted over its leading axes, that
    have a component where the mask ``finite`` of its shape is false; none
    for a 1-D state."""
    if finite.ndim < 2:
        return []
    return np.flatnonzero(~np.all(finite, axis=-1).ravel()).tolist()


def _stops(t: float, t1: float, t_stops) -> list[float]:
    """The requested stops strictly inside (t, t1), t <= t1, ascending, then
    t1; none for a zero span.  A stop that would force a step below the
    underflow threshold, after the stop before it (or t) or before t1, is
    dropped, and so is a repeated one."""
    if t1 == t:
        return []
    stops, last = [], t
    for s in sorted(float(s) for s in (t_stops if t_stops is not None else ()) if t < s < t1):
        if s - last >= _MIN_STEP * max(1.0, abs(last)) and t1 - s >= _MIN_STEP * max(1.0, abs(s)):
            stops.append(s)
            last = s
    return stops + [t1]


class _FlatRhs:
    """The right side on states flattened to one axis.  It counts its calls,
    and a package error raised in it gets a note naming the stage time and
    ``accepted``, the last accepted t, which the stepper keeps current."""

    def __init__(self, rhs, shape: tuple, t: float):
        self.rhs, self.shape, self.accepted, self.calls = rhs, shape, t, 0

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        self.calls += 1
        try:
            return np.asarray(self.rhs(t, y.reshape(self.shape)), float).ravel()
        except NormShiftError as exc:
            exc.add_note(f"at t={t:.6g}, last accepted t={self.accepted:.6g}")
            raise


def _start(rhs, t0: float, y0):
    """Initial node of DOP853 and RK4.

    Returns (shape, flat_rhs, t0, y0, rhs(t0, y0)): the state's shape, the
    ``_FlatRhs`` of ``rhs``, and the initial node flattened.
    """
    y = np.array(y0, dtype=float)
    shape = y.shape
    y = y.ravel()
    t = float(t0)
    flat_rhs = _FlatRhs(rhs, shape, t)
    return shape, flat_rhs, t, y, flat_rhs(t, y)


def _first_step(rhs, t: float, y: np.ndarray, f: np.ndarray, span: float,
                direction: float, abs_tol: float, rel_tol: float, width: int) -> float:
    """The first step DOP853 attempts, for a span > 0: _MAX_FACTOR times the
    starting step of Hairer, Nørsett & Wanner (Solving ODEs I, §II.4;
    scipy's ``select_initial_step``) for an error of order 7, in the
    row-wise RMS norm, and at most the span.  It costs one right side.
    Where an estimate is not a positive finite number, its fallback is
    taken.

    HNW's rule takes h^8 times the tolerance-scaled slope, or its change,
    for the local error, with no error constant of the method:
    h = (0.01 / max(d1, d2))^(1/8), d1 = |f / sc|.  At tol = 1e-10, d1 is
    about 1e10 for an O(1) state and slope, so h is about 0.03 whatever the
    flow, and DOP853's error there lies so far below the tolerance that the
    controller's next proposal is mostly clipped at _MAX_FACTOR.  Starting
    one such growth ahead saves that ramp step.  Where the start overshoots,
    it costs one rejected attempt: the retry is the attempt times a factor
    of at least _MIN_FACTOR, and _MIN_FACTOR * _MAX_FACTOR = 1, so it is no
    shorter than HNW's own step, or than a fifth of a span that clipped the
    attempt."""
    # a non-finite scale, launch or probe slope is handled below
    scale = abs_tol + rel_tol * np.abs(y)
    d0, d1 = _row_rms(y / scale, width), _row_rms(f / scale, width)
    h0 = min(0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6, span)
    if not h0 > 0.0:  # nan from inf / inf, or 0 from a finite / inf
        h0 = min(1e-6, span)
    f1 = rhs(t + direction * h0, y + direction * h0 * f)
    d2 = _row_rms((f1 - f) / scale, width) / h0
    d = max(d1, d2)
    hnw = min(100.0 * h0, max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.125)
    h = min(_MAX_FACTOR * hnw, span)
    return h if 0.0 < h < math.inf else h0


def _march(attempt, t: float, y: np.ndarray, stops: list[float], direction: float,
           h: float, build):
    """The adaptive march of ``solve_dopri`` and ``solve_chebyshev`` from
    (t, y) through ``stops`` in ``direction``, h the first step proposed.

    ``attempt(t, y, step, proposed)`` tries the proposed step clipped to end
    on the next stop, and returns (the state at its end, or None if rejected;
    the next step to propose; the rows of a stacked state that went
    non-finite, or None to keep the last found).  ``build(ts, ys, rejected)``
    makes the solution.  A StepFailure, from a step-size underflow or after
    ``_MAX_ATTEMPTS`` attempts, carries the accepted prefix as its
    ``solution``; one from an underflow also names the rows that went
    non-finite since the last accepted step.
    """
    ts, ys = [t], [y]
    attempts = rejected = 0
    bad_rows: list[int] = []
    for target in stops:
        while (target - t) * direction > 0:
            if attempts >= _MAX_ATTEMPTS:
                raise StepFailure(f"exceeded {_MAX_ATTEMPTS} step attempts at t={t:.6g}",
                                  solution=build(ts, ys, rejected))
            attempts += 1
            remaining, tiny = abs(target - t), _MIN_STEP * max(1.0, abs(t))
            # end on the stop rather than leave a sliver before it
            step = remaining if h > remaining - tiny else h
            # a span shorter than the threshold is one step, unless a
            # rejection shrank the step proposed for it
            if step < tiny and h < remaining:
                raise StepFailure(f"step size underflow at t={t:.6g}", rows=bad_rows,
                                  solution=build(ts, ys, rejected))
            y_new, h, rows = attempt(t, y, step, h)
            if rows is not None:
                bad_rows = rows
            if y_new is None:
                rejected += 1
                continue
            bad_rows = []
            t = target if step == remaining else t + direction * step
            y = y_new
            ts.append(t)
            ys.append(y)
    return build(ts, ys, rejected)


def _factor(norm: float) -> float:
    """The step factor 0.9 norm^(-1/8) of an error norm of order 8, within
    [_MIN_FACTOR, _MAX_FACTOR]; _MAX_FACTOR for a zero norm."""
    if norm == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.125))


@_quiet
def solve_dopri(rhs: Callable[[float, np.ndarray], np.ndarray],
                t0: float, y0, t1: float, *,
                abs_tol: float = 1e-10, rel_tol: float = 1e-10) -> OdeSolution:
    """Adaptive DOP853 integration from t0 to t1 (either direction).

    An attempt costs 12 right sides: 11 stages and f(t + h, y_new), which is
    the next step's first.  It passes when DOP853's combined 5th/3rd-order
    error norm e_n is at most 1 in every row; an accepted step then
    evaluates the three extra stages of its 7th-order dense output.  The
    first attempt is ``_first_step``'s, one controller growth past Hairer,
    Nørsett & Wanner's starting step, at one more right side; a zero span
    takes no step.  A rejected step h_n retries at h_n * 0.9 e_n^(-1/8); an
    accepted one proposes that too, but from the second accepted step on
    the smaller of it and Gustafsson's h_n * 0.9 (h_n / h_{n-1})
    (e_{n-1} / e_n^2)^(1/8), h_{n-1} the accepted step before and e_{n-1}
    the larger of 1e-2 and its norm: that only ever shrinks a proposal.
    Each factor lies in [_MIN_FACTOR, _MAX_FACTOR].  Failures are those of
    ``_march``.
    """
    c, a, e5, e3, d = _dop853()
    shape, rhs, t, y, f = _start(rhs, t0, y0)
    t1 = float(t1)
    direction = 1.0 if t1 > t else -1.0
    width = shape[-1] if shape else 1
    h = (_first_step(rhs, t, y, f, abs(t1 - t), direction, abs_tol, rel_tol, width)
         if t1 != t else 0.0)
    k = np.empty((16, y.size))
    k[0] = f  # the slope at the last accepted node
    coeffs = []
    last = None  # (step, max(1e-2, norm)) of the last accepted step

    def attempt(t, y, step, proposed):
        nonlocal last
        rhs.accepted = t
        hs = direction * step
        for i in range(1, 13):  # stage 12, at y_new, is the next step's first
            y_new = y + hs * (a[i] @ k[:i])
            k[i] = rhs(t + c[i] * hs, y_new)
        err5, err3 = e5 @ k[:12], e3 @ k[:12]
        norm = (_error_norm(step, err5, err3, y, y_new, abs_tol, rel_tol, width)
                if np.isfinite(y_new).all() and np.isfinite(k[12]).all() else math.inf)
        if not norm <= 1.0:
            if math.isfinite(norm):
                return None, step * _factor(norm), None
            finite = (np.isfinite(y_new) & np.isfinite(k[12])
                      & np.isfinite(err5) & np.isfinite(err3))
            return None, step * 0.25, nonfinite_rows(finite.reshape(shape))
        for i in range(13, 16):
            k[i] = rhs(t + c[i] * hs, y + hs * (a[i] @ k[:i]))
        coeffs.append([*_hermite_rows(hs, y, y_new, k[0], k[12]),
                       *(hs * (row @ k) for row in d)])
        k[0] = k[12]
        factor = _factor(norm)
        if last is not None:
            # Gustafsson's 0.9 (h_n / h_{n-1}) (e_{n-1} / e_n^2)^(1/8)
            factor = min(factor, _factor(norm * norm / last[1] * (last[0] / step) ** 8))
        last = step, max(1e-2, norm)
        return y_new, step * factor, None

    return _march(attempt, t, y, [t1], direction, h, lambda ts, ys, rejected: _Nested(
        np.array(ts), np.array(ys).reshape((-1,) + shape), rhs.calls, rejected,
        np.array(coeffs).reshape((-1, 7) + shape)))


@_quiet
def solve_rk4(rhs: Callable[[float, np.ndarray], np.ndarray],
              t0: float, y0, t1: float, *, step: float) -> OdeSolution:
    """Classic fixed-step RK4: ceil(|t1 - t0| / step) equal steps.

    Each step costs 4 right sides, the last the slope at its end, and its
    dense output is ``_hermite_rows`` of its ends.  The step count is
    counted, as a float, before the first step: StepFailure is raised at
    once, without stepping, when it exceeds ``_MAX_ATTEMPTS``.
    """
    if step <= 0:
        raise ValueError("rk4 step must be positive")
    shape, rhs, t, y, f = _start(rhs, t0, y0)
    span = float(t1) - t
    # inf where the step is subnormal against the span
    count = max(1.0, np.ceil(abs(span) / step - 1e-12)) if span else 0.0
    if count > _MAX_ATTEMPTS:
        raise StepFailure(f"{count:.6g} steps of {step:.6g} on [{t:.6g}, {float(t1):.6g}] "
                          f"exceed {_MAX_ATTEMPTS} step attempts")
    n = int(count)
    h = span / n if n else 0.0
    ts, ys, fs = [t], [y], [f]
    for _ in range(n):
        k1 = f
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        f = rhs(t, y)
        rhs.accepted = t
        ts.append(t)
        ys.append(y)
        fs.append(f)
    if n:
        ts[-1] = float(t1)  # kill accumulated round-off at the end
    ts, ys, fs = np.array(ts), np.array(ys), np.array(fs)
    # h from the nodes: the last step ends on t1, past the round-off of t
    rows = _hermite_rows(np.diff(ts)[:, None], ys[:-1], ys[1:], fs[:-1], fs[1:])
    return _Nested(ts, ys.reshape((-1,) + shape), rhs.calls, 0,
                   np.stack(rows, axis=1).reshape((-1, 3) + shape))


# Chebyshev–Picard steps (Bai & Junkins, J. Astronaut. Sci. 58, 2011) on
# N + 1 Chebyshev–Lobatto nodes.
_CHEB_N = 24
# a step whose update has not fallen below tol after this many right sides,
# or has grown, is halved
_PICARD_ITERATIONS = 20
# ChebyshevSolution samples this many times at once: about 200 KB of
# temporaries for a one-component state, faster than fewer or more
_SAMPLE_BLOCK = 512


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
class ChebyshevSolution(OdeSolution):
    """Steps of ``solve_chebyshev`` with each step's values at its
    Chebyshev–Lobatto nodes, ``nodes`` (shape (len(ts) - 1, N + 1) + the
    state's shape), first at ts[k] and last at ts[k + 1]; between them, the
    step's barycentric interpolant.  Its right-side calls are its Picard
    iterations, and its rejected steps its halvings."""

    nodes: np.ndarray

    def row(self, i: int) -> ChebyshevSolution:
        """The solution of row i of a stacked state.  The solve's counts go
        with row 0 alone, so that joining every row of every solve counts
        each solve once."""
        counts = (self.rhs_calls, self.rejected_steps) if i == 0 else (0, 0)
        return ChebyshevSolution(self.ts, self.ys[:, i], *counts, self.nodes[:, :, i])

    @staticmethod
    def joined(parts) -> ChebyshevSolution:
        """One solution from consecutive ones, each starting where the one
        before it ends; their counts add up."""
        parts = list(parts)
        return ChebyshevSolution(
            np.concatenate([parts[0].ts] + [p.ts[1:] for p in parts[1:]]),
            np.concatenate([parts[0].ys] + [p.ys[1:] for p in parts[1:]]),
            sum(p.rhs_calls for p in parts), sum(p.rejected_steps for p in parts),
            np.concatenate([p.nodes for p in parts]))

    def _between(self, k, u):
        x = np.clip(2.0 * u.ravel() - 1.0, -1.0, 1.0)
        nodes, w, _, _ = _chebyshev()
        # [node, component, step], with a last component of ones, so that
        # one sum gives the numerator and the denominator of every sample,
        # added in one order: nodes that all hold a power of two give it
        flat = self.nodes.reshape(self.nodes.shape[:2] + (-1,))
        columns = np.ones((len(nodes), flat.shape[-1] + 1, len(flat)))
        columns[:, :-1] = flat.transpose(1, 2, 0)
        out = np.empty((flat.shape[-1], len(x)))
        # all nodes of a block of samples at once; the sum runs along the
        # first axis, so it adds node after node whatever the block's size
        for lo in range(0, len(x), _SAMPLE_BLOCK):
            block = slice(lo, lo + _SAMPLE_BLOCK)
            diff = x[block] - nodes[:, None]
            # a sample on a node divides by zero, and is set below
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.take(columns, k[block], axis=2)
                terms *= (w[:, None] / diff)[:, None]
                sums = np.sum(terms, axis=0)
                out[:, block] = sums[:-1] / sums[-1]
            on_node = np.flatnonzero(~np.isfinite(sums[-1]))
            # a node's own value, exactly
            out[:, lo + on_node] = flat[k[lo + on_node], np.abs(diff[:, on_node]).argmin(axis=0)].T
        return out.T.reshape((len(x),) + self.ys.shape[1:])


@_quiet
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
    rounding of y, or the update may stall above it.  Steps end on the
    ``_stops`` of ``t_stops``; failures are those of ``_march``.
    """
    y = np.array(y0, dtype=float)
    shape = y.shape
    t, t1 = float(t0), float(t1)
    if t1 < t:
        raise ValueError(f"solve_chebyshev steps forward, but t1={t1} < t0={t}")
    nodes = []
    calls = 0

    def counted(times, values):
        nonlocal calls
        calls += 1
        return rhs(times, values)

    def attempt(t, y, step, proposed):
        values, rows = _picard(counted, t, y, step, tol, shape)
        if values is None:
            return None, step / 2, rows or None
        nodes.append(values)
        return values[-1], 2 * proposed if step == proposed else proposed, None

    return _march(attempt, t, y, _stops(t, t1, t_stops), 1.0, t1 - t,
                  lambda ts, ys, rejected: ChebyshevSolution(
                      np.array(ts), np.array(ys), calls, rejected,
                      np.array(nodes).reshape((-1, _CHEB_N + 1) + shape)))


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
               if np.isfinite(f).all() else f)
        if not np.isfinite(new).all():
            # a row is bad if any of its components is, at any node
            return None, nonfinite_rows(np.isfinite(new).all(axis=0).reshape(shape))
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
