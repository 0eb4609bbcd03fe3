"""Chebyshev–Picard steps: spectral matrices, accuracy, stops and failures;
the adaptive march that DOP853 and Chebyshev–Picard steps share; and DOP853
against oscillators in closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normshift import odesolve
from normshift.errors import StepFailure
from normshift.forces import ForceField


def test_spectral_matrices_are_exact_for_polynomials_of_degree_n():
    from numpy.polynomial import chebyshev
    x, w, coeffs, integral = odesolve._chebyshev()
    assert x[0] == -1.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    c = np.random.default_rng(0).normal(size=len(x))
    values = chebyshev.chebval(x, c)
    assert np.max(np.abs(coeffs @ values - c)) < 1e-13
    exact = chebyshev.chebval(x, chebyshev.chebint(c, lbnd=-1))
    assert np.max(np.abs(integral @ values - exact)) < 1e-13
    assert np.all(integral[0] == 0.0)


def decay_and_blowup(calls):
    """Rows y' = -y and y' = y^2 of a stacked (2, 1) state; counts its calls."""
    def rhs(t, y):
        assert t.shape == (len(odesolve._chebyshev()[0]),) and y.shape == t.shape + (2, 1)
        calls.append(1)
        return np.stack([-y[:, 0], y[:, 1] ** 2], axis=1)
    return rhs


def exact(t):
    """y = exp(-t) and y = 1 / (1 - t) from y(0) = 1, shape (len(t), 2, 1)."""
    return np.stack([np.exp(-t), 1.0 / (1.0 - t)], axis=1)[:, :, None]


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_stacked_rows_match_the_closed_form_at_and_between_step_ends(tol):
    calls = []
    sol = odesolve.solve_chebyshev(decay_and_blowup(calls), 0.0, [[1.0], [1.0]], 0.9,
                                   tol=tol, t_stops=[0.3])
    assert sol.ys.shape == (len(sol.ts), 2, 1)
    assert sol.nodes.shape == (len(sol.ts) - 1, len(odesolve._chebyshev()[0]), 2, 1)
    t = np.linspace(0.0, 0.9, 1001)
    for times, values in ((sol.ts, sol.ys), (t, sol.sample(t))):
        assert np.all(np.abs(values - exact(times)) <= tol * (1.0 + np.abs(exact(times))))
    # the interpolant is exact at the nodes and continuous at the step ends
    assert sol.sample(sol.ts).tobytes() == sol.ys.tobytes()
    # one call per Picard iteration, not one per node or per row
    assert len(calls) < 40 * (len(sol.ts) - 1)


def barycentric_node_by_node(sol, k, u):
    """``ChebyshevSolution._between`` as a loop over the nodes, adding each
    node's term to every sample in node order: the reference its vectorized
    sum must equal byte for byte."""
    x, w, _, _ = odesolve._chebyshev()
    t = np.clip(2.0 * u.ravel() - 1.0, -1.0, 1.0)
    num, den = np.zeros((len(t),) + sol.ys.shape[1:]), np.zeros(len(t))
    at_node = np.full(len(t), -1)
    for j in range(len(x)):
        diff = t - x[j]
        at_node[diff == 0.0] = j
        weight = w[j] / np.where(diff == 0.0, 1.0, diff)
        num += weight.reshape(u.shape) * sol.nodes[k, j]
        den += weight
    out = num / den.reshape(u.shape)
    hit = at_node >= 0
    out[hit] = sol.nodes[k[hit], at_node[hit]]
    return out


def test_a_sample_does_not_depend_on_the_times_sampled_with_it():
    # 1500 fractions of steps, three blocks of the vectorized sum, with a
    # fraction at every node that one reaches exactly in the last block:
    # sampled together or one at a time, each gives the bytes of the loop
    # over the nodes, a node's own value at a node, and, where every node
    # holds a power of two, that value: the numerator and the denominator
    # are summed in one order
    calls = []
    sol = odesolve.solve_chebyshev(decay_and_blowup(calls), 0.0, [[1.0], [1.0]], 0.9,
                                   tol=1e-12, t_stops=[0.3])
    x = odesolve._chebyshev()[0]
    reached = np.flatnonzero(2.0 * ((x + 1.0) / 2.0) - 1.0 == x)
    steps = np.arange(len(sol.ts) - 1)
    node_k, node_j = np.repeat(steps, len(reached)), np.tile(reached, len(steps))
    rng = np.random.default_rng(0)
    free = 1500 - len(node_k)
    k = np.concatenate([rng.integers(0, len(steps), free), node_k])
    u = np.concatenate([rng.uniform(0.0, 1.0, free), (x[node_j] + 1.0) / 2.0])[:, None, None]
    together = sol._between(k, u)
    assert together.tobytes() == barycentric_node_by_node(sol, k, u).tobytes()
    assert together.tobytes() == np.concatenate(
        [sol._between(k[i:i + 1], u[i:i + 1]) for i in range(len(k))]).tobytes()
    assert len(reached) > len(x) // 2
    assert together[free:].tobytes() == sol.nodes[node_k, node_j].tobytes()
    flat = odesolve.ChebyshevSolution(sol.ts, np.full_like(sol.ys, 0.5), 0, 0,
                                      np.full_like(sol.nodes, 0.5))
    assert np.all(flat._between(k, u) == 0.5)


def test_every_stop_is_a_step_end():
    stops = [0.05, 0.3, 0.3, 0.61, 0.9 - 1e-16, -0.2, 1.4]
    sol = odesolve.solve_chebyshev(lambda t, y: np.cos(t)[:, None] * y, 0.0, [1.0], 0.9,
                                   tol=1e-12, t_stops=stops)
    assert sol.ts[0] == 0.0 and sol.ts[-1] == 0.9
    # stops outside the span, repeated, or closer than an underflow step to
    # t1 are no steps
    assert set(sol.ts.tolist()) >= {0.05, 0.3, 0.61}
    assert np.all(np.diff(sol.ts) > 0)
    assert np.max(np.abs(sol.ys[:, 0] - np.exp(np.sin(sol.ts)))) < 1e-11


def test_a_row_turning_nan_fails_with_the_accepted_prefix():
    t_star = 0.4

    def rhs(t, y):
        out = -y.copy()
        out[t > t_star, 1] = np.nan
        return out

    with pytest.raises(StepFailure, match="underflow") as info:
        odesolve.solve_chebyshev(rhs, 0.0, [[1.0], [2.0], [3.0]], 1.0, tol=1e-10)
    assert info.value.rows == (1,)
    prefix = info.value.solution
    assert t_star - 1e-13 < prefix.ts[-1] <= t_star
    assert np.all(np.isfinite(prefix.nodes))
    t = np.linspace(0.0, prefix.ts[-1], 51)
    assert np.max(np.abs(prefix.sample(t)[:, :, 0]
                         - np.exp(-t)[:, None] * [1.0, 2.0, 3.0])) < 1e-9


def steep(sign):
    """(field, rhs): F = (sign exp(1e3 (x - 0.5)), 0), whose exp overflows
    past x = 1.21, and its flow on a stacked (2, 4) state."""
    field = ForceField(fn=lambda r, v: np.stack(
        [sign * np.exp(1e3 * (r[..., 0] - 0.5)), np.zeros(r.shape[:-1])], axis=-1))

    def rhs(t, y):
        return np.concatenate([y[..., 2:], field.force(y[..., :2], y[..., 2:])], axis=-1)
    return field, rhs


STEEP_SOLVERS = {
    "dopri": lambda rhs, y0: odesolve.solve_dopri(rhs, 0.0, y0, 2.0),
    "rk4": lambda rhs, y0: odesolve.solve_rk4(rhs, 0.0, y0, 2.0, step=0.01),
    "chebyshev": lambda rhs, y0: odesolve.solve_chebyshev(rhs, 0.0, y0, 2.0, tol=1e-10),
}


@pytest.mark.parametrize("solver", list(STEEP_SOLVERS))
def test_a_field_that_overflows_past_a_line_is_solved_across_it_without_a_warning(solver):
    # Row 0 is launched at unit speed toward x = 0.5, row 1 rests at x = -1.
    # Every solve runs in a quiet region, so the suite's error::RuntimeWarning
    # sees no overflow; the non-finite values end each solve as before.
    y0 = [[0.0, 0.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
    field, pull = steep(1.0)
    # pulled across the line, row 0 runs off to infinity near t = 0.5076
    if solver == "rk4":
        sol = STEEP_SOLVERS[solver](pull, y0)
        assert odesolve.nonfinite_rows(np.isfinite(sol.ys[-1])) == [0]
    else:
        with pytest.raises(StepFailure, match="underflow") as info:
            STEEP_SOLVERS[solver](pull, y0)
        assert info.value.rows == ()
        assert 0.5075 < info.value.solution.ts[-1] < 0.5077
        assert np.isfinite(info.value.solution.ys).all()
    with pytest.warns(RuntimeWarning, match="overflow"):
        field.force(np.array([1.5, 0.0]), np.array([1.0, 0.0]))
    # pushed back by the line, row 0 turns near x = 0.506 and leaves at its
    # launch speed, and the trial stages that overshoot into the overflow
    # are rejected
    if solver != "rk4":
        sol = STEEP_SOLVERS[solver](steep(-1.0)[1], y0)
        assert sol.rejected_steps > 0 and np.isfinite(sol.ys).all()
        assert np.max(np.abs(sol.ys[-1] - [[-0.9847982, 0.0, -1.0, 0.0], y0[1]])) < 1e-7


def test_zero_span_backward_span_and_queries_outside():
    sol = odesolve.solve_chebyshev(lambda t, y: y, 0.5, [2.0], 0.5, tol=1e-10)
    assert sol.ts.tolist() == [0.5] and sol.sample([0.5]).tolist() == [[2.0]]
    with pytest.raises(ValueError, match="outside"):
        sol.sample([0.6])
    with pytest.raises(ValueError, match="forward"):
        odesolve.solve_chebyshev(lambda t, y: y, 0.5, [2.0], 0.0, tol=1e-10)


def test_a_zero_length_step_samples_its_first_node():
    # two step ends that map to one s, as in a nu solve started within
    # rounding of the curve's end, make a step of zero length
    n = len(odesolve._chebyshev()[0])
    nodes = np.stack([np.linspace(1.0, 2.0, n), np.full(n, 2.0)])[:, :, None]
    sol = odesolve.ChebyshevSolution(np.array([0.0, 1.0, 1.0]), np.array([[1.0], [2.0], [2.0]]),
                                     0, 0, nodes)
    assert sol.sample([0.0, 1.0]).tolist() == [[1.0], [2.0]]


@settings(max_examples=60, deadline=None)
@given(solver=st.sampled_from(["dopri", "chebyshev"]), backward=st.booleans(),
       t0=st.floats(-2.0, 2.0), span=st.floats(0.1, 3.0),
       rows=st.integers(1, 3), width=st.integers(1, 2), data=st.data(),
       fractions=st.lists(st.floats(-0.5, 1.5), max_size=5),
       repeats=st.lists(st.integers(0, 4), max_size=2),
       near_end=st.booleans(), fail_at=st.none() | st.floats(0.2, 0.8))
def test_the_march_keeps_its_identities(solver, backward, t0, span, rows, width, data,
                                        fractions, repeats, near_end, fail_at):
    # DOP853 steps either way and samples its output times; Chebyshev-Picard
    # steps forward only, through stops
    direction = -1.0 if backward and solver == "dopri" else 1.0
    t1 = t0 + direction * span
    stops = []
    if solver == "chebyshev":
        stops = [t0 + f * (t1 - t0) for f in fractions]
        stops += [stops[i] for i in repeats if i < len(stops)]
        if near_end:
            stops.append(t1 - 1e-16)
    a = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * width * width,
                                    max_size=rows * width * width))).reshape(rows, width, width)
    y0 = np.linspace(1.0, 2.0, rows * width).reshape(rows, width)
    y0[0, 0] = -0.0  # which an interpolant at its node can turn into +0.0
    t_bad = None if fail_at is None else t0 + fail_at * (t1 - t0)
    bad_row = rows - 1
    calls = []

    def rhs(t, y):
        calls.append(1)
        out = (a @ y[..., None])[..., 0]
        if t_bad is not None:  # t is a number for DOP853, the step's nodes otherwise
            out[(t - t_bad) * direction > 0, bad_row] = np.nan
        return out

    try:
        if solver == "dopri":
            sol = odesolve.solve_dopri(rhs, t0, y0, t1)
        else:
            sol = odesolve.solve_chebyshev(rhs, t0, y0, t1, tol=1e-10, t_stops=stops)
        assert t_bad is None and sol.ts[-1] == t1
    except StepFailure as exc:
        assert t_bad is not None and "underflow" in str(exc) and exc.rows == (bad_row,)
        sol = exc.solution
    reached = sol.ts[-1]
    # a stop strictly inside the reached span, and 1e-12 or more away from its
    # ends and from every other stop, is a node exactly; closer ones may be
    # dropped as underflow steps
    inside = [s for s in stops if (s - t0) * direction > 0 and (reached - s) * direction >= 0]
    apart = [s for s in inside
             if min(abs(s - x) for x in [t0, t1] + [x for x in stops if x != s]) >= 1e-12]
    assert set(apart) <= set(sol.ts.tolist())
    assert np.all(np.diff(sol.ts) * direction > 0)
    assert sol.sample(sol.ts).tobytes() == sol.ys.tobytes()
    assert sol.rhs_calls == len(calls)


@settings(max_examples=60, deadline=None)
@given(log_omega=st.floats(math.log(0.05), math.log(50.0)),
       log_span=st.floats(math.log(1e-3), math.log(5.0)), backward=st.booleans(),
       t0=st.floats(-2.0, 2.0), angles=st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)),
       amplitudes=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)))
def test_dop853_follows_random_oscillators_in_closed_form(log_omega, log_span, backward, t0,
                                                          angles, amplitudes):
    # r'' = -omega^2 r from (r0, omega u0): r = r0 cos(omega t) + u0 sin(omega t),
    # whatever the first step and however many attempts it took
    omega = math.exp(log_omega)
    t1 = t0 + (-1.0 if backward else 1.0) * math.exp(log_span)
    r0 = amplitudes[0] * np.array([math.cos(angles[0]), math.sin(angles[0])])
    u0 = amplitudes[1] * np.array([math.cos(angles[1]), math.sin(angles[1])])
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.concatenate([y[2:], -omega * omega * y[:2]])

    sol = odesolve.solve_dopri(rhs, t0, np.concatenate([r0, omega * u0]), t1)
    assert sol.ts[-1] == t1
    phase = omega * (sol.ts - t0)[:, None]
    r = r0 * np.cos(phase) + u0 * np.sin(phase)
    v = omega * (u0 * np.cos(phase) - r0 * np.sin(phase))
    # relative to the orbit's size; the worst of 800 draws was 1.8e-9, after
    # 638 steps over 214 radians
    size = math.hypot(np.linalg.norm(r0), np.linalg.norm(u0))
    assert np.max(np.abs(sol.ys[:, :2] - r)) <= 1e-8 * size
    assert np.max(np.abs(sol.ys[:, 2:] - v)) <= 1e-8 * omega * size
    # the launch slope, the starting-step probe, 12 right sides per attempt
    # and 3 more per accepted step
    steps = len(sol.ts) - 1
    assert sol.rhs_calls == len(calls) == 2 + 15 * steps + 12 * sol.rejected_steps
