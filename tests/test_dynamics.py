import math

import numpy as np
import pytest

from helpers import christoffel_flow_positions, random_ansatz, random_metric

from normshift import odesolve

from normshift.errors import DegenerateVelocity, StepFailure
from normshift.forces import (ForceField, Profile, ab_decompose, anisotropic_field,
                              covariant_from_flat, flat_from_covariant,
                              from_scalar_ansatz, gravity_field, oscillator_field,
                              speed_profile_ansatz)
from normshift.geometry import frame
from normshift.dynamics import (IntegratorConfig, PhaseState,
                                integrate, integrate_deviation, integrate_phi_psi,
                                phi_psi_initial_from_tau)


def zero_field() -> ForceField:
    return ForceField(fn=lambda r, v: np.zeros_like(r),
                      spatial_jacobian=lambda r, v: np.zeros(np.shape(r) + (2,)),
                      velocity_jacobian=lambda r, v: np.zeros(np.shape(r) + (2,)),
                      label="zero")


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState((0, math.nan), (1, 0))
    st = PhaseState((0, 0), (1, 2))
    assert np.allclose(st.packed(), [0, 0, 1, 2])


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4-fixed")


def test_free_motion():
    tr = integrate(zero_field(), PhaseState((0, 0), (1, 2)), (0, 1))
    assert np.allclose(tr.positions()[-1], [1, 2], atol=1e-12)
    assert np.allclose(tr.velocities()[-1], [1, 2], atol=1e-14)


def test_gravity_closed_form():
    tr = integrate(gravity_field(), PhaseState((0.7, 0), (0, -1)), (0, 2),
                   t_eval=np.linspace(0, 2, 21))
    for i, t in enumerate(tr.times):
        assert np.allclose(tr.positions()[i], [0.7, -0.5 * t * t - t], atol=1e-12)


def test_output_times_next_to_the_nodes_are_sampled():
    # times within np.allclose of the accepted nodes once got the nodes' states
    t_eval = np.linspace(0, 1, 11)
    t_eval[1:-1] += 5e-7
    tr = integrate(gravity_field(), PhaseState((-0.0, 0), (0, -1)), (0, 1),
                   IntegratorConfig("rk4-fixed", step=0.1), t_eval=t_eval)
    exact = np.column_stack([np.zeros_like(t_eval), -0.5 * t_eval**2 - t_eval])
    assert np.max(np.abs(tr.positions() - exact)) < 1e-12
    assert np.signbit(tr.positions()[0, 0])  # the initial state itself, -0.0 kept


def test_oscillator_closed_form():
    om = 1.7
    tr = integrate(oscillator_field(om), PhaseState((0.3, 0), (0, 1)), (0, 2),
                   t_eval=np.linspace(0, 2, 41),
                   cfg=IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12))
    for i, t in enumerate(tr.times):
        assert tr.positions()[i][1] == pytest.approx(math.sin(om * t) / om, abs=1e-9)
        assert tr.positions()[i][0] == pytest.approx(0.3, abs=1e-12)


def test_backward_time_integration():
    tr = integrate(gravity_field(), PhaseState((0, 0), (0, -1)), (0, -1.5),
                   t_eval=np.linspace(0, -1.5, 16))
    t = tr.times[-1]
    assert t == pytest.approx(-1.5)
    assert tr.positions()[-1][1] == pytest.approx(-0.5 * t * t - t, abs=1e-12)


def test_rk4_fourth_order_on_oscillator():
    om = 1.0
    exact = math.sin(2.0 * om) / om

    def endpoint_error(step):
        cfg = IntegratorConfig(method="rk4-fixed", step=step)
        tr = integrate(oscillator_field(om), PhaseState((0, 0), (0, 1)),
                       (0, 2), cfg)
        return abs(tr.positions()[-1][1] - exact)

    ratio = endpoint_error(0.05) / endpoint_error(0.025)
    assert ratio >= 14.0, f"rk4 error ratio {ratio:.2f} below 4th-order expectation"


def test_step_failure_on_finite_time_blowup():
    # d|v|/dt = |v|^3 escapes to infinity at t = 1/(2 v0^2) = 0.5
    prof = Profile(fn=lambda v: v**3, deriv=lambda v: 3 * v * v)
    f = from_scalar_ansatz(speed_profile_ansatz(prof))
    with pytest.raises(StepFailure):
        integrate(f, PhaseState((0, 0), (1.0, 0)), (0, 1.0), IntegratorConfig())


def test_degenerate_velocity_propagates():
    # constant deceleration along the velocity: speed hits zero at t = 1
    prof = Profile.constant(-1.0)
    f = from_scalar_ansatz(speed_profile_ansatz(prof))
    with pytest.raises(DegenerateVelocity):
        integrate(f, PhaseState((0, 0), (1.0, 0)), (0, 2.0))


def test_interpolant_matches_nodes_exactly():
    tr = integrate(oscillator_field(1.0), PhaseState((0, 0), (0.4, 1)), (0, 1))
    for i, t in enumerate(tr.times):
        st = tr.state_at(t)
        assert np.array_equal(st.r, tr.positions()[i])
        assert np.array_equal(st.v, tr.velocities()[i])


def test_variational_linear_for_zero_and_constant_fields():
    tau0, taud0 = np.array([0.3, -0.1]), np.array([0.2, 0.5])
    for f in (zero_field(), gravity_field()):
        base = integrate(f, PhaseState((0, 0), (1, -1)), (0, 2),
                         t_eval=np.linspace(0, 2, 11))
        ys, _, _ = integrate_deviation(f, base.initial.r, base.initial.v, tau0, taud0,
                                       base.times)
        for i, t in enumerate(base.times):
            assert np.allclose(ys[i, 4:6], tau0 + taud0 * t, atol=1e-10)


def test_variational_against_flow_differencing():
    f = anisotropic_field(Profile.constant(1.0))
    init = PhaseState((0, 0), (0.9, 0.8))
    t_eval = np.linspace(0, 1, 11)
    base = integrate(f, init, (0, 1), t_eval=t_eval)
    tau0, taud0 = np.array([0.3, -0.2]), np.array([0.1, 0.25])
    ys, _, _ = integrate_deviation(f, init.r, init.v, tau0, taud0, base.times)
    d = 1e-4
    plus = integrate(f, PhaseState(init.r + d * tau0, init.v + d * taud0),
                     (0, 1), t_eval=t_eval)
    minus = integrate(f, PhaseState(init.r - d * tau0, init.v - d * taud0),
                      (0, 1), t_eval=t_eval)
    fd = (plus.positions() - minus.positions()) / (2 * d)
    for i in range(len(t_eval)):
        assert np.max(np.abs(fd[i] - ys[i, 4:6])) < 1e-5


def test_variational_superposition():
    f = oscillator_field(1.2)
    tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
    base = integrate(f, PhaseState((0.2, 0.1), (0.5, 1.0)), (0, 1.5),
                     t_eval=np.linspace(0, 1.5, 7), cfg=tight)
    r0, v0 = base.initial.r, base.initial.v
    a, _, _ = integrate_deviation(f, r0, v0, [1.0, 0.0], [0.0, 0.3], base.times, tight)
    b, _, _ = integrate_deviation(f, r0, v0, [0.0, -0.5], [0.7, 0.0], base.times, tight)
    combo, _, _ = integrate_deviation(f, r0, v0, [2.0, -1.5], [2.1, 0.6], base.times, tight)
    for i in range(len(base.times)):
        lin = 2.0 * a[i, 4:6] + 3.0 * b[i, 4:6]
        assert np.max(np.abs(lin - combo[i, 4:6])) < 1e-9


def test_deviation_frame_reconstruction():
    f = anisotropic_field(Profile.constant(0.8))
    tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
    base = integrate(f, PhaseState((0, 0), (1.0, 0.4)), (0, 1),
                     t_eval=np.linspace(0, 1, 9), cfg=tight)
    ys, phi, psi = integrate_deviation(f, base.initial.r, base.initial.v,
                                       [0.2, 0.5], [-0.1, 0.3], base.times, tight)
    for i, t in enumerate(base.times):
        fr = frame(base.states[i].v)
        rebuilt = phi[i] * fr.N + psi[i] * fr.M
        assert np.max(np.abs(rebuilt - ys[i, 4:6])) < 1e-10


def test_phi_psi_zero_field_linear():
    f = zero_field()
    base = integrate(f, PhaseState((0, 0), (1, 0.5)), (0, 2),
                     t_eval=np.linspace(0, 2, 9))
    phi, psi = integrate_phi_psi(f, base, 0.25, 0.5, -1.0, 0.75)
    for i, t in enumerate(base.times):
        assert phi[i] == pytest.approx(0.25 + 0.5 * t, abs=1e-10)
        assert psi[i] == pytest.approx(-1.0 + 0.75 * t, abs=1e-10)


def test_phi_psi_matches_variational_projection():
    f = oscillator_field(0.9)
    init = PhaseState((0.4, -0.2), (0.8, 0.9))
    base = integrate(f, init, (0, 1.2), t_eval=np.linspace(0, 1.2, 13))
    tau0, taud0 = np.array([0.5, 0.1]), np.array([-0.2, 0.4])
    _, phi_tau, psi_tau = integrate_deviation(f, init.r, init.v, tau0, taud0, base.times)
    p0, pd0, q0, qd0 = phi_psi_initial_from_tau(f, init, tau0, taud0)
    phi, psi = integrate_phi_psi(f, base, p0, pd0, q0, qd0)
    for i in range(len(base.times)):
        assert phi[i] == pytest.approx(phi_tau[i], abs=1e-6)
        assert psi[i] == pytest.approx(psi_tau[i], abs=1e-6)


def test_deviations_along_a_metric_base():
    # a metric run's field, flattened: both deviation integrators agree on it
    rng = np.random.default_rng(21)
    m = random_metric(rng)
    flat = flat_from_covariant(covariant_from_flat(from_scalar_ansatz(random_ansatz(rng)), m), m)
    init = PhaseState((0.3, -0.2), (0.9, 0.6))
    base = integrate(flat, init, (0, 1), t_eval=np.linspace(0, 1, 11))
    tau0, taud0 = np.array([0.4, -0.3]), np.array([0.1, 0.5])
    _, phi_tau, psi_tau = integrate_deviation(flat, init.r, init.v, tau0, taud0, base.times)
    p0, pd0, q0, qd0 = phi_psi_initial_from_tau(flat, init, tau0, taud0)
    phi, psi = integrate_phi_psi(flat, base, p0, pd0, q0, qd0)
    for i in range(len(base.times)):
        assert phi[i] == pytest.approx(phi_tau[i], abs=1e-6)
        assert psi[i] == pytest.approx(psi_tau[i], abs=1e-6)


def test_phi_stays_zero_on_normality_field():
    # zero initial data for phi on a field satisfying the weak equations
    f = anisotropic_field(Profile.polynomial([0.6, 0.2]))
    base = integrate(f, PhaseState((0, 0), (0.7, 0.9)), (0, 1),
                     t_eval=np.linspace(0, 1, 11))
    phi, _ = integrate_phi_psi(f, base, 0.0, 0.0, 1.0, 0.3)
    assert np.max(np.abs(phi)) < 1e-8


def test_speed_derivative():
    # d|v|/dt = A = <F, N>
    def speed_derivative(field, state):
        return ab_decompose(field, state.r, state.v).A

    assert speed_derivative(zero_field(), PhaseState((0, 0), (1, 1))) == 0
    assert speed_derivative(gravity_field(), PhaseState((0, 0), (0, -1))) == pytest.approx(1.0)
    f = anisotropic_field(Profile.constant(1.0))
    h = 1e-5
    stencil = sorted({0.0, 1.0} | {t + k * h for t in (0.2, 0.5, 0.8) for k in (-1, 0, 1)})
    base = integrate(f, PhaseState((0, 0), (0.9, 0.8)), (0, 1), t_eval=stencil,
                     exact_nodes=True)
    speeds = {t: float(np.hypot(*base.states[i].v)) for i, t in enumerate(base.times)}
    for t in (0.2, 0.5, 0.8):
        sp, sm = speeds[t + h], speeds[t - h]
        a_val = speed_derivative(f, base.state_at(t))
        assert (sp - sm) / (2 * h) == pytest.approx(a_val, abs=1e-6)
        # reciprocal-speed rate: d(1/|v|)/dt = -A/|v|^2
        assert (1 / sp - 1 / sm) / (2 * h) == pytest.approx(-a_val / speeds[t] ** 2, abs=1e-6)


def test_conformal_equivalence_of_trajectories():
    rng = np.random.default_rng(14)
    m = random_metric(rng)
    fp = from_scalar_ansatz(random_ansatz(rng))
    fc = covariant_from_flat(fp, m)
    fp_back = flat_from_covariant(fc, m)
    t_eval = np.linspace(0, 1, 11)
    for _ in range(5):
        init = PhaseState(rng.uniform(-1, 1, 2), rng.uniform(0.5, 1.5, 2))
        cov = christoffel_flow_positions(fc, m, init, t_eval)
        flat = integrate(fp, init, (0, 1), t_eval=t_eval)
        back = integrate(fp_back, init, (0, 1), t_eval=t_eval)
        assert np.max(np.abs(cov - flat.positions())) < 1e-8
        assert np.max(np.abs(back.positions() - flat.positions())) < 1e-8


def test_trajectory_csv_format(tmp_path):
    tr = integrate(gravity_field(), PhaseState((1 / 3, 0), (0, -1)), (0, 1),
                   t_eval=np.linspace(0, 1, 5))
    path = tmp_path / "traj.csv"
    tr.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,vx,vy"
    assert len(lines) == 6
    # 17 significant digits round-trip
    x = float(lines[1].split(",")[1])
    assert x == 1 / 3


def _hermite_reference(sol, t):
    """Dense output at one time, with the scalar Hermite formula."""
    ts = sol.ts
    ascending = ts[-1] >= ts[0]
    grid = ts if ascending else ts[::-1]
    k = int(np.searchsorted(grid, t, side="right")) - 1
    k = min(max(k, 0), len(ts) - 2)
    if not ascending:
        k = len(ts) - 2 - k
    ta, tb = ts[k], ts[k + 1]
    if tb == ta:
        return sol.ys[k].copy()
    s = (t - ta) / (tb - ta)
    h = tb - ta
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (h00 * sol.ys[k] + h10 * h * sol.fs[k]
            + h01 * sol.ys[k + 1] + h11 * h * sol.fs[k + 1])


def _pendulum(t, y):
    return np.array([y[1], -math.sin(y[0]) + 0.1 * math.cos(t)])


@pytest.mark.parametrize("gap", [5e-16, 5e-15, 2e-14])
@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_close_stops_do_not_underflow_the_step(gap, where):
    # stops closer than the underflow step to each other, or to an end of the
    # span, once forced a step below it
    stops = {0.0: [gap], 0.5: [0.5, 0.5 + gap], 1.0: [1.0 - gap]}[where]
    sol = odesolve.solve_dopri(lambda t, y: -y, 0.0, [1.0], 1.0, t_stops=stops)
    assert sol.ts[-1] == 1.0
    assert sol.ys[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)
    if where == 0.5:
        assert 0.5 in sol.ts


def test_a_close_second_stop_does_not_slow_the_steps_after_it():
    # the step after one clipped to a stop grows from the step proposed before
    # the clip; grown from the clipped sliver, this took 42 steps instead of 25
    def steps(stops):
        return len(odesolve.solve_dopri(lambda t, y: -y, 0.0, [1.0], 1.0, t_stops=stops).ts) - 1
    assert steps([0.5, 0.5 + 2e-14]) <= steps([0.5]) + 1


def test_stops_are_accepted_nodes_exactly():
    stops = np.linspace(0.0, 3.0, 31)[1:-1]
    sol = odesolve.solve_dopri(_pendulum, 0.0, [0.7, 0.0], 3.0, t_stops=stops)
    assert np.all(np.isin(stops, sol.ts))
    assert odesolve.OdeSolution.sample(sol, stops).tobytes() == sol.ys[np.isin(sol.ts, stops)].tobytes()


def test_step_failure_carries_the_accepted_prefix():
    def rhs(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)
    with pytest.raises(StepFailure, match="underflow") as info:
        odesolve.solve_dopri(rhs, 0.0, [[1.0], [2.0]], 1.0)
    sol = info.value.solution
    assert info.value.rows == (0, 1)
    assert sol.ys.shape == (len(sol.ts), 2, 1)
    assert 0.5 - 1e-13 < sol.ts[-1] <= 0.5
    assert sol.ys[-1, 1, 0] == pytest.approx(2.0 * math.exp(-sol.ts[-1]), rel=1e-9)


@pytest.mark.parametrize("case", ["forward", "backward", "zero-span", "rk4-repeated-node"])
def test_dense_sample_matches_scalar_hermite_bit_for_bit(case):
    y0 = [0.7, -0.0]
    if case == "forward":
        sol = odesolve.solve_dopri(_pendulum, 0.0, y0, 3.0, abs_tol=1e-8, rel_tol=1e-8)
    elif case == "backward":
        sol = odesolve.solve_dopri(_pendulum, 0.5, y0, -2.5, abs_tol=1e-8, rel_tol=1e-8)
    elif case == "zero-span":
        sol = odesolve.solve_dopri(_pendulum, 0.5, y0, 0.5)
        assert len(sol.ts) == 1
    else:
        sol = odesolve.solve_rk4(_pendulum, 0.0, y0, 1.0, step=0.1, t_stops=[0.45, 0.45])
        assert np.any(np.diff(sol.ts) == 0.0)
    lo, hi = sorted((sol.ts[0], sol.ts[-1]))
    between = np.linspace(lo, hi, 1001)
    for times in (between, between[::-1], sol.ts):
        sampled = odesolve.OdeSolution.sample(sol, times)
        reference = np.array([_hermite_reference(sol, t) for t in times])
        assert sampled.shape == (len(times), 2)
        assert sampled.tobytes() == reference.tobytes()
        assert sol(times[1 % len(times)]).tobytes() == reference[1 % len(times)].tobytes()
    with pytest.raises(ValueError, match="outside the integrated interval"):
        sol.sample([lo, hi + 1e-6])
