import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (RATE_PARAMS, christoffel_flow_positions, linear_fields, random_ansatz,
                     random_metric, sympy_field)

from normshift import odesolve
from normshift.cli import main

from normshift.errors import DegenerateVelocity, StepFailure
from normshift.forces import (ForceField, Profile, ab_decompose, anisotropic_field,
                              covariant_from_flat, flat_from_covariant,
                              from_scalar_ansatz, gravity_field, oscillator_field,
                              speed_profile_ansatz)
from normshift.experiment import CATALOGUE, build_metric, catalogue
from normshift.geometry import frame
from normshift.dynamics import (IntegratorConfig, PhaseState, integrate, integrate_deviation,
                                integrate_phi_psi, phi_psi_initial_from_tau)


def zero_field() -> ForceField:
    return ForceField(fn=lambda r, v: np.zeros_like(r))


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


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["geodesic", "marked_point", "mdtype", "oscillator"]),
       seed=st.integers(0, 2**32 - 1))
def test_rk4_and_dopri5_agree_within_the_predicted_order(name, seed):
    # halving the rk4 step from 0.1 to 0.05 on [0, 1] cuts its endpoint error
    # against a DOP853 reference at 1e-13 by 2**4: a factor in [12, 20].  The
    # fields are those whose launches from this box keep h = 0.1 in RK4's
    # asymptotic range (ratios 14.1 to 17.3 over 700 launches each): RK4 is
    # exact on gravity's parabolas, anisotropic launches can slow nearly to
    # rest, and the ratios of disc_invariant and metrizable reach 19.7 and 20.9
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    init = PhaseState(rng.uniform(-0.5, 0.5, 2),
                      rng.uniform(0.8, 1.2) * np.array([np.cos(angle), np.sin(angle)]))
    field = catalogue(name, RATE_PARAMS.get(name))

    def endpoint(cfg):
        tr = integrate(field, init, (0.0, 1.0), cfg, t_eval=[1.0])
        return np.concatenate([tr.positions()[0], tr.velocities()[0]])

    ref = endpoint(IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13))
    coarse, fine = (np.linalg.norm(endpoint(IntegratorConfig(method="rk4-fixed", step=h)) - ref)
                    for h in (0.1, 0.05))
    assert 12.0 <= coarse / fine <= 20.0, (coarse, fine)


@pytest.mark.parametrize("step", [1e-12, 5e-324])
def test_rk4_refuses_a_step_count_over_budget_before_stepping(step):
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 10:
            raise AssertionError("stepped toward the attempt budget")
        return -y

    with pytest.raises(StepFailure, match="step attempts"):
        odesolve.solve_rk4(rhs, 0.0, [1.0], 1.0, step=step)
    assert len(calls) <= 1


def test_step_failure_on_finite_time_blowup():
    # d|v|/dt = |v|^3 escapes to infinity at t = 1/(2 v0^2) = 0.5
    prof = Profile(fn=lambda v: v**3)
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


def _differenced_fields() -> dict:
    """Every catalogue field, flat and under two conformal metrics, by
    "name-metric"."""
    fields = {}
    for name in sorted(CATALOGUE):
        for metric, spec in (("flat", None),
                             ("linear", {"kind": "linear", "ax": 0.3, "ay": -0.2}),
                             ("sin_cos", {"kind": "sin_cos", "amplitude": 0.25})):
            field = catalogue(name, RATE_PARAMS.get(name))
            if spec is not None:
                field = flat_from_covariant(field, build_metric(spec))
            fields[f"{name}-{metric}"] = field
    return fields


DIFFERENCED = _differenced_fields()


def _accelerations(field, p, d):
    """F and tau'' = J_r^T tau + J_v^T tau' at phase points p = (r, v) along
    d = (tau, tau'), as the deviation's right side takes them."""
    return field.derivative(p[..., :2], p[..., 2:], d[..., :2], d[..., 2:])


def _phase_rows(rng, n):
    """(r, v, tau, tau') rows: r in the unit box, speeds 0.5 to 1.5, and tau,
    tau' of lengths spread log-uniformly over 1e-2 to 1e1."""
    def vectors(lengths):
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        return lengths[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)

    return np.concatenate([rng.uniform(-1.0, 1.0, (n, 2)), vectors(rng.uniform(0.5, 1.5, n)),
                           vectors(10.0 ** rng.uniform(-2.0, 1.0, n)),
                           vectors(10.0 ** rng.uniform(-2.0, 1.0, n))], axis=-1)


def _extended_derivative_along(field, y):
    """dF/de of F(p + e d) at e = 0, for p = y[..., :4] and d = y[..., 4:], in
    extended precision: central differences moving p by 1e-4, 5e-5 and
    2.5e-5, extrapolated twice (error O(1e-24) on top of round-off).  The
    field computes in longdouble, as ForceField keeps a float dtype; where
    longdouble is plain double, round-off is about 1e-12 |d|, which the
    test's bound does not leave room for."""
    p, d = y[..., :4].astype(np.longdouble), y[..., 4:].astype(np.longdouble)
    h = np.longdouble(1e-4) / np.sqrt(np.sum(d * d, axis=-1))[:, None]

    def central(h):
        plus, minus = p + h * d, p - h * d
        return (field.force(plus[:, :2], plus[:, 2:])
                - field.force(minus[:, :2], minus[:, 2:])) / (2 * h)

    d0, d1, d2 = central(h), central(h / 2), central(h / 4)
    return (16 * (4 * d2 - d1) / 3 - (4 * d1 - d0) / 3) / 15


@pytest.mark.parametrize("name", sorted(DIFFERENCED))
def test_phase_space_stencil_matches_an_extended_precision_derivative(name):
    # tau'' of the complex-step right side within 1e-12 (1 + |ref|) of the
    # derivative of F along (tau, tau'); the worst measured is 5.2e-14, where
    # the Richardson stencil it replaced was off by up to 1.0e-10
    field = DIFFERENCED[name]
    y = _phase_rows(np.random.default_rng(sorted(DIFFERENCED).index(name)), 64)
    _, tau_acc = _accelerations(field, y[:, :4], y[:, 4:])
    ref = _extended_derivative_along(field, y)
    assert np.all(np.abs(tau_acc - ref) <= 1e-12 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("name", ["gravity", "oscillator"])
def test_phase_space_stencil_matches_analytic_jacobians(name):
    field, jr, jv = linear_fields(1.3)[name]
    y = _phase_rows(np.random.default_rng(7), 64)
    tau, tau_dot = y[:, 4:6], y[:, 6:8]
    expected = np.vecmat(tau, jr) + np.vecmat(tau_dot, jv)
    _, tau_acc = _accelerations(field, y[:, :4], y[:, 4:])
    assert np.all(np.abs(tau_acc - expected) <= 1e-9 * (1.0 + np.abs(expected)))


def _unit_rows(rng, n, dim):
    """n random unit vectors of dimension dim."""
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def test_phase_space_stencil_rounding_is_below_5e_12():
    # F is linear, so what is left of tau'' against the exact J d is
    # rounding: the complex step's is that of one product per component; the
    # Richardson stencil it replaced left 3e-13 (|J d| + |d|) here, with its
    # step of 1e-3, and 3.5e-11 with the residual stencils' 1e-5.  2000 rows
    # take two calls of the field (forces.COMPLEX_BLOCK)
    osc, jr, jv = linear_fields(1.3)["oscillator"]
    rng = np.random.default_rng(2)
    n = 2000
    p = np.concatenate([rng.uniform(-1.0, 1.0, (n, 2)),
                        rng.uniform(0.5, 1.5, (n, 1)) * _unit_rows(rng, n, 2)], axis=-1)
    d = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1)) * _unit_rows(rng, n, 4)
    exact = np.vecmat(d[:, :2], jr) + np.vecmat(d[:, 2:], jv)
    _, tau_acc = _accelerations(osc, p, d)
    error = np.linalg.norm(tau_acc - exact, axis=-1)
    assert np.all(error <= 5e-12 * (np.linalg.norm(exact, axis=-1) + np.linalg.norm(d, axis=-1)))


def test_phase_space_derivative_matches_sympys_exact_derivative():
    # a field with large derivatives against its exact derivative along d,
    # J_r^T tau + J_v^T tau' from sympy, within 1e-13 of its size, component
    # by component (1.4e-14 measured).  The Richardson stencil it replaced,
    # with its step of 1e-3 max(1, |p|) / |d|, was off by up to 6.8e-9 of it
    # here, its h^4 truncation term
    field, jacobian = sympy_field()
    rng = np.random.default_rng(5)
    n = 400
    p = np.concatenate([rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.5, 1.5, (n, 2))], axis=-1)
    d = 10.0 ** rng.uniform(-2.0, 2.0, (n, 1)) * _unit_rows(rng, n, 4)
    f, tau_acc = _accelerations(field, p, d)
    exact = np.vecmat(d, jacobian(p[:, :2], p[:, 2:]))
    assert np.all(np.abs(tau_acc - exact) <= 1e-13 * np.abs(exact))
    assert np.all(np.abs(f - field.force(p[:, :2], p[:, 2:])) <= 1e-15 * (1.0 + np.abs(f)))


def test_the_step_controller_rejects_at_most_one_step_on_a_cycloid_near_rest():
    # a cycloid of the simulate-oracle benchmark (seed 1), run 85% of the
    # way to its rest point, so that its steps keep shrinking: the plain
    # controller, which sizes a step from the last error alone, rejected 5
    # of 15 attempts (212 right sides), and Gustafsson's prediction 1
    from normshift.closedform import CycloidParams, cycloid
    p = CycloidParams(x0=-0.4462438568970988, y0=-0.49645337520261945,
                      theta0=1.4760792737627724, v0=1.1078307288376992,
                      a0=1.3447366183274627)
    t_end = 1.1715322408912854
    times = np.linspace(0.0, t_end, 4000)
    tr = integrate(anisotropic_field(Profile.constant(p.a0)), cycloid(p, 0.0), (0.0, t_end),
                   t_eval=times)
    assert tr.work["rejected_steps"] <= 1 and tr.work["rhs_calls"] <= 170
    exact = cycloid(p, times)
    assert np.max(np.abs(tr.positions() - exact.r)) < 1e-6
    assert np.max(np.abs(tr.velocities() - exact.v)) < 1e-6


def hnw_starting_step(rhs, t, y, tol):
    """The starting step of Hairer, Norsett & Wanner (Solving ODEs I, §II.4)
    for an error of order 7 at absolute and relative tolerance tol, forward
    from (t, y), in the RMS norm."""
    f = rhs(t, y)
    scale = tol + tol * np.abs(y)

    def rms(x):
        return math.sqrt(np.mean((x / scale) ** 2))

    h0 = 0.01 * rms(y) / rms(f)
    d2 = rms(rhs(t + h0, y + h0 * f) - f) / h0
    return min(100.0 * h0, (0.01 / max(rms(f), d2)) ** 0.125)


def test_an_overshooting_first_step_costs_one_rejection(monkeypatch):
    # DOP853 first tries five times HNW's step; on this oscillator that is
    # too long, and the retry, at least a fifth of the attempt, is no
    # shorter than HNW's step
    om2 = 100.0
    launch = np.array([0.0, 0.3, 1.0, 0.0])
    hnw = hnw_starting_step(lambda t, y: np.array([y[2], y[3], 0.0, -om2 * y[1]]),
                            0.0, launch, 1e-10)
    calls, solve = [], odesolve.solve_dopri

    def recorded(rhs, *args, **kwargs):
        return solve(lambda t, y: calls.append(t) or rhs(t, y), *args, **kwargs)

    monkeypatch.setattr(odesolve, "solve_dopri", recorded)
    times = np.linspace(0.0, 1.0, 201)
    tr = integrate(oscillator_field(10.0), PhaseState(launch[:2], launch[2:]), (0.0, 1.0),
                   t_eval=times)
    # the launch slope, the starting-step probe, then the first attempt's stages
    first_attempt = calls[2] / odesolve._dop853()[0][1]
    assert first_attempt == pytest.approx(5.0 * hnw, rel=1e-12)
    assert tr.work["rejected_steps"] <= 1
    assert hnw <= tr.work["first_step"] < first_attempt
    assert np.max(np.abs(tr.positions()[:, 1] - 0.3 * np.cos(10.0 * times))) < 1e-8


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
    base = integrate(f, PhaseState((0, 0), (0.9, 0.8)), (0, 1), t_eval=stencil)
    speeds = {t: float(np.hypot(*base.states[i].v)) for i, t in enumerate(base.times)}
    for t in (0.2, 0.5, 0.8):
        sp, sm = speeds[t + h], speeds[t - h]
        a_val = speed_derivative(f, base.state_at(t))
        assert (sp - sm) / (2 * h) == pytest.approx(a_val, abs=1e-6)
        # reciprocal-speed rate: d(1/|v|)/dt = -A/|v|^2
        assert (1 / sp - 1 / sm) / (2 * h) == pytest.approx(-a_val / speeds[t] ** 2, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(x0=st.floats(0.0, 1.0), y0=st.floats(-0.2, 2.0), theta0=st.floats(math.pi / 3, 2.0),
       v0=st.floats(0.8, 1.3), a0=st.floats(0.7, 1.5), backward=st.booleans(),
       reach=st.floats(1e-3, 0.93), fractions=st.lists(st.floats(0.0, 1.0), min_size=1,
                                                       max_size=35),
       close=st.lists(st.tuples(st.integers(-1, 35), st.floats(0.0, 1e-12)), max_size=5))
def test_sampled_output_times_match_the_cycloid(x0, y0, theta0, v0, a0, backward, reach,
                                                fractions, close):
    # the ranges of test_criterion_5_cycloid_reproduction's cases; output times
    # are sampled from the dense output, never stepped to, however close they
    # lie to each other or to the span's ends
    from normshift.closedform import CycloidParams, cycloid
    p = CycloidParams(x0=x0, y0=y0, theta0=theta0, v0=v0, a0=a0)
    t_end = reach * p.t_interval[0 if backward else 1]
    times = [f * t_end for f in fractions]
    lo, hi = sorted((0.0, t_end))
    # a time within 1e-12 of the start (i = -1), of the end (i past the last
    # time) or of another output time, inside the span
    for i, offset in close:
        anchor = 0.0 if i < 0 else t_end if i >= len(times) else times[i]
        times.append(float(np.clip(anchor + (offset if anchor == lo else -offset), lo, hi)))
    tr = integrate(anisotropic_field(Profile.constant(a0)), cycloid(p, 0.0), (0.0, t_end),
                   t_eval=times)
    exact = cycloid(p, np.array(times))
    assert np.max(np.abs(tr.positions() - exact.r)) < 1e-6
    assert np.max(np.abs(tr.velocities() - exact.v)) < 1e-6


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
    # the cli lays out trajectory.csv: a header, one row per output time, and
    # 17 significant digits, so x = 1/3 reads back as the same double
    cfg = tmp_path / "traj.json"
    cfg.write_text(json.dumps({"field": {"catalogue": "gravity"},
                               "init": {"r": [1 / 3, 0], "v": [0, -1]},
                               "t_span": [0, 1], "n_t": 5}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,y,vx,vy"
    assert len(lines) == 6
    x = float(lines[1].split(",")[1])
    assert x == 1 / 3


def _hermite_reference(sol, t, rhs):
    """Dense output at one time, with the standard-basis cubic Hermite
    through the node values and the slopes ``rhs`` gives there, or a node's
    own value at its time."""
    ts = sol.ts
    if t in ts:
        return sol.ys[np.flatnonzero(ts == t)[0]].copy()
    ascending = ts[-1] >= ts[0]
    grid = ts if ascending else ts[::-1]
    k = int(np.searchsorted(grid, t, side="right")) - 1
    k = min(max(k, 0), len(ts) - 2)
    if not ascending:
        k = len(ts) - 2 - k
    ta, tb = ts[k], ts[k + 1]
    s = (t - ta) / (tb - ta)
    h = tb - ta
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (h00 * sol.ys[k] + h10 * h * rhs(ta, sol.ys[k])
            + h01 * sol.ys[k + 1] + h11 * h * rhs(tb, sol.ys[k + 1]))


def _pendulum(t, y):
    return np.array([y[1], -math.sin(y[0]) + 0.1 * math.cos(t)])


def _pendulum_at_nodes(t, y):
    """``_pendulum`` at a Chebyshev–Picard step's node times and states."""
    return np.stack([y[:, 1], -np.sin(y[:, 0]) + 0.1 * np.cos(t)], axis=-1)


def _decay_through(stops):
    """y' = -y from y(0) = 1 to t = 1 in Chebyshev–Picard steps through stops."""
    return odesolve.solve_chebyshev(lambda t, y: -y, 0.0, [1.0], 1.0, tol=1e-12,
                                    t_stops=stops)


@pytest.mark.parametrize("gap", [5e-16, 5e-15, 2e-14])
@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_close_stops_do_not_underflow_the_step(gap, where):
    # stops closer than the underflow step to each other, or to an end of the
    # span, once forced a step below it
    sol = _decay_through({0.0: [gap], 0.5: [0.5, 0.5 + gap], 1.0: [1.0 - gap]}[where])
    assert sol.ts[-1] == 1.0
    assert sol.ys[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)
    if where == 0.5:
        assert 0.5 in sol.ts


def test_a_close_second_stop_does_not_slow_the_steps_after_it():
    # the step after one clipped to a stop grows from the step proposed before
    # the clip, not from the clipped sliver
    def steps(stops):
        return len(_decay_through(stops).ts) - 1
    assert steps([0.5, 0.5 + 2e-14]) <= steps([0.5]) + 1


def test_stops_are_accepted_nodes_exactly():
    stops = np.linspace(0.0, 3.0, 31)[1:-1]
    sol = odesolve.solve_chebyshev(_pendulum_at_nodes, 0.0, [0.7, 0.0], 3.0, tol=1e-12,
                                   t_stops=stops)
    assert np.all(np.isin(stops, sol.ts))
    assert odesolve.OdeSolution.sample(sol, stops).tobytes() == sol.ys[np.isin(sol.ts, stops)].tobytes()


@pytest.mark.parametrize("t0, t1", [(0.0, 1e-15), (1e6, 1e6 + 1e-9), (0.0, -1e-15)])
def test_a_span_below_the_underflow_step_is_one_step(t0, t1):
    sol = odesolve.solve_dopri(lambda t, y: -y, t0, [1.0], t1)
    assert sol.ts.tolist() == [t0, t1]
    assert sol.ys[-1, 0] == pytest.approx(math.exp(t0 - t1), rel=1e-15)
    # a rejected one is shrunk, which is an underflow
    with pytest.raises(StepFailure, match="underflow") as info:
        odesolve.solve_dopri(lambda t, y: np.full_like(y, np.nan), t0, [1.0], t1)
    assert info.value.solution.rejected_steps == 1


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


def _van_der_pol(t, y):
    return np.array([y[1], 5.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


def test_each_solver_counts_its_work_by_its_own_identity():
    # DOP853: the launch slope, the starting-step probe, 12 right sides per
    # attempt and the 3 extra stages of each accepted step's dense output
    calls = []

    def rhs(t, y):
        calls.append(t)
        return _van_der_pol(t, y)

    sol = odesolve.solve_dopri(rhs, 0.0, [2.0, 0.0], 10.0)
    assert sol.rejected_steps > 0
    assert sol.rhs_calls == len(calls) == 2 + 15 * (len(sol.ts) - 1) + 12 * sol.rejected_steps
    # a zero span takes no step and no probe
    sol = odesolve.solve_dopri(_van_der_pol, 0.5, [2.0, 0.0], 0.5)
    assert (sol.rhs_calls, sol.rejected_steps) == (1, 0)
    # the prefix of a failed solve counts the attempts that failed it
    with pytest.raises(StepFailure, match="underflow") as info:
        odesolve.solve_dopri(lambda t, y: -y if t < 0.5 else np.full_like(y, np.nan),
                             0.0, [1.0], 1.0)
    prefix = info.value.solution
    assert prefix.rejected_steps > 0
    assert prefix.rhs_calls == 2 + 15 * (len(prefix.ts) - 1) + 12 * prefix.rejected_steps
    # RK4: 4 right sides per step and no rejections
    sol = odesolve.solve_rk4(_van_der_pol, 0.0, [2.0, 0.0], 1.0, step=0.1)
    assert (sol.rhs_calls, sol.rejected_steps) == (1 + 4 * (len(sol.ts) - 1), 0)


@pytest.mark.parametrize("case", ["rk4-forward", "rk4-backward"])
def test_dense_sample_matches_scalar_hermite_bit_for_bit(case):
    # RK4's dense output; DOP853's is test_dop853_dense_output_is_its_nested_form_bit_for_bit
    y0 = [0.7, -0.0]
    t1 = 1.0 if case == "rk4-forward" else -1.0
    sol = odesolve.solve_rk4(_pendulum, 0.0, y0, t1, step=0.15)
    assert sol.ts[-1] == t1 and len(sol.ts) == 8
    lo, hi = sorted((sol.ts[0], sol.ts[-1]))
    between = np.linspace(lo, hi, 1001)
    assert sol.coeffs.shape == (len(sol.ts) - 1, 3, 2)
    for times in (between, between[::-1], sol.ts):
        sampled = odesolve.OdeSolution.sample(sol, times)
        reference = np.array([_nested_reference(sol, t) for t in times])
        assert sampled.shape == (len(times), 2)
        assert sampled.tobytes() == reference.tobytes()
        assert sol(times[1 % len(times)]).tobytes() == reference[1 % len(times)].tobytes()
        # the nested rows are the cubic Hermite through the node values and slopes
        hermite = np.array([_hermite_reference(sol, t, _pendulum) for t in times])
        assert np.all(np.abs(sampled - hermite) <= 1e-14 * (1 + np.abs(hermite)))
    with pytest.raises(ValueError, match="outside the integrated interval"):
        sol.sample([lo, hi + 1e-6])


def _nested_reference(sol, t):
    """Dense output at one time, with the scalar nested form of the
    Runge–Kutta interpolant of any number of rows, or a node's own value at
    its time."""
    ts = sol.ts
    ascending = ts[-1] >= ts[0]
    k = int(np.searchsorted(ts if ascending else ts[::-1], t, side="right")) - 1
    k = min(max(k, 0), len(ts) - 2)
    if not ascending:
        k = len(ts) - 2 - k
    ta, tb = ts[k], ts[k + 1]
    if t in (ta, tb):
        return sol.ys[k if t == ta else k + 1].copy()
    x = (t - ta) / (tb - ta)
    # F_0 + (1 - x)(F_1 + x (F_2 + ...)): row j + 1 is weighted by x for even
    # j + 1, by 1 - x for odd
    f = sol.coeffs[k]
    inner = f[-1]
    for j in range(len(f) - 2, -1, -1):
        inner = f[j] + ((1 - x) if j % 2 == 0 else x) * inner
    return sol.ys[k] + x * inner


@pytest.mark.parametrize("case", ["forward", "backward", "zero-span"])
def test_dop853_dense_output_is_its_nested_form_bit_for_bit(case):
    y0 = [0.7, -0.0]
    if case == "forward":
        sol = odesolve.solve_dopri(_pendulum, 0.0, y0, 3.0, abs_tol=1e-8, rel_tol=1e-8)
    elif case == "backward":
        sol = odesolve.solve_dopri(_pendulum, 0.5, y0, -2.5, abs_tol=1e-8, rel_tol=1e-8)
    else:
        sol = odesolve.solve_dopri(_pendulum, 0.5, y0, 0.5)
        assert len(sol.ts) == 1 and sol.coeffs.shape == (0, 7, 2)
    assert sol.coeffs.shape == (len(sol.ts) - 1, 7, 2)
    # every node, the -0.0 of the initial state included, is its own value
    assert odesolve.OdeSolution.sample(sol, sol.ts).tobytes() == sol.ys.tobytes()
    lo, hi = sorted((sol.ts[0], sol.ts[-1]))
    between = np.linspace(lo, hi, 1001)
    for times in (between, between[::-1]):
        sampled = odesolve.OdeSolution.sample(sol, times)
        reference = np.array([_nested_reference(sol, t) for t in times])
        assert sampled.shape == (len(times), 2)
        assert sampled.tobytes() == reference.tobytes()
        assert sol(times[1]).tobytes() == reference[1].tobytes()
    with pytest.raises(ValueError, match="outside the integrated interval"):
        sol.sample([lo, hi + 1e-6])