import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import richardson_one_point

from normshift.errors import OutOfInterval, SingularQuadrature
from normshift.forces import Profile, anisotropic_field, marked_point_field
from normshift.dynamics import IntegratorConfig, PhaseState, integrate
from normshift.closedform import (CycloidParams, adaptive_simpson,
                                  cycloid, gravity_shift, marked_point_quadrature,
                                  oscillator_phi)


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda x: math.exp(-x * x), -3, 3) == pytest.approx(
        math.sqrt(math.pi) * math.erf(3.0), abs=1e-9)
    assert adaptive_simpson(lambda x: x, 1, 1) == 0.0


def test_gravity_shift_values():
    assert np.allclose(gravity_shift(0.0, 0.0), [0, 0])
    assert np.allclose(gravity_shift(0.5, 1.0), [0.5, -1.5])
    # nu(1) = 0.5, so y(2) = -2 - 1
    assert np.allclose(gravity_shift(1.0, 2.0, "linear_nu"), [1.0, -3.0])
    with pytest.raises(ValueError):
        gravity_shift(0.0, 0.0, "bogus")


def test_oscillator_phi_values():
    one = Profile.constant(1.0)
    for s in (-1.0, 0.0, 0.7):
        assert oscillator_phi(one, 2.0, s, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert oscillator_phi(one, 1.0, 1.0, math.pi / 2) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        oscillator_phi(one, 0.0, 0.0, 0.1)


def test_oscillator_phi_matches_variational_deviation():
    from normshift.forces import oscillator_field
    from normshift.dynamics import integrate_deviation
    from normshift.shift import frenet, tilted_line

    om, s0, nu_c = 1.3, 0.7, 1.0
    tl = tilted_line()
    _, n, _ = frenet(tl, s0)
    f = oscillator_field(om)
    t_eval = np.linspace(0, 1, 21)
    cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    base = integrate(f, PhaseState(tl.jet(s0)[0], nu_c * n), (0, 1),
                     t_eval=t_eval, cfg=cfg)
    _, phi, _ = integrate_deviation(f, base.initial.r, base.initial.v, tl.jet(s0)[1],
                                    np.zeros(2), base.times, cfg)
    prof = Profile.constant(nu_c)
    for i, t in enumerate(t_eval):
        speed = float(np.hypot(*base.states[i].v))
        # the closed form carries the 2 <dr/ds, dr/dt> normalization
        assert 2.0 * speed * phi[i] == pytest.approx(
            oscillator_phi(prof, om, s0, t), abs=1e-8)


def test_cycloid_params_and_initial_point():
    p = CycloidParams(x0=1.0, y0=-2.0, theta0=math.pi / 3, v0=1.0, a0=2.0)
    assert p.omega == pytest.approx(2.0 * math.sin(math.pi / 3))
    st = cycloid(p, 0.0)
    assert np.allclose(st.r, [1.0, -2.0], atol=1e-14)
    assert np.allclose(st.v, [math.cos(math.pi / 3), math.sin(math.pi / 3)], atol=1e-12)
    with pytest.raises(ValueError):
        CycloidParams(0, 0, theta0=0.0, v0=1.0, a0=1.0)
    with pytest.raises(ValueError):
        CycloidParams(0, 0, theta0=1.0, v0=-1.0, a0=1.0)


def test_cycloid_quarter_turn_example():
    p = CycloidParams(x0=0.0, y0=0.0, theta0=math.pi / 2, v0=1.0, a0=1.0)
    assert p.omega == pytest.approx(1.0)
    st = cycloid(p, math.pi / 2)
    assert np.allclose(st.r, [-0.5, math.pi / 4], atol=1e-12)
    assert np.hypot(*st.v) == pytest.approx(0.0, abs=1e-12)  # interval boundary


def test_cycloid_out_of_interval():
    p = CycloidParams(0, 0, theta0=math.pi / 2, v0=1.0, a0=1.0)
    lo, hi = p.t_interval
    with pytest.raises(OutOfInterval):
        cycloid(p, hi + 0.1)
    with pytest.raises(OutOfInterval):
        cycloid(p, lo - 0.1)


def test_cycloid_periodicity_structure():
    # over the full admissible interval x returns to its start and y advances
    # by a0 pi / (2 w^2)
    p = CycloidParams(x0=0.3, y0=-0.1, theta0=1.1, v0=0.9, a0=1.4)
    lo, hi = p.t_interval
    assert hi - lo == pytest.approx(math.pi / p.omega)
    st_lo, st_hi = cycloid(p, lo), cycloid(p, hi)
    assert st_hi.r[0] == pytest.approx(st_lo.r[0], abs=1e-12)
    assert st_hi.r[1] - st_lo.r[1] == pytest.approx(
        p.a0 * math.pi / (2 * p.omega**2), abs=1e-12)


def test_oracles_on_an_array_of_t_equal_the_per_t_calls():
    p = CycloidParams(x0=0.3, y0=-0.1, theta0=1.1, v0=0.9, a0=1.4)
    lo, hi = p.t_interval
    ts = np.linspace(lo, hi, 41)
    states = cycloid(p, ts)
    assert states.r.shape == states.v.shape == (41, 2)
    assert states.r.tobytes() == np.array([cycloid(p, t).r for t in ts]).tobytes()
    assert states.v.tobytes() == np.array([cycloid(p, t).v for t in ts]).tobytes()
    grid = cycloid(p, ts.reshape(41, 1))
    assert grid.r.shape == (41, 1, 2)
    for variant in ("constant_nu", "linear_nu"):
        front = gravity_shift(0.4, ts, variant)
        assert front.shape == (41, 2)
        assert front.tobytes() == np.array([gravity_shift(0.4, t, variant) for t in ts]).tobytes()
    # one time outside the interval is enough
    with pytest.raises(OutOfInterval):
        cycloid(p, np.append(ts, hi + 0.1))


def test_phase_state_holds_stacked_points():
    st = PhaseState(np.zeros((3, 2)), np.ones((3, 2)))
    assert st.packed().shape == (3, 4)
    for r, v in (((0, 0, 0), (1, 0, 0)), (np.zeros((3, 2)), (1, 0)), (0.0, 1.0)):
        with pytest.raises(ValueError):
            PhaseState(r, v)
    with pytest.raises(ValueError):
        PhaseState(np.zeros((3, 2)), [[1, 0], [1, 0], [np.inf, 0]])


def test_cycloid_matches_integration():
    p = CycloidParams(x0=0.0, y0=0.0, theta0=math.pi / 3, v0=1.0, a0=1.0)
    lo, hi = p.t_interval
    f = anisotropic_field(Profile.constant(p.a0))
    init = cycloid(p, 0.0)
    ts = np.linspace(0, 0.9 * hi, 15)
    tr = integrate(f, init, (0, 0.9 * hi), t_eval=ts)
    for i, t in enumerate(ts):
        st = cycloid(p, t)
        assert np.max(np.abs(tr.positions()[i] - st.r)) < 1e-6
        assert np.max(np.abs(tr.velocities()[i] - st.v)) < 1e-6


MP_INIT = (1.0, 0.0, 1.5, math.pi / 3)  # rho0, gamma0, v0, theta0


def launch(init) -> PhaseState:
    """The phase point of a quadrature launch (rho0, gamma0, v0, theta0)."""
    rho0, gamma0, v0, theta0 = init
    heading = gamma0 + theta0
    return PhaseState((rho0 * math.cos(gamma0), rho0 * math.sin(gamma0)),
                      (v0 * math.cos(heading), v0 * math.sin(heading)))


def quadrature_error(prof, init, table, ts) -> float:
    """Largest deviation of the table's states at ``ts`` from DOP853 at 1e-13."""
    tr = integrate(marked_point_field(prof), launch(init), (0, ts[-1]),
                   IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13), t_eval=ts)
    return max(float(np.max(np.abs(np.concatenate([tr.positions()[i] - st.r,
                                                   tr.velocities()[i] - st.v]))))
               for i, st in enumerate(map(table.state_at, ts)))


def test_marked_point_quadrature_against_integration():
    # the default table, and the 40-node one of test_quadrature_table_csv
    prof = Profile.constant(1.0)
    for theta_end, n_nodes, bound in ((0.35, 200, 1e-5), (0.6, 40, 5e-8)):
        table = marked_point_quadrature(prof, MP_INIT, theta_end, n_nodes=n_nodes)
        T = table.duration
        assert T > 0
        assert quadrature_error(prof, MP_INIT, table, np.linspace(0, 0.98 * T, 25)) < bound


def test_marked_point_radius_slope_consistency():
    prof = Profile.constant(1.0)
    table = marked_point_quadrature(prof, MP_INIT, 0.35)
    th_mid = 0.5 * (table.theta[0] + table.theta[-1])
    drho = richardson_one_point(table.rho_at, th_mid)
    v = table.v_at(th_mid)
    rhs = table.rho_at(th_mid) * v * v / (math.tan(th_mid) * (prof(v) - v * v))
    assert drho == pytest.approx(rhs, abs=1e-5)


def test_marked_point_rejects_sin_theta_crossing():
    with pytest.raises(SingularQuadrature):
        marked_point_quadrature(Profile.constant(1.0), MP_INIT, -0.2)


def test_marked_point_rejects_critical_speed():
    # A(v0) = v0^2 makes the speed relation singular at the start
    with pytest.raises(SingularQuadrature):
        marked_point_quadrature(Profile.constant(2.25), MP_INIT, 0.35)


def test_marked_point_speed_that_must_pass_the_critical_speed_is_refused_at_once():
    # A(v) = v^2 at v ~ 0.81; from theta ~ 0.727 on the speed relation has no
    # root below it, which must be said at once rather than searched for
    start = time.perf_counter()
    with pytest.raises(SingularQuadrature, match=r"theta=0\.727273"):
        marked_point_quadrature(Profile.polynomial([0.5, 0.2]), (1.0, 0.0, 0.3, 0.4), 1.3,
                                n_nodes=100)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.3, 3.0), b=st.just(0.0) | st.floats(0.05, 0.5), below=st.booleans(),
       ratio=st.floats(0.2, 0.9), theta0=st.floats(0.3, math.pi - 0.3),
       theta_end=st.floats(0.3, math.pi - 0.3))
# 1.27e-6 when the table's nodes were uniform in theta
@example(a=2.0, b=0.0, below=True, ratio=0.556640625, theta0=2.236524559061418, theta_end=1.0)
def test_marked_point_speeds_are_brentq_roots_of_the_speed_relation(a, b, below, ratio, theta0,
                                                                    theta_end):
    """A = a + b v, launched below or above the critical speed c where
    A(c) = c^2.  The speed relation is G(v) = log|sin theta / sin theta0|,
    with G the integral of (A - u^2)/(u A) from v0, here in closed form; on
    either branch G is monotone with its supremum at c.  Either every node
    has a root there, and the table's speeds are those roots and its states
    follow DOP853; or some node of the first, theta-uniform pass has none,
    and the quadrature says so at once.  theta keeps 0.3 from 0 and pi: at
    0.2 hypothesis seed 100 finds a = 1, v0 = c / 0.890625, theta from 1 to
    0.203125, whose states are 1.06e-6 off."""
    from scipy.optimize import brentq

    assume(abs(theta_end - theta0) >= 0.05)
    crit = 0.5 * (b + math.sqrt(b * b + 4.0 * a))
    v0 = ratio * crit if below else crit / ratio
    a0 = a + b * v0

    def big_g(u):
        linear = ((u * u - v0 * v0) / (2.0 * a) if b == 0.0
                  else (u - v0) / b - a / (b * b) * math.log1p(b * (u - v0) / a0))
        return math.log(u / v0) - linear

    targets = np.log(np.abs(np.sin(np.linspace(theta0, theta_end, 200)) / math.sin(theta0)))
    prof = Profile.constant(a) if b == 0.0 else Profile.polynomial([a, b])
    init = (1.0, 0.0, v0, theta0)
    start = time.perf_counter()
    if np.max(targets) >= big_g(crit):
        with pytest.raises(SingularQuadrature, match="theta="):
            marked_point_quadrature(prof, init, theta_end)
        assert time.perf_counter() - start < 1.0
        return
    table = marked_point_quadrature(prof, init, theta_end)
    bracket = (1e-3 * v0, crit) if below else (crit, crit + 1e3)
    reference = [brentq(lambda u: big_g(u) - x, *bracket, xtol=1e-300, rtol=8.9e-16)
                 for x in np.log(np.abs(np.sin(table.theta[1:]) / math.sin(theta0)))]
    np.testing.assert_allclose(table.v[1:], reference, rtol=1e-12, atol=0.0)
    assert quadrature_error(prof, init, table, np.linspace(0, table.duration, 12)) < 1e-6


def test_quadrature_state_out_of_range():
    table = marked_point_quadrature(Profile.constant(1.0), MP_INIT, 0.6, n_nodes=40)
    with pytest.raises(OutOfInterval):
        table.state_at(table.duration * 2 + 1.0)
