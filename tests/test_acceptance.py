"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances and runtime
budgets are fixed here and are not calibration knobs.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from helpers import (christoffel_flow_positions, perturbed_mdtype, random_ansatz,
                     random_metric, random_spline_points)

from normshift.forces import (Profile, ScalarFieldA, ab_decompose, anisotropic_field,
                              cos_profile_ansatz, covariant_from_flat,
                              disc_invariant_ansatz, flat_from_covariant,
                              from_scalar_ansatz, gravity_field, marked_point_field,
                              mdtype_field, oscillator_field, speed_profile_ansatz)
from normshift.errors import DegenerateVelocity, StepFailure
from normshift.geometry import ConformalMetric, V_MIN, frame, projector
from normshift.dynamics import (IntegratorConfig, PhaseState, integrate,
                                integrate_deviation)
from normshift.normality import (b_closed_form, complex_residual, first_integrals,
                                 characteristic_flow, probe_points, reduced_residual,
                                 reduction_b_residual, weak_residuals)
from normshift.closedform import (CycloidParams, cycloid, gravity_shift,
                                  marked_point_quadrature, oscillator_phi)
from normshift.shift import (circle_arc, frenet, normal_shift,
                             normality_report, segment_on_axis, solve_nu,
                             spline_through, tilted_line)


@contextmanager
def criterion(number: int, summary: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"ACCEPTANCE {number}: PASS - {summary} ({elapsed:.2f}s)")


def test_criterion_1_gravity_normal_shift():
    with criterion(1, "gravity shift with unit speed is normal and matches the "
                      "closed front", 1.0):
        seg = segment_on_axis(-1.0, 1.0, normal="right")
        grid = normal_shift(seg, gravity_field(), Profile.constant(1.0), (0, 1),
                            n_s=64, n_t=100)
        worst = 0.0
        for i, t in enumerate(grid.t_nodes):
            for j, s in enumerate(grid.s_nodes):
                worst = max(worst, float(np.max(
                    np.abs(grid.r[i, j] - gravity_shift(s, t)))))
        assert worst < 1e-8, f"front error {worst:.3e}"
        assert grid.max_abs_phi() < 1e-8
        assert normality_report(grid)["verdict"] == "normal"


def test_criterion_2_gravity_linear_speed_not_normal():
    with criterion(2, "gravity shift with linear speed profile is not normal", 1.0):
        seg = segment_on_axis(-1.0, 1.0, normal="right")
        grid = normal_shift(seg, gravity_field(),
                            Profile.polynomial([0.75, -0.25]), (0, 1), n_s=64, n_t=100)
        assert np.max(np.abs(grid.phi[-1, :])) > 1e-2
        assert normality_report(grid)["verdict"] == "not normal"


def test_criterion_3_oscillator_impossibility():
    with criterion(3, "no speed profile normalizes the oscillator shift on the "
                      "tilted line; deviation matches the closed form", 2.0):
        om = 1.0
        f = oscillator_field(om)
        tl = tilted_line()
        for nu0 in (0.5, 1.0, 2.0):
            nu = solve_nu(tl, f, 0.0, nu0)
            grid = normal_shift(tl, f, nu, (0, 1), n_s=16, n_t=21)
            assert grid.max_abs_phi() > 1e-3, f"nu0={nu0}"
            assert normality_report(grid)["verdict"] == "not normal"

        # constant-speed sub-case against the explicit deviation formula
        s0, nu_c = 0.7, 1.0
        _, n, _ = frenet(tl, s0)
        t_eval = np.linspace(0, 1, 41)
        tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
        base = integrate(f, PhaseState(tl.jet(s0)[0], nu_c * n), (0, 1),
                         t_eval=t_eval, cfg=tight)
        _, phi, _ = integrate_deviation(f, base.initial.r, base.initial.v, tl.jet(s0)[1],
                                        np.zeros(2), base.times, tight)
        prof = Profile.constant(nu_c)
        for i, t in enumerate(t_eval):
            speed = float(np.hypot(*base.states[i].v))
            assert 2.0 * speed * phi[i] == pytest.approx(
                oscillator_phi(prof, om, s0, t), abs=1e-8)


def test_criterion_4_mdtype_fields_at_desk_scale():
    with criterion(4, "randomized multidimensional-type fields pass the weak "
                      "equations and shift normally", 30.0):
        rng = np.random.default_rng(2024)
        probes = probe_points(200, seed=77)
        for trial in range(5):
            md = perturbed_mdtype(rng)
            # the construction keeps W_v away from zero
            for x, y, v in ((0.0, 0.0, 1.0), (1.0, -1.0, 2.0), (-0.5, 0.5, 0.7)):
                assert abs(md.w(x, y, v)[1]) > 0.1
            field = mdtype_field(md)
            worst = 0.0
            for x, y, v, th in probes:
                r1, r2 = weak_residuals(
                    field, np.array([x, y]),
                    np.array([v * math.cos(th), v * math.sin(th)]))
                worst = max(worst, abs(r1), abs(r2))
            assert worst < 1e-5, f"trial {trial}: weak residual {worst:.3e}"

            curve = spline_through(random_spline_points(rng))
            nu = solve_nu(curve, field, 0.5, 1.0)
            grid = normal_shift(curve, field, nu, (0, 0.5), n_s=12, n_t=21)
            assert grid.max_abs_phi() < 1e-6, f"trial {trial}"


def test_criterion_5_cycloid_reproduction():
    with criterion(5, "constant anisotropic field reproduces cycloid "
                      "trajectories", 2.0):
        cases = [(0.0, 0.0, math.pi / 3, 1.0, 1.0),
                 (0.5, -0.2, math.pi / 2, 0.8, 1.5),
                 (1.0, 2.0, 2.0, 1.3, 0.7)]
        for x0, y0, th0, v0, a0 in cases:
            p = CycloidParams(x0=x0, y0=y0, theta0=th0, v0=v0, a0=a0)
            lo, hi = p.t_interval
            field = anisotropic_field(Profile.constant(a0))
            init = cycloid(p, 0.0)
            for t_end in (0.93 * hi, 0.93 * lo):
                ts = np.linspace(0, t_end, 12)
                tr = integrate(field, init, (0, t_end), t_eval=ts)
                for i, t in enumerate(ts):
                    st = cycloid(p, t)
                    assert np.max(np.abs(tr.positions()[i] - st.r)) < 1e-6
                    assert np.max(np.abs(tr.velocities()[i] - st.v)) < 1e-6


def test_criterion_6_marked_point_quadrature():
    with criterion(6, "marked-point quadrature pipeline reconstructs the "
                      "integrated trajectory", 5.0):
        prof = Profile.constant(1.0)
        rho0, gamma0, v0, theta0 = 1.0, 0.0, 1.5, math.pi / 3
        table = marked_point_quadrature(prof, (rho0, gamma0, v0, theta0), 0.35)
        T = table.duration
        heading = gamma0 + theta0
        init = PhaseState((rho0 * math.cos(gamma0), rho0 * math.sin(gamma0)),
                          (v0 * math.cos(heading), v0 * math.sin(heading)))
        field = marked_point_field(prof)
        ts = np.linspace(0, 0.98 * T, 30)
        tr = integrate(field, init, (0, 0.98 * T), t_eval=ts)
        for i, t in enumerate(ts):
            st = table.state_at(t)
            assert np.max(np.abs(tr.positions()[i] - st.r)) < 1e-5
            assert np.max(np.abs(tr.velocities()[i] - st.v)) < 1e-5


def test_criterion_7_residual_formulation_concordance():
    with criterion(7, "polar, frame-component and complex residuals agree on "
                      "zero/nonzero classification", 10.0):
        thresh = 1e-5
        solutions = [
            speed_profile_ansatz(Profile.polynomial([1.0, 0.5, 0.1])),
            cos_profile_ansatz(Profile.polynomial([0.8, 0.3])),
            disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3])),
        ]
        probes = probe_points(20, seed=13)
        for a in solutions:
            field = from_scalar_ansatz(a)
            for x, y, v, th in probes:
                x, y = 0.4 * x, 0.4 * y  # keep inside the disc solution's domain
                pos = np.array([x, y])
                vel = np.array([v * math.cos(th), v * math.sin(th)])
                rr = reduced_residual(a, x, y, v, th)
                _, r2 = weak_residuals(field, pos, vel)
                rc = complex_residual(a, complex(x, y), complex(*vel))
                assert abs(rr) < thresh and abs(r2) < thresh and abs(rc) < thresh

        rng = np.random.default_rng(99)
        probes = probe_points(100, seed=14)
        for k in range(100):
            base = random_ansatz(rng, n_terms=2)
            a = ScalarFieldA(lambda x, y, v, t, b=base: b(x, y, v, t) + 0.4 * v * v * t)
            field = from_scalar_ansatz(a)
            x, y, v, th = probes[k]
            pos = np.array([x, y])
            vel = np.array([v * math.cos(th), v * math.sin(th)])
            rr = reduced_residual(a, x, y, v, th)
            _, r2 = weak_residuals(field, pos, vel)
            rc = complex_residual(a, complex(x, y), complex(*vel))
            states = {abs(rr) < thresh, abs(r2) < thresh, abs(rc) < thresh}
            assert states == {False}, f"probe {k}: {rr:.2e} {r2:.2e} {abs(rc):.2e}"


def test_criterion_8_conformal_equivalence():
    with criterion(8, "covariant dynamics and the transported flat dynamics "
                      "trace the same trajectories", 5.0):
        metric = ConformalMetric(
            f=lambda x, y: 0.3 * math.sin(x) * math.cos(y),
            grad_f=lambda x, y: (0.3 * math.cos(x) * math.cos(y),
                                 -0.3 * math.sin(x) * math.sin(y)))
        cov_field = covariant_from_flat(
            from_scalar_ansatz(cos_profile_ansatz(Profile.constant(0.6))), metric)
        flat_field = flat_from_covariant(cov_field, metric)
        rng = np.random.default_rng(321)
        t_eval = np.linspace(0, 1, 21)
        for _ in range(10):
            init = PhaseState(rng.uniform(-1.5, 1.5, 2), rng.uniform(0.6, 1.6, 2))
            cov = christoffel_flow_positions(cov_field, metric, init, t_eval)
            flat = integrate(flat_field, init, (0, 1), t_eval=t_eval)
            assert np.max(np.abs(cov - flat.positions())) < 1e-8


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       v=st.tuples(st.floats(0.6, 1.6), st.floats(0.6, 1.6)))
def test_conformal_equivalence_holds_for_random_metrics(seed, r, v):
    # criterion 8 for a random metric, generator and launch.  A flow that
    # comes to rest, or passes within 0.1 of it, is left out: the field turns
    # with the direction of v there and amplifies the integrators' error (one
    # pass at |v| = 0.005 differed by 9.2e-8, by 4.8e-10 at tolerance 1e-12)
    rng = np.random.default_rng(seed)
    metric = random_metric(rng)
    cov_field = covariant_from_flat(from_scalar_ansatz(random_ansatz(rng)), metric)
    init = PhaseState(np.array(r), np.array(v))
    t_eval = np.linspace(0, 1, 21)
    try:
        flat = integrate(flat_from_covariant(cov_field, metric), init, (0, 1), t_eval=t_eval)
    except (DegenerateVelocity, StepFailure):
        reject()
    velocities = flat.velocities()
    assume(np.min(np.hypot(velocities[:, 0], velocities[:, 1])) >= 0.1)
    cov = christoffel_flow_positions(cov_field, metric, init, t_eval)
    assert np.max(np.abs(cov - flat.positions())) < 1e-8


def test_criterion_9_symmetry_reduction_checks():
    with criterion(9, "closed-form b solves its reduced equation and the "
                      "characteristic invariants hold", 5.0):
        u = 1.0

        def b(v, t):
            return b_closed_form(v, t, u)

        rng = np.random.default_rng(55)
        checked = 0
        while checked < 50:
            v = float(rng.uniform(0.5, 3.0))
            th = float(rng.uniform(-math.pi, math.pi))
            den = 4 * u * v * math.sin(th) + 2 * u * u - v * v * math.cos(2 * th)
            rad = v * v + 4 * u * v * math.sin(th) + 2 * u * u
            if abs(den) < 0.3 or rad < 0.05:
                continue
            assert abs(reduction_b_residual(b, v, th)) < 1e-11
            checked += 1

        _, states = characteristic_flow(1.0, 0.5, 0.7, (0, 1))
        i1, i2 = first_integrals(*states.T, u)
        assert np.ptp(i1) < 1e-8
        assert np.ptp(i2) < 1e-8


def test_criterion_10_structural_invariants():
    with criterion(10, "frame, deviation, speed-rate, curvature-rate, linearity "
                       "and integrator-order invariants", 10.0):
        rng = np.random.default_rng(4)
        # frame and projector identities over twelve decades of speed
        for _ in range(1000):
            speed = 10 ** rng.uniform(math.log10(V_MIN), 3)
            ang = rng.uniform(-math.pi, math.pi)
            v = speed * np.array([math.cos(ang), math.sin(ang)])
            fr = frame(v)
            p = projector(v)
            assert abs(np.hypot(*fr.N) - 1) < 1e-12
            assert abs(fr.N @ fr.M) < 1e-12
            assert abs(np.linalg.det(np.column_stack([fr.N, fr.M])) - 1) < 1e-12
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p @ fr.N)) < 1e-12

        # tau = phi N + psi M along a deviation integration
        tight = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13)
        field = anisotropic_field(Profile.constant(0.8))
        base = integrate(field, PhaseState((0, 0), (1.0, 0.4)), (0, 1),
                         t_eval=np.linspace(0, 1, 11), cfg=tight)
        ys, phi, psi = integrate_deviation(field, base.initial.r, base.initial.v,
                                           [0.2, 0.5], [-0.1, 0.3], base.times, tight)
        for i in range(11):
            fr = frame(base.states[i].v)
            rebuilt = phi[i] * fr.N + psi[i] * fr.M
            assert np.max(np.abs(rebuilt - ys[i, 4:6])) < 1e-10

        # d|v|/dt = A by finite differences of the dense output
        h = 1e-5
        stencil = sorted({0.0, 1.0} | {t + k * h for t in (0.3, 0.6) for k in (-1, 1)})
        tr = integrate(field, PhaseState((0, 0), (0.9, 0.8)), (0, 1), t_eval=stencil)
        speeds = {t: float(np.hypot(*tr.states[i].v)) for i, t in enumerate(tr.times)}
        for t in (0.3, 0.6):
            fd = (speeds[t + h] - speeds[t - h]) / (2 * h)
            state = tr.state_at(t)
            assert fd == pytest.approx(ab_decompose(field, state.r, state.v).A, abs=1e-6)

        # psi'(0) = -nu k (so |psi'(0)| = |k| at unit speed), via a 5-point stencil
        from test_shift import magnetic_field, stencil_rate
        circ = circle_arc((0, 0), 2.0, (0.3, 2.8), normal="right")
        mag = magnetic_field(0.1)
        nu = solve_nu(circ, mag, 1.3, 1.0)
        dt = 0.01
        part = dataclasses.replace(circ, s_range=(0.8, 1.8))
        fwd = normal_shift(part, mag, nu, (0, 2 * dt), n_s=5, n_t=3)
        bwd = normal_shift(part, mag, nu, (0, -2 * dt), n_s=5, n_t=3)
        for j, s in enumerate(fwd.s_nodes):
            _, _, k = frenet(circ, s)
            col = np.array([bwd.psi[2, j], bwd.psi[1, j], fwd.psi[0, j],
                            fwd.psi[1, j], fwd.psi[2, j]])
            assert stencil_rate(col, dt) == pytest.approx(-fwd.nu[j] * k, abs=1e-6)

        # linearity of the variational flow
        osc = oscillator_field(1.2)
        base = integrate(osc, PhaseState((0.2, 0.1), (0.5, 1.0)), (0, 1.5),
                         t_eval=np.linspace(0, 1.5, 7), cfg=tight)
        r0, v0 = base.initial.r, base.initial.v
        a, _, _ = integrate_deviation(osc, r0, v0, [1.0, 0.0], [0.0, 0.3], base.times, tight)
        b, _, _ = integrate_deviation(osc, r0, v0, [0.0, -0.5], [0.7, 0.0], base.times, tight)
        combo, _, _ = integrate_deviation(osc, r0, v0, [2.0, -1.5], [2.1, 0.6],
                                          base.times, tight)
        for i in range(7):
            assert np.max(np.abs(2 * a[i, 4:6] + 3 * b[i, 4:6] - combo[i, 4:6])) < 1e-9

        # fixed-step integrator shows fourth-order error decay on a closed form
        exact = math.sin(2.0)

        def endpoint_error(step):
            cfg = IntegratorConfig(method="rk4-fixed", step=step)
            t = integrate(oscillator_field(1.0), PhaseState((0, 0), (0, 1)),
                          (0, 2), cfg)
            return abs(t.positions()[-1][1] - exact)

        assert endpoint_error(0.05) / endpoint_error(0.025) >= 14.0
