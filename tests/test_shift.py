import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import NU_FIELDS, RATE_PARAMS, perturbed_mdtype, random_spline_points

from normshift.cli import main
from normshift.dynamics import IntegratorConfig, PhaseState, integrate
from normshift.errors import InvalidParams, NuBlowup, SingularCurve, StepFailure
from normshift.experiment import CATALOGUE, build_metric, catalogue
from normshift.forces import (ForceField, Profile, flat_from_covariant,
                              gravity_field, mdtype_field,
                              oscillator_field, speed_profile_ansatz,
                              from_scalar_ansatz)
from normshift.geometry import PiecewiseCubic, frame
from normshift.closedform import gravity_shift
from normshift.shift import (Curve, ShiftGrid, circle_arc, frenet, line_segment,
                             normal_shift, normality_report,
                             segment_on_axis, solve_nu, spline_through, tilted_line)


def magnetic_field(b0: float) -> ForceField:
    """Force of constant magnitude perpendicular to the velocity: A = 0, B = b0."""
    return ForceField(fn=lambda r, v: b0 * frame(v).M)


def test_frenet_straight_line():
    seg = segment_on_axis(normal="right")
    tangent, n, k = frenet(seg, 0.3)
    assert np.allclose(tangent, [1, 0])
    assert np.allclose(n, [0, -1])
    assert k == 0.0
    left = segment_on_axis(normal="left")
    _, n, _ = frenet(left, 0.3)
    assert np.allclose(n, [0, 1])


def test_frenet_circle_curvature():
    c = circle_arc((0, 0), 2.0, (0, math.pi))
    for s in (0.1, 1.0, 2.5):
        _, _, k = frenet(c, s)
        assert abs(k) == pytest.approx(0.5, abs=1e-12)


def test_frenet_tilted_line():
    tl = tilted_line()
    tangent, n, k = frenet(tl, 0.0)
    assert np.allclose(tangent, np.array([1, 1]) / math.sqrt(2))
    assert np.allclose(n, np.array([-1, 1]) / math.sqrt(2))
    assert k == 0.0


def test_frenet_singular_curve():
    bad = Curve(jet=lambda s: [np.zeros(np.shape(s) + (2,))] * 3, s_range=(0, 1))
    with pytest.raises(SingularCurve):
        frenet(bad, 0.5)


def test_solve_nu_constant_when_b_vanishes():
    # force along the velocity: B = 0 everywhere
    f = from_scalar_ansatz(speed_profile_ansatz(Profile.constant(0.5)))
    curve = spline_through([[0, 0], [0.5, 0.3], [1.0, 0.1]])
    nu = solve_nu(curve, f, 0.5, 2.0)
    for s in np.linspace(nu.s_lo, nu.s_hi, 9):
        assert nu(s) == pytest.approx(2.0, abs=1e-10)


def test_solve_nu_gravity_horizontal_segment():
    seg = segment_on_axis(normal="right")
    nu = solve_nu(seg, gravity_field(), 0.0, 1.0)
    assert not nu.truncated
    for s in np.linspace(-1, 1, 11):
        assert nu(s) == pytest.approx(1.0, abs=1e-12)
        assert nu.jet(s)[1] == pytest.approx(0.0, abs=1e-12)


def test_solve_nu_truncates_before_zero_crossing():
    # on the horizontal segment (right normal) with B = b0: nu^2 = nu0^2 - 2 b0 s
    seg = segment_on_axis(0.0, 1.0, normal="right")
    nu = solve_nu(seg, magnetic_field(1.0), 0.0, 0.5)
    assert nu.truncated
    assert nu.s_hi < 0.130  # analytic zero crossing at s = 0.125
    s_ok = nu.s_hi * 0.5
    assert nu(s_ok) == pytest.approx(math.sqrt(0.25 - 2 * s_ok), abs=1e-6)
    with pytest.raises(NuBlowup):
        nu(0.5)


def test_solve_nu_stop_reason_and_propagated_errors():
    seg = segment_on_axis(0.0, 1.0, normal="right")
    nu = solve_nu(seg, magnetic_field(1.0), 0.0, 0.5)
    assert nu.stop_reason.startswith("on [") and "fell below" in nu.stop_reason
    assert solve_nu(seg, gravity_field(), 0.0, 1.0).stop_reason is None

    def broken(exc):
        def fn(r, v):
            if np.any(r[..., 0] > 0.5):
                raise exc("boom")
            return np.zeros_like(r)
        return ForceField(fn=fn)

    # float overflow and zero division still truncate, with the reason kept
    for exc in (OverflowError, ZeroDivisionError):
        nu = solve_nu(seg, broken(exc), 0.0, 1.0)
        assert nu.truncated and 0.4 < nu.s_hi <= 0.5
        assert f"{exc.__name__}: boom" in nu.stop_reason
    # a programming error in the field is not a truncation
    with pytest.raises(TypeError, match="boom"):
        solve_nu(seg, broken(TypeError), 0.0, 1.0)


def test_solve_nu_validates_inputs():
    seg = segment_on_axis()
    with pytest.raises(ValueError):
        solve_nu(seg, gravity_field(), 0.0, 0.0)
    with pytest.raises(ValueError):
        solve_nu(seg, gravity_field(), 5.0, 1.0)


def test_gravity_shift_constant_nu_matches_closed_form():
    seg = segment_on_axis(normal="right")
    grid = normal_shift(seg, gravity_field(), Profile.constant(1.0), (0, 1),
                        n_s=9, n_t=11)
    for i, t in enumerate(grid.t_nodes):
        for j, s in enumerate(grid.s_nodes):
            assert np.max(np.abs(grid.r[i, j] - gravity_shift(s, t))) < 1e-8
    assert grid.max_abs_phi() < 1e-8
    rep = normality_report(grid)
    assert rep["verdict"] == "normal"


def test_grid_first_row_is_the_launch_data_bit_for_bit():
    # the left normal of (s, 0) is (-0.0, 1.0): the -0.0 of vx must survive
    seg = segment_on_axis(normal="left")
    grid = normal_shift(seg, gravity_field(), Profile.constant(1.0), (0, 0.5),
                        n_s=5, n_t=4)
    assert np.all(np.signbit(grid.v[0, :, 0]))
    for j, s in enumerate(grid.s_nodes):
        _, n, _ = frenet(seg, s)
        assert grid.r[0, j].tobytes() == seg.jet(s)[0].tobytes()
        assert grid.v[0, j].tobytes() == (1.0 * n).tobytes()
        assert grid.tau[0, j].tobytes() == seg.jet(s)[1].tobytes()


def test_gravity_shift_linear_nu_not_normal():
    seg = segment_on_axis(normal="right")
    grid = normal_shift(seg, gravity_field(),
                        Profile.polynomial([0.75, -0.25]), (0, 1), n_s=9, n_t=11)
    for i, t in enumerate(grid.t_nodes):
        for j, s in enumerate(grid.s_nodes):
            ref = gravity_shift(s, t, "linear_nu")
            assert np.max(np.abs(grid.r[i, j] - ref)) < 1e-8
    assert np.max(np.abs(grid.phi[-1, :])) > 1e-2
    assert normality_report(grid)["verdict"] == "not normal"


def test_affine_nu_launches_with_its_exact_derivative(monkeypatch):
    # on a line n' = 0, so tau'(0) = nu' n + nu n' is a1 n bit for bit; a
    # central difference of nu was off by about 1e-10
    from normshift import shift
    launches = []

    class Launched(Exception):
        pass

    def capture(field, r, v, tau, dtau, t_nodes, cfg):
        launches.append(dtau)
        raise Launched

    monkeypatch.setattr(shift, "integrate_deviation", capture)
    seg = segment_on_axis(normal="right")
    with pytest.raises(Launched):
        normal_shift(seg, gravity_field(), Profile.polynomial([0.9, 0.3]), (0, 1),
                     n_s=9, n_t=3)
    _, n, _ = frenet(seg, np.linspace(-1.0, 1.0, 9))
    assert launches[0].tobytes() == (0.3 * n).tobytes()


def test_zero_field_shift_is_classical_parallel_transport():
    z = ForceField(fn=lambda r, v: np.zeros_like(r))
    rng = np.random.default_rng(0)
    curve = spline_through(random_spline_points(rng))
    grid = normal_shift(curve, z, Profile.constant(1.0), (0, 0.4), n_s=10, n_t=9)
    assert grid.max_abs_phi() < 1e-9


def test_grid_initial_slice_invariants():
    seg = segment_on_axis(normal="right")
    nu = solve_nu(seg, gravity_field(), 0.0, 1.0)
    grid = normal_shift(seg, gravity_field(), nu, (0, 1), n_s=7, n_t=5)
    for j, s in enumerate(grid.s_nodes):
        _, n, _ = frenet(seg, s)
        assert np.allclose(grid.r[0, j], seg.jet(s)[0], atol=1e-14)
        assert np.allclose(grid.v[0, j], grid.nu[j] * n, atol=1e-12)
        # phi(0, s) vanishes by construction
        assert grid.phi[0, j] == pytest.approx(0.0, abs=1e-14)


def stencil_rate(column: np.ndarray, dt: float) -> float:
    """Fourth-order five-point derivative at the middle node of the column."""
    return float((8.0 * (column[3] - column[1]) - (column[4] - column[0])) / (12.0 * dt))


def test_initial_psi_and_its_rate():
    # arclength circle launched outward (right normal); nu(s0) = 1 at the
    # middle node, so psi'(0, s0) = -k there up to the orientation sign
    circ = circle_arc((0, 0), 2.0, (0.3, 2.8), normal="right")
    f = magnetic_field(0.1)  # constant B, so nu varies but stays healthy
    s0 = 1.3
    nu = solve_nu(circ, f, s0, 1.0)
    dt = 0.01
    # the curve sits at the first time node, so straddle t = 0 with two grids
    part = dataclasses.replace(circ, s_range=(0.6, 2.0))
    fwd = normal_shift(part, f, nu, (0, 2 * dt), n_s=9, n_t=3)
    bwd = normal_shift(part, f, nu, (0, -2 * dt), n_s=9, n_t=3)
    j0 = 4  # middle s-node equals s0 for the odd uniform grid
    assert fwd.s_nodes[j0] == pytest.approx(s0)
    for j, s in enumerate(fwd.s_nodes):
        _, _, k = frenet(circ, s)
        phi_col = np.array([bwd.phi[2, j], bwd.phi[1, j], fwd.phi[0, j],
                            fwd.phi[1, j], fwd.phi[2, j]])
        psi_col = np.array([bwd.psi[2, j], bwd.psi[1, j], fwd.psi[0, j],
                            fwd.psi[1, j], fwd.psi[2, j]])
        # psi(0, s) = |r'(s)| = 1 for arclength curves
        assert fwd.psi[0, j] == pytest.approx(1.0, abs=1e-10)
        # phi(0, s) = 0 exactly; phi'(0, s) = 0 because nu solves its equation
        assert fwd.phi[0, j] == pytest.approx(0.0, abs=1e-14)
        assert abs(stencil_rate(phi_col, dt)) < 1e-8
        # psi'(0, s) = -nu k for this convention; +-k at the normalized node
        assert stencil_rate(psi_col, dt) == pytest.approx(-fwd.nu[j] * k, abs=1e-6)
    _, _, k0 = frenet(circ, s0)
    psi_col0 = np.array([bwd.psi[2, j0], bwd.psi[1, j0], fwd.psi[0, j0],
                         fwd.psi[1, j0], fwd.psi[2, j0]])
    assert abs(stencil_rate(psi_col0, dt)) == pytest.approx(abs(k0), abs=1e-6)


def test_mdtype_shift_is_normal_on_random_splines():
    rng = np.random.default_rng(1)
    for trial in range(2):
        field = mdtype_field(perturbed_mdtype(rng))
        curve = spline_through(random_spline_points(rng))
        nu = solve_nu(curve, field, 0.5, 1.0)
        grid = normal_shift(curve, field, nu, (0, 0.5), n_s=10, n_t=11)
        bound = 1e-6 * (1.0 + grid.max_tau_norm())
        assert grid.max_abs_phi() <= bound
        assert normality_report(grid)["verdict"] == "normal"


CLAIMING_PARAMS = {
    "anisotropic": {"profile": {"kind": "poly", "coeffs": [0.8, 0.3]}},
    "marked_point": {"profile": {"kind": "poly", "coeffs": [0.9, 0.2]},
                     "center": [4.0, 4.0]},  # keep the curve away from it
    "geodesic": {"f": {"kind": "sin_cos", "amplitude": 0.25}},
    "metrizable": {"f": {"kind": "sin_cos", "amplitude": 0.25},
                   "H": {"kind": "poly", "coeffs": [0.1, 0.2]}},
    "mdtype": {"f": {"kind": "linear", "ax": 0.2, "ay": -0.1},
               "h": {"kind": "poly", "coeffs": [0.2, 0.1]}},
    "disc_invariant": {"R": 4.0, "profile": {"kind": "poly", "coeffs": [1.0, 0.2]}},
}


def claiming_shifts(n_s, n_t):
    """(name, grid) of a shift of each normality-claiming catalogue field, on
    random splines (rng 7) with nu solved from 1 at s0 = 0.5, t in [0, 0.5]."""
    rng = np.random.default_rng(7)
    names = [n for n in CATALOGUE if CATALOGUE[n]["claims_normality"]]
    assert sorted(names) == sorted(CLAIMING_PARAMS)
    for name in names:
        field = catalogue(name, CLAIMING_PARAMS[name])
        curve = spline_through(random_spline_points(rng))
        nu = solve_nu(curve, field, 0.5, 1.0)
        if nu.truncated:
            # shift only the marked healthy part of the curve
            pad = 0.1 * (nu.s_hi - nu.s_lo)
            curve = dataclasses.replace(curve, s_range=(nu.s_lo + pad, nu.s_hi - pad))
        yield name, normal_shift(curve, field, nu, (0, 0.5), n_s=n_s, n_t=n_t)


def test_every_normality_claiming_family_shifts_normally():
    for name, grid in claiming_shifts(n_s=8, n_t=9):
        bound = 1e-6 * (1.0 + grid.max_tau_norm())
        assert grid.max_abs_phi() <= bound, name
        assert normality_report(grid)["verdict"] == "normal", name


def test_sampled_phi_of_the_claiming_fields_stays_below_1e_8():
    # the grid times are sampled from the integrator's dense output: a cubic
    # Hermite over the steps sets a floor of 5.2e-8 to 1.5e-7 here, while
    # DOP853's own 7th-order interpolant stays near the integrator's accuracy
    worst = {name: grid.max_abs_phi() for name, grid in claiming_shifts(n_s=32, n_t=50)}
    assert max(worst.values()) <= 1e-8, worst


def test_oscillator_tilted_line_never_normal():
    tl = tilted_line()
    f = oscillator_field(1.0)
    for nu0 in (0.5, 1.0, 2.0):
        nu = solve_nu(tl, f, 0.0, nu0)
        grid = normal_shift(tl, f, nu, (0, 1), n_s=9, n_t=11)
        assert grid.max_abs_phi() > 1e-3
        assert normality_report(grid)["verdict"] == "not normal"


@pytest.mark.parametrize("tau, v, degrees", [
    # <tau, v> is finite, |tau| |v| = 1e309 overflows: cos = 1e-9
    ([1e200, 0.0], [1e100, 1e109], math.degrees(1e-9)),
    # both overflow: 45 degrees between (1, 1) and (1, 0)
    ([1e200, 1e200], [1e200, 0.0], 45.0),
])
def test_the_angle_of_vectors_whose_norms_overflow(tau, v, degrees):
    one = np.ones((1, 1))
    grid = ShiftGrid(s_nodes=one[0], t_nodes=one[0], r=np.zeros((1, 1, 2)),
                     v=np.array([[v]]), tau=np.array([[tau]]), nu=one[0], phi=one,
                     psi=one, work={})
    worst = normality_report(grid)["max_angle_deviation_deg"]
    assert worst == pytest.approx(degrees, rel=1e-12)


def test_shift_grid_csv(tmp_path):
    # the cli lays out shift_grid.csv: a header and one row per node, t-major,
    # with x = 1/3 read back as the same double at every node of the first time
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"field": {"catalogue": "gravity"},
                               "curve": {"kind": "segment", "p0": [1 / 3, -0.5],
                                         "p1": [1 / 3, 0.5]},
                               "nu": 1.0, "t_span": [0, 0.5], "n_s": 3, "n_t": 4}))
    assert main(["shift", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "shift_grid.csv").read_text().strip().splitlines()
    assert lines[0] == "t,s,x,y,vx,vy,phi,psi,nu"
    assert len(lines) == 1 + 3 * 4
    assert [float(line.split(",")[2]) for line in lines[1:4]] == [1 / 3] * 3


def differenced_phi(field, curve, nu, s, t_nodes, cfg, delta=1e-5):
    """phi at (t_nodes, s) from two trajectories launched at s +- delta."""
    trajs = []
    for ss in (s + delta, s - delta):
        _, n, _ = frenet(curve, ss)
        init = PhaseState(curve.jet(ss)[0], nu(ss) * n)
        trajs.append(integrate(field, init, (t_nodes[0], t_nodes[-1]), cfg, t_eval=t_nodes))
    tau = (trajs[0].positions() - trajs[1].positions()) / (2 * delta)
    mid_v = (trajs[0].velocities() + trajs[1].velocities()) / 2
    return np.array([tau[i] @ frame(mid_v[i]).N for i in range(len(t_nodes))])


def geodesic_shift_off_level_line():
    """Zero force under sin_cos(0.2) from the x axis, not a level line of f."""
    field = catalogue("metrizable", {"f": {"kind": "zero"}, "H": 0.0})
    metric = build_metric({"kind": "sin_cos", "amplitude": 0.2})
    return field, metric, segment_on_axis(normal="right"), Profile.constant(1.0)


def test_metric_shift_matches_differenced_trajectories():
    field, metric, seg, nu = geodesic_shift_off_level_line()
    flat = flat_from_covariant(field, metric)
    tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    grid = normal_shift(seg, flat, nu, (0, 1), n_s=5, n_t=5, cfg=tight)
    for j, s in enumerate(grid.s_nodes):
        ref = differenced_phi(flat, seg, nu, s, grid.t_nodes, tight)
        assert np.max(np.abs(grid.phi[:, j] - ref)) < 1e-7, s
    assert normality_report(grid)["verdict"] == "not normal"


def test_endpoint_phi_of_plain_callable_nu():
    # nu' at the end nodes comes from nu itself, not from the initial-speed
    # ODE, which would force phi to zero there
    field, metric, seg, nu = geodesic_shift_off_level_line()
    flat = flat_from_covariant(field, metric)
    tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    grid = normal_shift(seg, flat, nu, (0, 1), n_s=5, n_t=5, cfg=tight)
    for j in (0, -1):
        ref = differenced_phi(flat, seg, nu, grid.s_nodes[j], grid.t_nodes, tight)
        assert np.max(np.abs(grid.phi[:, j] - ref)) < 1e-7
    assert grid.phi[-1, 0] == pytest.approx(-0.1168, abs=1e-4)


# ---------------------------------------------------------------------------
# One stacked integration per shift.
# ---------------------------------------------------------------------------

def mdtype_on_spline():
    field = catalogue("mdtype", {"f": {"kind": "sin_cos", "amplitude": 0.2},
                                 "h": {"kind": "poly", "coeffs": [0.1, 0.2]}})
    return field, spline_through([[-1.0, 0.1], [-0.2, 0.35], [0.5, -0.2], [1.0, 0.1]])


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.name; returns the list whose length is the count."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("cfg", [IntegratorConfig(),
                                 IntegratorConfig(method="rk4-fixed", step=0.02)],
                         ids=["dopri", "rk4"])
def test_normal_shift_is_one_solve_for_all_s_nodes(monkeypatch, cfg):
    from normshift import odesolve
    field, curve = mdtype_on_spline()
    solver = "solve_dopri" if cfg.method == "dopri-adaptive" else "solve_rk4"
    calls = count_calls(monkeypatch, odesolve, solver)
    grid = normal_shift(curve, field, Profile.constant(1.0), (0, 0.3),
                        n_s=16, n_t=7, cfg=cfg)
    assert len(calls) == 1
    assert grid.r.shape == (7, 16, 2)


def launch_column(curve, nu, s):
    """Launch data (r, v, tau, tau') of the trajectory from s, as normal_shift builds it."""
    tangent, n, k = frenet(curve, s)
    nu_s, dnu = nu.jet(s)
    r, d, _ = curve.jet(s)
    return r, nu_s * n, d, dnu * n + nu_s * (-k * math.hypot(*d) * tangent)


def test_block_matches_separate_single_column_runs():
    from normshift.dynamics import integrate_deviation
    field, curve = mdtype_on_spline()
    nu = solve_nu(curve, field, 0.5, 1.1)
    tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    grid = normal_shift(curve, field, nu, (0, 0.5), n_s=16, n_t=6, cfg=tight)
    # the steps differ, so samples between steps differ by the dense output's
    # error (1.3e-9 at most here, with |tau| up to 4)
    for j, s in enumerate(grid.s_nodes):  # end nodes included
        ys, phi, psi = integrate_deviation(field, *launch_column(curve, nu, s),
                                           grid.t_nodes, tight)
        assert ys.shape == (6, 8) and phi.shape == (6,)
        assert ys[0].tobytes() == np.concatenate(
            [grid.r[0, j], grid.v[0, j], grid.tau[0, j], ys[0, 6:]]).tobytes()
        for block, column in ((grid.r, ys[:, 0:2]), (grid.v, ys[:, 2:4]),
                              (grid.tau, ys[:, 4:6]), (grid.phi, phi), (grid.psi, psi)):
            assert np.max(np.abs(block[:, j] - column)) < 1e-8, s


def test_force_calls_per_right_side_do_not_grow_with_n_s(monkeypatch):
    # counted, not timed: a loop over rows inside the right side would make
    # the calls per right side grow with n_s
    from normshift import odesolve
    field, curve = mdtype_on_spline()
    forces = count_calls(monkeypatch, ForceField, "force")
    solve = odesolve.solve_dopri
    rhs_calls = []

    def counting_solve(rhs, *args, **kwargs):
        def counted(t, y):
            rhs_calls.append(1)
            return rhs(t, y)
        return solve(counted, *args, **kwargs)

    monkeypatch.setattr(odesolve, "solve_dopri", counting_solve)
    per_rhs = []
    for n_s in (4, 32):
        forces.clear()
        rhs_calls.clear()
        normal_shift(curve, field, Profile.constant(1.0), (0, 0.3), n_s=n_s, n_t=5)
        assert len(forces) % len(rhs_calls) == 0
        per_rhs.append(len(forces) // len(rhs_calls))
    assert per_rhs[0] == per_rhs[1] <= 9


def test_nu_for_all_s_nodes_is_bit_identical_to_pointwise_queries(monkeypatch):
    from normshift.odesolve import ChebyshevSolution, OdeSolution
    field, curve = mdtype_on_spline()
    nu = solve_nu(curve, field, 0.5, 1.1)
    s = np.linspace(nu.s_lo, nu.s_hi, 33)  # s0 = 0.5 is node 16
    values, rates = nu.jet(s)
    assert values[16] == 1.1
    assert values.tobytes() == np.array([nu(x) for x in s]).tobytes()
    assert rates.tobytes() == np.array([nu.jet(x)[1] for x in s]).tobytes()
    # normal_shift samples the solution once for both nu and nu', instead
    # of one dense call per query
    dense = count_calls(monkeypatch, OdeSolution, "__call__")
    nu_samples = count_calls(monkeypatch, ChebyshevSolution, "sample")
    grid_samples = count_calls(monkeypatch, OdeSolution, "sample")
    grid = normal_shift(curve, field, nu, (0, 0.2), n_s=33, n_t=3)
    assert grid.nu.tobytes() == values.tobytes()
    assert dense == []
    assert len(nu_samples) == 1 and len(grid_samples) == 1  # nu and nu', then the grid


def test_non_finite_columns_are_named_in_the_error_note():
    # the force is infinite right of x = 0.6, so the columns from there cannot start
    field = ForceField(fn=lambda r, v: np.where(r[..., :1] > 0.6, np.inf, 1.0) * v)
    grid_s = np.linspace(0.0, 1.0, 5)
    with pytest.raises(StepFailure) as info:
        normal_shift(segment_on_axis(0.0, 1.0), field, Profile.constant(1.0),
                     (0, 0.5), n_s=5, n_t=3)
    assert info.value.rows == (3, 4)
    assert info.value.__notes__ == [f"at s={grid_s[3]:.6g}, {grid_s[4]:.6g}"]


def test_field_errors_in_the_block_name_the_shifted_range():
    marked = catalogue("marked_point", {"profile": 1.0, "center": [0.5, 0.0]})
    with pytest.raises(InvalidParams) as info:
        normal_shift(segment_on_axis(0.0, 1.0), marked, Profile.constant(1.0),
                     (0, 0.5), n_s=5, n_t=3)
    # the solver names the time first; the launch at s = 0.5 is the centre
    assert info.value.__notes__ == ["at t=0, last accepted t=0", "at s in [0, 1]"]


# ---------------------------------------------------------------------------
# Curves at arrays of s, and one stacked solve for both branches of nu.
# ---------------------------------------------------------------------------

CURVES = {
    "line_segment": lambda: line_segment((0.2, -0.1), (1.1, 0.7)),
    "segment_on_axis": lambda: segment_on_axis(-0.7, 1.3),
    "tilted_line": lambda: tilted_line(normal="right"),
    "circle_arc": lambda: circle_arc((0.3, -0.2), 1.4, (0.1, 2.9), normal="right"),
    "spline_through": lambda: spline_through(random_spline_points(np.random.default_rng(3))),
}


@pytest.mark.parametrize("name", sorted(CURVES))
def test_curves_take_arrays_of_s(name):
    curve = CURVES[name]()
    s = np.linspace(*curve.s_range, 13)
    points = [curve.jet(x) for x in s.tolist()]
    for order, got in enumerate(curve.jet(s)):
        assert got.shape == (13, 2) and got.flags.writeable
        assert got.tobytes() == np.array([jet[order] for jet in points]).tobytes()
        assert curve.jet(s.reshape(13, 1))[order].shape == (13, 1, 2)
    stacked = frenet(curve, s)
    for got, rows in zip(stacked, zip(*(frenet(curve, x) for x in s.tolist()))):
        assert got.tobytes() == np.array(rows).tobytes()


def test_stacked_spline_fit_equals_the_per_column_fits():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 8):
        pts = random_spline_points(rng, n=n)
        knots = np.linspace(0.0, 1.0, n)
        # inside, beyond both ends, and at the knots
        s = np.concatenate([np.linspace(-0.25, 1.25, 151), knots])
        stacked = spline_through(pts).jet(s)
        columns = [PiecewiseCubic(knots, p).jet(s) for p in pts.T]
        for order, got in enumerate(stacked):
            assert np.array_equal(got, np.column_stack([c[order] for c in columns]))


def test_spline_matches_scipys_cubic_spline():
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(11)
    s = np.linspace(-0.1, 1.1, 121)
    for _ in range(300):
        n = int(rng.integers(3, 11))
        pts = random_spline_points(rng, n=n)
        curve = spline_through(pts)
        knots = np.linspace(0.0, 1.0, n)
        for order, value in enumerate(curve.jet(s)):
            ref = np.column_stack([CubicSpline(knots, p)(s, order) for p in pts.T])
            # measured on these draws: within 1.8e-15 of max |ref|
            assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_three_point_spline_is_the_parabola():
    rng = np.random.default_rng(5)
    s = np.linspace(-0.5, 1.5, 81)[:, None]
    knots = np.array([[0.0], [0.5], [1.0]])
    for _ in range(50):
        a, b, c = rng.uniform(-1.0, 1.0, (3, 2))
        r, dr, ddr = spline_through(a + b * knots + c * knots**2).jet(s[:, 0])
        assert np.max(np.abs(r - (a + b * s + c * s * s))) < 1e-14
        assert np.max(np.abs(dr - (b + 2.0 * c * s))) < 1e-14
        assert np.max(np.abs(ddr - 2.0 * c)) < 1e-14
        # r''' = 0: one r'' on both pieces and beyond them
        assert np.all(ddr == ddr[0])


def reference_nu(curve, field, s0, nu0, nodes):
    """nu at the nodes from scipy's DOP853, with the right side written out.

    Each branch is integrated knot to knot: the third derivative of r jumps
    at a spline's knots, and a step across one misses by far more than its
    error estimate says.
    """
    from scipy.integrate import solve_ivp
    from normshift.forces import ab_decompose

    def rhs(s, y):
        tangent, n, _ = frenet(curve, s)
        v = y[0] * n
        r, d, _ = curve.jet(s)
        b = ab_decompose(field, r, v).B
        return [-float(d @ frame(v).M) * b / y[0]]

    out = np.full(len(nodes), float(nu0))
    for side in (nodes < s0, nodes > s0):
        if np.any(side):
            ends = nodes[side]
            end = ends[0] if ends[0] < s0 else ends[-1]
            knots = sorted((k for k in curve.breaks if min(s0, end) < k < max(s0, end)),
                           reverse=bool(end < s0))
            start, y = s0, [nu0]
            for stop in (*knots, end):
                # rtol just above DOP853's floor of 100 eps: at 1e-13 the
                # reference itself missed by up to 5.7e-11.  Steps of at
                # most 0.01: over a knot piece of length 0.25 it once took a
                # step of 0.041, missed by 4.3e-11 at the piece's end and by
                # 1.76e-10 at a node, where solve_nu agreed with a Chebyshev
                # solve of 160 points within 2.7e-14
                sol = solve_ivp(rhs, (start, stop), y, method="DOP853", rtol=2.3e-14,
                                atol=1e-14, max_step=0.01, dense_output=True)
                piece = side & (min(start, stop) <= nodes) & (nodes <= max(start, stop))
                if np.any(piece):
                    out[piece] = sol.sol(nodes[piece])[0]
                start, y = stop, sol.y[:, -1]
    return out


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(NU_FIELDS)), arc=st.booleans(),
       seed=st.integers(0, 2**32 - 1), where=st.floats(0.0, 1.0),
       nu0=st.floats(0.8, 1.2), n_s=st.integers(2, 40))
# draws that failed while the reference stepped across the knots
@example(name="marked_point", arc=False, seed=3356, where=0.0, nu0=0.8619228073378151, n_s=2)
@example(name="mdtype", arc=False, seed=195042407, where=0.0, nu0=1.0, n_s=2)
@example(name="anisotropic", arc=False, seed=2147483648, where=0.0, nu0=0.8125, n_s=2)
# the worst of 60 draws against the reference at rtol 1e-13 (7.2e-12; 1.1e-13 now)
@example(name="metrizable", arc=False, seed=2408948, where=1e-05, nu0=0.8525726326393317,
         n_s=33)
# a draw that failed while the reference's steps were not capped (1.76e-10)
@example(name="metrizable", arc=False, seed=436, where=0.0, nu0=0.859375, n_s=10)
def test_solve_nu_matches_an_independent_dop853_reference(name, arc, seed, where, nu0, n_s):
    rng = np.random.default_rng(seed)
    field = catalogue(name, NU_FIELDS[name])
    curve = (circle_arc(rng.uniform(-0.3, 0.3, 2), rng.uniform(1.2, 1.6), (0.2, 2.2))
             if arc else spline_through(random_spline_points(rng)))
    lo, hi = curve.s_range
    s0 = lo + where * (hi - lo)
    nodes = np.linspace(lo, hi, n_s)
    nu = solve_nu(curve, field, s0, nu0)
    assume(not nu.truncated)
    values = nu(nodes)
    assert np.max(np.abs(values - reference_nu(curve, field, s0, nu0, nodes))) < 1e-10


def reparameterized(curve, k):
    """(r o g, g) for g(sigma) = lo + (hi - lo) expm1(k sigma) / expm1(k) on
    sigma in [0, 1], smooth, increasing and, for k != 0, not affine; g
    returns g, g' and g'' at an array of sigma."""
    lo, hi = curve.s_range
    scale = (hi - lo) / math.expm1(k)

    def g(sigma):
        e = scale * np.exp(k * sigma)
        return lo + scale * np.expm1(k * sigma), k * e, k * k * e

    def jet(sigma):
        s, g1, g2 = (x[..., None] for x in g(np.asarray(sigma, float)))
        r, d, dd = curve.jet(s[..., 0])
        return r, g1 * d, g1 * g1 * dd + g2 * d

    breaks = tuple(math.log1p((b - lo) / scale) / k for b in curve.breaks)
    return Curve(jet=jet, s_range=(0.0, 1.0), normal=curve.normal, breaks=breaks), g


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(["mdtype", "oscillator"]), k=st.floats(0.3, 1.5),
       increasing_rate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_reparameterized_curve_scales_phi_by_g_prime(case, k, increasing_rate, seed):
    # phi = <d r / d sigma, N> = g'(sigma) phi(t, g(sigma)) on the same trajectories
    from normshift.dynamics import integrate_deviation
    rng = np.random.default_rng(seed)
    if case == "oscillator":  # the control that cannot shift normally
        field, curve = oscillator_field(1.0), tilted_line()
    else:
        field = catalogue("mdtype", NU_FIELDS["mdtype"])
        curve = spline_through(random_spline_points(rng))
    curve_g, g = reparameterized(curve, k if increasing_rate else -k)
    nu = solve_nu(curve, field, float(g(0.5)[0]), 1.0)
    nu_g = solve_nu(curve_g, field, 0.5, 1.0)
    assume(not (nu.truncated or nu_g.truncated))
    grid_g = normal_shift(curve_g, field, nu_g, (0, 0.5), n_s=9, n_t=6)
    # the shift of r from the s-nodes g(sigma_j), launched as normal_shift launches
    s, g1, _ = g(grid_g.s_nodes)
    tangent, n, k_s = frenet(curve, s)
    r, d, _ = curve.jet(s)
    nu_s, dnu = nu.jet(s)
    # measured on 200 draws: nu within 8.3e-14, phi within 8.5e-9 (1 + max |tau|)
    assert np.max(np.abs(grid_g.nu - nu_s)) < 1e-11
    n_prime = (-k_s * np.hypot(d[:, 0], d[:, 1]))[:, None] * tangent
    _, phi, _ = integrate_deviation(field, r, nu_s[:, None] * n, d,
                                    dnu[:, None] * n + nu_s[:, None] * n_prime, grid_g.t_nodes)
    assert np.max(np.abs(grid_g.phi - g1 * phi)) < 1e-7 * (1.0 + grid_g.max_tau_norm())
    verdict = normality_report(normal_shift(curve, field, nu, (0, 0.5), n_s=9, n_t=6))["verdict"]
    assert normality_report(grid_g)["verdict"] == verdict == (
        "normal" if case == "mdtype" else "not normal")


def test_one_jet_call_per_launch_and_per_nu_right_side():
    field, curve = mdtype_on_spline()
    calls = []

    def jet(s):
        calls.append(1)
        return curve.jet(s)

    counted = dataclasses.replace(curve, jet=jet)
    nu = solve_nu(curve, field, 0.5, 1.1)
    normal_shift(counted, field, nu, (0, 0.2), n_s=9, n_t=3)
    assert len(calls) == 1
    rate = solve_nu(counted, field, 0.5, 1.1).rate
    calls.clear()
    rate(np.linspace(0.0, 1.0, 5), np.full(5, 1.1))
    assert len(calls) == 1


def test_solve_nu_is_one_solve_stopping_only_at_the_breaks(monkeypatch):
    from normshift import odesolve
    field, curve = mdtype_on_spline()
    calls = count_calls(monkeypatch, odesolve, "solve_chebyshev")
    nu = solve_nu(curve, field, 0.5, 1.1)
    assert len(calls) == 1 and not nu.truncated
    # the knots 1/3 and 2/3 are at sigma 1/3 of the lower and the upper
    # branch, so each branch has two steps, not one per s-node: in s, the
    # step ends inside the interval are the knots and s0 = 0.5, and no others
    ts = nu.solution.ts
    assert len(ts) == 5 and ts[0] == 0.0 and ts[2] == 0.5 and ts[-1] == 1.0
    # a stop of one branch within 1e-14 of one of the other's is merged into it
    assert np.all(np.abs(ts[[1, 3]] - np.array(curve.breaks)) <= 1e-14)


def test_one_branch_truncates_while_the_other_reaches_its_end():
    seg = segment_on_axis(-1.0, 1.0, normal="right")
    # nu^2 = nu0^2 - 2 b0 s: the upper branch runs into zero at s = 0.125
    nodes = np.linspace(-1.0, 1.0, 33)
    nu = solve_nu(seg, magnetic_field(1.0), 0.0, 0.5)
    assert nu.truncated and nu.s_lo == -1.0 and 0.1 < nu.s_hi < 0.125
    assert nu.stop_reason.startswith("on [0, 1], stopped at") and ";" not in nu.stop_reason
    s = nodes[nodes <= nu.s_hi]
    assert np.max(np.abs(nu(s) - np.sqrt(0.25 - 2.0 * s))) < 1e-9

    def fn(r, v):
        if np.any(r[..., 0] > 0.5):
            raise OverflowError("boom")
        return np.zeros_like(r)

    nu = solve_nu(seg, ForceField(fn=fn), 0.0, 1.0)
    assert nu.truncated and nu.s_lo == -1.0 and 0.5 - 1e-13 < nu.s_hi <= 0.5
    assert nu.stop_reason.startswith("on [0, 1]") and "OverflowError: boom" in nu.stop_reason
    assert np.all(nu(np.linspace(-1.0, nu.s_hi, 9)) == 1.0)


def overflow_past_half(r, v):
    """Zero force that raises OverflowError wherever x > 0.5."""
    if np.any(r[..., 0] > 0.5):
        raise OverflowError("boom")
    return np.zeros_like(r)


@pytest.mark.parametrize("field, nu0, s_hi, reason", [
    (magnetic_field(1.0), 0.5, 0.109375, "NuBlowup: |nu| fell below 0.0005 or is not finite"),
    (ForceField(fn=overflow_past_half), 1.0, 0.5, "OverflowError: boom"),
], ids=["magnetic", "overflow"])
def test_a_branch_that_stops_evaluates_each_right_side_once(monkeypatch, field, nu0, s_hi,
                                                            reason):
    # the cases of test_one_branch_truncates_while_the_other_reaches_its_end:
    # each right side is one force call, or none below the floor, even
    # where it fails
    forces = count_calls(monkeypatch, ForceField, "force")
    nu = solve_nu(segment_on_axis(-1.0, 1.0, normal="right"), field, 0.0, nu0)
    assert len(forces) <= nu.solution.work["rhs_calls"]
    assert (nu.s_lo, nu.s_hi) == (-1.0, s_hi)
    assert nu.stop_reason == f"on [0, 1], stopped at s={s_hi:.6g}: {reason}"


def infinite_past_half(r, v):
    """F = (inf, 0) wherever x > 0.5, and zero elsewhere, without a warning."""
    out = np.zeros_like(r)
    out[..., 0] = np.where(r[..., 0] > 0.5, np.inf, 0.0)
    return out


@pytest.mark.parametrize("s_min", [0.0, -1.0], ids=["one-branch", "two-branches"])
def test_a_branch_that_goes_non_finite_without_raising_stops_on_a_checkpoint(s_min):
    # no right side raises: the upper branch's rate is -inf past s = 0.5, and
    # its stop is the floored NuBlowup, while the lower branch reaches its end
    nu = solve_nu(segment_on_axis(s_min, 1.0, normal="right"), ForceField(fn=infinite_past_half),
                  0.0, 1.0)
    assert (nu.s_lo, nu.s_hi) == (s_min, 0.5)
    assert nu.stop_reason == ("on [0, 1], stopped at s=0.5: "
                              "NuBlowup: |nu| fell below 0.001 or is not finite")
    assert np.all(nu(np.linspace(s_min, 0.5, 9)) == 1.0)


def test_solve_nu_from_a_subnormal_distance_to_an_end_warns_nothing():
    # the lower branch is 5e-324 long: dividing every stop by its width overflowed
    field, curve = mdtype_on_spline()
    nodes = np.linspace(0.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu = solve_nu(curve, field, 5e-324, 1.1)
        values = nu(nodes)
    assert not nu.truncated and values[0] == 1.1


@pytest.mark.parametrize("field", [gravity_field(), oscillator_field(1.0)],
                         ids=["gravity", "oscillator"])
def test_solve_nu_stops_at_a_rest_point(field):
    # |nu0| < V_MIN: the launch velocity is a rest point, where B is undefined,
    # although F(r, nu n) is finite there (and zero for the oscillator)
    nu = solve_nu(segment_on_axis(-1.0, 1.0, normal="right"), field, 0.0, 1e-10)
    assert nu.truncated and nu.s_lo == nu.s_hi == 0.0
    assert nu.stop_reason.count("DegenerateVelocity") == 2


CURVE_SHAPES = {
    "line": lambda rng: line_segment(rng.uniform(-1.0, -0.2, 2), rng.uniform(0.2, 1.0, 2)),
    "arc": lambda rng: circle_arc(rng.uniform(-0.3, 0.3, 2), rng.uniform(1.2, 1.6), (0.2, 2.2)),
    "spline": lambda rng: spline_through(random_spline_points(rng)),
}


@pytest.mark.parametrize("shape", ["line", "arc", "spline"])
def test_solve_nu_makes_few_force_calls(monkeypatch, shape):
    # counted, not timed: each Picard iteration evaluates every node of a
    # step and both branches in one call, and a branch that does not
    # truncate takes one step, or one per spline piece
    field = catalogue("marked_point", NU_FIELDS["marked_point"])
    curve = CURVE_SHAPES[shape](np.random.default_rng(1))
    forces = count_calls(monkeypatch, ForceField, "force")
    nu = solve_nu(curve, field, 0.5 * sum(curve.s_range), 1.0)
    assert not nu.truncated and 0 < len(forces) <= 40


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CATALOGUE)), shape=st.sampled_from(sorted(CURVE_SHAPES)),
       seed=st.integers(0, 2**32 - 1))
def test_nu_rate_is_the_initial_speed_ode_in_the_velocity_frame(name, shape, seed):
    from normshift.forces import ab_decompose
    rng = np.random.default_rng(seed)
    field, curve = catalogue(name, RATE_PARAMS.get(name)), CURVE_SHAPES[shape](rng)
    lo, hi = curve.s_range
    rate = solve_nu(curve, field, lo, 1.0).rate
    s = rng.uniform(lo, hi, 6)
    nu = rng.uniform(0.5, 1.5, 6) * rng.choice([-1.0, 1.0], 6)
    _, n, _ = frenet(curve, s)
    (r, d, _), v = curve.jet(s), nu[:, None] * n
    expected = -np.vecdot(d, frame(v).M) * ab_decompose(field, r, v).B / nu
    # relative to the size of the terms, which may cancel: |F| |r'| / |nu|
    f = field.force(r, v)
    scale = np.hypot(f[:, 0], f[:, 1]) * np.hypot(d[:, 0], d[:, 1]) / np.abs(nu)
    assert np.all(np.abs(rate(s, nu) - expected) <= 1e-13 * scale)


def test_deviation_right_side_calls_a_differenced_field_once(monkeypatch):
    # one call per right side, of one complex phase point p + i h (tau, tau')
    # for each of the 6 s-nodes
    from helpers import phase_direction_deviation_rhs
    from normshift import odesolve
    from normshift.dynamics import integrate_deviation
    field, curve = mdtype_on_spline()
    s = np.linspace(0.0, 1.0, 6)
    tangent, n, k = frenet(curve, s)
    r, d, _ = curve.jet(s)
    n_prime = -(k * np.hypot(d[:, 0], d[:, 1]))[:, None] * tangent
    launch = (r, 1.1 * n, d, 1.1 * n_prime)
    times = np.linspace(0.0, 0.4, 7)

    shapes = []
    force = ForceField.force

    def recorded(fld, r, v):
        shapes.append((np.shape(r), np.shape(v), np.result_type(r, v)))
        return force(fld, r, v)

    monkeypatch.setattr(ForceField, "force", recorded)
    rhs_calls = []
    solve = odesolve.solve_dopri

    def counting_solve(rhs, *args, **kwargs):
        def counted(t, y):
            rhs_calls.append(1)
            return rhs(t, y)
        return solve(counted, *args, **kwargs)

    monkeypatch.setattr(odesolve, "solve_dopri", counting_solve)
    ys, _, _ = integrate_deviation(field, *launch, times)
    assert len(rhs_calls) > 0 and len(shapes) == len(rhs_calls)
    assert set(shapes) == {((6, 2), (6, 2), np.dtype(complex))}

    monkeypatch.undo()
    cfg = IntegratorConfig()
    y0 = np.concatenate(launch, axis=-1)
    ref = solve(phase_direction_deviation_rhs(field), times[0], y0, times[-1],
                abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol).sample(times)
    ref[0] = y0
    assert np.array_equal(ys, ref)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(CATALOGUE)), shape=st.sampled_from(sorted(CURVE_SHAPES)),
       seed=st.integers(0, 2**32 - 1))
# a central difference at step h alone missed tau by 4.0e-4 at |tau| = 1440
# here, its truncation: halving h quartered the miss
@example(name="anisotropic", shape="spline", seed=4411)
def test_variational_tau_matches_differenced_trajectories(name, shape, seed):
    # tau = d r / d s: at both ends of the curve and at random s-nodes, and at
    # every t-node from 0 to 0.5, the tau of integrate_deviation matches the
    # central differences of the trajectories launched from s -+ h and
    # s -+ h/2, extrapolated to O(h^4)
    from normshift.dynamics import integrate_deviation
    rng = np.random.default_rng(seed)
    field, curve = catalogue(name, RATE_PARAMS.get(name)), CURVE_SHAPES[shape](rng)
    lo, hi = curve.s_range
    a, b = rng.uniform(1.0, 1.5), rng.uniform(-0.3, 0.3)  # nu = a + b sin(s)

    def launch(s):
        tangent, n, k = frenet(curve, s)
        r, d, _ = curve.jet(s)
        nu, dnu = a + b * np.sin(s), b * np.cos(s)
        n_prime = (-k * np.hypot(d[:, 0], d[:, 1]))[:, None] * tangent
        return r, nu[:, None] * n, d, dnu[:, None] * n + nu[:, None] * n_prime

    s = np.concatenate([[lo, hi], rng.uniform(lo, hi, 3)])
    h = 3e-7 * (hi - lo)
    # the nodes and their neighbours are one stacked system, on shared steps
    ys, _, _ = integrate_deviation(field, *(np.stack(x) for x in zip(
        launch(s), launch(s - h), launch(s + h), launch(s - h / 2), launch(s + h / 2))),
        np.linspace(0.0, 0.5, 6), IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12))
    tau = ys[:, 0, :, 4:6]
    full = (ys[:, 2, :, 0:2] - ys[:, 1, :, 0:2]) / (2 * h)
    half = (ys[:, 4, :, 0:2] - ys[:, 3, :, 0:2]) / h
    differenced = (4.0 * half - full) / 3.0
    # measured on 480 draws: within 2.6e-9 (1 + max |tau|), median 5.9e-10;
    # the pinned draw 3.5e-11, where the step-h difference alone read 2.8e-7
    assert np.max(np.abs(tau - differenced)) < 1e-7 * (1.0 + np.max(np.abs(tau)))
