import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import perturbed_mdtype, random_spline_points

from normshift.dynamics import IntegratorConfig, PhaseState, integrate
from normshift.errors import InvalidParams, NuBlowup, SingularCurve, StepFailure
from normshift.experiment import CATALOGUE, build_metric, catalogue
from normshift.forces import (ForceField, Profile, flat_from_covariant,
                              gravity_field, mdtype_field,
                              oscillator_field, speed_profile_ansatz,
                              from_scalar_ansatz)
from normshift.geometry import frame
from normshift.closedform import gravity_shift
from normshift.shift import (Curve, circle_arc, constant_nu, frenet, line_segment,
                             normal_shift, normality_report,
                             segment_on_axis, solve_nu, spline_through, tilted_line)


def magnetic_field(b0: float) -> ForceField:
    """Force of constant magnitude perpendicular to the velocity: A = 0, B = b0."""
    return ForceField(fn=lambda r, v: b0 * frame(v).M, label="magnetic")


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
    bad = Curve(r=lambda s: np.zeros(2), dr=lambda s: np.zeros(2),
                ddr=lambda s: np.zeros(2), s_range=(0, 1))
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
        assert nu.deriv(s) == pytest.approx(0.0, abs=1e-12)


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
    grid = normal_shift(seg, gravity_field(), constant_nu(1.0), (0, 1),
                        n_s=9, n_t=11)
    for i, t in enumerate(grid.t_nodes):
        for j, s in enumerate(grid.s_nodes):
            assert np.max(np.abs(grid.r[i, j] - gravity_shift(s, t))) < 1e-8
    assert grid.max_abs_phi() < 1e-8
    rep = normality_report(grid)
    assert rep.normal


def test_grid_first_row_is_the_launch_data_bit_for_bit():
    # the left normal of (s, 0) is (-0.0, 1.0): the -0.0 of vx must survive
    seg = segment_on_axis(normal="left")
    grid = normal_shift(seg, gravity_field(), constant_nu(1.0), (0, 0.5),
                        n_s=5, n_t=4)
    assert np.all(np.signbit(grid.v[0, :, 0]))
    for j, s in enumerate(grid.s_nodes):
        _, n, _ = frenet(seg, s)
        assert grid.r[0, j].tobytes() == seg.point(s).tobytes()
        assert grid.v[0, j].tobytes() == (1.0 * n).tobytes()
        assert grid.tau[0, j].tobytes() == seg.velocity(s).tobytes()


def test_gravity_shift_linear_nu_not_normal():
    seg = segment_on_axis(normal="right")
    grid = normal_shift(seg, gravity_field(),
                        lambda s: (3.0 - s) / 4.0, (0, 1), n_s=9, n_t=11)
    for i, t in enumerate(grid.t_nodes):
        for j, s in enumerate(grid.s_nodes):
            ref = gravity_shift(s, t, "linear_nu")
            assert np.max(np.abs(grid.r[i, j] - ref)) < 1e-8
    assert np.max(np.abs(grid.phi[-1, :])) > 1e-2
    assert not normality_report(grid).normal


def test_zero_field_shift_is_classical_parallel_transport():
    z = ForceField(fn=lambda r, v: np.zeros_like(r),
                   spatial_jacobian=lambda r, v: np.zeros(np.shape(r) + (2,)),
                   velocity_jacobian=lambda r, v: np.zeros(np.shape(r) + (2,)))
    rng = np.random.default_rng(0)
    curve = spline_through(random_spline_points(rng))
    grid = normal_shift(curve, z, constant_nu(1.0), (0, 0.4), n_s=10, n_t=9)
    assert grid.max_abs_phi() < 1e-9


def test_grid_initial_slice_invariants():
    seg = segment_on_axis(normal="right")
    nu = solve_nu(seg, gravity_field(), 0.0, 1.0)
    grid = normal_shift(seg, gravity_field(), nu, (0, 1), n_s=7, n_t=5)
    for j, s in enumerate(grid.s_nodes):
        _, n, _ = frenet(seg, s)
        assert np.allclose(grid.r[0, j], seg.point(s), atol=1e-14)
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
    fwd = normal_shift(circ, f, nu, (0, 2 * dt), n_s=9, n_t=3,
                       s_range=(0.6, 2.0))
    bwd = normal_shift(circ, f, nu, (0, -2 * dt), n_s=9, n_t=3,
                       s_range=(0.6, 2.0))
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
        assert normality_report(grid).normal


def test_every_normality_claiming_family_shifts_normally():
    from normshift.experiment import catalogue, CATALOGUE
    rng = np.random.default_rng(7)
    params = {
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
    names = [n for n in CATALOGUE if CATALOGUE[n]["claims_normality"]]
    assert sorted(names) == sorted(params)
    for name in names:
        field = catalogue(name, params[name])
        curve = spline_through(random_spline_points(rng))
        nu = solve_nu(curve, field, 0.5, 1.0)
        s_range = None
        if nu.truncated:
            # shift only the marked healthy part of the curve
            pad = 0.1 * (nu.s_hi - nu.s_lo)
            s_range = (nu.s_lo + pad, nu.s_hi - pad)
        grid = normal_shift(curve, field, nu, (0, 0.5), n_s=8, n_t=9,
                            s_range=s_range)
        bound = 1e-6 * (1.0 + grid.max_tau_norm())
        assert grid.max_abs_phi() <= bound, name
        assert normality_report(grid).normal, name


def test_oscillator_tilted_line_never_normal():
    tl = tilted_line()
    f = oscillator_field(1.0)
    for nu0 in (0.5, 1.0, 2.0):
        nu = solve_nu(tl, f, 0.0, nu0)
        grid = normal_shift(tl, f, nu, (0, 1), n_s=9, n_t=11)
        assert grid.max_abs_phi() > 1e-3
        assert not normality_report(grid).normal


def test_shift_grid_csv(tmp_path):
    seg = segment_on_axis(normal="right")
    grid = normal_shift(seg, gravity_field(), constant_nu(1.0), (0, 0.5),
                        n_s=3, n_t=4)
    path = tmp_path / "grid.csv"
    grid.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,s,x,y,vx,vy,phi,psi,nu"
    assert len(lines) == 1 + 3 * 4


def differenced_phi(field, curve, nu, s, t_nodes, cfg, delta=1e-5):
    """phi at (t_nodes, s) from two trajectories launched at s +- delta."""
    trajs = []
    for ss in (s + delta, s - delta):
        _, n, _ = frenet(curve, ss)
        init = PhaseState(curve.point(ss), nu(ss) * n)
        trajs.append(integrate(field, init, (t_nodes[0], t_nodes[-1]), cfg, t_eval=t_nodes))
    tau = (trajs[0].positions() - trajs[1].positions()) / (2 * delta)
    mid_v = (trajs[0].velocities() + trajs[1].velocities()) / 2
    return np.array([tau[i] @ frame(mid_v[i]).N for i in range(len(t_nodes))])


def geodesic_shift_off_level_line():
    """Zero force under sin_cos(0.2) from the x axis, not a level line of f."""
    field = catalogue("metrizable", {"f": {"kind": "zero"}, "H": 0.0})
    metric = build_metric({"kind": "sin_cos", "amplitude": 0.2})
    return field, metric, segment_on_axis(normal="right"), constant_nu(1.0)


def test_metric_shift_matches_differenced_trajectories():
    field, metric, seg, nu = geodesic_shift_off_level_line()
    flat = flat_from_covariant(field, metric)
    tight = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
    grid = normal_shift(seg, flat, nu, (0, 1), n_s=5, n_t=5, cfg=tight)
    for j, s in enumerate(grid.s_nodes):
        ref = differenced_phi(flat, seg, nu, s, grid.t_nodes, tight)
        assert np.max(np.abs(grid.phi[:, j] - ref)) < 1e-7, s
    assert not normality_report(grid).normal


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
    grid = normal_shift(curve, field, constant_nu(1.0), (0, 0.3),
                        n_s=16, n_t=7, cfg=cfg)
    assert len(calls) == 1
    assert grid.r.shape == (7, 16, 2)


def launch_column(curve, nu, s):
    """Launch data (r, v, tau, tau') of the trajectory from s, as normal_shift builds it."""
    tangent, n, k = frenet(curve, s)
    (nu_s,), (dnu,) = nu.sample([s])
    d = curve.velocity(s)
    return curve.point(s), nu_s * n, d, dnu * n + nu_s * (-k * math.hypot(*d) * tangent)


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
        normal_shift(curve, field, constant_nu(1.0), (0, 0.3), n_s=n_s, n_t=5)
        assert len(forces) % len(rhs_calls) == 0
        per_rhs.append(len(forces) // len(rhs_calls))
    assert per_rhs[0] == per_rhs[1] <= 9


def test_nu_for_all_s_nodes_is_bit_identical_to_pointwise_queries(monkeypatch):
    from normshift.odesolve import ChebyshevSolution, OdeSolution
    field, curve = mdtype_on_spline()
    nu = solve_nu(curve, field, 0.5, 1.1)
    s = np.linspace(nu.s_lo, nu.s_hi, 33)  # s0 = 0.5 is node 16
    values, rates = nu.sample(s)
    assert values[16] == 1.1
    assert values.tobytes() == np.array([nu(x) for x in s]).tobytes()
    assert rates.tobytes() == np.array([nu.deriv(x) for x in s]).tobytes()
    # normal_shift samples each branch once instead of one dense call per query
    dense = count_calls(monkeypatch, OdeSolution, "__call__")
    nu_samples = count_calls(monkeypatch, ChebyshevSolution, "sample")
    grid_samples = count_calls(monkeypatch, OdeSolution, "sample")
    grid = normal_shift(curve, field, nu, (0, 0.2), n_s=33, n_t=3)
    assert grid.nu.tobytes() == values.tobytes()
    assert dense == []
    assert len(nu_samples) == 2 and len(grid_samples) == 1  # one per nu branch, one for the grid


def test_non_finite_columns_are_named_in_the_error_note():
    # the force is infinite right of x = 0.6, so the columns from there cannot start
    field = ForceField(fn=lambda r, v: np.where(r[..., :1] > 0.6, np.inf, 1.0) * v)
    grid_s = np.linspace(0.0, 1.0, 5)
    with pytest.raises(StepFailure) as info, np.errstate(invalid="ignore"):
        normal_shift(segment_on_axis(0.0, 1.0), field, constant_nu(1.0),
                     (0, 0.5), n_s=5, n_t=3)
    assert info.value.rows == (3, 4)
    assert info.value.__notes__ == [f"at s={grid_s[3]:.6g}, {grid_s[4]:.6g}"]


def test_field_errors_in_the_block_name_the_shifted_range():
    marked = catalogue("marked_point", {"profile": 1.0, "center": [0.5, 0.0]})
    with pytest.raises(InvalidParams) as info:
        normal_shift(segment_on_axis(0.0, 1.0), marked, constant_nu(1.0),
                     (0, 0.5), n_s=5, n_t=3)
    assert info.value.__notes__ == ["at s in [0, 1]"]


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
    for method in ("point", "velocity", "acceleration"):
        evaluate = getattr(curve, method)
        assert evaluate(s).shape == (13, 2)
        assert evaluate(s).tobytes() == np.array([evaluate(x) for x in s.tolist()]).tobytes()
        assert evaluate(s.reshape(13, 1)).shape == (13, 1, 2)
    stacked = frenet(curve, s)
    for got, rows in zip(stacked, zip(*(frenet(curve, x) for x in s.tolist()))):
        assert got.tobytes() == np.array(rows).tobytes()


def test_one_spline_matches_two_coordinate_splines_to_one_ulp():
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(11)
    s = np.linspace(0.0, 1.0, 101)
    for n in (3, 4, 5, 8):
        pts = random_spline_points(rng, n=n)
        curve = spline_through(pts)
        knots = np.linspace(0.0, 1.0, n)
        sx, sy = CubicSpline(knots, pts[:, 0]), CubicSpline(knots, pts[:, 1])
        for order, method in enumerate(("point", "velocity", "acceleration")):
            # the two-spline form evaluated derivative splines, as the curve does
            two = np.column_stack([sx.derivative(order)(s) if order else sx(s),
                                   sy.derivative(order)(s) if order else sy(s)])
            # measured: equal bits for every n
            assert np.all(np.abs(getattr(curve, method)(s) - two) <= np.spacing(np.abs(two)))


# fields that claim normality, with parameters that keep nu healthy on the
# curves below
NU_FIELDS = {
    "anisotropic": {"profile": {"kind": "poly", "coeffs": [0.8, 0.3]}},
    "marked_point": {"profile": {"kind": "poly", "coeffs": [0.9, 0.2]}, "center": [4.0, 4.0]},
    "metrizable": {"f": {"kind": "sin_cos", "amplitude": 0.25},
                   "H": {"kind": "poly", "coeffs": [0.1, 0.2]}},
    "mdtype": {"f": {"kind": "linear", "ax": 0.2, "ay": -0.1},
               "h": {"kind": "poly", "coeffs": [0.2, 0.1]}},
    "disc_invariant": {"R": 4.0, "profile": {"kind": "poly", "coeffs": [1.0, 0.2]}},
}


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
        b = ab_decompose(field, curve.point(s), v).B
        return [-float(curve.velocity(s) @ frame(v).M) * b / y[0]]

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
                # reference itself missed by up to 5.7e-11
                sol = solve_ivp(rhs, (start, stop), y, method="DOP853", rtol=2.3e-14,
                                atol=1e-14, dense_output=True)
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
    values, _ = nu.sample(nodes)
    assert np.max(np.abs(values - reference_nu(curve, field, s0, nu0, nodes))) < 1e-10


def test_solve_nu_is_one_solve_stopping_only_at_the_breaks(monkeypatch):
    from normshift import odesolve
    field, curve = mdtype_on_spline()
    calls = count_calls(monkeypatch, odesolve, "solve_chebyshev")
    nu = solve_nu(curve, field, 0.5, 1.1)
    assert len(calls) == 1 and not nu.truncated
    # the knots 1/3 and 2/3 are at sigma 1/3 of the lower and the upper
    # branch, so each branch has two steps, not one per s-node
    for idx, branch in nu.branches.items():
        own = [(k - 0.5) / (nu.ends[idx] - 0.5) for k in curve.breaks
               if (k - 0.5) * (idx - 0.5) > 0]
        assert len(branch.ts) == 3 and branch.ts[0] == 0.0 and branch.ts[-1] == 1.0
        # a stop of one branch within 1e-14 of one of the other's is merged into it
        assert np.all(np.min(np.abs(branch.ts[:, None] - own), axis=0) <= 1e-14)


def test_one_branch_truncates_while_the_other_reaches_its_end():
    seg = segment_on_axis(-1.0, 1.0, normal="right")
    # nu^2 = nu0^2 - 2 b0 s: the upper branch runs into zero at s = 0.125
    nodes = np.linspace(-1.0, 1.0, 33)
    nu = solve_nu(seg, magnetic_field(1.0), 0.0, 0.5)
    assert nu.truncated and nu.s_lo == -1.0 and 0.1 < nu.s_hi < 0.125
    assert nu.stop_reason.startswith("on [0, 1], stopped at") and ";" not in nu.stop_reason
    s = nodes[nodes <= nu.s_hi]
    assert np.max(np.abs(nu.values(s) - np.sqrt(0.25 - 2.0 * s))) < 1e-9

    def fn(r, v):
        if np.any(r[..., 0] > 0.5):
            raise OverflowError("boom")
        return np.zeros_like(r)

    nu = solve_nu(seg, ForceField(fn=fn), 0.0, 1.0)
    assert nu.truncated and nu.s_lo == -1.0 and 0.5 - 1e-13 < nu.s_hi <= 0.5
    assert nu.stop_reason.startswith("on [0, 1]") and "OverflowError: boom" in nu.stop_reason
    assert np.all(nu.values(np.linspace(-1.0, nu.s_hi, 9)) == 1.0)


def test_solve_nu_from_a_subnormal_distance_to_an_end_warns_nothing():
    # the lower branch is 5e-324 long: dividing every stop by its width overflowed
    field, curve = mdtype_on_spline()
    nodes = np.linspace(0.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu = solve_nu(curve, field, 5e-324, 1.1)
        values, _ = nu.sample(nodes)
    assert not nu.truncated and values[0] == 1.1


@pytest.mark.parametrize("field", [gravity_field(), oscillator_field(1.0)],
                         ids=["gravity", "oscillator"])
def test_solve_nu_stops_at_a_rest_point(field):
    # |nu0| < V_MIN: the launch velocity is a rest point, where B is undefined,
    # although F(r, nu n) is finite there (and zero for the oscillator)
    nu = solve_nu(segment_on_axis(-1.0, 1.0, normal="right"), field, 0.0, 1e-10)
    assert nu.truncated and nu.s_lo == nu.s_hi == 0.0
    assert nu.stop_reason.count("DegenerateVelocity") == 2


# parameters that keep each catalogue field finite on the curves below
RATE_PARAMS = {**NU_FIELDS, "oscillator": {"omega": 1.3},
               "geodesic": {"f": {"kind": "sin_cos", "amplitude": 0.25}}}
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
    r, v, d = curve.point(s), nu[:, None] * n, curve.velocity(s)
    expected = -np.vecdot(d, frame(v).M) * ab_decompose(field, r, v).B / nu
    # relative to the size of the terms, which may cancel: |F| |r'| / |nu|
    f = field.force(r, v)
    scale = np.hypot(f[:, 0], f[:, 1]) * np.hypot(d[:, 0], d[:, 1]) / np.abs(nu)
    assert np.all(np.abs(rate(s, nu) - expected) <= 1e-13 * scale)


def test_deviation_right_side_calls_a_differenced_field_once(monkeypatch):
    from helpers import two_call_deviation_rhs
    from normshift import odesolve
    from normshift.dynamics import integrate_deviation
    field, curve = mdtype_on_spline()
    assert field.spatial_jacobian is None and field.velocity_jacobian is None
    s = np.linspace(0.0, 1.0, 6)
    tangent, n, k = frenet(curve, s)
    d = curve.velocity(s)
    n_prime = -(k * np.hypot(d[:, 0], d[:, 1]))[:, None] * tangent
    launch = (curve.point(s), 1.1 * n, d, 1.1 * n_prime)
    times = np.linspace(0.0, 0.4, 7)

    forces = count_calls(monkeypatch, ForceField, "force")
    rhs_calls = []
    solve = odesolve.solve_dopri

    def counting_solve(rhs, *args, **kwargs):
        def counted(t, y):
            rhs_calls.append(1)
            return rhs(t, y)
        return solve(counted, *args, **kwargs)

    monkeypatch.setattr(odesolve, "solve_dopri", counting_solve)
    ys, _, _ = integrate_deviation(field, *launch, times)
    assert len(rhs_calls) > 0 and len(forces) == len(rhs_calls)

    monkeypatch.undo()
    cfg = IntegratorConfig()
    y0 = np.concatenate(launch, axis=-1)
    ref = solve(two_call_deviation_rhs(field), times[0], y0, times[-1], abs_tol=cfg.abs_tol,
                rel_tol=cfg.rel_tol).sample(times)
    ref[0] = y0
    assert np.array_equal(ys, ref)
