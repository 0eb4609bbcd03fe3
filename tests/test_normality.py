import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import perturbed_mdtype, random_ansatz

from normshift.errors import DegenerateVelocity, SingularDenominator
from normshift.experiment import CATALOGUE, build_field, catalogue
from normshift.forces import (ForceField, Profile, ScalarFieldA, cos_profile_ansatz,
                              disc_invariant_ansatz, from_scalar_ansatz,
                              gravity_field, mdtype_field, speed_profile_ansatz)
from normshift.geometry import frame
from normshift.normality import (VelocityAngleField, ab_gradients,
                                 b_closed_form, b_closed_form_field,
                                 characteristic_flow, complex_residual,
                                 first_integrals, probe_points, reduced_residual,
                                 reduction_b_residual, residual_sweep,
                                 symmetry_reduced_ansatz, symmetry_reduced_residual,
                                 weak_residuals, weak_residuals_cartesian)
from normshift import numdiff


def cartesian_probe(x, y, v, th):
    return np.array([x, y]), np.array([v * math.cos(th), v * math.sin(th)])


def scalar_closures(field):
    def a_of(r, v):
        fr = frame(v)
        return np.vecdot(field.force(r, v), fr.N)

    def b_of(r, v):
        fr = frame(v)
        return np.vecdot(field.force(r, v), fr.M)

    return a_of, b_of


def test_ab_gradients_zero_field():
    from normshift.forces import ForceField
    z = ForceField(fn=lambda r, v: np.zeros_like(r))
    g = ab_gradients(z, np.zeros(2), np.array([1.0, 0.5]))
    for name in ("alpha1", "alpha2", "alpha3", "alpha4",
                 "beta1", "beta2", "beta3", "beta4"):
        assert getattr(g, name) == pytest.approx(0.0, abs=1e-12)


def test_ab_gradients_reconstruction_against_direct_fd():
    rng = np.random.default_rng(0)
    fields = [gravity_field(), mdtype_field(perturbed_mdtype(rng)),
              from_scalar_ansatz(random_ansatz(rng))]
    for field in fields:
        a_of, b_of = scalar_closures(field)
        for _ in range(8):
            r = rng.uniform(-1.5, 1.5, 2)
            v = rng.uniform(0.6, 2.5, 2)
            fr = frame(v)
            g = ab_gradients(field, r, v)
            for scalar, n_coef, m_coef, wrt in [
                    (a_of, g.alpha1, g.alpha2, "r"), (a_of, g.alpha3, g.alpha4, "v"),
                    (b_of, g.beta1, g.beta2, "r"), (b_of, g.beta3, g.beta4, "v")]:
                grad = np.empty(2)
                for i in range(2):
                    if wrt == "r":
                        def slc(t, i=i):
                            rp, vp = (np.broadcast_to(a, t.shape + (2,)).copy() for a in (r, v))
                            rp[..., i] = t
                            return scalar(rp, vp)
                        grad[i] = numdiff.richardson(slc, r[i])
                    else:
                        def slc(t, i=i):
                            rp, vp = (np.broadcast_to(a, t.shape + (2,)).copy() for a in (r, v))
                            vp[..., i] = t
                            return scalar(rp, vp)
                        grad[i] = numdiff.richardson(slc, v[i])
                rebuilt = n_coef * fr.N + m_coef * fr.M
                assert np.max(np.abs(rebuilt - grad)) < 1e-6


def test_mdtype_gradient_coefficients_closed_form():
    rng = np.random.default_rng(1)
    md = perturbed_mdtype(rng)
    field = mdtype_field(md)
    for _ in range(10):
        r = rng.uniform(-1, 1, 2)
        v = rng.uniform(0.5, 2.0, 2)
        fr = frame(v)
        speed = float(np.hypot(*v))
        gw = np.array(md.grad_w(*r, speed))
        wv = md.w_v(*r, speed)
        g = ab_gradients(field, r, v)
        # velocity-gradient frame components of A and B in terms of W
        assert g.alpha4 == pytest.approx(-float(gw @ fr.M) / wv, abs=1e-6)
        assert g.beta4 == pytest.approx(-float(gw @ fr.N) / wv, abs=1e-6)


def test_weak_residuals_zero_field():
    from normshift.forces import ForceField
    z = ForceField(fn=lambda r, v: np.zeros_like(r))
    r1, r2 = weak_residuals(z, np.zeros(2), np.array([1.0, -0.5]))
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_weak_residuals_gravity_value():
    r1, r2 = weak_residuals(gravity_field(), np.zeros(2), np.array([1.0, -1.0]))
    # for a velocity-independent field r1 = 2 B / |v|
    assert r1 == pytest.approx(-1.0, abs=1e-9)
    assert abs(r1) > 1e-3  # constant fields violate the first equation


def test_weak_residuals_formulations_agree():
    rng = np.random.default_rng(2)
    fields = [gravity_field(), mdtype_field(perturbed_mdtype(rng)),
              from_scalar_ansatz(random_ansatz(rng))]
    for field in fields:
        for _ in range(10):
            r = rng.uniform(-1.5, 1.5, 2)
            v = rng.uniform(0.6, 2.5, 2)
            ab_pair = weak_residuals(field, r, v, cross_validate=False)
            cart_pair = weak_residuals_cartesian(field, r, v)
            assert ab_pair[0] == pytest.approx(cart_pair[0], abs=1e-5)
            assert ab_pair[1] == pytest.approx(cart_pair[1], abs=1e-5)


def test_weak_residuals_mdtype_vanish():
    rng = np.random.default_rng(3)
    field = mdtype_field(perturbed_mdtype(rng))
    for x, y, v, th in probe_points(50, seed=4):
        r1, r2 = weak_residuals(field, *cartesian_probe(x, y, v, th))
        assert abs(r1) < 1e-5 and abs(r2) < 1e-5


def test_weak_residuals_rejects_rest_point():
    with pytest.raises(DegenerateVelocity):
        weak_residuals(gravity_field(), np.zeros(2), np.zeros(2))


def test_reduced_residual_speed_profile_is_exactly_zero():
    a = speed_profile_ansatz(Profile.polynomial([1.0, 0.5, 0.1]))
    for x, y, v, th in probe_points(10, seed=5):
        assert reduced_residual(a, x, y, v, th) == 0.0


def test_reduced_residual_cos_profile_vanishes():
    a = cos_profile_ansatz(Profile.polynomial([1.0, 0.4]))
    for x, y, v, th in probe_points(20, seed=6):
        assert abs(reduced_residual(a, x, y, v, th)) < 1e-9


def test_reduced_residual_disc_invariant_vanishes():
    a = disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3]))
    for x, y, v, th in probe_points(20, seed=7):
        assert abs(reduced_residual(a, 0.4 * x, 0.4 * y, v, th)) < 1e-7


def test_reduced_residual_nonsolution():
    a = ScalarFieldA(lambda x, y, v, t: v * v * t)
    vals = [abs(reduced_residual(a, x, y, v, th))
            for x, y, v, th in probe_points(20, seed=8)]
    assert min(vals) > 1e-3


def test_complex_residual_constant_generator():
    a = ScalarFieldA(lambda x, y, v, t: 0.75)
    for x, y, v, th in probe_points(10, seed=9):
        w = complex(v * math.cos(th), v * math.sin(th))
        assert abs(complex_residual(a, complex(x, y), w)) < 1e-9


def test_complex_residual_zero_sets_match_reduced():
    solutions = [cos_profile_ansatz(Profile.polynomial([0.8, 0.3])),
                 disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3]))]
    bad = ScalarFieldA(lambda x, y, v, t: v * v * t)
    for x, y, v, th in probe_points(15, seed=10):
        x, y = 0.4 * x, 0.4 * y
        z, w = complex(x, y), complex(v * math.cos(th), v * math.sin(th))
        for a in solutions:
            assert abs(complex_residual(a, z, w)) < 1e-7
        rc = complex_residual(bad, z, w)
        rr = reduced_residual(bad, x, y, v, th)
        assert abs(rc) > 1e-3 and abs(rr) > 1e-3
        # the two zero/nonzero classifications agree
        assert (abs(rc) < 1e-5) == (abs(rr) < 1e-5)


def test_equivalence_of_formulations_on_random_generators():
    # for scalar-ansatz fields r1 is an identity; r2 and the reduced residual
    # classify zero/nonzero identically
    rng = np.random.default_rng(11)
    probes = probe_points(500, seed=12)
    for idx in range(500):
        if idx % 10 == 0:
            a = random_ansatz(rng, n_terms=2)
            field = from_scalar_ansatz(a)
        x, y, v, th = probes[idx]
        r, vel = cartesian_probe(x, y, v, th)
        r1, r2 = weak_residuals(field, r, vel, cross_validate=False)
        assert abs(r1) < 1e-6
        rr = reduced_residual(a, x, y, v, th)
        assert (abs(r2) < 1e-5) == (abs(rr) < 1e-5), (r2, rr)


def test_reduction_b_zero_solution():
    b = VelocityAngleField(fn=lambda v, t: 0.0)
    assert reduction_b_residual(b, 1.3, 0.4) == pytest.approx(0.0)


def test_reduction_b_closed_form_analytic_partials():
    b = b_closed_form_field(u=1.0)
    for v, th in [(1.0, 0.3), (2.0, 1.0), (0.5, 2.0)]:
        assert abs(reduction_b_residual(b, v, th)) < 1e-6


def test_reduction_b_closed_form_fd_partials():
    b = VelocityAngleField(fn=lambda v, t: b_closed_form(v, t, 1.0))
    for v, th in [(1.0, 0.3), (2.0, 1.0), (0.5, 2.0)]:
        assert abs(reduction_b_residual(b, v, th)) < 1e-4


def test_b_closed_form_partials_match_fd():
    b = b_closed_form_field(u=1.0)
    for v, th in [(1.0, 0.3), (1.7, 1.2)]:
        assert b.d_v(v, th) == pytest.approx(
            numdiff.richardson(lambda u: b(u, th), v), abs=1e-8)
        assert b.d_theta(v, th) == pytest.approx(
            numdiff.richardson(lambda u: b(v, u), th), abs=1e-8)


def test_b_closed_form_singular_denominator():
    # at theta = -pi/2, u = 1 the denominator is (v - 2)^2 - 2
    v_star = 2.0 - math.sqrt(2.0)
    with pytest.raises(SingularDenominator):
        b_closed_form(v_star, -math.pi / 2, 1.0)


def test_first_integrals_constant_along_characteristics():
    ts, states = characteristic_flow(1.0, 0.5, 0.7, (0, 1))
    i1 = [first_integrals(v, th, b, u=1.0)[0] for v, th, b in states]
    i2 = [first_integrals(v, th, b, u=1.0)[1] for v, th, b in states]
    assert max(i1) - min(i1) < 1e-8
    assert max(i2) - min(i2) < 1e-8
    # the characteristic vector field annihilates the residual relation
    for v, th, b in states:
        assert abs(reduction_b_residual(
            VelocityAngleField(fn=lambda vv, tt, b=b: b), v, th) - (b**3 + b)) < 1e-12


def test_symmetry_reduced_family_matches_full_residual():
    rng = np.random.default_rng(13)

    def profile_fn(v, t):
        return 1.0 + 0.3 * v + 0.5 * v * np.cos(t) + 0.2 * np.sin(t)

    prof = VelocityAngleField(
        fn=profile_fn,
        fn_v=lambda v, t: 0.3 + 0.5 * math.cos(t),
        fn_theta=lambda v, t: -0.5 * v * math.sin(t) + 0.2 * math.cos(t))

    def second(v, t):
        return (-0.5 * v * math.cos(t) - 0.2 * math.sin(t), -0.5 * math.sin(t))

    full = symmetry_reduced_ansatz(profile_fn)
    for _ in range(10):
        v = rng.uniform(0.5, 2.5)
        th = rng.uniform(-math.pi, math.pi)
        gam = rng.uniform(-math.pi, math.pi)
        # probes on the unit circle: the ansatz scale factor is one there
        x, y = math.cos(gam), math.sin(gam)
        lhs = reduced_residual(full, x, y, v, th)
        rhs = symmetry_reduced_residual(prof, v, th - gam, second_partials=second)
        assert lhs == pytest.approx(rhs, abs=1e-6)
        # off the unit circle the full residual scales by 1/rho^2
        rho = 1.7
        lhs2 = reduced_residual(full, rho * x, rho * y, v, th)
        assert lhs2 == pytest.approx(rhs / rho**2, abs=1e-6)


def test_probe_points_deterministic_and_in_box():
    a = probe_points(50, seed=3)
    b = probe_points(50, seed=3)
    assert np.array_equal(a, b)
    assert np.all(a[:, 0] >= -2) and np.all(a[:, 0] <= 2)
    assert np.all(a[:, 2] >= 0.5) and np.all(a[:, 2] <= 3)
    assert np.all(a[:, 3] > -math.pi) and np.all(a[:, 3] <= math.pi)


def test_probe_points_draw_order_with_and_without_box():
    box = {"x": [-0.5, 0.5], "y": [1, 2], "v": (0.7, 0.9), "theta": [0.0, 1.0]}
    for given, bounds in ((None, [(-2, 2), (-2, 2), (0.5, 3), (-math.pi, math.pi)]),
                          (box, [box[k] for k in ("x", "y", "v", "theta")])):
        rng = np.random.default_rng(21)
        want = np.column_stack([rng.uniform(lo, hi, 30) for lo, hi in bounds])
        assert np.array_equal(probe_points(30, seed=21, box=given), want)


def test_residual_sweep_report():
    rng = np.random.default_rng(14)
    a = cos_profile_ansatz(Profile.constant(1.0))
    field = from_scalar_ansatz(a)
    report = residual_sweep(probe_points(10, seed=15), field=field, ansatz=a,
                            include_complex=True)
    summary = report.summary()
    assert summary["r1"]["max"] < 1e-6
    assert summary["r2"]["max"] < 1e-5
    assert summary["r_reduced"]["max"] < 1e-9
    assert summary["r_complex"]["max"] < 1e-7


# The field kinds of the benchmark's residual sweeps: four generators, and
# the mdtype and oscillator catalogue fields.
_POLY = {"kind": "poly", "coeffs": [0.6, 0.2, -0.05]}
SWEEP_FIELDS = {
    "cos_profile": {"ansatz": {"kind": "cos_profile", "profile": _POLY}},
    "speed_profile": {"ansatz": {"kind": "speed_profile", "profile": _POLY}},
    "disc_invariant": {"ansatz": {"kind": "disc_invariant", "R": 3.0, "profile": _POLY}},
    "angular_monomial": {"ansatz": {"kind": "angular_monomial", "coef": 1.2, "power": 2.3}},
    "mdtype": {"catalogue": "mdtype",
               "params": {"f": {"kind": "sin_cos", "amplitude": 0.2}, "h": _POLY}},
    "oscillator": {"catalogue": "oscillator", "params": {"omega": 1.3}},
}
SWEEP_BOX = {"x": (-1.3, 1.3), "y": (-1.3, 1.3), "v": (0.4, 3.0), "theta": (-3.1, 3.1)}


def assert_probe_by_probe(stacked, rows):
    rows = np.array(rows)
    assert np.shape(stacked) == rows.shape
    # measured: equal bits for the weak and reduced residuals, 5.3e-15 for
    # the complex one (its single-probe call evaluates A at 0-d arrays)
    assert np.all(np.abs(stacked - rows) <= 1e-13 * (1.0 + np.abs(rows)))


@pytest.mark.parametrize("kind", sorted(SWEEP_FIELDS))
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_stacked_residuals_equal_probe_by_probe(kind, n, seed):
    field, a = build_field(SWEEP_FIELDS[kind])
    probes = probe_points(n, seed=seed, box=SWEEP_BOX)
    x, y, v, th = probes.T
    R, V = probes[:, :2], np.column_stack([v * np.cos(th), v * np.sin(th)])
    r1, r2 = weak_residuals(field, R, V)
    rows = [weak_residuals(field, r, vel) for r, vel in zip(R, V)]
    assert_probe_by_probe(r1, [row[0] for row in rows])
    assert_probe_by_probe(r2, [row[1] for row in rows])
    if a is None:
        return
    assert_probe_by_probe(reduced_residual(a, x, y, v, th),
                          [reduced_residual(a, *probe) for probe in probes])
    z, w = x + 1j * y, V[:, 0] + 1j * V[:, 1]
    assert_probe_by_probe(complex_residual(a, z, w),
                          [complex_residual(a, zz, ww) for zz, ww in zip(z, w)])


@pytest.mark.parametrize("kind, calls", [("mdtype", 3), ("angular_monomial", 3),
                                         ("oscillator", 1)])
def test_field_calls_per_sweep_do_not_grow_with_the_probe_count(monkeypatch, kind, calls):
    # one force call, and one stacked stencil call per finite-difference Jacobian
    field, a = build_field(SWEEP_FIELDS[kind])
    counted = []
    force = ForceField.force
    monkeypatch.setattr(ForceField, "force",
                        lambda self, r, v: counted.append(len(r)) or force(self, r, v))
    for n in (10, 500):
        counted.clear()
        residual_sweep(probe_points(n, seed=n, box=SWEEP_BOX), field=field, ansatz=a,
                       include_complex=a is not None)
        assert len(counted) == calls, n


def test_stacked_residuals_reject_a_rest_point_in_any_row():
    a = cos_profile_ansatz(Profile.constant(1.0))
    zeros, speeds = np.zeros(3), np.array([1.0, 0.0, 2.0])
    with pytest.raises(DegenerateVelocity):
        reduced_residual(a, zeros, zeros, speeds, zeros)
    with pytest.raises(DegenerateVelocity):
        complex_residual(a, zeros + 0j, speeds + 0j)
    with pytest.raises(DegenerateVelocity):
        weak_residuals(from_scalar_ansatz(a), np.zeros((3, 2)), np.column_stack([speeds, zeros]))


def test_sweep_blocks_equal_one_block_and_bound_the_peak_memory():
    import tracemalloc
    from normshift import normality
    field, a = build_field(SWEEP_FIELDS["cos_profile"])
    # three blocks, the last one partial
    probes = probe_points(2 * normality.PROBE_BLOCK + 100, seed=4)
    report = residual_sweep(probes, field=field, ansatz=a, include_complex=True)
    x, y, v, th = probes.T
    vel = np.column_stack([v * np.cos(th), v * np.sin(th)])
    r1, r2 = weak_residuals(field, probes[:, :2], vel)
    for got, want in ((report.r1, r1), (report.r2, r2),
                      (report.r_reduced, reduced_residual(a, x, y, v, th)),
                      (report.r_complex, complex_residual(a, x + 1j * y, vel[:, 0] + 1j * vel[:, 1]))):
        assert got.tobytes() == want.tobytes()

    peaks = []
    for n in (normality.PROBE_BLOCK, 40_000):
        tracemalloc.start()
        try:
            residual_sweep(probe_points(n, seed=5), field=field, ansatz=a, include_complex=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# The claiming catalogue fields solve the weak equations wherever defined.
# ---------------------------------------------------------------------------

def claiming_params(name: str, rng) -> dict:
    """Random parameters of a normality-claiming catalogue field that keep it
    defined on |r| <= 1.5: a marked point or a disc boundary at distance 3
    or more."""
    def profile():
        return {"kind": "poly", "coeffs": [rng.uniform(0.3, 1.2), rng.uniform(-0.3, 0.3)]}

    def factor():
        if rng.random() < 0.5:
            return {"kind": "sin_cos", "amplitude": rng.uniform(0.05, 0.4)}
        return {"kind": "linear", "ax": rng.uniform(-0.3, 0.3), "ay": rng.uniform(-0.3, 0.3)}

    angle = rng.uniform(0.0, 2.0 * math.pi)
    unit = np.array([math.cos(angle), math.sin(angle)])
    return {
        "anisotropic": lambda: {"profile": profile(), "m": unit.tolist()},
        "marked_point": lambda: {"profile": profile(),
                                 "center": (rng.uniform(3.0, 5.0) * unit).tolist()},
        "geodesic": lambda: {"f": factor()},
        "metrizable": lambda: {"f": factor(), "H": profile()},
        "mdtype": lambda: {"f": factor(), "h": profile()},
        "disc_invariant": lambda: {"R": rng.uniform(3.0, 5.0), "profile": profile()},
    }[name]()


CLAIMING = sorted(n for n, entry in CATALOGUE.items() if entry["claims_normality"])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(CLAIMING), seed=st.integers(0, 2**32 - 1))
def test_claiming_fields_have_zero_weak_residuals_at_random_points(name, seed):
    rng = np.random.default_rng(seed)
    field = catalogue(name, claiming_params(name, rng))
    r = rng.uniform(-1.5, 1.5, (32, 2))
    v, theta = rng.uniform(0.3, 3.0, 32), rng.uniform(-math.pi, math.pi, 32)
    r1, r2 = weak_residuals(field, r, v[:, None] * np.stack([np.cos(theta), np.sin(theta)], -1))
    # the tolerance of the fixed-probe tests above
    assert np.max(np.abs(r1)) < 1e-5 and np.max(np.abs(r2)) < 1e-5
