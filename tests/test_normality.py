import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (perturbed_mdtype, random_ansatz, random_generator, reduced_residual_from,
                     richardson_one_point)

from normshift.errors import DegenerateVelocity, InvalidParams, SingularDenominator
from normshift.experiment import CATALOGUE, build_field, catalogue
from normshift.forces import (ForceField, Profile, ScalarFieldA, conformal_transport,
                              cos_profile_ansatz, disc_invariant_ansatz, from_scalar_ansatz,
                              gravity_field, mdtype_field, speed_profile_ansatz)
from normshift.geometry import ConformalMetric, frame
from normshift.normality import (ab_gradients, b_closed_form,
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
                        grad[i] = richardson_one_point(slc, r[i])
                    else:
                        def slc(t, i=i):
                            rp, vp = (np.broadcast_to(a, t.shape + (2,)).copy() for a in (r, v))
                            vp[..., i] = t
                            return scalar(rp, vp)
                        grad[i] = richardson_one_point(slc, v[i])
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
        _, wv, *gw = md.w(*r, speed)
        gw = np.array(gw)
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


def test_weak_residuals_are_smooth_up_to_a_generators_cut():
    # A = c v^p theta jumps where theta wraps at +-pi.  1e-7 short of the
    # cut, r1 is zero to rounding and r2 lies on the line through its values
    # at 1e-4 and 2e-4 short of it (1.7e-10 off).  A Richardson Jacobian
    # reached across the cut there: r1 = -1.4e6, r2 = -15.5 for -7.6
    field, _ = build_field({"ansatz": {"kind": "angular_monomial", "coef": 1.3, "power": 2.0}})

    def residuals(gap):
        theta = math.pi - gap
        return weak_residuals(field, np.array([0.3, -0.2]),
                              1.2 * np.array([math.cos(theta), math.sin(theta)]))

    r1, r2 = residuals(1e-7)
    (_, near), (_, far) = residuals(1e-4), residuals(2e-4)
    assert abs(r1) <= 1e-10
    assert abs(r2 - (near + (near - far) * (1e-4 - 1e-7) / 1e-4)) <= 1e-6


def test_weak_residuals_resolve_a_departure_of_1e_12():
    # geodesic + eps gravity leaves normality by eps: at eps = 1e-12 the
    # largest residual is 10x (measured: 3500x) the largest of the normal
    # field at the same probes.  With Richardson Jacobians both read 1.7e-10
    geodesic = catalogue("geodesic", {"f": {"kind": "sin_cos", "amplitude": 0.3}})
    gravity = gravity_field()
    probes = probe_points(500, seed=3, box={"x": (-1.0, 1.0), "y": (-1.0, 1.0),
                                             "v": (0.5, 3.0), "theta": (-math.pi, math.pi)})
    r, (v, th) = probes[:, :2], probes[:, 2:].T
    vel = v[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def worst(field):
        return np.max(np.abs(weak_residuals(field, r, vel)))

    off = ForceField(fn=lambda r, v: geodesic.force(r, v) + 1e-12 * gravity.force(r, v))
    assert worst(off) >= 10.0 * worst(geodesic)


def test_weak_residuals_formulations_agree():
    rng = np.random.default_rng(2)
    fields = [gravity_field(), mdtype_field(perturbed_mdtype(rng)),
              from_scalar_ansatz(random_ansatz(rng))]
    for field in fields:
        for _ in range(10):
            r = rng.uniform(-1.5, 1.5, 2)
            v = rng.uniform(0.6, 2.5, 2)
            ab_pair = weak_residuals(field, r, v)
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
        assert abs(reduced_residual(a, x, y, v, th)) < 1e-13


def test_reduced_residual_disc_invariant_vanishes():
    a = disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3]))
    for x, y, v, th in probe_points(20, seed=7):
        assert abs(reduced_residual(a, 0.4 * x, 0.4 * y, v, th)) < 1e-13


def test_reduced_residual_matches_the_exact_partials_of_random_generators():
    # the generators pass fn and a_theta only; the residual assembled from
    # their closed-form partials is the reference (3.8e-15 measured)
    box = {"x": (-2.0, 2.0), "y": (-2.0, 2.0), "v": (0.3, 3.0), "theta": (-math.pi, math.pi)}
    for seed in range(40):
        a, partials = random_generator(np.random.default_rng(seed))
        x, y, v, th = probe_points(32, seed=seed, box=box).T
        want = reduced_residual_from(partials, x, y, v, th)
        assert np.all(np.abs(reduced_residual(a, x, y, v, th) - want)
                      <= 1e-13 * (1.0 + np.abs(want)))


def test_reduced_residual_of_angular_monomial_is_its_exact_value():
    # A = c v^p theta: r_reduced = c^2 v^(2p-2) theta.  With the closure
    # A_theta = c v^p every partial is a complex step (1.6e-15 relative
    # measured); without it, A_theta v and A_theta theta are complex steps of
    # A_theta's jet, the path of a generator with no closure (1.6e-15
    # relative measured; 1.0e-10 when A_theta was a Richardson stencil)
    _, a = build_field({"ansatz": {"kind": "angular_monomial", "coef": 1.3, "power": 2.2}})
    for generator, bound in ((a, 1e-13), (ScalarFieldA(a.fn), 1e-13)):
        for seed, box in ((11, SWEEP_BOX), (4, None)):
            x, y, v, th = probe_points(1000, seed=seed, box=box).T
            want = 1.3**2 * np.power(v, 2.0 * 2.2 - 2.0) * th
            assert np.all(np.abs(reduced_residual(generator, x, y, v, th) - want)
                          <= bound * np.abs(want))


def test_weak_residuals_of_angular_monomial_are_exact_to_rounding():
    # F = A N - A_theta M solves the first equation, and r2 is minus the
    # reduced residual: measured r1 8.0e-15, r2 3.1e-15 relative (1.8e-10
    # and 4.5e-9 with a Richardson A_theta)
    field, _ = build_field({"ansatz": {"kind": "angular_monomial", "coef": 1.3, "power": 2.2}})
    for seed, box in ((11, SWEEP_BOX), (4, None)):
        probes = probe_points(1000, seed=seed, box=box)
        v, th = probes[:, 2], probes[:, 3]
        r1, r2 = weak_residuals(field, probes[:, :2],
                                np.column_stack([v * np.cos(th), v * np.sin(th)]))
        want = 1.3**2 * np.power(v, 2.0 * 2.2 - 2.0) * th
        assert np.max(np.abs(r1)) <= 1e-12
        assert np.all(np.abs(r2 + want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("closure", [True, False], ids=["closure", "stencil"])
@pytest.mark.parametrize("n", [None, 5])
def test_reduced_residual_evaluates_the_generator_twice(closure, n):
    # one complex call of fn and one of a_theta, three points per probe;
    # without the closure ("stencil", as A_theta was once taken), A_theta is
    # one jet of fn in theta at the same points
    calls = []

    def fn(x, y, v, t):
        calls.append((np.broadcast_shapes(*map(np.shape, (x, y, v, t))), type(t)))
        return x * y * np.cos(t) + v * v * np.sin(t)

    def a_theta(x, y, v, t):
        calls.append((np.broadcast_shapes(*map(np.shape, (x, y, v, t))), type(t)))
        return -x * y * np.sin(t) + v * v * np.cos(t)

    point = (0.3, -0.8, 1.4, 0.5)
    if n is not None:
        point = tuple(np.full(n, c) for c in point)
    a = ScalarFieldA(fn, a_theta=a_theta if closure else None)
    value = reduced_residual(a, *point)
    assert np.shape(value) == np.shape(point[0])
    probes = np.shape(point[0])
    assert calls == [(probes + (3,), np.ndarray),
                     (probes + (3,), np.ndarray if closure else numdiff.Jet)]


@pytest.mark.parametrize("n", [None, 5])
def test_complex_residual_evaluates_the_generator_four_times(n):
    # one jet of a.cartesian along each pair of the formula's operator
    # directions, (D-_w, D-_w), D-_z, (D+_w, D-_w) and (D+_z, D-_w), at the
    # probes themselves
    shapes = []

    def fn(x, y, v, t):
        shapes.append(np.broadcast_shapes(*map(np.shape, (x, y, v, t))))
        return x * y * np.cos(t) + v * v * np.sin(t)

    z, w = 0.3 - 0.8j, 1.4 * np.exp(0.5j)
    if n is not None:
        z, w = np.full(n, z), np.full(n, w)
    value = complex_residual(ScalarFieldA(fn), z, w)
    assert np.shape(value) == np.shape(z)
    # a single probe runs as a one-element array
    assert shapes == [np.shape(z) or (1,)] * 4


def test_reduced_residual_nonsolution():
    a = ScalarFieldA(lambda x, y, v, t: v * v * t)
    vals = [abs(reduced_residual(a, x, y, v, th))
            for x, y, v, th in probe_points(20, seed=8)]
    assert min(vals) > 1e-3


def test_complex_residual_constant_generator():
    a = ScalarFieldA(lambda x, y, v, t: 0.75)
    for x, y, v, th in probe_points(10, seed=9):
        w = complex(v * math.cos(th), v * math.sin(th))
        assert abs(complex_residual(a, complex(x, y), w)) == 0.0


def test_complex_residual_zero_sets_match_reduced():
    solutions = [cos_profile_ansatz(Profile.polynomial([0.8, 0.3])),
                 disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3]))]
    bad = ScalarFieldA(lambda x, y, v, t: v * v * t)
    for x, y, v, th in probe_points(15, seed=10):
        x, y = 0.4 * x, 0.4 * y
        z, w = complex(x, y), complex(v * math.cos(th), v * math.sin(th))
        for a in solutions:
            assert abs(complex_residual(a, z, w)) < 1e-13
        rc = complex_residual(bad, z, w)
        rr = reduced_residual(bad, x, y, v, th)
        assert abs(rc) > 1e-3 and abs(rr) > 1e-3
        # the two zero/nonzero classifications agree
        assert (abs(rc) < 1e-5) == (abs(rr) < 1e-5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_complex_residual_is_i_v_squared_times_the_reduced_residual(seed):
    # the two formulations by independent engines: jets of A in Cartesian
    # velocity, complex steps of A and A_theta in polar velocity (5.4e-14
    # measured over 300 draws; 1.1e-7 with stencils)
    rng = np.random.default_rng(seed)
    a, _ = random_generator(rng)
    x, y, v, th = probe_points(64, seed=seed % 1000, box=SWEEP_BOX).T
    want = 1j * v * v * reduced_residual(a, x, y, v, th)
    got = complex_residual(a, x + 1j * y, v * np.cos(th) + 1j * v * np.sin(th))
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("gap", [1e-7, 1e-3, 0.0])
def test_complex_residual_is_exact_at_a_generators_cut(gap):
    # A = c v^p theta jumps where theta wraps at +-pi; a jet differentiates
    # at the point, so only a point exactly on the cut can see the jump, and
    # geometry.speed_angle reads +pi there for v_y = +-0.0 alike.  Stencils
    # straddled the jump within 2e-3 rad: 3.5e13 i at a gap of 1e-7, 2.6e6 i
    # at 1e-3
    _, a = build_field({"ansatz": {"kind": "angular_monomial", "coef": 1.3, "power": 2.0}})
    theta = math.pi - gap
    want = 1.2 * 1.2 * 1j * reduced_residual(a, 0.3, -0.2, 1.2, theta)
    vy = (1.2 * math.sin(theta), -0.0) if gap == 0.0 else (1.2 * math.sin(theta),)
    for w in (complex(1.2 * math.cos(theta), s) for s in vy):
        assert abs(complex_residual(a, 0.3 - 0.2j, w) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("kind", ["cos_profile", "disc_invariant", "speed_profile"])
def test_complex_residual_of_the_claiming_generators_is_zero_to_rounding(kind):
    # 1.7e-16 (cos_profile), 0 (speed_profile) and 1.1e-14 (disc_invariant)
    # measured; stencils read 1.2e-9, 3.8e-10 and 3.3e-8
    _, a = build_field(SWEEP_FIELDS[kind])
    x, y, v, th = probe_points(2000, seed=3, box=SWEEP_BOX).T
    r = complex_residual(a, x + 1j * y, v * np.cos(th) + 1j * v * np.sin(th))
    assert np.max(np.abs(r)) <= 1e-13


def test_complex_residual_takes_jets_of_jets():
    # a metric without grad_f inside complex_residual: its gradient is a jet
    # of f at jet points, and both metrics give the residual of the
    # transported generator (5.3e-15 measured against i v^2 r_reduced)
    def f(x, y):
        return 0.2 * np.sin(x) * np.cos(y)

    exact = ConformalMetric(f=f, grad_f=lambda x, y: (0.2 * np.cos(x) * np.cos(y),
                                                      -0.2 * np.sin(x) * np.sin(y)))
    x, y, v, th = probe_points(200, seed=3, box=SWEEP_BOX).T
    z, w = x + 1j * y, v * np.cos(th) + 1j * v * np.sin(th)
    base = cos_profile_ansatz(Profile.polynomial([0.6, 0.2]))
    rows = [complex_residual(conformal_transport(base, m), z, w)
            for m in (exact, ConformalMetric(f=f))]
    want = 1j * v * v * reduced_residual(conformal_transport(base, exact), x, y, v, th)
    for got in rows:
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


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
        r1, r2 = weak_residuals(field, r, vel)
        assert abs(r1) < 1e-6
        rr = reduced_residual(a, x, y, v, th)
        assert (abs(r2) < 1e-5) == (abs(rr) < 1e-5), (r2, rr)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weak_r2_is_minus_the_reduced_residual_of_a_scalar_generator(seed):
    # for F = A N - A_theta M, r2 = -r_reduced identically (6e-15 measured)
    rng = np.random.default_rng(seed)
    a = random_ansatz(rng)
    probes = np.column_stack([rng.uniform(-2.0, 2.0, (32, 2)), rng.uniform(0.3, 3.0, 32),
                              rng.uniform(-math.pi, math.pi, 32)])
    x, y, v, th = probes.T
    vel = np.column_stack([v * np.cos(th), v * np.sin(th)])
    _, r2 = weak_residuals(from_scalar_ansatz(a), probes[:, :2], vel)
    reduced = reduced_residual(a, x, y, v, th)
    assert np.all(np.abs(r2 + reduced) <= 1e-12 * (1.0 + np.abs(reduced)))


def test_reduction_b_zero_solution():
    assert reduction_b_residual(lambda v, t: 0.0, 1.3, 0.4) == pytest.approx(0.0)


def test_reduction_b_closed_form_analytic_partials():
    # b, b_v and b_theta are one jet of b_closed_form (1.3e-15 measured)
    for v, th in [(1.0, 0.3), (2.0, 1.0), (0.5, 2.0)]:
        assert abs(reduction_b_residual(b_closed_form, v, th)) <= 1e-13


def test_reduction_b_closed_form_fd_partials():
    # the same equation with b_v and b_theta from Richardson differences of
    # b_closed_form, independent of the jets (1.1e-10 measured)
    for v, th in [(1.0, 0.3), (2.0, 1.0), (0.5, 2.0)]:
        b = b_closed_form(v, th)
        b_v = richardson_one_point(lambda u: b_closed_form(u, th), v)
        b_theta = richardson_one_point(lambda u: b_closed_form(v, u), th)
        assert abs(b * b_theta - v * b_v + b**3 + b) < 1e-4


def test_b_closed_form_partials_match_fd():
    for v, th in [(1.0, 0.3), (1.7, 1.2)]:
        _, b_v, b_theta, _ = numdiff.jet(b_closed_form, (v, th), (1.0, 0.0), (0.0, 1.0))
        assert b_v == pytest.approx(
            richardson_one_point(lambda u: b_closed_form(u, th), v), abs=1e-8)
        assert b_theta == pytest.approx(
            richardson_one_point(lambda u: b_closed_form(v, u), th), abs=1e-8)


def test_b_closed_form_singular_denominator():
    # at theta = -pi/2, u = 1 the denominator is (v - 2)^2 - 2
    v_star = 2.0 - math.sqrt(2.0)
    with pytest.raises(SingularDenominator):
        b_closed_form(v_star, -math.pi / 2, 1.0)


def test_first_integrals_constant_along_characteristics():
    ts, states = characteristic_flow(1.0, 0.5, 0.7, (0, 1))
    i1, i2 = first_integrals(*states.T, u=1.0)
    assert np.ptp(i1) < 1e-8
    assert np.ptp(i2) < 1e-8
    # the stacked call is the states' own calls
    for k, (v, th, b) in enumerate(states.tolist()):
        one = first_integrals(v, th, b, u=1.0)
        assert i1[k] == pytest.approx(one[0], rel=1e-15)
        assert i2[k] == pytest.approx(one[1], rel=1e-15)
    # the characteristic vector field annihilates the residual relation
    for v, th, b in states:
        assert abs(reduction_b_residual(lambda vv, tt, b=b: b, v, th) - (b**3 + b)) < 1e-12


def test_symmetry_reduced_family_matches_full_residual():
    rng = np.random.default_rng(13)

    def profile_fn(v, t):
        return 1.0 + 0.3 * v + 0.5 * v * np.cos(t) + 0.2 * np.sin(t)

    full = symmetry_reduced_ansatz(profile_fn)
    for _ in range(10):
        v = rng.uniform(0.5, 2.5)
        th = rng.uniform(-math.pi, math.pi)
        gam = rng.uniform(-math.pi, math.pi)
        # probes on the unit circle: the ansatz scale factor is one there
        x, y = math.cos(gam), math.sin(gam)
        lhs = reduced_residual(full, x, y, v, th)
        rhs = symmetry_reduced_residual(profile_fn, v, th - gam)
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
    residuals = residual_sweep(probe_points(10, seed=15), field=field, ansatz=a,
                               include_complex=True)
    assert np.max(np.abs(residuals["r1"])) < 1e-6
    assert np.max(np.abs(residuals["r2"])) < 1e-5
    assert np.max(np.abs(residuals["r_reduced"])) < 1e-9
    assert np.max(np.abs(residuals["r_complex"])) < 1e-7


def test_a_sweep_maps_each_residual_it_takes_to_its_values():
    a = cos_profile_ansatz(Profile.constant(1.0))
    field, probes = from_scalar_ansatz(a), probe_points(7, seed=3)
    for kwargs, names in (({"field": field}, ["r1", "r2"]),
                          ({"ansatz": a}, ["r_reduced"]),
                          ({"field": field, "ansatz": a}, ["r1", "r2", "r_reduced"]),
                          ({"field": field, "ansatz": a, "include_complex": True},
                           ["r1", "r2", "r_reduced", "r_complex"])):
        residuals = residual_sweep(probes, **kwargs)
        assert list(residuals) == names
        assert all(vals.shape == (7,) for vals in residuals.values())


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
    assert np.array_equal(stacked, rows)


@pytest.mark.parametrize("kind", sorted(SWEEP_FIELDS))
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
# where a single probe squared its speed by C pow, cos_profile's r2 differed
# from its stacked row: -1.73e-18 against 0.0, and in row 4 -4.51e-17
# against -3.12e-17
@example(n=1, seed=524895)
@example(n=7, seed=591463277)
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


@pytest.mark.parametrize("kind, calls", [("mdtype", 1), ("angular_monomial", 1),
                                         ("oscillator", 1)])
def test_field_calls_per_sweep_do_not_grow_with_the_probe_count(monkeypatch, kind, calls):
    # one linearize: one complex call of four points per probe (2000 points
    # at 500 probes)
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
    # a speed below v_min = 1e-9 is a rest point, as frame has it; the
    # generator residuals once tested v < 1e-300 themselves, or nothing,
    # and returned values at 1e-12 (the symmetry-reduced residual 1.2e11)
    a = cos_profile_ansatz(Profile.constant(1.0))

    def b(v, t):
        return 0.5 + 0.3 * v * np.cos(t)

    zeros = np.zeros(3)
    for rest in (0.0, 1e-12):
        speeds = np.array([1.0, rest, 2.0])
        for evaluate in (
                lambda: reduced_residual(a, zeros, zeros, speeds, zeros),
                lambda: complex_residual(a, zeros + 0j, speeds + 0j),
                lambda: weak_residuals(from_scalar_ansatz(a), np.zeros((3, 2)),
                                       np.column_stack([speeds, zeros])),
                lambda: reduction_b_residual(b, speeds, zeros),
                lambda: symmetry_reduced_residual(b, speeds, zeros)):
            with pytest.raises(DegenerateVelocity, match="below v_min"):
                evaluate()


def traced_sweep_peak(probes, field, ansatz) -> int:
    """A sweep's traced peak, less the residual columns it returns (the
    probes are made before the trace starts)."""
    import tracemalloc
    tracemalloc.start()
    try:
        residuals = residual_sweep(probes, field=field, ansatz=ansatz, include_complex=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(vals.nbytes for vals in residuals.values())


def test_sweep_blocks_equal_one_block_and_bound_the_peak_memory():
    from normshift import normality
    block = normality.PROBE_BLOCK
    for kind in ("cos_profile", "disc_invariant"):
        field, a = build_field(SWEEP_FIELDS[kind])
        # three blocks, the last one partial
        probes = probe_points(2 * block + 100, seed=4)
        residuals = residual_sweep(probes, field=field, ansatz=a, include_complex=True)
        x, y, v, th = probes.T
        vel = np.column_stack([v * np.cos(th), v * np.sin(th)])
        r1, r2 = weak_residuals(field, probes[:, :2], vel)
        for got, want in ((residuals["r1"], r1), (residuals["r2"], r2),
                          (residuals["r_reduced"], reduced_residual(a, x, y, v, th)),
                          (residuals["r_complex"],
                           complex_residual(a, x + 1j * y, vel[:, 0] + 1j * vel[:, 1]))):
            assert got.tobytes() == want.tobytes()

        peaks = [traced_sweep_peak(probe_points(n, seed=5), field, a) for n in (block, 40_000)]
        # measured per probe of one block: 0.53 kB (cos_profile) and 0.56 kB
        # (disc_invariant); the weak residuals peak at 0.54 kB, the reduced
        # residual at 0.47 and 0.56 kB, the complex residual's jets at 0.37
        # and 0.48 kB
        assert peaks[0] <= 1000 * block, (kind, peaks)
        assert peaks[1] <= 1.5 * peaks[0], (kind, peaks)


# ---------------------------------------------------------------------------
# The catalogue's claims hold both ways: the claiming fields solve the weak
# equations wherever defined, and the others do not.
# ---------------------------------------------------------------------------

def claiming_params(name: str, rng) -> dict:
    """Random parameters of a catalogue field that keep it defined on
    |r| <= 1.5: a marked point or a disc boundary at distance 3 or more."""
    def profile():
        return {"kind": "poly", "coeffs": [rng.uniform(0.3, 1.2), rng.uniform(-0.3, 0.3)]}

    def factor():
        if rng.random() < 0.5:
            return {"kind": "sin_cos", "amplitude": rng.uniform(0.05, 0.4)}
        return {"kind": "linear", "ax": rng.uniform(-0.3, 0.3), "ay": rng.uniform(-0.3, 0.3)}

    angle = rng.uniform(0.0, 2.0 * math.pi)
    unit = np.array([math.cos(angle), math.sin(angle)])
    return {
        "gravity": lambda: {"magnitude": rng.uniform(0.5, 2.0)},
        "oscillator": lambda: {"omega": rng.uniform(0.5, 2.0)},
        "anisotropic": lambda: {"profile": profile(), "m": unit.tolist()},
        "marked_point": lambda: {"profile": profile(),
                                 "center": (rng.uniform(3.0, 5.0) * unit).tolist()},
        "geodesic": lambda: {"f": factor()},
        "metrizable": lambda: {"f": factor(), "H": profile()},
        "mdtype": lambda: {"f": factor(), "h": profile()},
        "disc_invariant": lambda: {"R": rng.uniform(3.0, 5.0), "profile": profile()},
    }[name]()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CATALOGUE)), seed=st.integers(0, 2**32 - 1))
def test_claiming_fields_have_zero_weak_residuals_at_random_points(name, seed):
    rng = np.random.default_rng(seed)
    field = catalogue(name, claiming_params(name, rng))
    r = rng.uniform(-1.5, 1.5, (32, 2))
    v, theta = rng.uniform(0.3, 3.0, 32), rng.uniform(-math.pi, math.pi, 32)
    r1, r2 = weak_residuals(field, r, v[:, None] * np.stack([np.cos(theta), np.sin(theta)], -1))
    if CATALOGUE[name]["claims_normality"]:
        # rounding: the Jacobians are exact, from one complex evaluation each
        assert np.max(np.abs(r1)) < 1e-12 and np.max(np.abs(r2)) < 1e-12
    else:
        assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) > 1e-2


def test_the_reduced_and_complex_residuals_overflow_without_a_warning():
    # A = 1e154 theta: the products of its partials overflow at every probe,
    # and the residuals are not finite.  The sweep refuses them without a
    # warning, which the test settings would make fail; a residual called
    # alone, outside the sweep's quiet region, still warns.
    a = ScalarFieldA(lambda x, y, v, t: 1e154 * t, a_theta=lambda x, y, v, t: 1e154)
    probes = probe_points(20, seed=1, box={
        "x": (0, 1), "y": (0, 1), "v": (0.5, 0.6), "theta": (3.0, 3.1)})
    with pytest.raises(InvalidParams, match="r_reduced residual is not finite at 20 of 20 "):
        residual_sweep(probes, ansatz=a, include_complex=True)
    x, y, v, th = np.moveaxis(probes, -1, 0)
    with pytest.warns(RuntimeWarning):
        reduced_residual(a, x, y, v, th)
    with pytest.warns(RuntimeWarning):
        complex_residual(a, x + 1j * y, v * np.exp(1j * th))
