import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (linear_fields, perturbed_mdtype, random_ansatz, random_generator,
                     random_metric, richardson_one_point, sympy_field)

from normshift.errors import DegenerateVelocity, InvalidParams
from normshift.forces import (ForceField, MDTypeParams, Profile, ScalarFieldA, ab_decompose,
                              anisotropic_field,
                              complex_force, conformal_transport, cos_profile_ansatz,
                              covariant_from_flat, disc_invariant_ansatz,
                              flat_from_covariant, from_scalar_ansatz, geodesic_field,
                              gravity_field, marked_point_field, mdtype_field,
                              oscillator_field, speed_profile_ansatz, speed_profile_field)
from normshift.experiment import (CATALOGUE, ConfigError, build_ansatz, build_field,
                                  build_metric, catalogue, catalogue_listing)
from normshift.geometry import ConformalMetric, christoffel, elementwise, frame, polar_frame
from normshift.normality import symmetry_reduced_ansatz
from normshift import forces, numdiff


def test_ab_decompose_examples():
    g = gravity_field()
    ab = ab_decompose(g, (0, 0), (0, -1))
    assert ab.A == pytest.approx(1) and ab.B == pytest.approx(0)
    ab = ab_decompose(g, (0, 0), (1, 0))
    assert ab.A == pytest.approx(0) and ab.B == pytest.approx(-1)
    zero = gravity_field(0.0)
    ab = ab_decompose(zero, (1, 2), (0.3, 0.4))
    assert ab.A == 0 and ab.B == 0


def test_ab_decompose_reconstructs_force():
    rng = np.random.default_rng(0)
    f = oscillator_field(1.3)
    for _ in range(30):
        r, v = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        if np.hypot(*v) < 1e-3:
            continue
        fr = frame(v)
        ab = ab_decompose(f, r, v)
        assert np.max(np.abs(ab.A * fr.N + ab.B * fr.M - f.force(r, v))) < 1e-12


def test_linearize_gives_gravitys_and_the_oscillators_exact_jacobians():
    # one complex evaluation gives the constant Jacobians within 1e-15 of
    # each entry: the zero entries exactly, at a single point and stacked
    rng = np.random.default_rng(1)
    R, V = rng.uniform(-2, 2, (10, 2)), rng.uniform(0.5, 2, (10, 2))
    for name, (field, jr, jv) in linear_fields(2.1).items():
        for r, v in ((R, V), (R[0], V[0])):
            f, got_r, got_v = field.linearize(r, v)
            assert np.array_equal(f, field.force(r, v)), name
            for got, want in ((got_r, jr), (got_v, jv)):
                assert got.shape == np.shape(r) + (2,), name
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), name


def test_ab_decompose_rejects_rest_points():
    with pytest.raises(DegenerateVelocity):
        ab_decompose(gravity_field(), (0, 0), (0, 0))


def test_scalar_ansatz_projections():
    rng = np.random.default_rng(2)
    for k in range(10):
        a = random_ansatz(rng)
        f = from_scalar_ansatz(a)
        r, v = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        if np.hypot(*v) < 0.3:
            continue
        theta, fr = polar_frame(v)
        ab = ab_decompose(f, r, v)
        assert ab.A == pytest.approx(a(r[0], r[1], fr.speed, theta), abs=1e-9)
        assert ab.B == pytest.approx(-a.a_theta(r[0], r[1], fr.speed, theta), abs=1e-9)


def test_speed_profile_ansatz_force_along_velocity():
    prof = Profile.polynomial([0.5, 0.2])
    f = from_scalar_ansatz(speed_profile_ansatz(prof))
    v = np.array([1.2, -0.9])
    force = f.force(np.zeros(2), v)
    speed = np.hypot(*v)
    assert np.max(np.abs(force - prof(speed) * v / speed)) < 1e-12


def test_cos_profile_ansatz_matches_anisotropic_form():
    prof = Profile.polynomial([0.7, 0.1])
    f = from_scalar_ansatz(cos_profile_ansatz(prof))
    g = anisotropic_field(prof)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.uniform(-2, 2, 2)
        if np.hypot(*v) < 0.3:
            continue
        assert np.max(np.abs(f.force(np.zeros(2), v) - g.force(np.zeros(2), v))) < 1e-12


def test_zero_ansatz_gives_zero_force():
    a = ScalarFieldA(lambda x, y, v, t: 0.0)
    f = from_scalar_ansatz(a)
    assert np.max(np.abs(f.force(np.ones(2), np.array([0.4, 0.8])))) < 1e-12


def test_complex_force_radial_symmetry():
    a = speed_profile_ansatz(Profile.polynomial([0.3, 0.5]))
    w = complex(0.6, -0.8)
    val = complex_force(a, complex(0, 0), w)
    expected = (w / abs(w)) * (0.3 + 0.5 * abs(w))
    assert abs(val - expected) < 1e-9
    azero = ScalarFieldA(lambda x, y, v, t: 0.0)
    assert abs(complex_force(azero, complex(1, 1), w)) < 1e-12


def test_complex_force_matches_real_ansatz():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = random_ansatz(rng, n_terms=2)
        f = from_scalar_ansatz(a)
        for _ in range(10):
            z = complex(*rng.uniform(-2, 2, 2))
            v = rng.uniform(-2, 2, 2)
            if np.hypot(*v) < 0.3:
                continue
            fc = complex_force(a, z, complex(v[0], v[1]))
            fr = f.force(np.array([z.real, z.imag]), v)
            # 3.4e-16 measured over the 1000 points
            assert abs(fc - complex(fr[0], fr[1])) <= 1e-13 * (1.0 + np.hypot(*fr))


def test_complex_force_rejects_small_w():
    # below v_min = 1e-9, as frame does; complex_force and cartesian once
    # tested |w| < 1e-300 themselves and returned values at 1e-12
    a = ScalarFieldA(lambda x, y, v, t: v)
    for w in (0j, 1e-12 + 0j):
        with pytest.raises(DegenerateVelocity, match="below v_min"):
            complex_force(a, 0j, w)
        with pytest.raises(DegenerateVelocity, match="below v_min"):
            a.cartesian(0.3, -0.2, w.real, w.imag)


def test_cartesian_and_polar_frame_take_one_angle_on_the_negative_axis():
    # both read theta = +pi at v_y = -0.0 (geometry.speed_angle), where
    # cartesian once took atan2's -pi and read -5.881 here
    a = build_ansatz({"kind": "angular_monomial", "coef": 1.3, "power": 2})[1]
    theta, fr = polar_frame((-1.2, -0.0))
    polar = a(0.3, -0.2, fr.speed, theta)
    assert polar == pytest.approx(1.3 * 1.2 * 1.2 * math.pi)
    assert a.cartesian(0.3, -0.2, -1.2, -0.0) == polar
    x, y, vx = (np.full(2, c) for c in (0.3, -0.2, -1.2))
    assert np.array_equal(a.cartesian(x, y, vx, np.array([-0.0, 0.0])), [polar, polar])


def test_conformal_transport_flat_is_identity():
    rng = np.random.default_rng(5)
    a = random_ansatz(rng)
    at = conformal_transport(a, ConformalMetric.euclidean())
    for x, y, v, t in [(-1, 0.5, 1.2, 0.3), (0.4, 0.4, 2.0, -1.0)]:
        assert at(x, y, v, t) == pytest.approx(a(x, y, v, t), abs=1e-12)


def test_conformal_transport_constant_factor_scales():
    rng = np.random.default_rng(6)
    a = random_ansatz(rng)
    c = 0.7
    at = conformal_transport(a, ConformalMetric.constant(c))
    assert at(0.3, 0.2, 1.1, 0.4) == pytest.approx(a(0.3, 0.2, 1.1, 0.4) * math.exp(-c))


def test_conformal_transport_connection_term():
    # zero flat-side generator leaves only the connection contraction
    zero = ScalarFieldA(lambda x, y, v, t: 0.0)
    m = ConformalMetric(f=lambda x, y: x, grad_f=lambda x, y: (1.0, 0.0))
    at = conformal_transport(zero, m)
    x, y, v, th = 0.5, -0.3, 1.2, 0.8
    gamma = christoffel(m, (x, y))
    vvec = np.array([v * math.cos(th), v * math.sin(th)])
    gvv = np.einsum("kij,i,j->k", gamma, vvec, vvec)
    n_cov = math.exp(-x) * vvec / np.hypot(*vvec)
    assert at(x, y, v, th) == pytest.approx(float(gvv @ n_cov), abs=1e-12)
    # and equals the hand contraction -exp(-f) v^2 <grad f, N>
    assert at(x, y, v, th) == pytest.approx(-math.exp(-x) * v * v * math.cos(th), abs=1e-12)


def test_conformal_transport_round_trip():
    rng = np.random.default_rng(7)
    a = random_ansatz(rng)
    m = random_metric(rng)
    back = conformal_transport(conformal_transport(a, m), m, inverse=True)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, 2)
        v = rng.uniform(0.5, 3)
        t = rng.uniform(-math.pi, math.pi)
        assert back(x, y, v, t) == pytest.approx(a(x, y, v, t), abs=1e-10)


def test_transport_consistent_with_force_relation():
    # metric-side generator equals exp(-f) <F' + Gamma v v, v>/|v|
    rng = np.random.default_rng(8)
    a = random_ansatz(rng)
    m = random_metric(rng)
    fp = from_scalar_ansatz(a)
    fc = covariant_from_flat(fp, m)
    at = conformal_transport(a, m)
    for _ in range(10):
        x, y = rng.uniform(-1, 1, 2)
        v = rng.uniform(0.5, 2)
        th = rng.uniform(-math.pi, math.pi)
        vvec = np.array([v * math.cos(th), v * math.sin(th)])
        lhs = at(x, y, v, th)
        rhs = math.exp(-m.f(x, y)) * float(fc.force(np.array([x, y]), vvec) @ vvec) / v
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_flat_covariant_round_trip():
    rng = np.random.default_rng(9)
    m = random_metric(rng)
    f = oscillator_field(1.1)
    g = flat_from_covariant(covariant_from_flat(f, m), m)
    for _ in range(10):
        r, v = rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2)
        assert np.max(np.abs(g.force(r, v) - f.force(r, v))) < 1e-12


@pytest.mark.parametrize("spec", [{"kind": "sin_cos", "amplitude": 0.7},
                                  {"kind": "linear", "ax": 0.6, "ay": -0.4}])
def test_the_flat_field_of_no_force_is_the_geodesic_field(spec):
    # flat_from_covariant adds geodesic_field's force as its connection term
    m = build_metric(spec)
    flat, geo = flat_from_covariant(gravity_field(0.0), m), geodesic_field(m)
    r, v = stacked_points(64, 14)
    dr, dv = np.random.default_rng(15).uniform(-1, 1, (2, 64, 2))
    np.testing.assert_array_equal(flat.force(r, v), geo.force(r, v))  # -0.0 == 0.0
    for got, want in zip(flat.derivative(r, v, dr, dv), geo.derivative(r, v, dr, dv)):
        np.testing.assert_array_equal(got, want)


def test_catalogue_gravity_and_oscillator():
    g = catalogue("gravity", {})
    assert np.allclose(g.force(np.array([3.0, 4.0]), np.array([1.0, 1.0])), [0, -1])
    assert not CATALOGUE["gravity"]["claims_normality"]
    o = catalogue("oscillator", {"omega": 2.0})
    assert np.allclose(o.force(np.array([0.0, 0.5]), np.array([1.0, 0.0])), [0, -2.0])
    assert not CATALOGUE["oscillator"]["claims_normality"]


def test_catalogue_mdtype_reduces_to_metrizable_and_geodesic():
    # W = v exp(-f) gives the metrizable field, written out here as the
    # geodesic field plus the drive N H(|v| exp(-f)) exp(f); with h = 0 it
    # is the geodesic field
    m = ConformalMetric(f=lambda x, y: 0.2 * math.sin(x) + 0.1 * y,
                        grad_f=lambda x, y: (0.2 * math.cos(x), 0.1))
    h = Profile.polynomial([0.3, 0.2])
    md = mdtype_field(MDTypeParams.from_conformal(m, h))
    geo = geodesic_field(m)
    md0 = mdtype_field(MDTypeParams.from_conformal(m, Profile.constant(0.0)))

    def metrizable(r, v):
        fr, ef = frame(v), np.exp(m.value(r))
        return geo.force(r, v) + fr.N * h(fr.speed / ef) * ef

    rng = np.random.default_rng(10)
    for _ in range(20):
        r, v = rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2)
        assert np.max(np.abs(md.force(r, v) - metrizable(r, v))) < 1e-14
        assert np.max(np.abs(md0.force(r, v) - geo.force(r, v))) < 1e-14


@pytest.mark.parametrize("f", [{"kind": "sin_cos", "amplitude": 0.25},
                               {"kind": "linear", "ax": 0.2, "ay": -0.3},
                               {"kind": "constant", "value": 0.4}, None])
def test_metrizable_and_mdtype_are_one_field(f):
    # the catalogue's H of metrizable is the h of mdtype, bit for bit
    p = {"kind": "poly", "coeffs": [0.4, 0.3, -0.1]}
    metrizable = catalogue("metrizable", {"f": f, "H": p})
    mdtype = catalogue("mdtype", {"f": f, "h": p})
    r, v = stacked_points(64, 12)
    dr, dv = np.random.default_rng(13).uniform(-1, 1, (2, 64, 2))
    assert np.array_equal(metrizable.force(r, v), mdtype.force(r, v))
    for got, want in zip(metrizable.derivative(r, v, dr, dv), mdtype.derivative(r, v, dr, dv)):
        assert np.array_equal(got, want)


def test_mdtype_ab_closed_forms():
    rng = np.random.default_rng(11)
    md = perturbed_mdtype(rng)
    f = mdtype_field(md)
    for _ in range(20):
        r, v = rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2)
        fr = frame(v)
        speed = float(np.hypot(*v))
        w, wv, *gw = md.w(r[0], r[1], speed)
        gw = np.array(gw)
        ab = ab_decompose(f, r, v)
        assert ab.A == pytest.approx((md.h(w) - float(gw @ v)) / wv, abs=1e-9)
        assert ab.B == pytest.approx(speed * float(gw @ fr.M) / wv, abs=1e-9)


def test_an_mdtype_force_evaluates_the_metric_once():
    # W, W_v and grad W of W = v exp(-f) come from one call of f and one of
    # its gradient, in a real evaluation and in a complex step alike
    assert [field.name for field in dataclasses.fields(MDTypeParams)] == ["w", "h"]
    base = build_metric(SIN_COS)
    calls = {"f": 0, "grad_f": 0}

    def f(x, y):
        calls["f"] += 1
        return base.f(x, y)

    def grad_f(x, y):
        calls["grad_f"] += 1
        return base.grad_f(x, y)

    field = mdtype_field(MDTypeParams.from_conformal(ConformalMetric(f=f, grad_f=grad_f),
                                                     Profile.polynomial([0.3, 0.2])))
    r, v = stacked_points(5, 0)
    field.force(r, v)
    assert calls == {"f": 1, "grad_f": 1}
    field.linearize(r, v)
    assert calls == {"f": 2, "grad_f": 2}


def test_catalogue_errors():
    with pytest.raises(ConfigError):
        catalogue("does_not_exist")
    with pytest.raises(ConfigError):
        catalogue("oscillator", {})
    # W_v = exp(-f) is about 2e-20 at the probe point (1, -1) of the
    # sin_cos f, 0 at f = 800 and inf at f = -800; a NumPy warning on the
    # way would be an error here
    for f in ({"kind": "sin_cos", "amplitude": 100}, {"kind": "constant", "value": 800},
              {"kind": "constant", "value": -800}):
        for name in ("metrizable", "mdtype"):
            with pytest.raises(ConfigError, match="W_v vanishes or is not finite"):
                catalogue(name, {"f": f})


def test_disc_invariant_domain_guard():
    a = disc_invariant_ansatz(2.0, Profile.constant(1.0))
    a(0.5, 0.5, 1.0, 0.3)
    with pytest.raises(InvalidParams):
        a(2.0, 0.0, 1.0, 0.3)
    with pytest.raises(InvalidParams):
        disc_invariant_ansatz(-1.0, Profile.constant(1.0))


def test_disc_invariant_partials_match_fd():
    # its one hand-written partial, A_theta, against the jet of its fn (abs
    # 1e-9 when that was a Richardson stencil) and against the complex step
    # of fn along theta
    a = disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3]))
    bare = ScalarFieldA(a.fn)
    x, y, v, t = 0.4, -0.3, 1.2, 0.7
    assert a.a_theta(x, y, v, t) == pytest.approx(bare.a_theta(x, y, v, t), rel=1e-14)
    exact = numdiff.complex_step(a, (x, y, v, t), (0.0, 0.0, 0.0, 1.0))[1]
    assert a.a_theta(x, y, v, t) == pytest.approx(exact, rel=1e-14)


def test_marked_point_singular_at_center():
    f = marked_point_field(Profile.constant(1.0))
    with pytest.raises(InvalidParams):
        f.force(np.zeros(2), np.array([1.0, 0.0]))


def test_mixed_partial_symmetry_of_fd_fallback():
    # A_theta x as the reduced residual takes it, the complex step in x of
    # the jet A_theta, against a Richardson difference in theta of the
    # complex step A_x, and against the closed form.  Eight generators: the
    # first alone (seed 12) has A_theta x = 0 at this point
    x, y, v, t = 0.3, -0.8, 1.4, 0.5
    for seed in range(12, 20):
        a, partials = random_generator(np.random.default_rng(seed))
        bare = ScalarFieldA(a.fn)  # A_theta by a jet of fn
        tx = numdiff.complex_step(bare.a_theta, (x, y, v, t), (1.0, 0.0, 0.0, 0.0))[1]
        xt = richardson_one_point(lambda s: numdiff.complex_step(
            bare, (x, y, v, s), (1.0, 0.0, 0.0, 0.0))[1], t)
        assert tx == pytest.approx(xt, abs=1e-9)
        assert tx == pytest.approx(partials["a_theta_x"](x, y, v, t), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("name", ["a_theta"])
@pytest.mark.parametrize("n", [None, 5])
def test_each_fallback_partial_calls_the_generator_once(name, n):
    # A_theta without a closure is the one partial a generator takes by a
    # jet; every other is a complex step (test_normality)
    calls = []

    def fn(x, y, v, t):
        calls.append(1)
        return x * y * np.cos(t) + v * v * np.sin(t)

    point = (0.3, -0.8, 1.4, 0.5)
    if n is not None:
        point = tuple(np.full(n, c) for c in point)
    value = getattr(ScalarFieldA(fn), name)(*point)
    assert len(calls) == 1 and np.shape(value) == np.shape(point[0])


def test_unknown_partial_name_is_rejected():
    with pytest.raises(TypeError, match="a_thetta"):
        ScalarFieldA(lambda x, y, v, t: v, a_thetta=lambda x, y, v, t: 0.0)


def test_catalogue_listing_is_stable():
    rows = catalogue_listing()
    names = [r["name"] for r in rows]
    assert names == sorted(names)
    for required in ("gravity", "oscillator", "mdtype", "disc_invariant"):
        assert required in names


# ---------------------------------------------------------------------------
# The field contract: r and v of shape (..., 2) are evaluated row by row.
# ---------------------------------------------------------------------------

SIN_COS = {"kind": "sin_cos", "amplitude": 0.25}
POLY = {"kind": "poly", "coeffs": [0.4, 0.3, -0.1]}
CATALOGUE_PARAMS = {
    "gravity": {"magnitude": 1.5},
    "oscillator": {"omega": 1.3},
    "anisotropic": {"profile": POLY, "m": [0.6, 0.8]},
    "marked_point": {"profile": POLY, "center": [3.0, -3.0]},
    "geodesic": {"f": SIN_COS},
    "metrizable": {"f": {"kind": "linear", "ax": 0.2, "ay": -0.3}, "H": POLY},
    "mdtype": {"f": SIN_COS, "h": POLY},
    "disc_invariant": {"R": 4.0, "profile": POLY},
}
ANSATZ_SPECS = {
    "speed_profile": {"kind": "speed_profile", "profile": POLY},
    "cos_profile": {"kind": "cos_profile", "profile": POLY},
    "disc_invariant": {"kind": "disc_invariant", "R": 4.0, "profile": POLY},
    "angular_monomial": {"kind": "angular_monomial", "coef": 1.5, "power": 2.0},
}


def test_complex_force_takes_arrays_of_points():
    # a single probe is evaluated as a one-element array: the bits of its row
    rng = np.random.default_rng(6)
    z = rng.uniform(-1.5, 1.5, (200, 3)) @ np.array([1.0, 1j, 0.5])
    w = rng.uniform(0.4, 2.0, 200) * np.exp(1j * rng.uniform(-3.1, 3.1, 200))
    for kind, spec in ANSATZ_SPECS.items():
        a = build_ansatz(spec)[1]
        got = complex_force(a, z, w)
        assert got.shape == (200,)
        assert np.array_equal(got, [complex_force(a, complex(zk), complex(wk))
                                    for zk, wk in zip(z, w)]), kind
        with pytest.raises(DegenerateVelocity):
            complex_force(a, z[:2], np.array([w[0], 0j]))


def closure_points(rng, n: int, ranges, complex_step: bool) -> list[np.ndarray]:
    """n random points, one array per coordinate, each uniform in its
    range; with ``complex_step`` they are moved off the real axis by
    i H_COMPLEX along a random direction, as a force's complex step moves
    its arguments."""
    points = [rng.uniform(lo, hi, n) for lo, hi in ranges]
    if complex_step:
        points = [p + 1j * numdiff.H_COMPLEX * rng.uniform(-1.0, 1.0, n) for p in points]
    return points


def assert_matches_jet(got, want):
    """A hand-written partial against the jet of its function, rel 1e-14:
    the real parts, and the imaginary parts over H_COMPLEX (the derivative a
    complex step reads) within 1e-14 of the largest of them, since that
    derivative is a sum that can cancel to nothing at a point."""
    got, want = np.broadcast_arrays(got, want)
    np.testing.assert_allclose(got.real, want.real, rtol=1e-14, atol=0.0)
    step = want.imag / numdiff.H_COMPLEX
    np.testing.assert_allclose(got.imag / numdiff.H_COMPLEX, step, rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(step), initial=0.0))


CLOSURE_METRICS = {
    "sin_cos": build_metric({"kind": "sin_cos", "amplitude": 0.7}),
    "linear": build_metric({"kind": "linear", "ax": 0.6, "ay": -0.4}),
    "euclidean": ConformalMetric.euclidean(),
    "constant": ConformalMetric.constant(0.3),
}


@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("name", sorted(CLOSURE_METRICS))
def test_metric_gradient_closures_match_jets(name, complex_step):
    m = CLOSURE_METRICS[name]
    x, y = closure_points(np.random.default_rng(7), 200, [(-2, 2)] * 2, complex_step)
    want = numdiff.jet(lambda x, y: elementwise(m.f(x, y), x, y), (x, y),
                       (1.0, 0.0), (0.0, 1.0))[1:3]
    for got, jet_part in zip(m.grad_f(x, y), want):
        assert_matches_jet(got, jet_part)


@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("kind", sorted(ANSATZ_SPECS))
def test_a_theta_closures_match_jets(kind, complex_step):
    a = build_ansatz(ANSATZ_SPECS[kind])[1]
    point = closure_points(np.random.default_rng(8), 200,
                           [(-2, 2), (-2, 2), (0.3, 3), (-3, 3)], complex_step)
    assert_matches_jet(a.a_theta(*point), ScalarFieldA(a.fn).a_theta(*point))


@pytest.mark.parametrize("complex_step", [False, True])
@pytest.mark.parametrize("name", sorted(CLOSURE_METRICS))
def test_conformal_w_partials_match_jets(name, complex_step):
    md = MDTypeParams.from_conformal(CLOSURE_METRICS[name], Profile.constant(0.0))
    x, y, v = closure_points(np.random.default_rng(9), 200,
                             [(-2, 2), (-2, 2), (0.3, 3)], complex_step)
    _, w_v, w_x, w_y = md.w(x, y, v)

    def w(x, y, v):
        return md.w(x, y, v)[0]

    _, jet_x, jet_y, _ = numdiff.jet(w, (x, y, v), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    jet_v = numdiff.jet(w, (x, y, v), (0.0, 0.0, 1.0), (0.0,) * 3)[1]
    for got, want in ((w_x, jet_x), (w_y, jet_y), (w_v, jet_v)):
        assert_matches_jet(got, want)


SPEED_PROFILES = {
    "zero": Profile.constant(0.0),
    "constant": Profile.constant(-0.7),
    "poly": Profile.polynomial(POLY["coeffs"]),
}


@pytest.mark.parametrize("name", sorted(SPEED_PROFILES))
def test_the_speed_profile_field_equals_its_scalar_ansatz_field(name):
    # F = a(|v|) N from the frame, a second copy of the field that
    # from_scalar_ansatz makes of speed_profile_ansatz: equal forces and
    # complex-step derivatives but for the sign of a zero, at random points
    # and at velocities on the axes, -0.0 components among them
    p = SPEED_PROFILES[name]
    fields = speed_profile_field(p), from_scalar_ansatz(speed_profile_ansatz(p))
    rng = np.random.default_rng(11)
    r, v = rng.uniform(-2, 2, (2, 212, 2))
    v[200:] = rng.uniform(0.3, 3, (12, 1)) * np.array(
        [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -0.0], [-0.0, -1]] * 2)
    dr, dv = rng.uniform(-1, 1, (2, 212, 2))
    for point in ((r, v, dr, dv), (r[204], v[204], dr[0], dv[0])):
        got, want = (field.derivative(*point) for field in fields)
        for g, w in zip((fields[0].force(*point[:2]), *got),
                        (fields[1].force(*point[:2]), *want)):
            np.testing.assert_array_equal(g, w)  # -0.0 == 0.0
    slow = v[:3].copy()
    slow[1] = [0.5e-9, -0.5e-9]
    for field in fields:
        with pytest.raises(DegenerateVelocity):
            field.force(r[:3], slow)
        with pytest.raises(DegenerateVelocity):
            field.derivative(r[:3], slow, dr[:3], dv[:3])


def test_a_speed_profile_config_takes_no_angle(monkeypatch):
    # build_field gives a speed_profile ansatz the frame field, with its
    # generator; polar_frame is where from_scalar_ansatz takes theta
    field, a = build_field({"ansatz": ANSATZ_SPECS["speed_profile"]})
    monkeypatch.setattr(forces, "polar_frame", None)
    r, v = np.array([0.3, -0.2]), np.array([1.1, 0.4])
    f, _ = field.derivative(r, v, v, r)
    np.testing.assert_allclose(f, a(*r, np.hypot(*v), 0.0) * frame(v).N, rtol=1e-15)


def contract_fields() -> dict:
    """Every built-in way of making a field, one instance each."""
    metric = build_metric(SIN_COS)
    fd_metric = ConformalMetric(f=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    mdtype = catalogue("mdtype", CATALOGUE_PARAMS["mdtype"])
    fields = {f"catalogue/{name}": catalogue(name, params)
              for name, params in CATALOGUE_PARAMS.items()}
    fields.update({f"ansatz/{kind}": from_scalar_ansatz(build_ansatz(spec)[1])
                   for kind, spec in ANSATZ_SPECS.items()})
    fields.update({
        "flat_from_covariant": flat_from_covariant(mdtype, metric),
        "covariant_from_flat": covariant_from_flat(mdtype, fd_metric),
        "conformal_transport": from_scalar_ansatz(conformal_transport(
            build_ansatz(ANSATZ_SPECS["cos_profile"])[1], metric)),
        "speed_profile_field": speed_profile_field(Profile.polynomial(POLY["coeffs"])),
        "symmetry_reduced_ansatz": from_scalar_ansatz(symmetry_reduced_ansatz(
            lambda v, t: 1.0 + 0.3 * v + 0.5 * v * np.cos(t))),
        "helpers/random_ansatz": from_scalar_ansatz(random_ansatz(np.random.default_rng(3))),
        "helpers/perturbed_mdtype": mdtype_field(perturbed_mdtype(np.random.default_rng(4))),
    })
    return fields


CONTRACT_FIELDS = contract_fields()


def stacked_points(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n positions in an annulus around the origin (inside every field's
    domain) and n velocities of speed 0.5 to 2."""
    rng = np.random.default_rng(seed)
    rho, gam = rng.uniform(0.5, 1.5, n), rng.uniform(-np.pi, np.pi, n)
    speed, ang = rng.uniform(0.5, 2.0, n), rng.uniform(-np.pi, np.pi, n)
    return (np.column_stack([rho * np.cos(gam), rho * np.sin(gam)]),
            np.column_stack([speed * np.cos(ang), speed * np.sin(ang)]))


def assert_rows(stacked: np.ndarray, rows: list[np.ndarray]):
    assert stacked.shape == (len(rows),) + rows[0].shape
    np.testing.assert_allclose(stacked, np.array(rows), rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("name", sorted(CONTRACT_FIELDS))
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_stacked_force_and_jacobians_equal_row_by_row(name, n, seed):
    field = CONTRACT_FIELDS[name]
    R, V = stacked_points(n, seed)
    assert_rows(field.force(R, V), [field.force(r, v) for r, v in zip(R, V)])
    assert_rows(field.jac_spatial(R, V), [field.jac_spatial(r, v) for r, v in zip(R, V)])
    assert_rows(field.jac_velocity(R, V), [field.jac_velocity(r, v) for r, v in zip(R, V)])
    # any leading shape, not only (n, 2)
    grid = field.force(R.reshape(n, 1, 2), V.reshape(n, 1, 2))
    assert grid.shape == (n, 1, 2)


def test_a_rows_linearization_does_not_depend_on_the_rows_beside_it(monkeypatch):
    # 4100 rows, 16400 complex points: eight full blocks of COMPLEX_BLOCK
    # points and a partial one, against calls of 16 rows, bit for bit (in
    # one call of 16400 points, the rows of the cos_profile ansatz and of
    # conformal_transport would differ)
    R, V = stacked_points(4100, 8)
    for name, field in CONTRACT_FIELDS.items():
        whole = field.linearize(R, V)
        with monkeypatch.context() as m:
            m.setattr(forces, "COMPLEX_BLOCK", 64)
            small = field.linearize(R, V)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, small)), name


def test_contract_covers_every_catalogue_entry():
    from normshift.experiment import CATALOGUE
    assert sorted(CATALOGUE_PARAMS) == sorted(CATALOGUE)


def test_complex_step_jacobians_match_sympys_exact_jacobians():
    # both Jacobians of a field without closures, from one complex evaluation
    # each, against sympy's derivatives within 1e-13 of each entry's size
    # (1.3e-15 measured)
    field, jacobian = sympy_field()
    rng = np.random.default_rng(6)
    r, v = rng.uniform(-1.0, 1.0, (300, 2)), rng.uniform(-1.5, 1.5, (300, 2))
    exact = jacobian(r, v)
    for got, want in ((field.jac_spatial(r, v), exact[:, :2]),
                      (field.jac_velocity(r, v), exact[:, 2:])):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("fn", [
    lambda r, v: np.hypot(v[..., 0], v[..., 1])[..., None] * r,
    lambda r, v: np.vectorize(float)(v),
], ids=["hypot", "float"])
def test_a_field_that_is_not_complex_safe_fails_loudly(fn):
    # its real force is fine; every derivative raises TypeError stating the
    # contract, whether the field raises (np.hypot on complex input, or the
    # ComplexWarning of float() that the test settings make an error) or
    # drops the imaginary part silently
    field = ForceField(fn=fn)
    r, v = np.array([0.3, -0.2]), np.array([1.1, 0.4])
    assert np.all(np.isfinite(field.force(r, v)))
    for quiet in (False, True):
        with warnings.catch_warnings():
            if quiet:
                warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            for derivative in (field.jac_spatial, field.jac_velocity,
                               lambda r, v: field.derivative(r, v, v, r)):
                with pytest.raises(TypeError, match="must be complex-safe"):
                    derivative(r, v)


def test_degenerate_rows_raise_the_single_point_errors():
    field = CONTRACT_FIELDS["catalogue/mdtype"]
    R = np.array([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(DegenerateVelocity):
        field.force(R, np.array([[1.0, 0.0], [0.0, 0.0]]))
    marked = catalogue("marked_point", {"profile": POLY})
    with pytest.raises(InvalidParams, match="singular at its center"):
        marked.force(np.array([[0.5, 0.5], [0.0, 0.0]]), np.ones((2, 2)))
    disc = CONTRACT_FIELDS["catalogue/disc_invariant"]
    with pytest.raises(InvalidParams, match="disc boundary"):
        disc.force(np.array([[0.5, 0.5], [4.0, 0.0]]), np.ones((2, 2)))
