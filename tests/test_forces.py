import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import perturbed_mdtype, random_ansatz, random_metric

from normshift.errors import DegenerateVelocity, InvalidParams
from normshift.forces import (MDTypeParams, Profile, ScalarFieldA, ab_decompose,
                              anisotropic_field,
                              complex_force, conformal_transport, cos_profile_ansatz,
                              covariant_from_flat, disc_invariant_ansatz,
                              flat_from_covariant, from_scalar_ansatz, geodesic_field,
                              gravity_field, marked_point_field, mdtype_field,
                              metrizable_field, oscillator_field,
                              speed_profile_ansatz)
from normshift.experiment import (ConfigError, build_ansatz, build_metric, catalogue,
                                  catalogue_listing)
from normshift.geometry import ConformalMetric, christoffel, frame, polar_from_cartesian
from normshift.normality import symmetry_reduced_ansatz
from normshift import numdiff


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


def test_analytic_jacobians_match_finite_differences():
    rng = np.random.default_rng(1)
    for field in (gravity_field(), oscillator_field(2.1)):
        bare = type(field)(fn=field.fn, label=field.label)  # FD-only copy
        for _ in range(10):
            r, v = rng.uniform(-2, 2, 2), rng.uniform(0.5, 2, 2)
            assert np.max(np.abs(field.jac_spatial(r, v) - bare.jac_spatial(r, v))) < 1e-5
            assert np.max(np.abs(field.jac_velocity(r, v) - bare.jac_velocity(r, v))) < 1e-5


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
        p = polar_from_cartesian(v)
        ab = ab_decompose(f, r, v)
        assert ab.A == pytest.approx(a(r[0], r[1], p.v, p.theta), abs=1e-9)
        assert ab.B == pytest.approx(-a.a_theta(r[0], r[1], p.v, p.theta), abs=1e-9)


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
            assert abs(fc - complex(fr[0], fr[1])) < 1e-9


def test_complex_force_rejects_small_w():
    a = ScalarFieldA(lambda x, y, v, t: v)
    with pytest.raises(DegenerateVelocity):
        complex_force(a, 0j, 0j)


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


def test_catalogue_gravity_and_oscillator():
    g = catalogue("gravity", {})
    assert np.allclose(g.force(np.array([3.0, 4.0]), np.array([1.0, 1.0])), [0, -1])
    assert not g.claims_normality
    o = catalogue("oscillator", {"omega": 2.0})
    assert np.allclose(o.force(np.array([0.0, 0.5]), np.array([1.0, 0.0])), [0, -2.0])
    assert not o.claims_normality


def test_catalogue_mdtype_reduces_to_metrizable_and_geodesic():
    m = ConformalMetric(f=lambda x, y: 0.2 * math.sin(x) + 0.1 * y,
                        grad_f=lambda x, y: (0.2 * math.cos(x), 0.1))
    h = Profile.polynomial([0.3, 0.2])
    md = mdtype_field(MDTypeParams.from_conformal(m, h))
    metr = metrizable_field(m, h)
    geo = geodesic_field(m)
    md0 = mdtype_field(MDTypeParams.from_conformal(m, Profile.constant(0.0)))
    rng = np.random.default_rng(10)
    for _ in range(20):
        r, v = rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2)
        assert np.max(np.abs(md.force(r, v) - metr.force(r, v))) < 1e-12
        assert np.max(np.abs(md0.force(r, v) - geo.force(r, v))) < 1e-12


def test_mdtype_ab_closed_forms():
    rng = np.random.default_rng(11)
    md = perturbed_mdtype(rng)
    f = mdtype_field(md)
    for _ in range(20):
        r, v = rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2)
        fr = frame(v)
        speed = float(np.hypot(*v))
        gw = np.array(md.grad_w(r[0], r[1], speed))
        wv = md.w_v(r[0], r[1], speed)
        ab = ab_decompose(f, r, v)
        assert ab.A == pytest.approx((md.h(md.w(r[0], r[1], speed)) - float(gw @ v)) / wv, abs=1e-9)
        assert ab.B == pytest.approx(speed * float(gw @ fr.M) / wv, abs=1e-9)


def test_catalogue_errors():
    with pytest.raises(ConfigError):
        catalogue("does_not_exist")
    with pytest.raises(ConfigError):
        catalogue("oscillator", {})
    # W_v = exp(-f) is about 2e-20 at the probe point (1, -1)
    with pytest.raises(ConfigError, match="W_v vanishes"):
        catalogue("mdtype", {"f": {"kind": "sin_cos", "amplitude": 100}})


def test_disc_invariant_domain_guard():
    a = disc_invariant_ansatz(2.0, Profile.constant(1.0))
    a(0.5, 0.5, 1.0, 0.3)
    with pytest.raises(InvalidParams):
        a(2.0, 0.0, 1.0, 0.3)
    with pytest.raises(InvalidParams):
        disc_invariant_ansatz(-1.0, Profile.constant(1.0))


def test_disc_invariant_partials_match_fd():
    a = disc_invariant_ansatz(2.0, Profile.polynomial([1.0, 0.3]))
    fd = ScalarFieldA(a.fn)
    x, y, v, t = 0.4, -0.3, 1.2, 0.7
    for name in ("a_x", "a_y", "a_v", "a_theta", "a_theta_theta",
                 "a_theta_v", "a_theta_x", "a_theta_y"):
        have = getattr(a, name)(x, y, v, t)
        want = getattr(fd, name)(x, y, v, t)
        assert have == pytest.approx(want, abs=1e-6), name


def test_marked_point_singular_at_center():
    f = marked_point_field(Profile.constant(1.0))
    with pytest.raises(InvalidParams):
        f.force(np.zeros(2), np.array([1.0, 0.0]))


def test_mixed_partial_symmetry_of_fd_fallback():
    rng = np.random.default_rng(12)
    a = random_ansatz(rng)
    bare = ScalarFieldA(a.fn)  # force the FD fallback
    x, y, v, t = 0.3, -0.8, 1.4, 0.5
    # d/dtheta then d/dx vs d/dx then d/dtheta, both by differences
    # the inner stencil is taken at every point of the outer one
    tx = numdiff.richardson(lambda u: numdiff.richardson(
        lambda s: bare(u, y, v, s), np.full_like(u, t)), x)
    xt = numdiff.richardson(lambda s: numdiff.richardson(
        lambda u: bare(u, y, v, s), np.full_like(s, x)), t)
    assert tx == pytest.approx(xt, abs=1e-5)
    assert bare.a_theta_x(x, y, v, t) == pytest.approx(tx, abs=1e-5)


PARTIALS = ("a_x", "a_y", "a_v", "a_theta", "a_theta_theta", "a_theta_v", "a_theta_x",
            "a_theta_y")


@pytest.mark.parametrize("name", PARTIALS)
@pytest.mark.parametrize("n", [None, 5])
def test_each_fallback_partial_calls_the_generator_once(name, n):
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


def contract_fields() -> dict:
    """Every built-in way of making a field, one instance each."""
    metric = build_metric(SIN_COS)
    fd_metric = ConformalMetric(f=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    mdtype = catalogue("mdtype", CATALOGUE_PARAMS["mdtype"])
    fields = {f"catalogue/{name}": catalogue(name, params)
              for name, params in CATALOGUE_PARAMS.items()}
    fields.update({f"ansatz/{kind}": from_scalar_ansatz(build_ansatz(spec))
                   for kind, spec in ANSATZ_SPECS.items()})
    fields.update({
        "flat_from_covariant": flat_from_covariant(mdtype, metric),
        "covariant_from_flat": covariant_from_flat(mdtype, fd_metric),
        "conformal_transport": from_scalar_ansatz(conformal_transport(
            build_ansatz(ANSATZ_SPECS["cos_profile"]), metric)),
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
    # analytic Jacobians where the field has them, else the stacked FD stencil
    assert_rows(field.jac_spatial(R, V), [field.jac_spatial(r, v) for r, v in zip(R, V)])
    assert_rows(field.jac_velocity(R, V), [field.jac_velocity(r, v) for r, v in zip(R, V)])
    # any leading shape, not only (n, 2)
    grid = field.force(R.reshape(n, 1, 2), V.reshape(n, 1, 2))
    assert grid.shape == (n, 1, 2)


def test_contract_covers_every_catalogue_entry():
    from normshift.experiment import CATALOGUE
    assert sorted(CATALOGUE_PARAMS) == sorted(CATALOGUE)


def test_fd_jacobian_matches_the_per_component_stencil():
    # the stacked stencil has the points and arithmetic of numdiff.richardson
    field = CONTRACT_FIELDS["catalogue/mdtype"]
    r, v = np.array([0.4, -0.7]), np.array([1.1, 0.3])
    for wrt, jac in ((0, field.jac_spatial), (1, field.jac_velocity)):
        expected = np.empty((2, 2))
        for i in range(2):
            def moved(t, i=i):
                rv = [np.broadcast_to(a, t.shape + (2,)).copy() for a in (r, v)]
                rv[wrt][..., i] = t
                return field.force(*rv)
            expected[i] = numdiff.richardson(moved, (r, v)[wrt][i])
        assert jac(r, v).tobytes() == expected.tobytes()


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
