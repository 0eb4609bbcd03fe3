import math

import numpy as np
import pytest

from normshift.errors import DegenerateVelocity
from normshift.geometry import (ConformalMetric, PolarVelocity, V_MIN,
                                christoffel, frame, polar_from_cartesian, projector)
from normshift import numdiff


def test_christoffel_flat_metric_is_zero():
    m = ConformalMetric.euclidean()
    for pt in [(0, 0), (1.5, -2.0), (10, 3)]:
        assert np.all(christoffel(m, pt) == 0.0)


def test_christoffel_linear_factor_hand_values():
    m = ConformalMetric(f=lambda x, y: x, grad_f=lambda x, y: (1.0, 0.0))
    g = christoffel(m, (0.4, -1.1))
    assert g[0, 0, 0] == pytest.approx(-1.0)
    assert g[0, 1, 1] == pytest.approx(1.0)
    assert g[1, 0, 1] == pytest.approx(-1.0)
    assert g[1, 1, 0] == pytest.approx(-1.0)
    for idx in [(1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)]:
        assert g[idx] == pytest.approx(0.0)


def test_christoffel_swapped_factor_by_symmetry():
    my = ConformalMetric(f=lambda x, y: y, grad_f=lambda x, y: (0.0, 1.0))
    mx = ConformalMetric(f=lambda x, y: x, grad_f=lambda x, y: (1.0, 0.0))
    gy = christoffel(my, (0.7, 0.2))
    gx = christoffel(mx, (0.7, 0.2))
    swap = [1, 0]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert gy[k, i, j] == pytest.approx(gx[swap[k], swap[i], swap[j]])


def test_christoffel_symmetric_in_lower_indices():
    rng = np.random.default_rng(0)
    m = ConformalMetric(f=lambda x, y: 0.3 * np.sin(x) * np.cos(y))
    for _ in range(20):
        g = christoffel(m, rng.uniform(-2, 2, 2))
        assert np.array_equal(g[:, 0, 1], g[:, 1, 0])


def test_christoffel_analytic_vs_fd_gradient():
    f = lambda x, y: 0.3 * np.sin(x) * np.cos(y)
    analytic = ConformalMetric(
        f=f, grad_f=lambda x, y: (0.3 * math.cos(x) * math.cos(y),
                                  -0.3 * math.sin(x) * math.sin(y)))
    fd = ConformalMetric(f=f)
    rng = np.random.default_rng(1)
    for _ in range(25):
        pt = rng.uniform(-2, 2, 2)
        assert np.max(np.abs(christoffel(analytic, pt) - christoffel(fd, pt))) < 1e-6


def test_metric_gradient_self_consistency():
    m = ConformalMetric(
        f=lambda x, y: np.exp(0.2 * x) * np.cos(y),
        grad_f=lambda x, y: (0.2 * math.exp(0.2 * x) * math.cos(y),
                             -math.exp(0.2 * x) * math.sin(y)))
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 2)
        g = m.gradient((x, y))
        fd = np.array([numdiff.central(lambda t: m.f(t, y), x),
                       numdiff.central(lambda t: m.f(x, t), y)])
        assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, float(np.max(np.abs(g))))


def test_frame_axis_cases():
    fr = frame((1, 0))
    assert np.allclose(fr.N, [1, 0]) and np.allclose(fr.M, [0, 1])
    fr = frame((0, 2))
    assert np.allclose(fr.N, [0, 1]) and np.allclose(fr.M, [-1, 0])
    fr = frame((3, 4))
    assert np.allclose(fr.N, [0.6, 0.8]) and np.allclose(fr.M, [-0.8, 0.6])


def test_frame_rejects_small_velocity():
    with pytest.raises(DegenerateVelocity):
        frame((0.0, 0.0))
    with pytest.raises(DegenerateVelocity):
        frame((0.5e-9, 0.0))
    frame((2e-9, 0.0))  # at/above the guard is fine


def test_projector_hand_values():
    assert np.allclose(projector((1, 0)), [[0, 0], [0, 1]])
    assert np.allclose(projector((1, 1)), [[0.5, -0.5], [-0.5, 0.5]])


def test_projector_equals_mm_outer():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.uniform(-3, 3, 2)
        if np.hypot(*v) < 1e-3:
            continue
        fr = frame(v)
        assert np.max(np.abs(projector(v) - np.outer(fr.M, fr.M))) < 1e-14


def test_frame_projector_identities_random_speeds():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        speed = 10 ** rng.uniform(math.log10(V_MIN), 3)
        ang = rng.uniform(-math.pi, math.pi)
        v = speed * np.array([math.cos(ang), math.sin(ang)])
        fr = frame(v)
        p = projector(v)
        assert abs(np.hypot(*fr.N) - 1) < 1e-12
        assert abs(np.hypot(*fr.M) - 1) < 1e-12
        assert abs(fr.N @ fr.M) < 1e-12
        assert abs(np.linalg.det(np.column_stack([fr.N, fr.M])) - 1) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p @ fr.N)) < 1e-12
        assert np.max(np.abs(p @ fr.M - fr.M)) < 1e-12
        assert abs(np.trace(p) - 1) < 1e-12


def test_polar_examples():
    p = polar_from_cartesian((1, 0))
    assert p.v == pytest.approx(1) and p.theta == pytest.approx(0)
    p = polar_from_cartesian((0, 1))
    assert p.v == pytest.approx(1) and p.theta == pytest.approx(math.pi / 2)
    p = PolarVelocity(2, math.pi / 3)
    assert np.allclose([p.v * math.cos(p.theta), p.v * math.sin(p.theta)], [1.0, math.sqrt(3)])


def test_polar_round_trip_and_branch():
    rng = np.random.default_rng(5)
    for _ in range(500):
        v = rng.uniform(-5, 5, 2)
        if np.hypot(*v) < 1e-6:
            continue
        p = polar_from_cartesian(v)
        assert -math.pi < p.theta <= math.pi
        back = np.array([p.v * math.cos(p.theta), p.v * math.sin(p.theta)])
        assert np.max(np.abs(back - v)) < 1e-12 * np.hypot(*v)
    # the -pi ray canonicalizes to +pi
    assert polar_from_cartesian((-1.0, -0.0)).theta == pytest.approx(math.pi)


def test_conformal_speed():
    # the length of v in the metric: exp(-f) times its Euclidean length
    def conformal_speed(metric, point, v):
        return np.exp(-metric.value(point)) * np.hypot(*v)

    assert conformal_speed(ConformalMetric.euclidean(), (0, 0), (3, 4)) == pytest.approx(5)
    assert conformal_speed(ConformalMetric.constant(math.log(2)), (1, 1), (3, 4)) == pytest.approx(2.5)
    assert conformal_speed(ConformalMetric.euclidean(), (0, 0), (0, 0)) == 0.0
