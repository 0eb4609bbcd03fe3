"""The hyper-dual jet: each ufunc rule against closed-form first, second and
mixed derivatives, also with complex parts inside a complex step, and one
call of f per jet, also for each derivative the deleted stencils gave."""

import functools

import numpy as np
import pytest
import sympy

from normshift import numdiff

X, Y = sympy.symbols("x y")


def inner(x, y):
    """Two inner functions with all four jet parts nonzero, positive on the
    test box, so that every rule meets a full jet."""
    return x * y + x, x + y * y + 0.5


P, Q = inner(X, Y)

# name -> (f written with the ufunc, f in sympy)
CASES = {
    "add": (lambda x, y: np.add(*inner(x, y)), P + Q),
    "subtract": (lambda x, y: np.subtract(*inner(x, y)), P - Q),
    "multiply": (lambda x, y: np.multiply(*inner(x, y)), P * Q),
    "divide": (lambda x, y: np.divide(*inner(x, y)), P / Q),
    "negative": (lambda x, y: np.negative(inner(x, y)[0]), -P),
    "power": (lambda x, y: np.power(inner(x, y)[0], 2.3), P**2.3),
    "sqrt": (lambda x, y: np.sqrt(inner(x, y)[0]), sympy.sqrt(P)),
    "sin": (lambda x, y: np.sin(inner(x, y)[0]), sympy.sin(P)),
    "cos": (lambda x, y: np.cos(inner(x, y)[0]), sympy.cos(P)),
    "exp": (lambda x, y: np.exp(inner(x, y)[0]), sympy.exp(P)),
    "hypot": (lambda x, y: np.hypot(*inner(x, y)), sympy.sqrt(P * P + Q * Q)),
    "arctan2": (lambda x, y: np.arctan2(*inner(x, y)[::-1]), sympy.atan2(Q, P)),
    # a plain operand on either side of a binary rule
    "add plain": (lambda x, y: 0.7 + inner(x, y)[0] + 0.3, P + 1.0),
    "subtract plain": (lambda x, y: 0.7 - inner(x, y)[0] - 0.3, 0.4 - P),
    "multiply plain": (lambda x, y: 0.7 * inner(x, y)[0] * 0.3, 0.21 * P),
    "divide plain": (lambda x, y: 0.7 / inner(x, y)[0] / 0.3, 0.7 / P / 0.3),
    "hypot plain": (lambda x, y: np.hypot(0.7, inner(x, y)[0]) + np.hypot(inner(x, y)[1], 0.3),
                    sympy.sqrt(0.49 + P * P) + sympy.sqrt(Q * Q + 0.09)),
    "arctan2 plain": (lambda x, y: np.arctan2(0.7, inner(x, y)[0])
                      + np.arctan2(inner(x, y)[1], 0.3),
                      sympy.atan2(0.7, P) + sympy.atan2(Q, 0.3)),
}

# the four parts of a jet with e1 along d1 and e2 along d2, as derivative
# orders in (x, y)
SEEDS = {((1.0, 0.0), (0.0, 1.0)): [(0, 0), (1, 0), (0, 1), (1, 1)],
         ((1.0, 0.0), (1.0, 0.0)): [(0, 0), (1, 0), (1, 0), (2, 0)],
         ((0.0, 1.0), (0.0, 1.0)): [(0, 0), (0, 1), (0, 1), (0, 2)]}


@functools.cache
def closed_form(expr, order):
    return sympy.lambdify((X, Y), sympy.diff(expr, X, order[0], Y, order[1]), "numpy")


def points(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, 40), rng.uniform(0.5, 1.5, 40)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_rule_gives_exact_first_second_and_mixed_derivatives(name):
    f, expr = CASES[name]
    x, y = points(1)
    for (d1, d2), orders in SEEDS.items():
        parts = numdiff.jet(f, (x, y), d1, d2)
        for got, order in zip(parts, orders):
            want = np.broadcast_to(closed_form(expr, order)(x, y), x.shape)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14, err_msg=str(order))
    # the value is the plain evaluation's, bit for bit
    assert numdiff.jet(f, (x, y), (1.0, 0.0), (0.0, 1.0))[0].tobytes() == f(x, y).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_jet_inside_a_complex_step_carries_both(name):
    # each part of the jet at complex points: its real part is the part, its
    # imaginary part over h the part's derivative along (1, -0.5)
    f, expr = CASES[name]
    x, y = points(2)
    for (d1, d2), orders in SEEDS.items():
        for k, order in enumerate(orders):
            value, slope = numdiff.complex_step(
                lambda x, y: numdiff.jet(f, (x, y), d1, d2)[k], (x, y), (1.0, -0.5))
            part = closed_form(expr, order)
            along = (closed_form(expr, (order[0] + 1, order[1]))(x, y)
                     - 0.5 * closed_form(expr, (order[0], order[1] + 1))(x, y))
            np.testing.assert_allclose(value, np.broadcast_to(part(x, y), x.shape),
                                       rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(slope, np.broadcast_to(along, x.shape),
                                       rtol=1e-12, atol=1e-13)


def test_a_ufunc_without_a_rule_raises_naming_it():
    with pytest.raises(TypeError, match="np.tanh"):
        numdiff.jet(np.tanh, (0.5,), (1.0,), (0.0,))
    # a comparison too: a domain test reads the value's real part
    with pytest.raises(TypeError, match="np.less"):
        numdiff.jet(lambda x: x < 1.0, (0.5,), (1.0,), (0.0,))
    assert numdiff.jet(lambda x: np.sin(x) * (x.real < 1.0), (0.5,), (1.0,), (0.0,))[1] \
        == pytest.approx(np.cos(0.5), rel=1e-15)
    with pytest.raises(TypeError, match="plain exponent"):
        numdiff.jet(lambda x: np.power(2.0, x), (0.5,), (1.0,), (0.0,))


def smooth(t, u=0.5):
    return t * t * u - 2.0 / (1.0 + t * t + u * u)


def smooth_derivatives(t, u=0.5):
    """d/dt, d2/dt2 and d2/dt du of ``smooth``, in closed form."""
    d = 1.0 + t * t + u * u
    return (2.0 * t * u + 4.0 * t / d**2, 2.0 * u + 4.0 / d**2 - 16.0 * t * t / d**3,
            2.0 * t - 16.0 * t * u / d**3)


# former stencil name -> (arguments of f, d1, d2, jet part, closed-form index):
# the jet that now gives the derivative the stencil gave
STENCILS = {
    "central": (1, (1.0,), (0.0,), 1, 0),
    "richardson": (1, (1.0,), (0.0,), 1, 0),
    "richardson2": (1, (1.0,), (1.0,), 3, 1),
    "richardson_mixed": (2, (1.0, 0.0), (0.0, 1.0), 3, 2),
}


@pytest.mark.parametrize("name", sorted(STENCILS))
@pytest.mark.parametrize("x", [0.7, np.array([[0.7, -1.3, 2.9]])])
def test_each_stencil_calls_f_once(name, x):
    # each derivative a stencil gave is one call of f as a jet, and exact
    calls = []

    def f(*args):
        calls.append(1)
        return smooth(*args)

    n_args, d1, d2, part, which = STENCILS[name]
    d = numdiff.jet(f, (x,) * n_args, d1, d2)[part]
    assert len(calls) == 1
    assert np.shape(d) == np.shape(x) and (np.ndim(x) > 0 or np.isscalar(d))
    np.testing.assert_allclose(d, smooth_derivatives(x, x if n_args == 2 else 0.5)[which],
                               rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("x", [0.7, np.array([[0.7, -1.3, 2.9]])])
def test_one_call_of_f_per_jet(x):
    calls = []

    def f(x, y, u):
        calls.append((type(x), type(y), type(u)))
        return np.sin(x) * y + 1.0

    parts = numdiff.jet(f, (x, x, x), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    # an argument that does not move is passed as it is
    assert calls == [(numdiff.Jet, numdiff.Jet, type(x))]
    assert all(np.shape(p) == np.shape(x) for p in parts)
    assert np.ndim(x) > 0 or all(np.isscalar(p) for p in parts)
    # f without its arguments: the derivatives are zero
    assert numdiff.jet(lambda x: 2.0, (x,), (1.0,), (1.0,))[1:] == (0.0, 0.0, 0.0)
