"""The finite-difference stencils: one call of f each, and the points and
arithmetic of their one-point forms."""

import numpy as np
import pytest

from helpers import (central_one_point, richardson2_one_point, richardson_mixed_one_point,
                     richardson_one_point)

from normshift import numdiff

# stencil name -> (one-point reference, number of arguments of f)
STENCILS = {
    "central": (central_one_point, 1),
    "richardson": (richardson_one_point, 1),
    "richardson2": (richardson2_one_point, 1),
    "richardson_mixed": (richardson_mixed_one_point, 2),
}


def smooth(t, u=0.5):
    # only + - * /, which round alike on a number and in an array loop
    return t * t * u - 2.0 / (1.0 + t * t + u * u)


@pytest.mark.parametrize("name", sorted(STENCILS))
@pytest.mark.parametrize("x", [0.7, np.array([[0.7, -1.3, 2.9]])])
def test_each_stencil_calls_f_once(name, x):
    calls = []

    def f(*args):
        calls.append(1)
        return smooth(*args)

    args = (x,) * STENCILS[name][1]
    d = getattr(numdiff, name)(f, *args)
    assert len(calls) == 1
    assert np.shape(d) == np.shape(x) and (np.ndim(x) > 0 or np.isscalar(d))


@pytest.mark.parametrize("name", sorted(STENCILS))
def test_stencils_equal_their_one_point_forms_bit_for_bit(name):
    reference, n_args = STENCILS[name]
    rng = np.random.default_rng(5)
    at = [rng.uniform(-3.0, 3.0, 7) for _ in range(n_args)]
    want = np.array([reference(smooth, *point) for point in zip(*(a.tolist() for a in at))])
    assert getattr(numdiff, name)(smooth, *at).tobytes() == want.tobytes()
    assert np.array([getattr(numdiff, name)(smooth, *point)
                     for point in zip(*at)]).tobytes() == want.tobytes()
