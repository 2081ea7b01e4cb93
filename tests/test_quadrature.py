import math

import numpy as np
import pytest

from otsuki import quadrature
from otsuki.errors import NumericalError
from otsuki.quadrature import MAX_DOUBLINGS, TOL, adaptive_gauss


def _recorded(f):
    """f, and the list of the node counts of its calls."""
    sizes = []

    def g(x):
        sizes.append(len(x))
        return f(x)

    return g, sizes


def test_levels_one_and_two_share_one_call():
    f, sizes = _recorded(np.cos)
    assert adaptive_gauss(f, 0.0, 1.0) == pytest.approx(math.sin(1.0),
                                                        abs=1e-15)
    assert sizes == [3 * 48]


def test_each_further_level_takes_one_call():
    # a peak of width 0.01 needs a few doublings past two panels
    f, sizes = _recorded(lambda x: 1.0 / (1.0 + 1e4 * x * x))
    got = adaptive_gauss(f, -1.0, 1.0)
    assert got == pytest.approx(math.atan(100.0) / 50.0, abs=1e-13)
    assert len(sizes) >= 4
    assert sizes == [3 * 48] + [48 * 2 ** k for k in range(2, len(sizes) + 1)]


def test_first_level_nodes_are_built_once_and_read_only():
    seen = []

    def f(x):
        seen.append(x)
        return np.ones_like(x)

    adaptive_gauss(f, -0.5, 0.75)
    adaptive_gauss(f, -0.5, 0.75)
    assert seen[0] is seen[1]
    assert not seen[0].flags.writeable


def test_exact_on_polynomials_below_degree_96():
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(96)              # degree 95
    a, b = -0.5, 1.0
    f, sizes = _recorded(lambda x: np.polynomial.polynomial.polyval(x, coef))
    prim = np.polynomial.polynomial.polyint(coef)
    want = (np.polynomial.polynomial.polyval(b, prim)
            - np.polynomial.polynomial.polyval(a, prim))
    assert adaptive_gauss(f, a, b) == pytest.approx(want, rel=1e-13, abs=1e-14)
    assert sizes == [3 * 48]


def test_an_integrand_that_never_settles_raises():
    # a jump inside a panel leaves an error of the order of the panel width
    def step(x):
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    f, sizes = _recorded(step)
    with pytest.raises(NumericalError, match="did not converge") as err:
        adaptive_gauss(f, 0.0, 1.0)
    last = 2 ** MAX_DOUBLINGS
    assert sizes == [3 * 48] + [48 * 2 ** k
                                for k in range(2, MAX_DOUBLINGS + 1)]
    want = abs(quadrature._composite_gauss(step, 0.0, 1.0, last)
               - quadrature._composite_gauss(step, 0.0, 1.0, last // 2))
    assert err.value.residual == want
    assert want >= TOL


def test_a_nan_integrand_raises():
    with pytest.raises(NumericalError):
        adaptive_gauss(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
