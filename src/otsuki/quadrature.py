"""Adaptive Gauss-Legendre quadrature for smooth integrands.

The geodesic period integrals have inverse-square-root endpoint
singularities; callers remove them by substitution before handing the
integrand to :func:`adaptive_gauss`, which then converges geometrically.
The first two estimates (one and two panels) take one integrand call on
their nodes together, which are built once per interval; each further
doubling takes one call of its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalError

_GL_ORDER = 48
TOL = 1e-13             # absolute, on successive panel-doubling estimates
MAX_DOUBLINGS = 14
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_nodes(a: float, b: float, panels: int):
    """(the nodes of each panel, one row per panel; the half widths)."""
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    return lo + half * (_gl_nodes[None, :] + 1.0), half[:, 0]


@lru_cache(maxsize=4)
def _first_levels(a: float, b: float):
    """The nodes of the one- and two-panel rules, concatenated and
    read-only, and the half widths of each."""
    x1, half1 = _panel_nodes(a, b, 1)
    x2, half2 = _panel_nodes(a, b, 2)
    x = np.concatenate((x1.ravel(), x2.ravel()))
    for arr in (x, half1, half2):
        arr.flags.writeable = False
    return x, half1, half2


def _estimate(vals: np.ndarray, half: np.ndarray) -> float:
    return float(np.sum(vals @ _gl_weights * half))


def _composite_gauss(f, a: float, b: float, panels: int) -> float:
    x, half = _panel_nodes(a, b, panels)
    return _estimate(f(x.ravel()).reshape(panels, _GL_ORDER), half)


def adaptive_gauss(f, a: float, b: float) -> float:
    """Integrate a vectorized callable on [a, b], doubling panels until the
    estimate stabilizes below ``TOL``.
    """
    x, half1, half2 = _first_levels(a, b)
    vals = f(x)
    prev = _estimate(vals[:_GL_ORDER].reshape(1, _GL_ORDER), half1)
    cur = _estimate(vals[_GL_ORDER:].reshape(2, _GL_ORDER), half2)
    panels = 2
    while not abs(cur - prev) < TOL:    # so a NaN estimate never settles
        if panels == 2 ** MAX_DOUBLINGS:
            raise NumericalError(
                f"quadrature did not converge to {TOL:g} on [{a:g}, {b:g}]",
                residual=abs(cur - prev),
            )
        panels *= 2
        prev, cur = cur, _composite_gauss(f, a, b, panels)
    return cur
