"""Adaptive Gauss-Legendre quadrature for smooth integrands.

The geodesic period integrals have inverse-square-root endpoint
singularities; callers remove them by substitution before handing the
integrand to :func:`adaptive_gauss`, which then converges geometrically.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_GL_ORDER = 48
TOL = 1e-13             # absolute, on successive panel-doubling estimates
MAX_DOUBLINGS = 14
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(_GL_ORDER)


def _composite_gauss(f, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    x = lo + half * (_gl_nodes[None, :] + 1.0)
    vals = f(x.ravel()).reshape(panels, _GL_ORDER)
    return float(np.sum(vals @ _gl_weights * half[:, 0]))


def adaptive_gauss(f, a: float, b: float) -> float:
    """Integrate a vectorized callable on [a, b], doubling panels until the
    estimate stabilizes below ``TOL``.
    """
    prev = _composite_gauss(f, a, b, 1)
    panels = 2
    for _ in range(MAX_DOUBLINGS):
        cur = _composite_gauss(f, a, b, panels)
        if abs(cur - prev) < TOL:
            return cur
        prev = cur
        panels *= 2
    raise NumericalError(
        f"quadrature did not converge to {TOL:g} on [{a:g}, {b:g}]",
        residual=abs(cur - prev),
    )
