"""The end state of a linear system y' = A(t) y, for the fundamental
solutions of the boundary-form route.

One step of the classical fourth-order Runge-Kutta method maps a linear
system's state linearly, by the step propagator

    P = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   K1 = A(t),
    K2 = A(t + h/2) (I + h/2 K1),  K3 = A(t + h/2) (I + h/2 K2),
    K4 = A(t + h) (I + h K3).

``solve_ivp`` forms the propagators of all N equal steps at once, from A
at the nodes and midpoints of its grid, and multiplies them by a pairwise
product tree, whose rounding grows with log N, not N.  N doubles from
``_FIRST_STEPS`` until two successive end states agree within
``SETTLE_TOL`` of their largest entry.  The grids are nested, so each
doubling evaluates A only at its new midpoints.  A NaN never settles: it
ends the integration with ``success`` False at ``_MAX_STEPS``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

SETTLE_TOL = 1e-10      # the largest change, relative, of a settled end state
_FIRST_STEPS = 1024
_MAX_STEPS = 2 ** 16


class OdeResult(NamedTuple):
    y: np.ndarray       # the state at the end of the interval
    nfev: int           # evaluations of A, one per time
    success: bool
    message: str


def _propagators(A, h):
    """The (N, d, d) RK4 step propagators from A at the 2N + 1 nodes and
    midpoints of N steps of length h."""
    eye = np.eye(A.shape[-1])
    start, mid, end = A[:-1:2], A[1::2], A[2::2]
    k2 = mid @ (eye + 0.5 * h * start)
    k3 = mid @ (eye + 0.5 * h * k2)
    k4 = end @ (eye + h * k3)
    return eye + h / 6.0 * (start + 2.0 * (k2 + k3) + k4)


def _product(P):
    """P[N-1] ... P[1] P[0], in pairs; N is a power of two."""
    while len(P) > 1:
        P = P[1::2] @ P[::2]
    return P[0]


def solve_ivp(fun, t_span, y0) -> OdeResult:
    """Integrate y' = A(t) y from t_span[0] forward to t_span[1], where
    ``fun(t)`` returns the (len(t), d, d) matrices A at the times t, from
    the (d, k) initial states y0; returns their end states."""
    t0, t1 = map(float, t_span)
    if not t0 < t1:
        raise ValidationError(f"integrates forward only, got t_span {t_span}")
    n = _FIRST_STEPS
    A = fun(np.linspace(t0, t1, 2 * n + 1))
    nfev = len(A)
    y = _product(_propagators(A, (t1 - t0) / n)) @ y0
    while n < _MAX_STEPS:
        n *= 2
        finer = np.empty((2 * n + 1, *A.shape[1:]))
        finer[::2] = A
        finer[1::2] = fun(np.linspace(t0, t1, 2 * n + 1)[1::2])
        A, nfev, last = finer, nfev + n, y
        y = _product(_propagators(A, (t1 - t0) / n)) @ y0
        # written so that a NaN state, which compares false, never settles
        if np.abs(y - last).max() <= SETTLE_TOL * np.abs(y).max():
            return OdeResult(y, nfev, True, f"settled at {n} steps")
    return OdeResult(y, nfev, False,
                     f"end state not settled within {SETTLE_TOL:g} "
                     f"at {n} steps")
