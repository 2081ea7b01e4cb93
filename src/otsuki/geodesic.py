"""Closed geodesics of the doubled-angle metric on the twice-punctured sphere.

The metric is E dphi^2 + G dtheta^2 with E = 4 pi^2 cos^2(phi) and
G = 4 pi^2 cos^4(phi).  A geodesic launched horizontally from phi = b < 0
oscillates between the parallels phi = b and phi = -b; the half period T(b)
and the rotation angle Xi(b) = theta(T) are singular integrals over
[b, -b].  The geodesic closes exactly when Xi(b) is a rational multiple
of pi, which pins b for each admissible rotation number p/q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import cos, sin
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .quadrature import adaptive_gauss

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2
EIGHT_PI4 = 8.0 * math.pi ** 4

# Limits of T(b) and Xi(b) as b -> 0- (the Clifford degeneration).
CLIFFORD_HALF_PERIOD = math.sqrt(2.0) * math.pi ** 2
CLIFFORD_ROTATION = math.sqrt(2.0) * math.pi / 2.0

ROTATION_LO = 0.5
ROTATION_HI = math.sqrt(2.0) / 2.0

# RK4 steps per half period, for the endpoint polish and the sampled grid
_RK4_STEPS = 32768
_FLOW_MISS_TOL = 1e-10  # largest flow miss of p pi / q that one step corrects
_SLOPE_STEP = 1e-6      # central-difference half-width in b, relative to |b|
DRIFT_TOL = 1e-8        # largest energy drift of a sampled trajectory


def metric_coefficients(phi):
    """Return (E, G) at latitude phi, a float or an array; the metric
    degenerates at the poles."""
    if not np.all(np.abs(phi) < math.pi / 2):
        raise DomainError(f"metric degenerates at |phi| >= pi/2 (got {phi!r})")
    c2 = np.cos(phi) ** 2
    E = FOUR_PI2 * c2
    return E, E * c2


def _check_b(b: float) -> None:
    if not (-math.pi / 2 < b < 0.0):
        raise DomainError(f"geodesic parameter must lie in (-pi/2, 0), got {b!r}")


def _singular_factors(u: np.ndarray, b: float):
    # Substitution phi = -b sin u removes the inverse-square-root endpoint
    # singularity: cos^2(phi) - cos^2(b) = sin(b(1+sin u)) sin(b(1-sin u))
    # is exact in floating point, while the quartic difference cancels badly.
    su = np.sin(u)
    phi = -b * su
    prod = np.sin(b * (1.0 + su)) * np.sin(b * (1.0 - su))
    quart = np.cos(phi) ** 2 + math.cos(b) ** 2
    jac = -b * np.cos(u)
    return phi, jac / np.sqrt(prod * quart)


def half_period(b: float) -> float:
    """Half period T(b) of the latitude oscillation, in arc-length units."""
    _check_b(b)

    def f(u):
        phi, kernel = _singular_factors(u, b)
        return TWO_PI * np.cos(phi) ** 3 * kernel

    return adaptive_gauss(f, -math.pi / 2, math.pi / 2)


def rotation_angle(b: float) -> float:
    """Rotation angle Xi(b) = theta(T(b)); strictly increasing in b."""
    _check_b(b)
    cb2 = math.cos(b) ** 2

    def f(u):
        phi, kernel = _singular_factors(u, b)
        return cb2 * kernel / np.cos(phi)

    return adaptive_gauss(f, -math.pi / 2, math.pi / 2)


@dataclass(frozen=True)
class RotationNumber:
    """Reduced fraction p/q in (1/2, sqrt(2)/2)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValidationError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise ValidationError(f"p/q must be reduced, got {self.p}/{self.q}")
        ratio = self.p / self.q
        if not (ROTATION_LO < ratio < ROTATION_HI):
            raise ValidationError(
                f"p/q must lie in (1/2, sqrt(2)/2), got {self.p}/{self.q} = {ratio:.6f}"
            )


@dataclass(frozen=True)
class GeodesicFamily:
    """One closed geodesic: parameter b, momentum c, half period T, angle Xi."""

    b: float
    c: float
    T: float
    Xi: float
    rotation: Optional[RotationNumber] = None

    @classmethod
    def from_b(cls, b: float) -> "GeodesicFamily":
        if b == 0.0:
            return cls.clifford()
        _check_b(b)
        c = TWO_PI * math.cos(b) ** 2
        T, _ = _polish_endpoint(b, c, half_period(b))
        return cls(b=b, c=c, T=T, Xi=rotation_angle(b))

    @classmethod
    def clifford(cls) -> "GeodesicFamily":
        """Degenerate b = 0 limit (phi == 0); calibration data only."""
        return cls(b=0.0, c=TWO_PI, T=CLIFFORD_HALF_PERIOD, Xi=CLIFFORD_ROTATION)

    @property
    def t0(self) -> float:
        """The closed length 2 q T."""
        if self.rotation is None:
            raise ValidationError("full geodesic length needs a rotation number")
        return 2 * self.rotation.q * self.T


def solve_parameter(p: int, q: int) -> GeodesicFamily:
    """Find the family with Xi(b) = (p/q) pi.

    Xi is strictly increasing, so bisection finds the quadrature root to
    the float resolution of b.  One flow integration there gives the
    integrator's own turning time T and its miss theta(T) - p pi / q; one
    linear step along the quadrature slopes dXi/db and dT/db removes the
    miss, as the sampled trajectory is only junction-smooth when theta(T)
    equals p pi / q at the integrator's own accuracy.
    """
    if not isinstance(p, int) or not isinstance(q, int):
        raise ValidationError("p and q must be integers")
    # validates gcd and the admissible interval before any quadrature
    RotationNumber(p, q)
    target = p * math.pi / q

    # the rotation angle approaches its polar limit only as b -> -pi/2, so
    # walk the lower bracket end toward the pole just as far as needed
    hi = -1e-8
    fhi = rotation_angle(hi) - target
    delta = math.pi / 2 - 1.0
    lo = -1.0
    flo = rotation_angle(lo) - target
    while flo > 0:
        delta /= 2.0
        if delta < 5e-4:
            raise NumericalError(
                "failed to bracket the rotation-angle root; p/q too close to 1/2")
        lo = -math.pi / 2 + delta
        flo = rotation_angle(lo) - target
    if fhi < 0:
        raise NumericalError("failed to bracket the rotation-angle root")
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        fm = rotation_angle(mid) - target
        if fm < 0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    b = lo if abs(flo) <= abs(fhi) else hi

    c = TWO_PI * math.cos(b) ** 2
    T, theta_T = _polish_endpoint(b, c, half_period(b))
    miss = theta_T - target
    if abs(miss) > _FLOW_MISS_TOL:
        raise NumericalError(
            f"integrated flow misses p pi / q by {miss:.3e} at the quadrature "
            "root", residual=abs(miss))

    def slope(f):
        h = _SLOPE_STEP * abs(b)
        return (f(b + h) - f(b - h)) / (2.0 * h)

    step = -miss / slope(rotation_angle)
    b, T = b + step, T + slope(half_period) * step
    c = TWO_PI * math.cos(b) ** 2
    return GeodesicFamily(
        b=b, c=c, T=T, Xi=rotation_angle(b),
        rotation=RotationNumber(p, q),
    )


def _geodesic_rhs(phi: float, phid: float, c: float):
    cphi = cos(phi)
    sphi = sin(phi)
    phidd = (sphi / cphi) * phid * phid \
        - c * c * sphi / (EIGHT_PI4 * cphi ** 7)
    thd = c / (FOUR_PI2 * cphi ** 4)
    return phidd, thd


def _rk4(y0: float, y1: float, y2: float, c: float, h: float,
         n_out: int, stride: int):
    """Fixed-step RK4 for (phi, phidot, theta) with step h.

    Yields the state and its derivatives (phi, phidot, theta, phidotdot,
    thetadot) after every ``stride`` steps, ``n_out`` times.  Plain floats in
    and out: this is the hot loop of the geodesic solve.
    """
    h2, h6 = h / 2.0, h / 6.0
    a1, t1 = _geodesic_rhs(y0, y1, c)
    for _ in range(n_out):
        for _ in range(stride):
            v2 = y1 + h2 * a1
            a2, t2 = _geodesic_rhs(y0 + h2 * y1, v2, c)
            v3 = y1 + h2 * a2
            a3, t3 = _geodesic_rhs(y0 + h2 * v2, v3, c)
            v4 = y1 + h * a3
            a4, t4 = _geodesic_rhs(y0 + h * v3, v4, c)
            y0 += h6 * (y1 + 2 * v2 + 2 * v3 + v4)
            y1 += h6 * (a1 + 2 * a2 + 2 * a3 + a4)
            y2 += h6 * (t1 + 2 * t2 + 2 * t3 + t4)
            a1, t1 = _geodesic_rhs(y0, y1, c)
        yield y0, y1, y2, a1, t1


def _polish_endpoint(b: float, c: float, T: float):
    """Newton-correct T so phidot(T) = 0 against the integrated flow, and
    return the flow's rotation angle at the corrected turning time.

    The quadrature T is accurate to ~1e-13, but reflected trajectory
    samples kink at the half-period junctions unless the stored T is the
    integrator's own turning time; theta at the corrected time follows to
    second order in the (tiny) shift.
    """
    _, phid, theta, phidd, thd = next(_rk4(b, 0.0, 0.0, c, T / _RK4_STEPS,
                                           1, _RK4_STEPS))
    if phidd == 0.0:
        return T, theta
    dT = -phid / phidd
    return T + dT, theta + thd * dT


@dataclass(frozen=True)
class Trajectory:
    """Samples of (phi, phidot, theta) on a uniform grid over [0, T]."""

    family: GeodesicFamily
    grid: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    theta: np.ndarray
    _padded: tuple = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.grid) - 1

    def __post_init__(self):
        n = self.n
        h = self.family.T / n
        # the half-period shift of theta: p pi / q makes the full-length
        # wrap exact for closed families (the solver pins theta(T) to it);
        # otherwise the integrated value keeps the junctions smooth
        rot = self.family.rotation
        shift = (math.pi * rot.p / rot.q) if rot is not None \
            else float(self.theta[-1])
        # virtual nodes: phi even at t=0, T-antiperiodic beyond T; theta odd
        # at 0 and shifting by theta(T) per half period
        def pad(arr, left, right):
            return np.concatenate(([left[1], left[0]], arr, [right[0], right[1]]))
        phi_p = pad(self.phi, (self.phi[1], self.phi[2]),
                    (-self.phi[1], -self.phi[2]))
        phid_p = pad(self.phidot, (-self.phidot[1], -self.phidot[2]),
                     (-self.phidot[1], -self.phidot[2]))
        th_p = pad(self.theta, (-self.theta[1], -self.theta[2]),
                   (self.theta[1] + shift, self.theta[2] + shift))
        object.__setattr__(self, "_padded", (h, phi_p, phid_p, th_p, shift))

    def at(self, t):
        """Evaluate (phi, phidot, theta) at arbitrary times in [0, t0).

        Times are folded into [0, T] through phi(t+T) = -phi(t) and
        theta(t+T) = theta(t) + Xi; between nodes a centered cubic
        interpolant is used.  Families without a rotation number accept
        any real t.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if self.family.rotation is not None:
            t0 = self.family.t0
            if np.any(t_arr < -1e-9 * t0) or np.any(t_arr >= t0 * (1 + 1e-12) + 1e-9):
                raise DomainError("time outside [0, t0)")
        T = self.family.T
        k = np.floor(t_arr / T).astype(int)
        s = t_arr - k * T
        over = s >= T
        k = np.where(over, k + 1, k)
        s = np.where(over, s - T, s)

        h, phi_p, phid_p, th_p, shift = self._padded
        x = s / h
        j = np.clip(np.floor(x).astype(int), 0, self.n - 1)
        xi = x - j
        wm1 = -xi * (xi - 1.0) * (xi - 2.0) / 6.0
        w0 = (xi * xi - 1.0) * (xi - 2.0) / 2.0
        w1 = -xi * (xi + 1.0) * (xi - 2.0) / 2.0
        w2 = xi * (xi * xi - 1.0) / 6.0
        base = j + 2  # padding offset

        def interp(arr):
            return (wm1 * arr[base - 1] + w0 * arr[base]
                    + w1 * arr[base + 1] + w2 * arr[base + 2])

        sgn = np.where(k % 2 == 0, 1.0, -1.0)
        phi = sgn * interp(phi_p)
        phid = sgn * interp(phid_p)
        theta = interp(th_p) + k * shift
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(phi[0]), float(phid[0]), float(theta[0])
        return phi, phid, theta

    def conservation_drift(self) -> float:
        E, G = metric_coefficients(self.phi)
        thd = self.family.c / G
        return float(np.abs(E * self.phidot ** 2 + G * thd ** 2 - 1.0).max())

    def to_json_dict(self) -> dict:
        f = self.family
        return {
            "b": f.b, "c": f.c, "T": f.T, "Xi": f.Xi, "n": self.n,
            "phi": self.phi.tolist(),
            "phidot": self.phidot.tolist(),
            "theta": self.theta.tolist(),
        }


def sample_trajectory(family: GeodesicFamily, n: int) -> Trajectory:
    """Integrate the geodesic over one half period on an (n+1)-node grid.

    The second-order equation for phi is integrated (sign-unambiguous at
    the turning points) by fixed-step RK4, substepped so the global error
    sits near machine precision; theta rides along through theta' = c/G.
    """
    if n < 64:
        raise ValidationError(f"need n >= 64 grid intervals, got {n}")
    grid = np.linspace(0.0, family.T, n + 1)
    if family.b == 0.0:
        phi = np.zeros(n + 1)
        phid = np.zeros(n + 1)
        theta = grid / TWO_PI
        return Trajectory(family=family, grid=grid, phi=phi,
                          phidot=phid, theta=theta)

    m_sub = max(1, -(-_RK4_STEPS // n))
    h = family.T / (n * m_sub)
    phi_out = np.empty(n + 1)
    phid_out = np.empty(n + 1)
    th_out = np.empty(n + 1)
    phi_out[0], phid_out[0], th_out[0] = family.b, 0.0, 0.0
    states = _rk4(family.b, 0.0, 0.0, family.c, h, n, m_sub)
    for i, (phi, phid, theta, _, _) in enumerate(states, 1):
        phi_out[i], phid_out[i], th_out[i] = phi, phid, theta

    traj = Trajectory(family=family, grid=grid, phi=phi_out,
                      phidot=phid_out, theta=th_out)
    drift = traj.conservation_drift()
    if drift > DRIFT_TOL:
        raise NumericalError(
            f"energy conservation drifted to {drift:.3e}", residual=drift)
    return traj
