"""Closed geodesics of the doubled-angle metric on the twice-punctured sphere.

The metric is E dphi^2 + G dtheta^2 with E = 4 pi^2 cos^2(phi) and
G = 4 pi^2 cos^4(phi).  A geodesic launched horizontally from phi = b < 0
oscillates between the parallels phi = b and phi = -b; the half period T(b)
and the rotation angle Xi(b) = theta(T) are singular integrals over
[b, -b].  The geodesic closes exactly when Xi(b) is a rational multiple
of pi, which pins b for each admissible rotation number p/q.

``solve_parameter`` bisects on Xi(b) to the float resolution of b, but
integrates only the midpoints close to the root: a few secant steps find
points where the sign of Xi - p pi / q is certain, and monotonicity gives
every midpoint beyond them its sign.  ``sample_trajectory`` inverts the
quadrature time map t(u) by Newton steps; the first integrates each
node's partial panel, and each later one only its own increment.

phi'' and theta' have one formula each, ``_phi_ddot`` and ``_theta_dot``,
on cos(phi) and sin(phi); no flow is stepped here, and only the
boundary-form ODE of ``edwards`` carries (phi, phi') along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .quadrature import TOL, adaptive_gauss

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2
EIGHT_PI4 = 8.0 * math.pi ** 4

# Limits of T(b) and Xi(b) as b -> 0- (the Clifford degeneration).
CLIFFORD_HALF_PERIOD = math.sqrt(2.0) * math.pi ** 2
CLIFFORD_ROTATION = math.sqrt(2.0) * math.pi / 2.0

ROTATION_LO = 0.5
ROTATION_HI = math.sqrt(2.0) / 2.0

DRIFT_TOL = 1e-8        # largest energy drift of a sampled trajectory

# |Xi - p pi / q| beyond which a quadrature's sign is certain, and the most
# secant steps that look for such points
_SIGN_MARGIN = 10.0 * TOL
_SECANT_STEPS = 8

# The sampler's table of the time map t(u) on [-pi/2, pi/2]: panels, and the
# Gauss-Legendre order on each whole or partial panel
_MAP_PANELS = 128
_MAP_ORDER = 6
_NEWTON_TOL = 1e-12     # |du| at which the inversion of t(u) stops
_NEWTON_STEPS = 6
_INCREMENT_STEP = 1e-4  # largest |du| whose increment Simpson's rule takes
_map_nodes, _map_weights = np.polynomial.legendre.leggauss(_MAP_ORDER)


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


def _regular_factors(u: np.ndarray, b: float):
    # Substitution phi = -b sin u removes the inverse-square-root endpoint
    # singularity of the period integrals.  With w = pi/4 + u/2,
    # cos^2(phi) - cos^2(b) = sin(2b sin^2 w) sin(2b cos^2 w), and its root
    # cancels the Jacobian -b cos u in closed form: the kernel is
    # 1 / sqrt(sinc(2b sin^2 w) sinc(2b cos^2 w) quart), with no 1 - sin u
    # to lose digits near u = +-pi/2.  It stays finite there and runs on
    # smoothly past them, where the sampler evaluates it.  Returns (phi,
    # cos phi, kernel): the rates below take cos phi as computed here.  The
    # sincs come first, so their temporaries meet fewer live arrays.
    w = 0.25 * math.pi + 0.5 * u
    x = 2.0 * b / math.pi  # np.sinc(y) is sin(pi y) / (pi y)
    sincs = np.sinc(x * np.sin(w) ** 2) * np.sinc(x * np.cos(w) ** 2)
    phi = -b * np.sin(u)
    cphi = np.cos(phi)
    quart = cphi ** 2 + math.cos(b) ** 2
    return phi, cphi, 1.0 / np.sqrt(sincs * quart)


def _time_rate(cphi, kernel):
    """dt/du along phi = -b sin u, at cos phi."""
    return TWO_PI * cphi ** 3 * kernel


def _angle_rate(cphi, kernel, b: float):
    """dtheta/du along phi = -b sin u, at cos phi."""
    return math.cos(b) ** 2 * kernel / cphi


def half_period(b: float) -> float:
    """Half period T(b) of the latitude oscillation, in arc-length units."""
    _check_b(b)
    return adaptive_gauss(lambda u: _time_rate(*_regular_factors(u, b)[1:]),
                          -math.pi / 2, math.pi / 2)


def rotation_angle(b: float) -> float:
    """Rotation angle Xi(b) = theta(T(b)); strictly increasing in b."""
    _check_b(b)
    return adaptive_gauss(
        lambda u: _angle_rate(*_regular_factors(u, b)[1:], b),
        -math.pi / 2, math.pi / 2)


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
    def from_b(cls, b: float, Xi: Optional[float] = None) -> "GeodesicFamily":
        """The family launched from b; ``Xi``, when given, is
        ``rotation_angle(b)`` already integrated."""
        if b == 0.0:
            return cls.clifford()
        _check_b(b)
        return cls(b=b, c=TWO_PI * math.cos(b) ** 2, T=half_period(b),
                   Xi=rotation_angle(b) if Xi is None else Xi)

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


def _certified_bracket(xi, target: float, lo: float, hi: float):
    """(below, above) in [lo, hi], with Xi(below) < target < Xi(above)
    by more than ``_SIGN_MARGIN`` unless they are lo or hi, found by
    safeguarded secant steps on Xi - target.

    Xi is strictly increasing and each quadrature is good to well below
    the margin, so Xi < target at every b <= below and Xi > target at
    every b >= above: the bisection reads those signs off without
    integrating.  lo and hi, whatever their margin, bound every midpoint
    anyway.  Each step lands just past the secant root, by twice the
    margin, on the side whose bound lies farther from it; the steps stop
    once the bounds are at most eight such offsets apart, where one more
    step could not halve the bracket, or after ``_SECANT_STEPS``.
    """
    # Xi is even in b, so steps in b^2 see it linear near b = 0
    s0, f0 = lo * lo, xi(lo) - target
    s1, f1 = hi * hi, xi(hi) - target
    for _ in range(_SECANT_STEPS):
        x = 0.5 * (lo + hi)
        slope = (f1 - f0) / (s1 - s0)       # d(Xi)/d(b^2) < 0
        root = -math.sqrt(max(s1 - f1 / slope, 0.0)) if slope < 0.0 else hi
        if lo < root < hi:
            offset = _SIGN_MARGIN / (slope * root)  # 2 margin / (dXi/db)
            if hi - lo <= 8.0 * offset:
                break
            guess = root - offset if root - lo > hi - root else root + offset
            if lo < guess < hi:
                x = guess
        if x * x == s1:     # a point already integrated tells nothing new
            break
        fx = xi(x) - target
        if fx < -_SIGN_MARGIN:
            lo = x
        elif fx > _SIGN_MARGIN:
            hi = x
        s0, f0, s1, f1 = s1, f1, x * x, fx
    return lo, hi


def solve_parameter(p: int, q: int) -> GeodesicFamily:
    """Find the family with Xi(b) = (p/q) pi.

    Xi is strictly increasing, so bisection finds the root to the float
    resolution of b.  A few secant steps first bound the root by points
    where the sign of Xi - p pi / q is certain; the bisection integrates
    only its midpoints between them and takes the sign of every other one
    from monotonicity.  It therefore takes the same path, and ends on the
    same b, as a bisection that integrates every midpoint.  Xi is the
    bisection's own quadrature at b, and T the quadrature of the half
    period there.  T, Xi and the samples (``sample_trajectory``)
    integrate one kernel, so the samples turn at T and theta(T) = p pi / q
    holds for them too: the reflected trajectory is junction-smooth.
    """
    if not isinstance(p, int) or not isinstance(q, int):
        raise ValidationError("p and q must be integers")
    # validates gcd and the admissible interval before any quadrature
    rotation = RotationNumber(p, q)
    target = p * math.pi / q
    known = {}      # Xi at each b integrated so far

    def xi(b: float) -> float:
        if b not in known:
            known[b] = rotation_angle(b)
        return known[b]

    # the rotation angle approaches its polar limit only as b -> -pi/2, so
    # walk the lower bracket end toward the pole just as far as needed
    hi = -1e-8
    fhi = xi(hi) - target
    delta = math.pi / 2 - 1.0
    lo = -1.0
    while xi(lo) - target > 0:
        delta /= 2.0
        if delta < 5e-4:
            raise NumericalError(
                "failed to bracket the rotation-angle root; p/q too close to 1/2")
        lo = -math.pi / 2 + delta
    if fhi < 0:
        raise NumericalError("failed to bracket the rotation-angle root")
    below, above = _certified_bracket(xi, target, lo, hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and xi(mid) - target < 0):
            lo = mid
        else:
            hi = mid
    b = lo if abs(xi(lo) - target) <= abs(xi(hi) - target) else hi
    return replace(GeodesicFamily.from_b(b, Xi=xi(b)), rotation=rotation)


def _phi_ddot(c: float, cphi, sphi, phid):
    """phi'' on the geodesic of momentum c at (cos phi, sin phi, phi')."""
    return (sphi / cphi) * phid * phid \
        - c * c * sphi / (EIGHT_PI4 * cphi ** 7)


def _theta_dot(c: float, cphi):
    return c / (FOUR_PI2 * cphi ** 4)


@dataclass(frozen=True)
class Trajectory:
    """Samples of (phi, phidot, theta) on a uniform grid over [0, T]."""

    family: GeodesicFamily
    grid: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    theta: np.ndarray
    _padded: tuple = field(default=None, repr=False, compare=False)
    # the samples of each time array already evaluated, by its bytes
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    # what ``derived`` computed from them, by function and time bytes
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def n(self) -> int:
        return len(self.grid) - 1

    def __post_init__(self):
        n = self.n
        h = self.family.T / n
        # the half-period shift of theta: p pi / q makes the full-length
        # wrap exact for closed families (the solver's root has Xi equal
        # to it); otherwise the sampled theta(T) keeps the junctions smooth
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
        any finite t.  For an array t the three arrays returned are read-only,
        on the first call too: they are kept on the trajectory, keyed on
        the bytes of t, so a repeated array costs a lookup.  Copy them to
        modify them.
        """
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        key = t_arr.shape, t_arr.tobytes()
        if not scalar and key in self._samples:
            return self._samples[key]
        # NaN fails every comparison; a family without a rotation number
        # takes every finite time
        t0 = math.inf if self.family.rotation is None else self.family.t0
        if not np.all(np.isfinite(t_arr) & (t_arr >= -1e-9 * t0)
                      & (t_arr < t0 * (1 + 1e-12) + 1e-9)):
            raise DomainError("time not finite or outside [0, t0)")
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
        if scalar:
            return float(phi[0]), float(phid[0]), float(theta[0])
        for arr in (phi, phid, theta):
            arr.flags.writeable = False
        self._samples[key] = phi, phid, theta
        return phi, phid, theta

    def derived(self, fn, t) -> np.ndarray:
        """``fn(self, t)`` for the time array t, kept on the trajectory as
        ``at`` keeps its samples: keyed on fn and the bytes of t, and
        read-only on the first call too.  So the systems of one mesh
        share what each would compute alike from the same samples."""
        t = np.asarray(t, dtype=float)
        key = fn, t.shape, t.tobytes()
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = fn(self, t)
            value.flags.writeable = False
        return value

    def __reduce__(self):
        # the samples alone, whose grid is that of every trajectory: where
        # unpickled (the helper process) they are padded again, and what is
        # derived from them is kept afresh
        return _sampled, (self.family, self.phi, self.phidot, self.theta)

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


def _grid(family: GeodesicFamily, n: int) -> np.ndarray:
    """The n + 1 evenly spaced nodes of [0, T] that a trajectory samples."""
    return np.linspace(0.0, family.T, n + 1)


def _sampled(family: GeodesicFamily, phi, phidot, theta) -> Trajectory:
    """The trajectory of the samples phi, phidot and theta at the nodes of
    ``_grid``."""
    return Trajectory(family=family, grid=_grid(family, len(phi) - 1),
                      phi=phi, phidot=phidot, theta=theta)


def _time_map(b: float, lo: np.ndarray, u: np.ndarray):
    """t(u) - t(lo) and theta(u) - theta(lo) along phi = -b sin u, by one
    Gauss-Legendre rule on each [lo, u]."""
    half = 0.5 * (u - lo)
    x = (lo + half)[:, None] + half[:, None] * _map_nodes
    cphi, kernel = _regular_factors(x, b)[1:]
    return (_time_rate(cphi, kernel) @ _map_weights * half,
            _angle_rate(cphi, kernel, b) @ _map_weights * half)


def _rates(u: np.ndarray, b: float):
    """(dt/du, dtheta/du) at u."""
    cphi, kernel = _regular_factors(u, b)[1:]
    return _time_rate(cphi, kernel), _angle_rate(cphi, kernel, b)


def sample_trajectory(family: GeodesicFamily, n: int) -> Trajectory:
    """Sample the geodesic over one half period on an (n+1)-node grid,
    64 <= n <= 2**20: a finer grid would exhaust memory.

    No time stepping: phi = -b sin u, and each grid time t_i is mapped to
    its u_i by inverting the quadrature time map t(u) (the integrand of
    T(b)).  A table of panel integrals gives a cubic Hermite first guess,
    Newton steps on the partial-panel integral finish it: the first
    integrates the partial panel by the table's rule, each later one,
    whose move is at most ``_INCREMENT_STEP``, adds Simpson's rule over
    that move (error O(du^5), below rounding), so a node costs about 10
    kernel points instead of 15.  theta comes from the same partial sums.
    The kernel is the one T(b) and Xi(b)
    integrate, so the last node lands on u = pi/2, where phidot = 0 and
    theta = Xi, and the reflected trajectory stays smooth at the
    half-period junctions.
    """
    if n < 64:
        raise ValidationError(f"need n >= 64 grid intervals, got {n}")
    if n > 2**20:
        raise ValidationError(f"mesh too large: n = {n} > 2**20")
    grid = _grid(family, n)
    if family.b == 0.0:
        phi = np.zeros(n + 1)
        phid = np.zeros(n + 1)
        theta = grid / TWO_PI
        return Trajectory(family=family, grid=grid, phi=phi,
                          phidot=phid, theta=theta)

    b = family.b
    edges = np.linspace(-math.pi / 2, math.pi / 2, _MAP_PANELS + 1)
    dt, dth = _time_map(b, edges[:-1], edges[1:])
    t_edge = np.concatenate(([0.0], np.cumsum(dt)))
    th_edge = np.concatenate(([0.0], np.cumsum(dth)))
    slope = 1.0 / _time_rate(*_regular_factors(edges, b)[1:])  # du/dt

    # first guess: the cubic Hermite inverse of t(u) on each node's panel
    k = np.clip(np.searchsorted(t_edge, grid, side="right") - 1,
                0, _MAP_PANELS - 1)
    lo, t_lo = edges[k], t_edge[k]
    span = t_edge[k + 1] - t_lo
    z = (grid - t_lo) / span
    u = (lo * (1.0 + 2.0 * z) * (1.0 - z) ** 2
         + edges[k + 1] * z * z * (3.0 - 2.0 * z)
         + span * z * (1.0 - z) * (slope[k] * (1.0 - z) - slope[k + 1] * z))
    # the first Newton step integrates each node's partial panel [lo, u];
    # after a move of at most _INCREMENT_STEP the partial sums take only
    # the increment, by Simpson's rule on the rates at its ends, which the
    # Newton steps read anyway, and at its midpoint
    t_part, th_part = _time_map(b, lo, u)
    rate, arate = _rates(u, b)
    for _ in range(_NEWTON_STEPS):
        du = (grid - t_lo - t_part) / rate
        u = u + du
        step = float(np.abs(du).max())
        if step < _NEWTON_TOL:
            break
        if step <= _INCREMENT_STEP:
            mid_rate, mid_arate = _rates(u - 0.5 * du, b)
            next_rate, next_arate = _rates(u, b)
            t_part += du / 6.0 * (rate + 4.0 * mid_rate + next_rate)
            th_part += du / 6.0 * (arate + 4.0 * mid_arate + next_arate)
            rate, arate = next_rate, next_arate
        else:
            t_part, th_part = _time_map(b, lo, u)
            rate, arate = _rates(u, b)
    else:
        raise NumericalError(
            f"time-map inversion stalled at |du| = {step:.3e}", residual=step)
    theta = th_edge[k] + th_part + arate * du
    phi, cphi, kernel = _regular_factors(u, b)
    phid = -b * np.cos(u) / _time_rate(cphi, kernel)
    phi[0], phid[0], theta[0] = b, 0.0, 0.0

    traj = Trajectory(family=family, grid=grid, phi=phi,
                      phidot=phid, theta=theta)
    drift = traj.conservation_drift()
    if drift > DRIFT_TOL:
        raise NumericalError(
            f"energy conservation drifted to {drift:.3e}", residual=drift)
    return traj
