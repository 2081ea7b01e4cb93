"""Geometry of the minimal torus swept out by a closed geodesic.

The immersion doubles the angle coordinate of the geodesic sphere into a
5-space torus; an adapted orthonormal frame (position, two tangents, two
normals) turns the second variation of area into a family of 2x2
Sturm-Liouville systems indexed by the Fourier mode l of the frame angle
alpha.  This module evaluates the immersion and frame, the separated
coefficient data p(t), Q_l(t), the nine normal projections of ambient
rotation generators (exact zero modes), and builds the spectral systems
consumed by the solvers.

``_q_entries`` is the one formula for Q_l and ``_weight`` the one formula
for p; every reader of either calls them.  These formula homes, and
``_weight_prime``, ``_weingarten`` and ``geodesic._theta_dot`` beneath
them, take cos(phi) and sin(phi) rather than phi: the caller takes each
once, and one formula serves numpy grids and the Python floats of the
boundary-form ODE alike.  On a grid Q_l is sampled by
``separated_coefficients``, whose (m, 3) rows (Q11, Q12, Q22) are the
layout of ``SLSystem`` potentials: the builders of the mode-l and mode-0
systems sample Q_l through it, and p, which the discretization reads
only at the half nodes, through ``_weight``.  Only ``kernel_residuals``,
which needs p' from the same sample of (phi, phi'), calls ``_q_entries``
on a grid itself.  It computes the residual row of ``otsuki verify``:
one sample of the full-period grid, Q_l once per mode, and one residual
per distinct separated profile, six for the nine kernel fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geodesic import FOUR_PI2, TWO_PI, Trajectory, _theta_dot
from .sl import BoundaryCondition, SLSystem


def _weight(cphi):
    """The weight p = 4 pi^2 cos^2(phi) of the separated systems."""
    return FOUR_PI2 * cphi ** 2


def _weight_prime(cphi, sphi, phid):
    """Exact derivative of the weight, p'(t) = -8 pi^2 cos(phi) sin(phi) phi'."""
    return -8.0 * math.pi ** 2 * cphi * sphi * phid


@dataclass(frozen=True)
class FramePoint:
    N: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    def gram(self) -> np.ndarray:
        B = np.stack([self.N, self.e1, self.e2, self.n1, self.n2])
        return B @ B.T


def frame(alpha: float, t: float, traj: Trajectory) -> FramePoint:
    """Adapted orthonormal basis (N, e1, e2, n1, n2) of 5-space; N is the
    unit 5-vector of the torus at frame angle alpha and arc time t."""
    phi, phid, theta = traj.at(t)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cp, sp = math.cos(phi), math.sin(phi)
    thd = _theta_dot(traj.family.c, cp)
    st, ct = math.sin(theta), math.cos(theta)

    N = np.array([ca * cp * st, sa * cp * st, ca * cp * ct, sa * cp * ct, sp])
    e1 = np.array([-sa * st, ca * st, -sa * ct, ca * ct, 0.0])
    u = -sp * st * phid + cp * ct * thd
    v = -sp * ct * phid - cp * st * thd
    e2 = TWO_PI * cp * np.array([ca * u, sa * u, ca * v, sa * v, cp * phid])
    n1 = np.array([sa * ct, -ca * ct, -sa * st, ca * st, 0.0])
    a = ct * phid + st * sp * cp * thd
    bb = st * phid - ct * sp * cp * thd
    n2 = TWO_PI * cp * np.array([-ca * a, -sa * a, ca * bb, sa * bb, cp * cp * thd])
    return FramePoint(N=N, e1=e1, e2=e2, n1=n1, n2=n2)


def _weingarten(c: float, cphi, sphi):
    """Diagonal entries (a11, a22) of the squared-shape operator in the
    normal frame, at latitude phi on the geodesic of momentum c."""
    a11 = 8.0 * math.pi ** 2 * cphi ** 2 * _theta_dot(c, cphi) ** 2
    return a11, sphi ** 2 * a11


# ---------------------------------------------------------------------------
# separated coefficient data

def _q_entries(l: int, c: float, cphi, sphi, phid):
    """(Q11, Q12, Q22) of mode l at latitude phi, given as cos(phi) and
    sin(phi), and velocity phid: the one formula for the potential Q_l, as
    ``_weight`` is the one for p."""
    base = l * l / cphi ** 2 + FOUR_PI2 * phid ** 2 - 2.0
    a11, a22 = _weingarten(c, cphi, sphi)
    q11 = base - a11
    q22 = base - a22
    q12 = -4.0 * math.pi * l * phid / cphi
    return q11, q12, q22


def separated_coefficients(l: int, traj: Trajectory,
                           grid: np.ndarray | None = None) -> np.ndarray:
    """The (m, 3) rows (Q11, Q12, Q22) of Q_l of mode l at ``grid``
    (default: the trajectory nodes)."""
    if l < 0:
        raise ValidationError("Fourier index l must be nonnegative")
    if grid is None:
        grid = traj.grid
    phi, phid, _ = traj.at(grid)
    return np.stack(_q_entries(l, traj.family.c, np.cos(phi), np.sin(phi),
                               phid), axis=1)


# ---------------------------------------------------------------------------
# kernel fields (normal projections of the ambient rotation generators)

@dataclass(frozen=True)
class KernelField:
    id: int
    l: int
    grid: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    description: str


def full_period_grid(traj: Trajectory) -> np.ndarray:
    """Uniform grid over [0, t0) whose nodes fold exactly onto trajectory nodes."""
    q = traj.family.rotation.q
    n = traj.n
    return np.arange(2 * q * n) * (traj.family.T / n)


def kernel_fields(traj: Trajectory) -> list[KernelField]:
    """The nine exact zero modes, reduced to separated (h1, h2, l) form.

    Fields that depend on alpha appear twice (cosine and sine phases share
    one separated profile, the same h1 and h2 arrays), so the list has
    nine entries spanning l = 0, 1, 2.
    """
    if traj.family.rotation is None:
        raise ValidationError("kernel fields need a closed geodesic (p/q known)")
    grid = full_period_grid(traj)
    phi, phid, theta = traj.at(grid)
    c = traj.family.c
    cphi, sphi = np.cos(phi), np.sin(phi)
    ctheta, stheta = np.cos(theta), np.sin(theta)
    thd = _theta_dot(c, cphi)
    zero = np.zeros_like(phi)

    w2 = TWO_PI * cphi ** 2 * phid
    sc, ss = sphi * ctheta, sphi * stheta
    pair1 = sc, TWO_PI * cphi * (sc * phid + stheta * cphi * thd)
    pair2 = ss, TWO_PI * cphi * (ss * phid - ctheta * cphi * thd)

    entries = [
        (1, 0, cphi * np.sin(2 * theta), zero, "cos(phi) sin(2 theta) in channel 1"),
        (2, 0, cphi * np.cos(2 * theta), zero, "cos(phi) cos(2 theta) in channel 1"),
        (3, 0, zero, w2, "2 pi cos^2(phi) phi' in channel 2"),
        (4, 1, *pair1, "sin(phi) cos(theta) pair, sine phase"),
        (5, 1, *pair1, "sin(phi) cos(theta) pair, cosine phase"),
        (6, 1, *pair2, "sin(phi) sin(theta) pair, sine phase"),
        (7, 1, *pair2, "sin(phi) sin(theta) pair, cosine phase"),
        (8, 2, cphi, w2, "cos(phi) pair, sine phase"),
        (9, 2, cphi, w2, "cos(phi) pair, cosine phase"),
    ]
    return [KernelField(id=i, l=l, grid=grid, h1=h1, h2=h2, description=d)
            for (i, l, h1, h2, d) in entries]


def _residual(h1, h2, p, pd, q, coeff_max, h) -> float:
    """Max residual of the profile (h1, h2) in the system of weight p,
    weight derivative pd and potential rows q = (Q11, Q12, Q22) at
    lambda = 0, by 4th-order periodic stencils of step h, over coeff_max
    (the largest of p and |Q|) times the profile's amplitude."""
    def d1(f):
        return (-np.roll(f, -2) + 8 * np.roll(f, -1)
                - 8 * np.roll(f, 1) + np.roll(f, 2)) / (12 * h)

    def d2(f):
        return (-np.roll(f, -2) + 16 * np.roll(f, -1) - 30 * f
                + 16 * np.roll(f, 1) - np.roll(f, 2)) / (12 * h * h)

    q11, q12, q22 = q
    r1 = -p * d2(h1) - pd * d1(h1) + q11 * h1 + q12 * h2
    r2 = -p * d2(h2) - pd * d1(h2) + q12 * h1 + q22 * h2
    amp = max(np.abs(h1).max(), np.abs(h2).max())
    scale = coeff_max * max(amp, 1e-30)
    return float(max(np.abs(r1).max(), np.abs(r2).max()) / scale)


def kernel_residuals(fields: list[KernelField], traj: Trajectory) -> list[float]:
    """The max residual of each field's separated system at lambda = 0,
    by 4th-order periodic stencils on the fields' one grid; the residual
    is normalized by the largest coefficient magnitude times the field
    amplitude, so it is scale free.

    One sample of (phi, phi') on the grid gives p (``_weight``) and p'
    (``_weight_prime``) for every field, and Q_l (``_q_entries``) for
    every field of mode l, one mode at a time.  Fields of one mode that
    share their h1 and h2 arrays (the two phases of a pair in
    ``kernel_fields``) share one residual.
    """
    grid = fields[0].grid
    if any(f.grid is not grid for f in fields):
        raise ValidationError("a residual row needs fields on one grid")
    h = grid[1] - grid[0]
    phi, phid, _ = traj.at(grid)
    cphi, sphi = np.cos(phi), np.sin(phi)
    p = _weight(cphi)
    pd = _weight_prime(cphi, sphi, phid)
    p_max = p.max()
    residuals = {}
    for l in sorted({f.l for f in fields}):
        q = _q_entries(l, traj.family.c, cphi, sphi, phid)
        coeff_max = max(p_max, max(np.abs(v).max() for v in q))
        for f in fields:
            key = f.l, id(f.h1), id(f.h2)
            if f.l == l and key not in residuals:
                residuals[key] = _residual(f.h1, f.h2, p, pd, q, coeff_max, h)
    return [residuals[f.l, id(f.h1), id(f.h2)] for f in fields]


# ---------------------------------------------------------------------------
# spectral system builders

def _interval_length(traj: Trajectory, interval: str) -> float:
    T = traj.family.T
    if interval == "T":
        return T
    if traj.family.rotation is None:
        raise ValidationError(f"interval {interval!r} needs a closed geodesic")
    if interval == "t0":
        return traj.family.t0
    raise ValidationError(f"unknown interval {interval!r}")


def _system(dim: int, l: int, traj: Trajectory, interval: str,
            bc: BoundaryCondition, potential) -> SLSystem:
    """The system of mode l whose weight is p along the trajectory and
    whose potential at the times t is ``potential(t)``."""
    def weight(t):
        return _weight(np.cos(traj.at(t)[0]))

    return SLSystem(dim=dim, length=_interval_length(traj, interval), bc=bc,
                    weight=weight, potential=potential, l=l)


def fourier_block_system(l: int, traj: Trajectory, interval: str,
                         bc: BoundaryCondition) -> SLSystem:
    """The coupled 2x2 system of Fourier mode l on the requested interval."""
    if l < 1:
        raise ValidationError("the coupled block needs l >= 1; l = 0 decouples")
    return _system(2, l, traj, interval, bc,
                   lambda t: separated_coefficients(l, traj, t))


def l0_channel_system(channel: int, traj: Trajectory, interval: str,
                      bc: BoundaryCondition) -> SLSystem:
    """One of the two decoupled scalar problems at l = 0."""
    if channel not in (1, 2):
        raise ValidationError("channel must be 1 or 2")
    column = 2 * channel - 2
    return _system(1, 0, traj, interval, bc,
                   lambda t: separated_coefficients(0, traj, t)[:, column])


def laplace_system(l: int, traj: Trajectory, interval: str,
                   bc: BoundaryCondition) -> SLSystem:
    """Scalar problem of the Laplace operator at Fourier mode l."""
    if l < 0:
        raise ValidationError("Fourier index l must be nonnegative")
    return _system(1, l, traj, interval, bc,
                   lambda t: l * l / np.cos(traj.at(t)[0]) ** 2)
