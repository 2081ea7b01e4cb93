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
for p; every reader of either calls them.  On a grid Q_l is sampled by
``separated_coefficients``, whose (m, 3) rows (Q11, Q12, Q22) are the
layout of ``SLSystem`` potentials: the builders of the mode-l and mode-0
systems sample Q_l through it, and p, which the discretization reads
only at the half nodes, through ``_weight``.  Only ``kernel_residual``,
which needs p' from the same sample of (phi, phi'), calls ``_q_entries``
on a grid itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geodesic import FOUR_PI2, TWO_PI, Trajectory
from .sl import BoundaryCondition, SLSystem


def _theta_dot(c: float, phi):
    return c / (FOUR_PI2 * np.cos(phi) ** 4)


def _weight(phi):
    """The weight p = 4 pi^2 cos^2(phi) of the separated systems."""
    return FOUR_PI2 * np.cos(phi) ** 2


def _weight_prime(phi, phid):
    """Exact derivative of the weight, p'(t) = -8 pi^2 cos(phi) sin(phi) phi'."""
    return -8.0 * math.pi ** 2 * np.cos(phi) * np.sin(phi) * phid


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
    thd = _theta_dot(traj.family.c, phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cp, sp = math.cos(phi), math.sin(phi)
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


def _weingarten(c: float, phi):
    """Diagonal entries (a11, a22) of the squared-shape operator in the
    normal frame, at latitude phi on the geodesic of momentum c."""
    a11 = 8.0 * math.pi ** 2 * np.cos(phi) ** 2 * _theta_dot(c, phi) ** 2
    return a11, np.sin(phi) ** 2 * a11


# ---------------------------------------------------------------------------
# separated coefficient data

def _q_entries(l: int, c: float, phi, phid):
    """(Q11, Q12, Q22) of mode l at latitude phi and velocity phid: the one
    formula for the potential Q_l, as ``_weight`` is the one for p."""
    cphi = np.cos(phi)
    base = l * l / cphi ** 2 + FOUR_PI2 * phid ** 2 - 2.0
    a11, a22 = _weingarten(c, phi)
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
    return np.stack(_q_entries(l, traj.family.c, phi, phid), axis=1)


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
    one separated profile), so the list has nine entries spanning l = 0,
    1, 2.
    """
    if traj.family.rotation is None:
        raise ValidationError("kernel fields need a closed geodesic (p/q known)")
    grid = full_period_grid(traj)
    phi, phid, theta = traj.at(grid)
    c = traj.family.c
    cphi, sphi = np.cos(phi), np.sin(phi)
    thd = _theta_dot(c, phi)
    zero = np.zeros_like(phi)

    w2 = TWO_PI * cphi ** 2 * phid
    pair1_h2 = TWO_PI * cphi * (sphi * np.cos(theta) * phid
                                + np.sin(theta) * cphi * thd)
    pair2_h2 = TWO_PI * cphi * (sphi * np.sin(theta) * phid
                                - np.cos(theta) * cphi * thd)

    entries = [
        (1, 0, cphi * np.sin(2 * theta), zero, "cos(phi) sin(2 theta) in channel 1"),
        (2, 0, cphi * np.cos(2 * theta), zero, "cos(phi) cos(2 theta) in channel 1"),
        (3, 0, zero, w2, "2 pi cos^2(phi) phi' in channel 2"),
        (4, 1, sphi * np.cos(theta), pair1_h2, "sin(phi) cos(theta) pair, sine phase"),
        (5, 1, sphi * np.cos(theta), pair1_h2, "sin(phi) cos(theta) pair, cosine phase"),
        (6, 1, sphi * np.sin(theta), pair2_h2, "sin(phi) sin(theta) pair, sine phase"),
        (7, 1, sphi * np.sin(theta), pair2_h2, "sin(phi) sin(theta) pair, cosine phase"),
        (8, 2, cphi, w2, "cos(phi) pair, sine phase"),
        (9, 2, cphi, w2, "cos(phi) pair, cosine phase"),
    ]
    return [KernelField(id=i, l=l, grid=grid, h1=h1, h2=h2, description=d)
            for (i, l, h1, h2, d) in entries]


def kernel_residual(field: KernelField, traj: Trajectory) -> float:
    """Max residual of the field's separated system at lambda = 0, by
    4th-order periodic stencils on ``field.grid``.

    One sample of (phi, phi') on the grid gives p (``_weight``), Q_l
    (``_q_entries``) and p' (``_weight_prime``).  The residual is
    normalized by the largest coefficient magnitude times the field
    amplitude, so it is scale free.
    """
    grid = field.grid
    h = grid[1] - grid[0]
    phi, phid, _ = traj.at(grid)
    p = _weight(phi)
    q11, q12, q22 = _q_entries(field.l, traj.family.c, phi, phid)
    pd = _weight_prime(phi, phid)

    def d1(f):
        return (-np.roll(f, -2) + 8 * np.roll(f, -1)
                - 8 * np.roll(f, 1) + np.roll(f, 2)) / (12 * h)

    def d2(f):
        return (-np.roll(f, -2) + 16 * np.roll(f, -1) - 30 * f
                + 16 * np.roll(f, 1) - np.roll(f, 2)) / (12 * h * h)

    h1, h2 = field.h1, field.h2
    r1 = -p * d2(h1) - pd * d1(h1) + q11 * h1 + q12 * h2
    r2 = -p * d2(h2) - pd * d1(h2) + q12 * h1 + q22 * h2
    amp = max(np.abs(h1).max(), np.abs(h2).max())
    scale = max(p.max(), np.abs((q11, q12, q22)).max()) * max(amp, 1e-30)
    return float(max(np.abs(r1).max(), np.abs(r2).max()) / scale)


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
        return _weight(traj.at(t)[0])

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
