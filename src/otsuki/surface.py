"""Geometry of the minimal torus swept out by a closed geodesic.

The immersion doubles the angle coordinate of the geodesic sphere into a
5-space torus; an adapted orthonormal frame (position, two tangents, two
normals) turns the second variation of area into a family of 2x2
Sturm-Liouville systems indexed by the Fourier mode l of the frame angle
alpha.  This module evaluates the immersion and frame, the separated
coefficient data p(t), Q_l(t), the nine normal projections of ambient
rotation generators (exact zero modes), and builds the spectral systems
on the half period [0, T] that the solvers consume.

``_q_entries`` is the one formula for Q_l and ``_weight`` the one formula
for p; every reader of either calls them.  These formula homes, and
``_weight_prime``, ``_weingarten`` and ``geodesic._theta_dot`` beneath
them, take cos(phi) and sin(phi) rather than phi: the caller takes each
once.  On a grid Q_l is sampled by ``separated_coefficients``, whose
(m, 3) rows (Q11, Q12, Q22) are the layout of ``SLSystem`` potentials:
the builders of the mode-l and mode-0 systems sample Q_l through it, and
p, which the discretization reads only at the half nodes, through
``_weight``.  What several systems of one mesh read alike, p at the half
nodes and the rows of Q_0 of the two mode-0 channels, is computed once
per trajectory and mesh (``Trajectory.derived``).  Two readers call
``_q_entries`` on arrays themselves: ``edwards._coefficients``, on
points of the time-map variable u, and ``kernel_residuals``, which
needs p' from the same samples of (phi, phi').  The latter computes the
residual row of ``otsuki verify`` on the nodes of [0, T), whatever q:
Q_l once per mode, and one residual per twisted profile, four for the
nine kernel fields.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geodesic import FOUR_PI2, TWO_PI, Trajectory, _theta_dot
from .sl import BoundaryCondition, SLSystem

_EIGHT_PI2 = 8.0 * math.pi ** 2
_FOUR_PI = 4.0 * math.pi


def _weight(cphi):
    """The weight p = 4 pi^2 cos^2(phi) of the separated systems."""
    return FOUR_PI2 * cphi ** 2


def _weight_prime(cphi, sphi, phid):
    """Exact derivative of the weight, p'(t) = -8 pi^2 cos(phi) sin(phi) phi'."""
    return -_EIGHT_PI2 * cphi * sphi * phid


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


def frame(alpha: float, t: float, traj: Trajectory,
          sample=None) -> FramePoint:
    """Adapted orthonormal basis (N, e1, e2, n1, n2) of 5-space; N is the
    unit 5-vector of the torus at frame angle alpha and arc time t.
    ``sample``, when given, is ``traj.at(t)`` already read."""
    phi, phid, theta = traj.at(t) if sample is None else sample
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
    a11 = _EIGHT_PI2 * cphi ** 2 * _theta_dot(c, cphi) ** 2
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
    q12 = -_FOUR_PI * l * phid / cphi
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
    """A zero mode: the real (or, with ``imag``, imaginary) part of the
    profile (h1, h2) on the trajectory nodes of [0, T), continued by
    h_k(t + T) = multiplier[k] h_k(t) in each channel k."""
    id: int
    l: int
    h1: np.ndarray
    h2: np.ndarray
    multiplier: tuple
    imag: bool
    description: str


def kernel_fields(traj: Trajectory) -> list[KernelField]:
    """The nine exact zero modes, reduced to separated (h1, h2, l) form.

    As phi(t + T) = -phi(t) and theta(t + T) = theta(t) + p pi / q, each is
    the real or imaginary part of one of four twisted profiles on [0, T);
    fields that depend on alpha appear twice (cosine and sine phases), so
    the list has nine entries spanning l = 0, 1, 2.
    """
    rot = traj.family.rotation
    if rot is None:
        raise ValidationError("kernel fields need a closed geodesic (p/q known)")
    n = traj.n
    phid = traj.phidot[:n]
    cphi, sphi = np.cos(traj.phi[:n]), np.sin(traj.phi[:n])
    turn = np.exp(1j * traj.theta[:n])
    twist = cmath.exp(1j * math.pi * rot.p / rot.q)
    thd = _theta_dot(traj.family.c, cphi)

    w2 = TWO_PI * cphi ** 2 * phid
    doubled = cphi * turn ** 2, np.zeros(n), (twist ** 2, twist ** 2)
    radial = np.zeros(n), w2, (-1.0, -1.0)
    pair = (sphi * turn, TWO_PI * cphi * turn * (sphi * phid - 1j * cphi * thd),
            (-twist, twist))
    cosine = cphi, w2, (1.0, -1.0)

    entries = [
        (1, 0, doubled, True, "cos(phi) sin(2 theta) in channel 1"),
        (2, 0, doubled, False, "cos(phi) cos(2 theta) in channel 1"),
        (3, 0, radial, False, "2 pi cos^2(phi) phi' in channel 2"),
        (4, 1, pair, False, "sin(phi) cos(theta) pair, sine phase"),
        (5, 1, pair, False, "sin(phi) cos(theta) pair, cosine phase"),
        (6, 1, pair, True, "sin(phi) sin(theta) pair, sine phase"),
        (7, 1, pair, True, "sin(phi) sin(theta) pair, cosine phase"),
        (8, 2, cosine, False, "cos(phi) pair, sine phase"),
        (9, 2, cosine, False, "cos(phi) pair, cosine phase"),
    ]
    return [KernelField(id=i, l=l, h1=h1, h2=h2, multiplier=w, imag=imag,
                        description=d)
            for (i, l, (h1, h2, w), imag, d) in entries]


def _residual(h1, h2, multiplier, p, pd, q, coeff_max, h) -> float:
    """Max residual of the profile (h1, h2) in the system of weight p,
    weight derivative pd and potential rows q = (Q11, Q12, Q22) at
    lambda = 0, by 4th-order stencils of step h over coeff_max (the
    largest of p and |Q|) times the profile's amplitude.  Two ghost nodes
    at each end carry each channel's multiplier w: w f_0 and w f_1 past
    the end, conj(w) f_{n-1} and conj(w) f_{n-2} before the start."""
    q11, q12, q22 = q
    worst = 0.0
    for f, w, coupling in ((h1, multiplier[0], q11 * h1 + q12 * h2),
                           (h2, multiplier[1], q12 * h1 + q22 * h2)):
        g = np.concatenate((f[-2:] * np.conj(w), f, f[:2] * w))
        fm2, fm1, f0, f1, f2 = (g[k:k + len(f)] for k in range(5))
        d1 = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
        d2 = (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
        worst = max(worst, np.abs(-p * d2 - pd * d1 + coupling).max())
    amp = max(np.abs(h1).max(), np.abs(h2).max())
    return float(worst / (coeff_max * max(amp, 1e-30)))


def kernel_residuals(fields: list[KernelField], traj: Trajectory) -> list[float]:
    """The scale-free max residual (``_residual``) of each field's
    separated system at lambda = 0.  The samples (phi, phi') at the nodes
    of [0, T) give p (``_weight``) and p' (``_weight_prime``) for every
    field, and Q_l (``_q_entries``) for every field of mode l, one mode at
    a time.  Fields that share a profile (h1, h2, multiplier) share its
    residual: for a complex profile, that of the complex zero mode whose
    parts they are, the same on every half period.
    """
    n = traj.n
    if any(len(f.h1) != n or len(f.h2) != n for f in fields):
        raise ValidationError("a residual row needs fields on the trajectory's nodes")
    h = traj.family.T / n
    phid = traj.phidot[:n]
    cphi, sphi = np.cos(traj.phi[:n]), np.sin(traj.phi[:n])
    p = _weight(cphi)
    pd = _weight_prime(cphi, sphi, phid)
    p_max = p.max()
    keys = [(f.l, id(f.h1), id(f.h2), f.multiplier) for f in fields]
    residuals = {}
    for l in sorted({f.l for f in fields}):
        q = _q_entries(l, traj.family.c, cphi, sphi, phid)
        coeff_max = max(p_max, max(np.abs(v).max() for v in q))
        for f, key in zip(fields, keys):
            if f.l == l and key not in residuals:
                residuals[key] = _residual(f.h1, f.h2, f.multiplier, p, pd, q,
                                           coeff_max, h)
    return [residuals[key] for key in keys]


# ---------------------------------------------------------------------------
# spectral system builders

def _weight_at(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """p along the trajectory at the times t, which every system of a mesh
    reads at its half nodes (``Trajectory.derived``)."""
    return _weight(np.cos(traj.at(t)[0]))


def _mode0_rows(traj: Trajectory, t: np.ndarray) -> np.ndarray:
    """The rows of Q_0 at the times t, whose columns 0 and 2 the two
    mode-0 channels read (``Trajectory.derived``)."""
    return separated_coefficients(0, traj, t)


def _system(dim: int, l: int, traj: Trajectory, bc: BoundaryCondition,
            potential) -> SLSystem:
    """The system of mode l on [0, T] whose weight is p along the
    trajectory and whose potential at the times t is ``potential(t)``."""
    return SLSystem(dim=dim, length=traj.family.T, bc=bc, l=l,
                    weight=lambda t: traj.derived(_weight_at, t),
                    potential=potential)


def fourier_block_system(l: int, traj: Trajectory,
                         bc: BoundaryCondition) -> SLSystem:
    """The coupled 2x2 system of Fourier mode l on [0, T]."""
    if l < 1:
        raise ValidationError(f"the coupled block needs l >= 1, got l = {l}; "
                              "l = 0 decouples")
    return _system(2, l, traj, bc, lambda t: separated_coefficients(l, traj, t))


def l0_channel_system(channel: int, traj: Trajectory,
                      bc: BoundaryCondition) -> SLSystem:
    """One of the two decoupled scalar problems at l = 0, on [0, T]."""
    if channel not in (1, 2):
        raise ValidationError("channel must be 1 or 2")
    column = 2 * channel - 2
    return _system(1, 0, traj, bc,
                   lambda t: traj.derived(_mode0_rows, t)[:, column])


def laplace_system(l: int, traj: Trajectory,
                   bc: BoundaryCondition) -> SLSystem:
    """Scalar problem of the Laplace operator at Fourier mode l, on [0, T]."""
    if l < 0:
        raise ValidationError("Fourier index l must be nonnegative")
    return _system(1, l, traj, bc, lambda t: l * l / np.cos(traj.at(t)[0]) ** 2)
