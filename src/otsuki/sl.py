"""Sturm-Liouville systems -(p h')' + Q h = lambda h and their discretization.

A system is scalar or 2x2, lives on [0, L), and carries one of four
boundary conditions.  The twisted condition couples the channels with
opposite phases: h1(t+L) = omega h1(t), h2(t+L) = -omega h2(t) for a
unit-modulus omega; periodic and antiperiodic apply the same sign to
every channel.  Discretization is the standard second-order divergence
form with the weight sampled at half nodes and the potential at the
nodes, which keeps the discrete operator exactly Hermitian so eigenvalue
counts are variationally reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .eigencount import BandOperator
from .errors import ValidationError

BC_KINDS = ("periodic", "antiperiodic", "twisted", "dirichlet")


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str
    omega: Optional[complex] = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValidationError(f"unknown boundary condition {self.kind!r}")
        if self.kind == "twisted":
            # written so that a NaN omega fails it too
            if self.omega is None or not abs(abs(self.omega) - 1.0) <= 1e-12:
                raise ValidationError("twisted boundary condition needs |omega| = 1")
        elif self.omega is not None:
            raise ValidationError(f"{self.kind} takes no omega")

    @classmethod
    def periodic(cls):
        return cls("periodic")

    @classmethod
    def antiperiodic(cls):
        return cls("antiperiodic")

    @classmethod
    def twisted(cls, omega: complex):
        return cls("twisted", complex(omega))

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    def channel_multipliers(self, dim: int) -> Optional[tuple]:
        if self.kind == "dirichlet":
            return None
        if self.kind != "twisted":
            return ((1.0 if self.kind == "periodic" else -1.0) + 0.0j,) * dim
        return (self.omega, -self.omega)[:dim]


@lru_cache(maxsize=1)
def roots_of_unity_ladder(q: int) -> np.ndarray:
    """omega_r = exp(i pi r / q) for r = 0..2q-1, a read-only complex
    array, each to within an ulp: both parts are sines of angles in
    [-pi/2, pi/2], so 1, i, -1 and -i are exact, and omega_{2q-r} =
    conj(omega_r).  Every ladder and every boundary-form count of a family
    asks for the same q, so the last ladder is kept."""
    upper = [complex(math.sin(math.pi * (q - 2 * r) / (2 * q)),
                     math.sin(math.pi * min(r, q - r) / q))
             for r in range(q + 1)]
    omega = np.array(upper + [w.conjugate() for w in upper[q - 1:0:-1]])
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class SLSystem:
    """A weight/potential pair on [0, L) with a boundary condition.

    ``weight(t)`` returns p at the requested times, positive with shape
    (m,); ``potential(t)`` returns Q there, symmetric with shape (m,) for
    dim 1 or (m, 3) rows (Q11, Q12, Q22) for dim 2.
    """

    dim: int
    length: float
    bc: BoundaryCondition
    weight: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray]
    l: Optional[int] = None
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValidationError("only scalar and 2x2 systems are supported")
        if self.length <= 0:
            raise ValidationError("interval length must be positive")

    def operator(self, n: int) -> BandOperator:
        """``discretize(n)``, built once per system and mesh."""
        op = self._operators.get(n)
        if op is None:
            op = self._operators[n] = self.discretize(n)
        return op

    def discretize(self, n: int) -> BandOperator:
        """Second-order divergence-form discretization on n subintervals;
        a Dirichlet problem keeps the interior rows 1..n-1 and no wrap."""
        if n < 128:
            raise ValidationError(f"mesh too coarse: n = {n} < 128")
        h = self.length / n
        nodes = np.arange(n) * h
        p_half = np.asarray(self.weight(nodes + 0.5 * h))
        q_nodes = np.asarray(self.potential(nodes))
        if np.any(p_half <= 0.0):
            raise ValidationError("weight must be strictly positive")
        h2 = h * h
        dsum = (p_half + np.roll(p_half, 1)) / h2
        off = -p_half[:-1] / h2
        if self.dim == 1:
            diag = dsum + q_nodes
        else:
            diag = np.empty((n, 3))
            diag[:, 0] = dsum + q_nodes[:, 0]
            diag[:, 1] = q_nodes[:, 1]
            diag[:, 2] = dsum + q_nodes[:, 2]
        if self.bc.kind == "dirichlet":
            return BandOperator(dim=self.dim, diag=diag[1:], off=off[1:],
                                meta={"n": n})
        return BandOperator(dim=self.dim, diag=diag, off=off,
                            wrap_off=float(-p_half[-1] / h2),
                            wrap_mult=self.bc.channel_multipliers(self.dim),
                            meta={"n": n})

