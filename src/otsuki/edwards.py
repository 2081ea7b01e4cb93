"""Eigenvalue counting through boundary forms on [0, T].

For the coupled modes l = 1, 2 the twisted problems over one half period
can be counted without discretizing: integrate the four fundamental
solutions of the lambda = 0 system, read off the Hermitian form their
boundary data generates, and restrict it to the twist subspace.  The
count of the omega-twisted problem is then the Dirichlet negative count
plus the index of the restricted 2x2 form; its nullity is the form's
nullity.  The determinant of the restricted form is a quadratic
polynomial in s = Re(omega) whose roots mark the twists carrying zero
modes, and its trace is linear in s, so ``aggregate_roots`` counts the
2q twists of a mode in one array pass over s.  The method needs the
Dirichlet problem to be nondegenerate, which ``boundary_form`` checks
once per mode (``dirichlet_negative_count``, on the finite-difference
mesh n) before ``boundary_solutions`` integrates.  The four solutions are
integrated by the package's own DOP853 stepper, ``ode.solve_ivp``.

``boundary_form`` runs the gate first, then takes the solutions from
its ``solutions`` argument, which is handed the integration: ``pipeline``
gives one that may return the integration made elsewhere
(``_boundary_solutions``, which reads the family alone).  Without it
they are integrated here, as ``otsuki edwards`` always does.

The gate takes its Dirichlet count, ``known``, from an odd-even
reduction of a twisted operator, which is the Dirichlet operator with
node 0 added: under 'both' from the direct route's ladder, under
'edwards' from one reduction per mesh of the stack of the twisted
operators of modes 1 and 2 at omega = 1 (``pipeline._count_family``).
``spectral`` settles the reduction's four counts at the zone ends into
that count, or None unless they read one empty zone.  Under 'both' the
two routes so share the pivots of the Dirichlet offset of every count,
and a defect there would reach both alike.  What keeps that offset
honest is a tier-1 oracle
(``test_ladder_reduction_counts_the_dirichlet_block``), which checks
both reductions' counts, and those of the Dirichlet operator's own
reduction, against the sweep in node order, the other elimination
order, which takes the band operator as the cyclic one with no wrap.
When the gate is called alone (``otsuki edwards``) or knows no count,
it counts the Dirichlet operator by that reduction of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import (AmbiguousClassificationError, EdwardsInapplicableError,
                     NumericalError)
from .geodesic import Trajectory, _phi_ddot
from .ode import solve_ivp
from .sl import BoundaryCondition, SLSystem, roots_of_unity_ladder
# spectrum_counts is bound only for perfbench, which traces every binding
from .spectral import (LOCATE_TOL, TAU_ZERO, _zone, _zone_rows,  # noqa: F401
                       spectrum_counts)
from .surface import _q_entries, _weight, _weight_prime, fourier_block_system
from .eigencount import BandOperator, eigenvalues_in

SIGMA_SWAP = np.array([2, 3, 0, 1])  # boundary-ends swap (13)(24), zero-based
# the route is refused unless the Dirichlet margin from zero exceeds this
DIRICHLET_MARGIN = 10.0 * TAU_ZERO
_MARGIN_CAP = 4.0       # the margin reported when no eigenvalue is nearer
ODE_RTOL = 1e-11
SYM_TOL = 1e-6          # relative (swap-)symmetry error tolerated in a_ij
FORM_TOL_REL = 1e-7     # form eigenvalues within this fraction of max|A| are 0
ROOT_TOL = 1e-6         # |Re(omega) - root| that counts as sitting at a root
# the constant entries of the fundamental system's matrix A: [[0, 0], [I, 0]]
_A_CONSTANT = np.eye(4, k=-2)


@dataclass(frozen=True)
class DirichletCounts:
    """The Dirichlet negative count of one mode, and its zero-distance margin.

    ``margin`` is the distance from zero to the nearest eigenvalue of the
    mesh-n operator, capped at _MARGIN_CAP.  The gate's shortcut accepts
    most problems without it (see :func:`dirichlet_negative_count`), so
    it is located, to LOCATE_TOL, only when first read, and the operator
    is built then too, unless the gate's sweeps built it.
    """

    negative: int
    system: SLSystem = field(compare=False, repr=False)
    n: int = field(compare=False, repr=False)

    @property
    def operator(self) -> BandOperator:
        return self.system.operator(self.n)

    @cached_property
    def margin(self) -> float:
        lam = eigenvalues_in(self.operator, -_MARGIN_CAP, _MARGIN_CAP,
                             tol=LOCATE_TOL, near=0.0)
        return float(np.abs(lam).min()) if len(lam) else _MARGIN_CAP


def dirichlet_negative_count(l: int, traj: Trajectory, n: int,
                             known: Optional[int] = None) -> DirichletCounts:
    """Negative count of the Dirichlet block on [0, T], on meshes n and 2n.

    Refuses (EdwardsInapplicableError) a Dirichlet zero mode or a margin of
    at most DIRICHLET_MARGIN: the boundary-form route needs a
    nondegenerate Dirichlet problem.  The decision is "located margin >
    DIRICHLET_MARGIN", with one shortcut: when the count's mesh-n zone
    holds no eigenvalue and covers reach = DIRICHLET_MARGIN + LOCATE_TOL,
    no eigenvalue lies within reach of zero, so the located margin, within
    LOCATE_TOL / 2 of the true one, exceeds DIRICHLET_MARGIN, and the
    margin is not located.

    ``known``, the count that a reduction of the twisted operator of mode
    l settled (the direct ladder, ``spectral._ladders``, under 'both';
    the stack of modes 1 and 2, ``spectral._dirichlet_ends``, under
    'edwards'), replaces the zone sweeps: it is only settled when
    the zone is empty on both meshes, so the gate then sweeps and
    discretizes nothing.  With None (a populated zone, a mesh
    disagreement, a count that broke down, or no reduction) the decision,
    and every message, is left to the classifier's own count-only
    reductions of the Dirichlet system.
    """
    system = fourier_block_system(l, traj, BoundaryCondition.dirichlet())
    if known is not None:
        neg, zero, k = known, 0, 0
    else:
        (neg, zero, k), = _zone_rows(system, n, 0.0)[0].tolist()
    counts = DirichletCounts(negative=neg, system=system, n=n)
    clear = k == 0 and DIRICHLET_MARGIN + LOCATE_TOL <= _zone(system, n)
    if zero == 0 and (clear or counts.margin > DIRICHLET_MARGIN):
        return counts
    raise EdwardsInapplicableError(
        f"Dirichlet problem at l={l} is degenerate: {zero} zero mode(s), "
        f"margin {counts.margin:.3e} (needs > {DIRICHLET_MARGIN:g})")


@dataclass(frozen=True)
class BoundarySolutions:
    """Fundamental lambda = 0 solutions with prescribed boundary values."""

    l: int
    T: float
    coeffs: np.ndarray            # (4, 4): psi_i in the initial-value basis
    condition: float
    psi_prime_0: np.ndarray       # (2, 4)
    psi_prime_T: np.ndarray       # (2, 4)
    p_ends: tuple


# id(buffer) -> (buffer, the 4x4 view of its solutions); the buffer is
# held, so its id names no other array while its entry lives
_BLOCKS: dict = {}


def _block(buf):
    """The 4x4 view of the solutions Y in the state buffer ``buf``, kept in
    ``_BLOCKS``: the stepper passes a fixed set of buffers on every step
    of an integration.  A caller that passes new buffers each time, as
    scipy's ``solve_ivp`` does, empties it every 64 of them."""
    entry = _BLOCKS.get(id(buf))
    if entry is None:
        if len(_BLOCKS) >= 64:
            _BLOCKS.clear()
        entry = _BLOCKS[id(buf)] = buf, buf[2:].reshape(4, 4)
    return entry[1]


def _fundamental_rhs(y, out, l, c, A):
    """Write into out the derivative of the geodesic (phi, phi') and of the
    four solutions, the rows of Y = [H | H'], at lambda = 0: (p H')' = H Q_l
    gives Y' = Y A with A = [[0, Q_l / p], [I, -p'/p I]].  The system is
    autonomous, since the geodesic rides along in the state.

    It runs once per stage of the DOP853 stepper (12 per step), so it
    allocates no array: the coefficients are taken on Python floats from
    one cos/sin pair, and fill the variable entries of A, a copy of
    ``_A_CONSTANT`` kept for one integration, and the 4x4 views of y and
    out are made once per buffer (``_block``).  Y A is ``np.dot`` into the
    rows of out, the same BLAS dgemm that ``np.matmul`` issues: a
    hand-written 4x4 product rounds differently (OpenBLAS fuses
    multiply-adds), and the boundary forms would move in the last bit.
    """
    phi, phid = y[:2].tolist()
    cphi, sphi = math.cos(phi), math.sin(phi)
    p = _weight(cphi)
    q11, q12, q22 = _q_entries(l, c, cphi, sphi, phid)
    damp = -_weight_prime(cphi, sphi, phid) / p
    A[0, 2] = q11 / p
    A[0, 3] = A[1, 2] = q12 / p
    A[1, 3] = q22 / p
    A[2, 2] = A[3, 3] = damp
    out[0], out[1] = phid, _phi_ddot(c, cphi, sphi, phid)
    np.dot(_block(y), A, out=_block(out))


def boundary_solutions(l: int, traj: Trajectory) -> BoundarySolutions:
    """Integrate the four fundamental solutions and match boundary values.

    The geodesic rides along in the integrated state so the coefficients
    are exact along the way.  Fails (NumericalError) when the integration
    fails or the 4x4 matching system is ill conditioned, as it is when the
    Dirichlet problem is degenerate (the boundary map is then no
    bijection); ``boundary_form`` refuses that case before integrating.
    """
    return _boundary_solutions(l, traj.family)


def _boundary_solutions(l: int, fam) -> BoundarySolutions:
    """``boundary_solutions`` of the family ``fam``: its b, c and T are all
    the integration reads, so it needs no trajectory."""
    y0 = np.concatenate(([fam.b, 0.0], np.eye(4).ravel()))
    c, A = fam.c, _A_CONSTANT.copy()
    sol = solve_ivp(lambda t, y, out: _fundamental_rhs(y, out, l, c, A),
                    (0.0, fam.T), y0, rtol=ODE_RTOL, atol=1e-12)
    if not sol.success:
        raise NumericalError(f"fundamental-solution integration failed: {sol.message}")
    yT = sol.y
    YT = yT[2:].reshape(4, 4)
    U, Ud = YT[:, :2].T, YT[:, 2:].T        # columns u_k(T), u_k'(T)

    boundary_map = np.vstack((np.eye(2, 4), U))     # rows u_k(0), u_k(T)
    condition = float(np.linalg.cond(boundary_map))
    if condition > 1e10:
        raise NumericalError(
            f"boundary matching is ill conditioned (cond = {condition:.3e})")

    M = U[:, 2:]
    C = np.vstack((np.eye(2, 4),
                   np.linalg.solve(M, np.hstack((-U[:, :2], np.eye(2))))))

    psi_prime_0 = C[2:, :].copy()        # u_3'(0), u_4'(0) are the unit vectors
    psi_prime_T = Ud @ C
    return BoundarySolutions(l=l, T=fam.T, coeffs=C, condition=condition,
                             psi_prime_0=psi_prime_0, psi_prime_T=psi_prime_T,
                             p_ends=(_weight(math.cos(fam.b)),
                                     _weight(math.cos(yT[0]))))


def gram_matrix(sols: BoundarySolutions) -> np.ndarray:
    """The 4x4 boundary-form matrix a_ij = <e_i boundary, p psi_j'> |_0^T.

    Symmetry (real coefficients) and the ends-swap symmetry (coefficients
    even about the midpoint) are verified, then enforced by averaging.
    """
    p0, pT = sols.p_ends
    a = np.vstack((-p0 * sols.psi_prime_0, pT * sols.psi_prime_T))
    scale = np.abs(a).max()
    sym_err = np.abs(a - a.T).max() / scale
    swap = a[np.ix_(SIGMA_SWAP, SIGMA_SWAP)]
    swap_err = np.abs(a - swap).max() / scale
    if sym_err > SYM_TOL or swap_err > SYM_TOL:
        raise NumericalError(
            f"boundary form symmetry violated (sym {sym_err:.2e}, "
            f"swap {swap_err:.2e}); integration is suspect")
    a = 0.5 * (a + a.T)
    a = 0.5 * (a + a[np.ix_(SIGMA_SWAP, SIGMA_SWAP)])
    return a


@dataclass(frozen=True)
class DeterminantPolynomial:
    coeffs: tuple                 # (c2, c1, c0) of det A(s)
    roots: tuple                  # real roots, ascending (possibly empty)

    @property
    def s1(self) -> Optional[float]:
        return self.roots[0] if len(self.roots) == 2 else None

    @property
    def s2(self) -> Optional[float]:
        return self.roots[-1] if self.roots else None

    def __call__(self, s: float) -> float:
        c2, c1, c0 = self.coeffs
        return (c2 * s + c1) * s + c0

    @property
    def scale(self) -> float:
        return max(abs(v) for v in self.coeffs)


def det_polynomial(a: np.ndarray) -> DeterminantPolynomial:
    """det A(s) of the restricted form (see ``aggregate_roots``) as a
    quadratic in s = Re(omega); here the entries of a are numbered from 1."""
    a11, a13, a14 = a[0, 0], a[0, 2], a[0, 3]
    a22, a24 = a[1, 1], a[1, 3]
    c2 = 4.0 * (a14 * a14 - a13 * a24)
    c1 = 4.0 * (a13 * a22 - a11 * a24)
    c0 = 4.0 * (a11 * a22 - a14 * a14)
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise NumericalError("degenerate boundary form: det polynomial vanishes")
    if abs(c2) <= 1e-12 * scale:
        if abs(c1) <= 1e-12 * scale:
            raise NumericalError("degenerate boundary form: degree-0 determinant")
        return DeterminantPolynomial(coeffs=(c2, c1, c0), roots=(-c0 / c1,))
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return DeterminantPolynomial(coeffs=(c2, c1, c0), roots=())
    rt = math.sqrt(disc)
    r1 = (-c1 - rt) / (2.0 * c2)
    r2 = (-c1 + rt) / (2.0 * c2)
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    return DeterminantPolynomial(coeffs=(c2, c1, c0), roots=(lo, hi))


@dataclass(frozen=True)
class BoundaryFormData:
    """Everything the counting step needs for one mode l."""

    l: int
    b: float
    a: np.ndarray
    dirichlet: DirichletCounts
    poly: DeterminantPolynomial

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "b": self.b,
            "a": [[float(v) for v in row] for row in self.a],
            "P_coeffs": [float(v) for v in self.poly.coeffs],
            "roots": [float(r) for r in self.poly.roots],
            "applicability_margin": float(self.dirichlet.margin),
        }


def boundary_form(l: int, traj: Trajectory, n: int,
                  known: Optional[int] = None, solutions=None,
                  ) -> BoundaryFormData:
    """Assemble the full boundary-form data for mode l.

    The Dirichlet problem is counted on mesh n first, so the route is
    refused (EdwardsInapplicableError) before any integration when it is
    degenerate; see :func:`dirichlet_negative_count`, which takes
    ``known``.  The boundary solutions are then integrated: by
    ``solutions``, if given, which is handed the integration and returns
    its result, or else here.
    """
    dirichlet = dirichlet_negative_count(l, traj, n, known)
    integrate = partial(boundary_solutions, l, traj)
    sols = integrate() if solutions is None else solutions(integrate)
    a = gram_matrix(sols)
    return BoundaryFormData(l=l, b=traj.family.b, a=a, dirichlet=dirichlet,
                            poly=det_polynomial(a))


def aggregate_roots(data: BoundaryFormData, q: int) -> np.ndarray:
    """The (2q, 2) array of (negative, zero) of the twisted problem at
    each 2q-th root of unity omega = exp(i pi r / q), row r, as the
    direct route's ladder rows; ``spectral.class_counts`` sums
    the rows of a mode.  Each of the 2q twists is counted here, also the
    r > q that the direct route copies from the conjugate twist 2q - r, so
    ``both`` checks those copies against an independent count.

    neg = Dirichlet negatives + index of the boundary form restricted to
    the omega-twist subspace; zero is that form's nullity.  With
    s = Re(omega) the form is A00 = 2(a00 + s a02), A11 = 2(a11 - s a13),
    A01 = conj(A10) = 2i Im(omega) a03, so |A01|^2 = 4(1 - s^2) a03^2 and
    det A = A00 A11 - |A01|^2 is ``det_polynomial``'s P(s) identically:
    the two eigenvalues of every twist come from the trace and
    ``data.poly(s)``, in one array pass over the 2q values of s.  An
    eigenvalue within FORM_TOL_REL of max|A| counts as zero, which is only
    accepted where s lies within ROOT_TOL of a root of P, since the zero
    modes are exact there; at the first other twist the count is
    ambiguous and AmbiguousClassificationError names its Re(omega).
    """
    omega = roots_of_unity_ladder(q)
    s, a = omega.real, data.a
    A00 = 2.0 * a[0, 0] + (2.0 * s) * a[0, 2]
    A11 = 2.0 * a[1, 1] - (2.0 * s) * a[1, 3]
    tr = A00 + A11
    rt = np.sqrt(np.maximum(tr * tr - 4.0 * data.poly(s), 0.0))
    eigs = np.array(((tr - rt) / 2.0, (tr + rt) / 2.0))
    scale = np.abs((A00, A11, (2.0 * omega.imag) * a[0, 3])).max(axis=0)
    tau = FORM_TOL_REL * np.maximum(scale, 1e-30)
    neg = data.dirichlet.negative + (eigs < -tau).sum(axis=0)
    zero = (np.abs(eigs) <= tau).sum(axis=0)
    near_root = (np.abs(s[:, None] - np.array(data.poly.roots))
                 <= ROOT_TOL).any(axis=1)
    ambiguous = np.flatnonzero((zero > 0) & ~near_root)
    if ambiguous.size:
        raise AmbiguousClassificationError(
            f"restricted form nearly singular at "
            f"Re(omega)={s[ambiguous[0]]:.6f} "
            f"which is no root of the determinant polynomial")
    return np.stack((neg, zero), axis=1)
