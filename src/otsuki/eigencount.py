"""Self-contained eigenvalue counting for the discretized operators.

The discrete problems are Hermitian block tridiagonal matrices whose
off-diagonal couplings are scalar multiples of the identity, plus a single
wrap-around block for periodic-type boundary conditions.  Symmetric
block elimination of A - sigma*I is a congruence transform, so the signs
of the pivot blocks give the number of eigenvalues below sigma (Sylvester
inertia), and the product of their determinants is det(A - sigma*I).
Every count comes from odd-even (cyclic) reduction in numpy: its log2(m)
levels each eliminate every other node, for all the shifts of a call at
once, in real arithmetic, and keep the two nodes that the wrap joins to
the end.  Until node 0 enters, the reduction is also one of the operator
with node 0 deleted, the Dirichlet operator of the same mesh: every
count-only call returns (counts, Dirichlet counts), the latter None for
a band operator.  Systems on one mesh that share the couplings and the
wrap reduce as one stack, a row per (system, shift), each row bit for
bit its system reduced alone: so one call per mesh counts the twist
ladders of mode 0's two channels, or of modes 1 and 2 with their
Dirichlet blocks.  The reduction forms each row's shifted diagonal
once, by broadcasting, and drops each level's intermediate blocks once
they have served, so a stack's memory grows with its rows alone.  Only
locating an eigenvalue reads log|det|, which ``inertia`` takes on
request from one O(n) sweep in node order: the same congruence
eliminated in another order, so Sylvester gives it the same count.
That sweep also counts a row whose pivots the reduction cannot take,
its system as the caller gave it, at the shift itself unless a pivot
of its own breaks down, which moves the shift; the row keeps the
reduction's Dirichlet count, none (-1) where a pivot of that broke
down.  The wrap-around entries only ever fill the last block row, so
the sweep runs in real arithmetic and the unit-modulus wrap multipliers
enter only the last Schur complement.
Twisted operators, scalar or 2x2, that differ only in those multipliers
form a twist ladder: one loop, or one reduction, then a finish per twist,
counts them all; the reduction's finish is one array expression over the
ladder.  The finishes take only real parts of products of conjugates,
and |b12|^2, so conjugate multipliers give the same count and log|det|
bit for bit; ``spectral.ladder_counts`` therefore sweeps one twist of
each conjugate pair.  Callers that need one operator at several shifts
ask ``inertia`` for all of them at once, so the coefficient lists are
converted once.  An eigenvalue is bracketed by the count: bisection
isolates it, and secant steps on the determinant, kept inside the
bracket, refine it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, isfinite, log
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

_MAX_LOG_RATIO = 700.0      # exp() of more overflows a float


class _PivotBreakdown(Exception):
    pass


@dataclass(frozen=True)
class BandOperator:
    """Hermitian (block-)tridiagonal operator with optional cyclic wrap.

    dim 1: ``diag`` has shape (m,).  dim 2: ``diag`` has shape (m, 3)
    holding (Q11, Q12, Q22) of each real-symmetric block.  ``off`` has
    shape (m-1,) - real scalar couplings between neighbours.  A cyclic
    operator additionally carries ``wrap_off`` (real scalar) and
    ``wrap_mult`` (per-channel unit-modulus multipliers) so that the
    (m-1, 0) block equals wrap_off * diag(wrap_mult).  A cyclic operator
    may carry a twist ladder instead: ``wrap_mult`` a (twists, dim) array,
    a row of multipliers per twist, which ``inertia`` counts all at once.
    Systems on one mesh that share ``off`` and the wrap, if any, may form
    a stack for a count-only ``inertia`` call: ``diag`` then has a systems
    axis after the nodes, shape (m, systems) or (m, systems, 3), and
    ``m``, ``dim`` and ``cyclic`` describe each system.
    """

    dim: int
    diag: np.ndarray
    off: np.ndarray
    wrap_off: Optional[float] = None
    wrap_mult: Optional[Sequence] = None
    meta: dict = None

    @property
    def m(self) -> int:
        return self.diag.shape[0]

    @property
    def cyclic(self) -> bool:
        return self.wrap_off is not None

    @property
    def ladder(self) -> bool:
        return np.ndim(self.wrap_mult) == 2

    def is_complex(self) -> bool:
        return self.cyclic and bool(np.imag(self.wrap_mult).any())

    def to_dense(self) -> np.ndarray:
        """Assemble the full matrix; intended for small sizes and tests."""
        if self.ladder:
            raise ValidationError("a twist ladder is one matrix per twist")
        m, d = self.m, self.dim
        dtype = complex if self.is_complex() else float
        A = np.zeros((d * m, d * m), dtype=dtype)
        for j in range(m):
            if d == 1:
                A[j, j] = self.diag[j]
            else:
                q11, q12, q22 = self.diag[j]
                A[2 * j, 2 * j] = q11
                A[2 * j + 1, 2 * j + 1] = q22
                A[2 * j, 2 * j + 1] = q12
                A[2 * j + 1, 2 * j] = q12
        for j in range(m - 1):
            for ch in range(d):
                A[d * j + ch, d * (j + 1) + ch] += self.off[j]
                A[d * (j + 1) + ch, d * j + ch] += self.off[j]
        if self.cyclic:
            for ch in range(d):
                w = complex(self.wrap_mult[ch]) * self.wrap_off
                A[d * (m - 1) + ch, ch] += w if dtype is complex else w.real
                A[ch, d * (m - 1) + ch] += np.conj(w) if dtype is complex else w.real
        return A

    def gershgorin_lower(self) -> float:
        """A guaranteed lower bound for every eigenvalue."""
        m, d = self.m, self.dim
        radius = np.zeros(m)
        radius[:-1] += np.abs(self.off)
        radius[1:] += np.abs(self.off)
        if self.cyclic:
            radius[0] += abs(self.wrap_off)
            radius[-1] += abs(self.wrap_off)
        if d == 1:
            lam = self.diag
        else:
            q11, q12, q22 = self.diag[:, 0], self.diag[:, 1], self.diag[:, 2]
            half = 0.5 * (q11 + q22)
            lam = half - np.sqrt(0.25 * (q11 - q22) ** 2 + q12 ** 2)
        return float(np.min(lam - radius))


# ---------------------------------------------------------------------------
# inertia sweeps
#
# These sweeps give every log|det|, and the counts of a row that the
# reduction further down cannot pivot; it gives every other count.  Each
# sweep returns its end state before the last Schur complement, which
# ``_finish_d1`` or ``_finish_d2_cyclic`` completes for one twist into
# (count, log|det(A - sigma I)|).  The determinant is the product of the
# pivot determinants, so its log is one accumulation per pivot; a
# non-finite pivot leaves a non-finite sum, which ``inertia`` treats like
# a zero pivot.  The hot loops inline ``_pivot``/``_block`` and do real
# arithmetic only.
#
# A sweep eliminates the rows in order and also tracks the last row.
# Eliminating row j < m-2 leaves diag(w) R on block (m-1, j+1), with R
# real (R <- -e_j R X_j, X_j the inverse pivot), and takes
# diag(w) R X_j R^T diag(w)^H off block (m-1, m-1); the loop sums
# R X_j R^T into P.  So the unit-modulus multipliers w enter only the
# last Schur complement,
#     D_{m-1} - sigma I - diag(w) P diag(w)^H - F X_{m-2} F^H,
# with F = diag(w) R + e_{m-2} I formed before it is squared (its two
# terms nearly cancel next to an eigenvalue).
#
# Each loop zips its coefficient lists, which ``_kernel`` converts once per
# ``inertia`` call; a call with several shifts runs the kernel once per
# shift on the shared lists.

def _pivot(s):
    """(1 if the scalar pivot is negative else 0, log|s|)."""
    if s > 0.0:
        return 0, log(s)
    if s < 0.0:
        return 1, log(-s)
    raise _PivotBreakdown               # zero or nan


def _block(det, s11):
    """(negative eigenvalues, log|det|) of a symmetric 2x2 pivot."""
    if det > 0.0:
        return (2 if s11 < 0.0 else 0), log(det)
    if det < 0.0:
        return 1, log(-det)
    raise _PivotBreakdown


def _inertia_d1(d, e, w_off, sigma):
    m = len(d)
    neg = 0
    ld = 0.0
    s = d[0] - sigma
    r = w_off
    b = d[m - 1] - sigma
    for ej, dj in zip(e, d[1:m - 1]):
        if s > 0.0:
            ld += log(s)
        elif s < 0.0:
            neg += 1
            ld += log(-s)
        else:
            raise _PivotBreakdown
        b -= r * r / s
        r = -ej * r / s
        s = dj - sigma - ej * ej / s
    c, l = _pivot(s)
    return neg + c, ld + l, s, r, b, e[m - 2]


def _finish_d1(end, w):
    """(count, log|det|) of the multiplier w from the end state of
    ``_inertia_d1``: w enters the last Schur complement only."""
    neg, ld, s, r, b, ej = end
    f = w * r + ej
    cb, lb = _pivot(b - (f * f.conjugate()).real / s)
    return neg + cb, ld + lb


def _inertia_d2_cyclic(d11, d12, d22, e, w_off, sigma):
    m = len(d11)
    neg = 0
    ld = 0.0
    s11, s12, s22 = d11[0] - sigma, d12[0], d22[0] - sigma
    r11, r12, r21, r22 = w_off, 0.0, 0.0, w_off
    p11 = p12 = p22 = 0.0
    for ej, a11, a12, a22 in zip(e, d11[1:m - 1], d12[1:m - 1],
                                 d22[1:m - 1]):
        det = s11 * s22 - s12 * s12
        if det > 0.0:
            ld += log(det)
            if s11 < 0.0:
                neg += 2
        elif det < 0.0:
            neg += 1
            ld += log(-det)
        else:
            raise _PivotBreakdown
        x11 = s22 / det
        x12 = -s12 / det
        x22 = s11 / det
        # G = R X, P += G R^T
        g11 = r11 * x11 + r12 * x12
        g12 = r11 * x12 + r12 * x22
        g21 = r21 * x11 + r22 * x12
        g22 = r21 * x12 + r22 * x22
        p11 += g11 * r11 + g12 * r12
        p12 += g11 * r21 + g12 * r22
        p22 += g21 * r21 + g22 * r22
        nej = -ej
        r11 = nej * g11
        r12 = nej * g12
        r21 = nej * g21
        r22 = nej * g22
        ee = ej * ej / det
        s11, s12, s22 = (a11 - sigma - ee * s22,
                         a12 + ee * s12,
                         a22 - sigma - ee * s11)
    det = s11 * s22 - s12 * s12
    c, l = _block(det, s11)
    return (neg + c, ld + l, s22 / det, -s12 / det, s11 / det,
            r11, r12, r21, r22, p11, p12, p22, e[m - 2],
            d11[m - 1] - sigma, d12[m - 1], d22[m - 1] - sigma)


def _finish_d2_cyclic(end, w1, w2):
    """(count, log|det|) of the twist (w1, w2) from the end state of
    ``_inertia_d2_cyclic``: the multipliers enter the last Schur complement."""
    (neg, ld, x11, x12, x22, r11, r12, r21, r22, p11, p12, p22,
     ej, a11, a12, a22) = end
    f11, f12, f21, f22 = w1 * r11 + ej, w1 * r12, w2 * r21, w2 * r22 + ej
    # G = F X; B = D - sigma I - diag(w) P diag(w)^H - G F^H
    g11, g12 = f11 * x11 + f12 * x12, f11 * x12 + f12 * x22
    g21, g22 = f21 * x11 + f22 * x12, f21 * x12 + f22 * x22
    b11 = (a11 - p11
           - (g11 * f11.conjugate() + g12 * f12.conjugate()).real)
    b22 = (a22 - p22
           - (g21 * f21.conjugate() + g22 * f22.conjugate()).real)
    b12 = (a12 - w1 * w2.conjugate() * p12
           - (g11 * f21.conjugate() + g12 * f22.conjugate()))
    cb, lb = _block(b11 * b22 - (b12 * b12.conjugate()).real, b11)
    return neg + cb, ld + lb


def _kernel(op: BandOperator):
    """(the operator's sweep kernel, its coefficient lists)."""
    e = op.off.tolist()
    if op.dim == 1:
        return _inertia_d1, (op.diag.tolist(), e, op.wrap_off)
    return _inertia_d2_cyclic, (*op.diag.T.tolist(), e, op.wrap_off)


def _finish(op: BandOperator, end: tuple, w: tuple) -> tuple:
    """One twist's (count, log|det|): w holds its per-channel multipliers."""
    finish = _finish_d1 if op.dim == 1 else _finish_d2_cyclic
    return finish(end, *map(complex, w))


# ---------------------------------------------------------------------------
# odd-even reduction: every count
#
# A count is the inertia of A - sigma I, which every order of elimination
# gives (Sylvester), so a count-only call eliminates the nodes in the
# order of cyclic reduction.  Each level eliminates the odd positions
# among 1..k-2 of the k nodes left, at once: they are not neighbours, so
# their pivots are independent, and eliminating position p (left coupling
# L, right coupling R, pivot X^-1) adds -L X L^T and -R^T X R to its
# neighbours' diagonal blocks and couples them by -L X R.  The couplings,
# scalars at first, become general d x d blocks U (block (p, p+1); block
# (p+1, p) is U^T).  The 2x2 reduction writes
# its first level for the couplings e I apart: it makes the products of
# the general level less those by the zero entries, which the general
# level only adds to them, so the level changes no count and no bit but
# the sign of a zero.  Nodes 0 and m-1 are kept to
# the end, so the wrap block, which joins only them, enters after the
# loop and the loop stays real.  The shifts are the rows of every array,
# each reduced as alone; a stack of systems that share the couplings and
# the wrap has a row per (system, shift), its shifted diagonal formed
# once per row from its system's by broadcasting (``_rows``).  Every step
# is elementwise or reduces along a row, so a row keeps the bits of its
# system reduced alone.  Node 0's pivot X0^-1 is last but
# one; then the multipliers w of each twist enter the last Schur
# complement
#     D_{m-1} - sigma I - C^H X0 C,   C = U + w_off diag(conj w),
# one array expression over the rows and twists (columns), with C formed
# before it is squared.  It takes real and imaginary parts apart, so
# conjugate twists count alike bit for bit.  A zero or non-finite pivot
# anywhere marks its row, which ``_reduced_counts`` counts by the sweep
# in node order instead, its system alone.  The 2x2 levels form their
# kept blocks and couplings one entry at a time and drop N, G and H once
# they have served, so the peak stays under seven arrays of rows x m.
# Node 0 is never eliminated, so its diagonal and its couplings enter no
# other pivot: before node 0 and the wrap enter, the pivots of nodes
# 1..m-2 and node m-1's reduced block D_{m-1} - sigma I (less its
# coupling to node 0, for the scalar row sums) are an elimination of the
# operator with node 0 deleted.  That is the Dirichlet operator of the
# same system and mesh (``SLSystem.discretize`` keeps rows 1..n-1), so
# its count costs one more pivot test per shift.  The scalar
# reduction carries row sums in place of the diagonal, which resolves
# the constants, the kernel of the scalar Laplacian at w = 1.  log|det|
# stays with the sweeps above, so every located eigenvalue keeps its bits.

def _inertia_d1_reduction(d, e, w_off, sigma):
    """(negative pivots, every pivot nonzero and finite, end state,
    Dirichlet count or -1 where a pivot of it breaks down) per shift of
    the scalar chain reduced to nodes 0 and m-1; d holds one diagonal,
    or one per shift (a stack).

    The state is not the diagonal but the row sums rho of A - sigma I at
    the twist w = 1, and the couplings u; a pivot is its row sum less the
    sum of its couplings.  Eliminating node p takes u_left rho_p / pivot
    off its left neighbour's row sum, likewise on the right.  With
    negative couplings and row sums near zero, as next to the constants
    that span the kernel of the scalar Laplacian at w = 1, no step
    cancels, so the count there is as exact as the entries allow; the
    diagonal form loses ulps of the diagonal at every level."""
    rho = _rows(d, sigma)
    rho[:, 1:] += e
    rho[:, :-1] += e
    rho[:, [0, -1]] += w_off
    u = np.broadcast_to(e, (len(sigma), len(e)))
    neg = np.zeros(len(sigma), dtype=int)
    ok = np.ones(len(sigma), dtype=bool)
    while rho.shape[1] > 2:
        h = (rho.shape[1] - 1) // 2
        left, right = u[:, 0:2 * h:2], u[:, 1:2 * h:2]
        rp = rho[:, 1:2 * h:2]
        p = rp - (left + right)
        neg += np.add.reduce(p < 0.0, axis=1)
        ok &= np.logical_and.reduce((p != 0.0) & np.isfinite(p), axis=1)
        t = rp / p
        rho = _kept(rho, -(left * t), -(right * t))
        u = _joined(-(left * right) / p, u)
    dm = rho[:, 1] - (w_off + u[:, 0])
    last, regular = _negatives(dm, dm)
    s0 = rho[:, 0] - (w_off + u[:, 0])
    return (neg + (s0 < 0.0), ok & (s0 != 0.0) & np.isfinite(s0),
            (s0, rho[:, 0], rho[:, 1], u[:, 0]),
            np.where(ok & regular, neg + last, -1))


def _inertia_d2_reduction(d11, d12, d22, e, sigma):
    """(negative pivots, every pivot nonzero and finite, end state,
    Dirichlet count or -1 where a pivot of it breaks down) per shift of
    the 2x2 chain reduced to nodes 0 and m-1; d11, d12 and d22 hold one
    diagonal, or one per system of a stack (``_rows``)."""
    a, u, neg, ok = _first_level(d11, d12, d22, e, sigma)
    while a[0].shape[1] > 2:
        neg, ok = _level(a, u, neg, ok)
    (a11, a12, a22), (u11, u12, u21, u22) = a, u
    last, last_ok = _negatives(a11[:, 1],
                               a11[:, 1] * a22[:, 1] - a12[:, 1] * a12[:, 1])
    det = a11[:, 0] * a22[:, 0] - a12[:, 0] * a12[:, 0]
    count, regular = _negatives(a11[:, 0], det)
    return neg + count, ok & regular, (
        a22[:, 0] / det, -a12[:, 0] / det, a11[:, 0] / det,
        u11[:, 0], u12[:, 0], u21[:, 0], u22[:, 0],
        a11[:, 1], a12[:, 1], a22[:, 1]), np.where(ok & last_ok, neg + last, -1)


def _first_level(d11, d12, d22, e, sigma):
    """(the blocks [A11, A12, A22] and couplings [U11, U12, U21, U22] of
    the kept nodes, neg, ok) after the first level of the 2x2 reduction.
    The couplings are e I, so L = l I, R = r I, G = l N and H = r N, and
    the general level's products by their zero entries are left out.  The
    entries go one at a time, each N entry dropped once it has served."""
    a = [_rows(d11, sigma), _rows(d12, sigma, shift=False), _rows(d22, sigma)]
    h = (a[0].shape[1] - 1) // 2
    neg, ok, n = _inverse_pivots(*a, slice(1, 2 * h, 2), 0, True)
    l, r = e[0:2 * h:2], e[1:2 * h:2]
    u = np.broadcast_to(e, (len(sigma), len(e)))
    joined = []
    for i, coupling in enumerate((u, np.broadcast_to(0.0, u.shape), u)):
        g = l * n[i]
        a[i] = _kept(a[i], g * l, r * n[i] * r)
        joined.append(_joined(g * r, coupling))
        n[i] = None
    return a, [joined[0], joined[1], joined[1], joined[2]], neg, ok


def _level(a, u, neg, ok):
    """(neg, ok) after one general level of the 2x2 reduction, which
    replaces the blocks a and the couplings u of ``_first_level`` by those
    of the kept nodes, each as soon as it is formed; N goes once G and H
    are formed, and H once the blocks are."""
    h = (a[0].shape[1] - 1) // 2
    odd, even = slice(1, 2 * h, 2), slice(0, 2 * h, 2)
    neg, ok, (n11, n12, n22) = _inverse_pivots(*a, odd, neg, ok)
    l11, l12, l21, l22 = (c[:, even] for c in u)
    r11, r12, r21, r22 = (c[:, odd] for c in u)
    # G = L N adds G L^T to the left neighbour and couples it by G R
    g11, g12 = l11 * n11 + l12 * n12, l11 * n12 + l12 * n22
    g21, g22 = l21 * n11 + l22 * n12, l21 * n12 + l22 * n22
    # H = R^T N adds H R to the right neighbour
    h11, h12 = r11 * n11 + r21 * n12, r11 * n12 + r21 * n22
    h21, h22 = r12 * n11 + r22 * n12, r12 * n12 + r22 * n22
    del n11, n12, n22
    a[0] = _kept(a[0], g11 * l11 + g12 * l12, h11 * r11 + h12 * r21)
    a[1] = _kept(a[1], g11 * l21 + g12 * l22, h11 * r12 + h12 * r22)
    a[2] = _kept(a[2], g21 * l21 + g22 * l22, h21 * r12 + h22 * r22)
    del h11, h12, h21, h22
    u[:] = [_joined(new, c) for new, c in (
        (g11 * r11 + g12 * r21, u[0]), (g11 * r12 + g12 * r22, u[1]),
        (g21 * r11 + g22 * r21, u[2]), (g21 * r12 + g22 * r22, u[3]))]
    return neg, ok


def _rows(d, sigma, shift=True):
    """A diagonal per shift, shape (rows, m), less the shift unless
    ``shift`` is false: d holds one diagonal, (m,), or one per system of a
    stack, (systems, m), each for an equal run of the shifts.  Each row is
    formed once, by broadcasting; a system's unshifted rows are a view."""
    d = d.reshape(-1, 1, d.shape[-1])
    sigma = sigma.reshape(len(d), -1, 1)
    rows = d - sigma if shift else np.broadcast_to(
        d, (len(d), sigma.shape[1], d.shape[2]))
    return rows.reshape(-1, d.shape[2])


def _inverse_pivots(a11, a12, a22, odd, neg, ok):
    """(neg, ok, N) after the 2x2 pivots at the positions ``odd``: their
    negative eigenvalues added to neg per shift, whether all are regular
    anded into ok, and N = -X, their negated inverses."""
    p11, p12, p22 = a11[:, odd], a12[:, odd], a22[:, odd]
    det = p11 * p22 - p12 * p12
    count, regular = _negatives(p11, det)
    r = -1.0 / det
    return (neg + np.add.reduce(count, axis=1),
            ok & np.logical_and.reduce(regular, axis=1),
            [p22 * r, p12 / det, p11 * r])


def _kept(a, left, right):
    """The kept nodes of one level: the even positions, with left added to
    all but the last and right to all but the first, and for an even
    number of nodes the last node, as it was."""
    h = left.shape[1]
    out = np.empty((a.shape[0], a.shape[1] - h))
    out[:, :h + 1] = a[:, ::2]
    out[:, :h] += left
    out[:, 1:h + 1] += right
    if a.shape[1] % 2 == 0:
        out[:, -1] = a[:, -1]
    return out


def _joined(new, u):
    """The couplings of the kept nodes: new, through each eliminated node,
    and for an even number of nodes the last of u, which joins the last
    two kept nodes directly."""
    return np.concatenate((new, u[:, -1:]), axis=1) if u.shape[1] % 2 else new


def _negatives(s11, det):
    """Elementwise: the negative eigenvalues of the symmetric 2x2 pivots
    with top-left entry s11 and determinant det, and whether det is
    nonzero and finite.  A scalar pivot s is s11 = det = s."""
    return ((det < 0.0) + 2 * ((det > 0.0) & (s11 < 0.0)),
            (det != 0.0) & np.isfinite(det))


def _schur_d1(end, w_off, w):
    """(b, b), b the last Schur complement per shift (row) and twist
    (column); w has one row per twist.  With s0 = rho_0 - (w_off + u),
    dm = rho_{m-1} - (w_off + u) and |w| = 1,
        b s0 = s0 dm - |u + w_off conj(w)|^2
             = rho_0 rho_{m-1} - (w_off + u)(rho_0 + rho_{m-1})
               + 2 u w_off (1 - Re w).
    Near w = 1 the expanded terms do not cancel where the reduction's do
    not: negative couplings and row sums near zero.  Where Re w < 0 the
    last term cancels against the others, so there b is taken as
    dm - |u + w_off conj(w)|^2 / s0."""
    s0, r0, rm, u = (v[:, None] for v in end)
    wr, wi = w[:, 0].real, w[:, 0].imag
    expanded = (r0 * rm - (w_off + u) * (r0 + rm)
                + 2.0 * u * w_off * (1.0 - wr)) / s0
    direct = rm - (w_off + u) - ((u + w_off * wr) ** 2 + (w_off * wi) ** 2) / s0
    b = np.where(wr < 0.0, direct, expanded)
    return b, b


def _schur_d2(end, w_off, w):
    """(B11, det B) of B = D_{m-1} - sigma I - C^H X0 C per shift (row)
    and twist (column), C = U + w_off diag(conj w); w has one row (w1, w2)
    per twist.  Real and imaginary parts are carried apart."""
    (x11, x12, x22, u11, u12, u21, u22,
     a11, a12, a22) = (v[:, None] for v in end)
    c11r, c11i = u11 + w_off * w[:, 0].real, -w_off * w[:, 0].imag
    c22r, c22i = u22 + w_off * w[:, 1].real, -w_off * w[:, 1].imag
    # G = X0 C
    g11r, g11i = x11 * c11r + x12 * u21, x11 * c11i
    g12r, g12i = x11 * u12 + x12 * c22r, x12 * c22i
    g21r, g21i = x12 * c11r + x22 * u21, x12 * c11i
    g22r, g22i = x12 * u12 + x22 * c22r, x22 * c22i
    b11 = a11 - (c11r * g11r + c11i * g11i + u21 * g21r)
    b22 = a22 - (u12 * g12r + c22r * g22r + c22i * g22i)
    b12r = a12 - (c11r * g12r + c11i * g12i + u21 * g22r)
    b12i = c11r * g12i - c11i * g12r + u21 * g22i
    return b11, b11 * b22 - (b12r * b12r + b12i * b12i)


def _systems(op: BandOperator) -> list:
    """The systems of a stack, each as its own operator; [op] for one."""
    if op.diag.ndim == op.dim:
        return [op]
    return [replace(op, diag=op.diag[:, j]) for j in range(op.diag.shape[1])]


def _reduced_counts(op: BandOperator, shifts: tuple) -> tuple:
    """Count-only ``inertia`` of a cyclic operator, or of a stack of them,
    by odd-even reduction: (the counts, an int array with a row per
    (system, shift), system by system, and a column per twist, one for an
    operator that is no ladder; the Dirichlet count of each row, -1 where
    its pivots break down).  The kernels form each row's shifted diagonal
    once, by broadcasting.
    A row whose pivots break down anywhere, the last Schur complement of
    any twist included, takes its counts from the node-order sweep of its
    system alone (``_node_order_counts``); its Dirichlet count stays the
    reduction's."""
    w = np.array(op.wrap_mult, dtype=complex).reshape(-1, op.dim)
    reduce, schur = ((_inertia_d1_reduction, _schur_d1) if op.dim == 1
                     else (_inertia_d2_reduction, _schur_d2))
    systems = _systems(op)
    sigmas = shifts * len(systems)
    diag = op.diag.T
    lists = (diag, op.off, op.wrap_off) if op.dim == 1 else (*diag, op.off)
    # a pivot that breaks down leaves inf or nan behind it, not a warning
    with np.errstate(all="ignore"):
        neg, ok, end, dirichlet = reduce(*lists, np.array(sigmas, dtype=float))
        count, regular = _negatives(*schur(end, op.wrap_off, w))
    count = neg[:, None] + count
    for row in np.flatnonzero(~(ok & regular.all(axis=1))).tolist():
        count[row] = _node_order_counts(systems[row // len(shifts)],
                                        sigmas[row])
    return count, dirichlet


def _node_order_counts(op: BandOperator, sigma: float) -> list:
    """The counts below sigma of a cyclic operator, one per twist, from the
    sweep in node order: the fallback of a count-only call whose
    reduction breaks down.  Each is taken at sigma itself, whatever its
    log|det|, unless a pivot breaks down, which moves the shift
    (``_retry_shift``)."""
    out = _sweep(op, *_kernel(op), sigma, logdet=False)
    return [c for c, _ in out] if op.ladder else [out[0]]


def inertia(op: BandOperator, sigma: float, *more: float,
            logdet: bool = True):
    """(number of eigenvalues strictly below sigma, log|det(A - sigma I)|).

    det(A - sigma I) is the product of (lambda_i - sigma), so its sign is
    (-1)**count.  A twist ladder gets a list with one such pair per twist,
    each equal to the sweep of that twist alone.  With more shifts the
    result is a list with one result per shift, in order, each equal to
    ``inertia(op, shift)`` bit for bit: the coefficient lists are converted
    once and each shift is swept as it would be alone.  Each shift is
    taken as a Python float: the node loops run on floats, and a numpy
    scalar gives the same bits at about half their speed.

    A band operator is taken, once at entry, as the cyclic one with no
    wrap, w_off = 0 and unit multipliers, in both orders of elimination.
    Only locating an eigenvalue reads log|det|.  With ``logdet=False``
    the result is (counts, dirichlet), whatever the operator and however
    many shifts, from odd-even reduction, which eliminates in another
    order and so gives the same inertia: counts an int array with a row
    per shift and a column per twist, one column for an operator that is
    no ladder.  For a band operator dirichlet is None; for a cyclic one
    it is an int array with a row per shift: the counts below it of the
    operator with node 0 deleted, which is the Dirichlet operator of the
    same system and mesh, -1 where a pivot of it breaks down.  The
    reduction holds them for free: node 0 enters no other pivot.  A row
    whose pivots break down, in the reduction or in the last Schur
    complement of a twist, takes its counts from the sweep in node order
    of its system alone.  A count-only call on systems on one mesh that
    share the couplings and the wrap also takes them as a stack
    (``BandOperator``): then the rows run over (system, shift), system by
    system, each equal to the system's own call at the shift.
    """
    if op.m < 4:
        raise NumericalError("operator too small for the elimination sweep")
    shifts = tuple(map(float, (sigma, *more)))
    band = not op.cyclic
    if band:
        op = replace(op, wrap_off=0.0, wrap_mult=(1.0,) * op.dim)
    if not logdet:
        counts, dirichlet = _reduced_counts(op, shifts)
        return counts, None if band else dirichlet
    if op.diag.ndim > op.dim:
        raise ValidationError("only the odd-even reduction takes a stack of "
                              "systems")
    kernel, lists = _kernel(op)
    out = [_sweep(op, kernel, lists, s) for s in shifts]
    return out if more else out[0]


def _sweep(op: BandOperator, kernel, lists: tuple, sigma: float,
           logdet: bool = True):
    """``inertia`` by the node-order sweep at one shift; a pivot breakdown,
    or with ``logdet`` a non-finite log|det|, moves the shift
    (``_retry_shift``) and sweeps again."""
    for attempt in range(4):
        shift = _retry_shift(op, sigma, attempt) if attempt else sigma
        try:
            out = kernel(*lists, shift)
            if not op.ladder:
                out = _finish(op, out, op.wrap_mult)
        except _PivotBreakdown:
            continue
        # a ladder's loop state is shared, so a breakdown in it retries all
        if not logdet or isfinite(out[1]):
            return _finish_ladder(op, sigma, out, logdet) if op.ladder else out
    raise NumericalError(f"inertia sweep kept hitting singular pivots at sigma={sigma!r}")


def _retry_shift(op: BandOperator, sigma: float, attempt: int) -> float:
    """The shift of ``_sweep``'s retry ``attempt`` after a breakdown at
    sigma: moved by attempt * 1e-13 of its scale, but by at least attempt
    ulps of the largest diagonal entry, as a smaller move can round away
    in every shifted diagonal entry and leave each pivot as it was.  A
    count-only call meets it only through a row that the reduction could
    not pivot."""
    diag = op.diag if op.dim == 1 else op.diag[:, ::2]
    ulp = float(np.spacing(np.abs(diag).max()))
    return sigma + max(attempt * 1e-13 * max(1.0, abs(sigma)), attempt * ulp)


def _finish_ladder(op: BandOperator, sigma: float, end: tuple,
                   logdet: bool) -> list:
    """Each twist's (count, log|det|) from the shared loop's end state; a
    twist whose last pivot breaks down, or with ``logdet`` whose log|det|
    is not finite, is swept again alone, as ``_sweep`` sweeps it."""
    out = []
    for w in op.wrap_mult.tolist():     # Python complex: finishes run faster
        try:
            res = _finish(op, end, w)
        except _PivotBreakdown:
            res = None
        if res is None or (logdet and not isfinite(res[1])):
            alone = replace(op, wrap_mult=w)
            res = (inertia(alone, sigma) if logdet
                   else (_node_order_counts(alone, sigma)[0], None))
        out.append(res)
    return out


def eigenvalues_in(op: BandOperator, lo: float, hi: float, tol: float,
                   near: Optional[float] = None) -> np.ndarray:
    """All eigenvalues in (lo, hi], each the midpoint of a bracket no wider
    than tol.

    With ``near`` (inside the window) only the eigenvalues next to it are
    located: the largest below it and the smallest at or above it.
    """
    if near is None:
        end_lo, end_hi = inertia(op, lo, hi)
        return _bisect(op, lo, hi, end_lo, end_hi, tol)
    if not lo < near < hi:
        raise ValidationError(f"near={near!r} lies outside ({lo!r}, {hi!r})")
    end_lo, end_near, end_hi = inertia(op, lo, near, hi)
    want = (end_near[0] - 1, end_near[0] + 1)
    return np.concatenate((_bisect(op, lo, near, end_lo, end_near, tol, want),
                           _bisect(op, near, hi, end_near, end_hi, tol, want)))


def _bisect(op: BandOperator, lo: float, hi: float, end_lo: tuple,
            end_hi: tuple, tol: float, want: Optional[tuple] = None) -> np.ndarray:
    """The eigenvalues in (lo, hi], given the sweeps (count, log|det|) at
    both ends; with ``want = (i, j)`` only those numbered i <= k < j from
    the bottom of the spectrum.

    Bisection on the count splits the window until an interval isolates
    one eigenvalue, which ``_secant`` then refines; an interval holding
    more is bisected down to tol.
    """
    first, last = want if want is not None else (end_lo[0], end_hi[0])
    out = []
    stack = [(lo, hi, end_lo, end_hi)]
    while stack:
        a, b, end_a, end_b = stack.pop()
        ca, cb = end_a[0], end_b[0]
        k = min(cb, last) - max(ca, first)
        if k <= 0:
            continue
        if b - a <= tol:
            out.extend([0.5 * (a + b)] * k)
            continue
        if cb - ca == 1:
            out.append(_secant(op, a, b, end_a, end_b, tol))
            continue
        mid = 0.5 * (a + b)
        # rounding can break exact monotonicity of the count right at a
        # degenerate eigenvalue; clamping keeps the split conservative
        cm, lm = inertia(op, mid)
        end_m = (min(max(cm, ca), cb), lm)
        stack.append((a, mid, end_a, end_m))
        stack.append((mid, b, end_m, end_b))
    return np.array(sorted(out))


def _secant(op: BandOperator, a: float, b: float, end_a: tuple,
            end_b: tuple, tol: float) -> float:
    """The one eigenvalue in (a, b], refined by safeguarded secant steps.

    The steps solve f = 0 for f(x) = (-1)**count * exp(log|det|), through
    the last two points; the ratio of two values is exp of a difference,
    so it cannot overflow.  The full determinant is smooth across the
    interval, where its last pivot alone would have poles.  The bracket
    moves by the count alone.  A step that leaves the stretch between the
    bracket end of smaller |f| and the midpoint is a bisection instead
    (Dekker's rule), so is the step after two that failed to halve the
    bracket, and each trial point stays at least tol/2 inside the
    bracket.  Returns the midpoint of a bracket no wider than tol.
    """
    c = end_a[0]                        # the count left of the eigenvalue
    half = 0.5 * tol
    la, lb = end_a[1], end_b[1]
    # the last two points (x, sign of f, log|f|); f is known up to (-1)**c
    x0, s0, l0 = a, 1.0, la
    x1, s1, l1 = b, -1.0, lb
    checkpoint, steps = b - a, 0
    while b - a > tol:
        mid = x = 0.5 * (a + b)
        if steps < 2 or b - a <= 0.5 * checkpoint:
            ratio = s0 * s1 * exp(min(l0 - l1, _MAX_LOG_RATIO))    # f0 / f1
            if ratio != 1.0:
                x = x1 - (x1 - x0) / (1.0 - ratio)
            best = a if la < lb else b
            if not min(best, mid) <= x <= max(best, mid):
                x = mid
        if steps == 2:
            checkpoint, steps = b - a, 0
        x = min(max(x, a + half), b - half)
        count, ld = inertia(op, x)
        if count <= c:
            a, la, s = x, ld, 1.0
        else:
            b, lb, s = x, ld, -1.0
        x0, s0, l0, x1, s1, l1 = x1, s1, l1, x, s, ld
        steps += 1
    return 0.5 * (a + b)
