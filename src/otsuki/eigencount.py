"""Self-contained eigenvalue counting for the discretized operators.

The discrete problems are Hermitian block tridiagonal matrices whose
off-diagonal couplings are scalar multiples of the identity, plus a single
wrap-around block for periodic-type boundary conditions.  Symmetric
block elimination of A - sigma*I is a congruence transform, so the signs
of the pivot blocks give the number of eigenvalues below sigma (Sylvester
inertia), and the product of their determinants is det(A - sigma*I).
A count needs only the signs; log|det| costs a logarithm per pivot, and
only locating an eigenvalue reads it, so ``inertia`` takes it on request.
Everything here - counts and individual eigenvalues - is built on that
one O(n) sweep; the wrap-around entries only ever fill the last block row,
so the sweep runs in real arithmetic and the unit-modulus wrap multipliers
enter only the last Schur complement.
Twisted operators, scalar or 2x2, that differ only in those multipliers
form a twist ladder: one loop, then an O(1) finish per twist, counts
them all.  The finish takes only real parts of products of conjugates,
and |b12|^2, so conjugate multipliers give the same count and log|det|
bit for bit; ``spectral.ladder_counts`` therefore sweeps one twist of
each conjugate pair.  The scalar band sweep is the scalar cyclic sweep
with no wrap.  Callers that need one operator at several shifts ask
``inertia`` for all of them at once, so the coefficient lists are
converted once.  An eigenvalue is bracketed by the count: bisection
isolates it, and secant steps on the determinant, kept inside the
bracket, refine it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, isfinite, log
from typing import Optional

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
    may carry a twist ladder instead: ``wrap_mult`` a tuple of per-twist
    multipliers, (w,) or (w1, w2), which ``inertia`` counts all at once.
    """

    dim: int
    diag: np.ndarray
    off: np.ndarray
    wrap_off: Optional[float] = None
    wrap_mult: Optional[tuple] = None
    meta: dict = None

    @property
    def m(self) -> int:
        return self.diag.shape[0]

    @property
    def cyclic(self) -> bool:
        return self.wrap_off is not None

    @property
    def ladder(self) -> bool:
        return self.cyclic and isinstance(self.wrap_mult[0], tuple)

    def is_complex(self) -> bool:
        mults = sum(self.wrap_mult, ()) if self.ladder else self.wrap_mult
        return self.cyclic and any(abs(complex(w).imag) > 0 for w in mults)

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
# Each sweep returns (count, log|det(A - sigma I)|), a cyclic kernel its
# end state before the last Schur complement, which ``_finish_d1`` or
# ``_finish_d2_cyclic`` completes for one twist.  The determinant is the
# product of the pivot determinants, so its log is one accumulation per
# pivot; a non-finite pivot leaves a non-finite sum, which ``inertia``
# treats like a zero pivot.  A count takes no logarithm: without
# ``logdet`` the loop sums the raw pivot determinants instead, and that
# sum, finite unless a pivot is infinite or the pivots add up past the
# float range, gets the same check.  Only the last pivot, outside the
# loop, takes its log in both modes.  The hot loops inline
# ``_pivot``/``_block`` and do real arithmetic only.
#
# A cyclic sweep eliminates the rows in order, as a band sweep does, and
# also tracks the last row.  Eliminating row j < m-2 leaves diag(w) R on
# block (m-1, j+1), with R real (R <- -e_j R X_j, X_j the inverse pivot),
# and takes diag(w) R X_j R^T diag(w)^H off block (m-1, m-1); the loop
# sums R X_j R^T into P.  So the unit-modulus multipliers w enter only the
# last Schur complement,
#     D_{m-1} - sigma I - diag(w) P diag(w)^H - F X_{m-2} F^H,
# with F = diag(w) R + e_{m-2} I formed before it is squared (its two
# terms nearly cancel next to an eigenvalue).  With no wrap R stays 0, so
# the scalar band sweep is the scalar cyclic sweep with w_off = 0.  The
# 2x2 band sweep stays separate: it costs about half as much per node.
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


def _inertia_d1(d, e, w_off, sigma, logdet):
    m = len(d)
    neg = 0
    ld = 0.0
    s = d[0] - sigma
    r = w_off
    b = d[m - 1] - sigma
    for ej, dj in zip(e, d[1:m - 1]):
        if s > 0.0:
            ld += log(s) if logdet else s
        elif s < 0.0:
            neg += 1
            ld += log(-s) if logdet else s
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


def _inertia_d2_band(d11, d12, d22, e, sigma, logdet):
    neg = 0
    ld = 0.0
    s11, s12, s22 = d11[0] - sigma, d12[0], d22[0] - sigma
    for ej, a11, a12, a22 in zip(e, d11[1:], d12[1:], d22[1:]):
        det = s11 * s22 - s12 * s12
        if det > 0.0:
            ld += log(det) if logdet else det
            if s11 < 0.0:
                neg += 2
        elif det < 0.0:
            neg += 1
            ld += log(-det) if logdet else det
        else:
            raise _PivotBreakdown
        ee = ej * ej / det
        s11, s12, s22 = (a11 - sigma - ee * s22,
                         a12 + ee * s12,
                         a22 - sigma - ee * s11)
    c, l = _block(s11 * s22 - s12 * s12, s11)
    return neg + c, ld + l


def _inertia_d2_cyclic(d11, d12, d22, e, w_off, sigma, logdet):
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
            ld += log(det) if logdet else det
            if s11 < 0.0:
                neg += 2
        elif det < 0.0:
            neg += 1
            ld += log(-det) if logdet else det
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
    if op.m < 4:
        raise NumericalError("operator too small for the elimination sweep")
    e = op.off.tolist()
    if op.dim == 1:
        return _inertia_d1, (op.diag.tolist(), e,
                             op.wrap_off if op.cyclic else 0.0)
    if not op.cyclic:
        return _inertia_d2_band, (*op.diag.T.tolist(), e)
    return _inertia_d2_cyclic, (*op.diag.T.tolist(), e, op.wrap_off)


def _finish(op: BandOperator, end: tuple, w: tuple) -> tuple:
    """One twist's (count, log|det|): w holds its per-channel multipliers."""
    finish = _finish_d1 if op.dim == 1 else _finish_d2_cyclic
    return finish(end, *map(complex, w))


def inertia(op: BandOperator, sigma: float, *more: float,
            logdet: bool = True):
    """(number of eigenvalues strictly below sigma, log|det(A - sigma I)|).

    det(A - sigma I) is the product of (lambda_i - sigma), so its sign is
    (-1)**count.  A twist ladder gets a list with one such pair per twist,
    each equal to the sweep of that twist alone.  With more shifts the
    result is a list with one result per shift, in order, each equal to
    ``inertia(op, shift)`` bit for bit: the coefficient lists are converted
    once and each shift is swept as it would be alone.  Only locating an
    eigenvalue reads log|det|: with ``logdet=False`` each pair is
    (count, None), the same count from the same sweep, which takes no
    logarithm per pivot.
    """
    kernel, lists = _kernel(op)
    out = [_sweep(op, kernel, lists, s, logdet) for s in (sigma, *more)]
    return out if more else out[0]


def _sweep(op: BandOperator, kernel, lists: tuple, sigma: float,
           logdet: bool):
    """``inertia`` at one shift; a pivot breakdown or a non-finite log|det|
    (pivot sum, without ``logdet``) moves the shift by 1e-13 of its scale
    and sweeps again."""
    scale = max(1.0, abs(sigma))
    for attempt in range(4):
        try:
            out = kernel(*lists, sigma + attempt * 1e-13 * scale, logdet)
            if not op.ladder and (op.dim == 1 or op.cyclic):
                out = _finish(op, out, op.wrap_mult if op.cyclic else (0.0,))
        except _PivotBreakdown:
            continue
        # a ladder's loop state is shared, so a breakdown in it retries all
        if isfinite(out[1]):
            if op.ladder:
                return _finish_ladder(op, sigma, out, logdet)
            return out if logdet else (out[0], None)
    raise NumericalError(f"inertia sweep kept hitting singular pivots at sigma={sigma!r}")


def _finish_ladder(op: BandOperator, sigma: float, end: tuple,
                   logdet: bool) -> list:
    """Each twist's ``inertia`` result from the shared loop's end state; a
    twist whose last pivot breaks down is swept again alone."""
    out = []
    for w in op.wrap_mult:
        try:
            res = _finish(op, end, w)
        except _PivotBreakdown:
            res = 0, float("nan")
        if not isfinite(res[1]):
            res = inertia(replace(op, wrap_mult=w), sigma, logdet=logdet)
        out.append(res if logdet else (res[0], None))
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
        count, logdet = inertia(op, x)
        if count <= c:
            a, la, s = x, logdet, 1.0
        else:
            b, lb, s = x, logdet, -1.0
        x0, s0, l0, x1, s1, l1 = x1, s1, l1, x, s, logdet
        steps += 1
    return 0.5 * (a + b)
