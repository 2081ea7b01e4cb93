"""Eigenvalue counts, spectrum listings, and the spectral index.

Counting convention: an eigenvalue is "zero" when its mesh-extrapolated
value lies within TAU_ZERO of the target level; one rule decides that
(``_zero_classes``, read by ``_located_counts`` and ``spectrum_below``).
The exact zero modes of the stability operator drift like h^2 under the
second-order discretization, which can exceed TAU_ZERO on coarse meshes;
every count therefore combines two meshes (n and 2n): the inertia sweeps
classify everything outside a small zone around the level, and the zone's
eigenvalues are Richardson extrapolated before classification.
Disagreement between the meshes is an error, never a guess.

Most zone eigenvalues are exact zero modes, and those need no location:
four window shifts, shared by every twist of a ladder, certify that all k
of a twist's zone eigenvalues lie in [-4w, w) on mesh n and in [-w, w/4)
on mesh 2n, with w = (TAU_ZERO - 3 LOCATE_ERR) / 5.  Located, each would
lie within LOCATE_TOL / 2 of its eigenvalue, so its extrapolation within
5w/3 + LOCATE_ERR = TAU_ZERO / 3 of the level: class zero, and too far
from +-TAU_ZERO for the ambiguity and third-mesh rules to fire.  So a
certified twist counts exactly as if located.  Every other zone
eigenvalue is located on both meshes (bisection on the count isolates
each one, count-bracketed secant steps on the determinant refine it).
Counting reads no determinant, so each mesh's zone ends and windows
are one count-only call (``_counted``), one reduction for a single
system, a twist ladder, or a stack of ladders that share the mesh, the
level and the block size: mode 0's channels 1 and 2, and modes 1 and 2
(``_ladders``).  One classifier (``_zone_rows``) reads a ladder's rows
of that result, (counts, Dirichlet counts), once for every twist, and
settles its twists as array expressions.  Location sweeps the four zone
ends again with log|det|, for a ladder on the sub-ladder of the twists
it locates.  A ladder's reduction also counts the Dirichlet problem of
its system at the zone ends, and ``_settled`` makes those four counts
one, or None unless they agree; the boundary-form route's gate reads
that count of modes 1 and 2 under 'both'.  Under 'edwards', which
sweeps no ladder of modes 1 and 2, the one-twist, zone-ends case of
the stack, their twisted operators at omega = 1, counts both Dirichlet
problems (``_dirichlet_ends``).  Laplace l = 1 is counted at level 2,
so no other ladder shares its shifts, and it is reduced alone.

Each count-only call of a stack on one mesh is ``_mesh_counts``.
``_counted`` counts mesh n first, then hands the mesh-2n call to its
``mesh2n`` argument, which the counting readers (``_ladders``,
``ladder_counts``, ``_dirichlet_ends``, ``spectral_index``) pass on:
``pipeline`` gives one that may return the same call made elsewhere
from the trajectory's samples alone (``_mesh2n``).  Then a stack's
mesh-2n operators are built here only for the twists located.

The coefficients repeat every half period T, so a problem over the closed
length t0 = 2qT is the direct sum of its 2q twisted problems on [0, T],
also for the discrete operators when the t0 mesh is 2q times as fine.
Every count below l = 3 is therefore a twist ladder on [0, T] at mesh n,
and one class rule (``class_counts``) sums the twists of a mode.  Twists
r and 2q - r are complex conjugates, which the sweeps count bit for bit
alike, so a ladder holds the q + 1 twists r = 0..q and the rows r > q are
copies; the boundary-form route still counts all 2q twists on its own.

The spectral index needs the Laplace l = 0 spectrum below 2.  That is
the spectrum of mode-0 channel 2 below 0, shifted by 2, at every twist
(``spectral_index``), so the rows of the channel-2 ladder stand in for a
Laplace l = 0 ladder, and only Laplace l = 1 is swept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .eigencount import _bisect, eigenvalues_in, inertia
from .errors import (AmbiguousClassificationError, NumericalError,
                     ValidationError)
from .geodesic import Trajectory
from .sl import BoundaryCondition, SLSystem, roots_of_unity_ladder
from .surface import (fourier_block_system, l0_channel_system,
                      laplace_system, separated_coefficients)

TAU_ZERO = 1e-5     # half-width of the "zero" class around the level
ZONE = 2e-3         # smallest half-width of the zone refined by secant steps
# zone eigenvalues are located to within LOCATE_TOL / 2 on each mesh, so
# their extrapolation (4 lam_2n - lam_n) / 3 to within LOCATE_ERR
LOCATE_TOL = TAU_ZERO * 1e-2
LOCATE_ERR = 5.0 * LOCATE_TOL / 6.0
# exact zero modes drift below zero like D h^2 with D <= ~0.03 across the
# families probed; the refinement zone scales with the mesh (10x margin)
# so coarse runs still capture them, capped well under the genuine
# eigenvalue spacing
_DRIFT_SCALE = 0.3
_ZONE_CAP = 0.02
# the certificate window: a zone eigenvalue in [-4w, w) on mesh n and in
# [-w, w/4) on mesh 2n extrapolates to within TAU_ZERO / 3 of the level
_WINDOW = (TAU_ZERO - 3.0 * LOCATE_ERR) / 5.0
# the shifts, in units of _WINDOW, of the window sweeps on the meshes n and
# 2n; the counts there must read below, below + k on each mesh
_WINDOW_SHIFTS = ((-4.0, 1.0), (-1.0, 0.25))
# the builds of the ladders that a family stacks: mode 0's two channels,
# and the coupled blocks of modes 1 and 2
_CHANNELS = (partial(l0_channel_system, 1), partial(l0_channel_system, 2))
_MODES = (partial(fourier_block_system, 1), partial(fourier_block_system, 2))
# the stack (builds, level, ladders) of ``spectral_index``: Laplace l = 1,
# whose ladder no other shares, at level 2
_INDEX_STACK = ((partial(laplace_system, 1),), 2.0, True)


@dataclass(frozen=True)
class SpectrumSummary:
    eigenvalues: list
    neg_count: int
    zero_count: int
    mesh: int
    cutoff: float
    l: Optional[int] = None
    bc: str = ""
    omega_index: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "bc": self.bc,
            "omega_index": self.omega_index,
            "n": self.mesh,
            "cutoff": self.cutoff,
            "eigenvalues": list(map(float, self.eigenvalues)),
            "neg": self.neg_count,
            "zero": self.zero_count,
        }


def _extrapolated(operator, n: int, lo: float, hi: float, tol: float,
                  ends: Optional[list] = None):
    """The eigenvalues in (lo, hi] on the meshes n and 2n (``operator(k)``),
    Richardson extrapolated, (4 lam_2n - lam_n) / 3.
    With ``ends``, the sweeps (count, log|det|) at lo and hi of each mesh,
    they are bisected from those; else the ends are swept here.  Meshes
    that hold different numbers of eigenvalues are ambiguous."""
    if ends is None:
        lam1, lam2 = (eigenvalues_in(operator(k * n), lo, hi, tol=tol)
                      for k in (1, 2))
    else:
        lam1, lam2 = (_bisect(operator(k * n), lo, hi, *end, tol)
                      for k, end in zip((1, 2), ends))
    if len(lam1) != len(lam2):
        raise AmbiguousClassificationError(
            f"({lo:g}, {hi:g}] holds {len(lam1)} eigenvalues at mesh {n} "
            f"but {len(lam2)} at the doubled mesh")
    return (4.0 * lam2 - lam1) / 3.0


def _floor(system: SLSystem, n: int) -> float:
    """A lower bound, less one, for every eigenvalue on the meshes n and 2n."""
    return min(system.operator(k).gershgorin_lower() for k in (n, 2 * n)) - 1.0


def _zone(system: SLSystem, n: int) -> float:
    """The half-width of the zone around the level on the meshes n and 2n:
    ZONE, or ten times the drift of an exact zero mode on mesh n, capped."""
    return max(ZONE, min(_ZONE_CAP, _DRIFT_SCALE * (system.length / n) ** 2))


def _stack(systems: list, m: int, ladder: Optional[np.ndarray] = None):
    """The systems' operators on mesh m as one stack for a count-only
    ``inertia`` call (one system: its operator), with the wrap multipliers
    of ``ladder`` if given.  The systems share the weight p at the half
    nodes, so the couplings and the wrap; each keeps its own operator
    (``SLSystem.operator``), and no system keeps the stack."""
    ops = [system.operator(m) for system in systems]
    op = ops[0] if len(ops) == 1 else replace(
        ops[0], diag=np.stack([op.diag for op in ops], axis=1))
    return op if ladder is None else replace(op, wrap_mult=ladder)


def _mesh_counts(systems: list, n: int, level: float,
                 ladder: Optional[np.ndarray], windows: bool, k: int):
    """The count-only ``inertia`` result on mesh k n, k = 1 or 2, of the
    systems' stack (``_stack``, with the wrap multipliers of ``ladder``
    if given), at the zone ends and, with ``windows``, the window shifts
    of that mesh.  The systems share the length, so the zone.  Every
    count-only call of a stack goes through it: ``_counted`` and
    ``_mesh2n``."""
    zone = _zone(systems[0], n)
    shifts = (level - zone, level + zone,
              *([level + s * _WINDOW for s in _WINDOW_SHIFTS[k - 1]]
                if windows else ()))
    return inertia(_stack(systems, k * n, ladder), *shifts, logdet=False)


def _counted(systems: list, n: int, level: float,
             ladder: Optional[np.ndarray] = None, windows: bool = True,
             mesh2n=None) -> list:
    """Each system's [(counts, dirichlet) on mesh n, the same on mesh 2n]:
    its rows of one count-only call per mesh on the systems' stack
    (``_mesh_counts``), mesh n first.  counts has a row per twist and a
    column per shift, the zone ends and, with ``windows``, the window
    shifts; dirichlet an entry per shift, None for a band operator.

    ``mesh2n``, if given, is handed the mesh-2n call and returns its
    result (``pipeline`` gives one that may have had it made elsewhere).
    Mesh n is counted first either way, so an error on it surfaces
    before the mesh-2n result is read."""
    meshes = []
    for k in (1, 2):
        count = partial(_mesh_counts, systems, n, level, ladder, windows, k)
        counts, dirichlet = (count() if k == 1 or mesh2n is None
                             else mesh2n(count))
        # the rows run over (system, shift), system by system
        counts = counts.reshape(len(systems), 4 if windows else 2, -1)
        meshes.append(zip(counts.transpose(0, 2, 1),
                          [None] * len(systems) if dirichlet is None
                          else dirichlet.reshape(len(systems), -1)))
    return [list(rows) for rows in zip(*meshes)]


def _twisted(builds, traj: Trajectory) -> list:
    """The systems of ``builds`` on [0, T] at omega = 1; the twisted
    operators of a ladder differ from theirs only in the wrap."""
    return [build(traj, BoundaryCondition.twisted(1.0)) for build in builds]


def _ladder(traj: Trajectory, dim: int) -> np.ndarray:
    """The wrap multipliers of the twists r = 0..q of a ladder of block
    size dim: (omega_r, -omega_r), or (omega_r,)."""
    q = traj.family.rotation.q
    omega = roots_of_unity_ladder(q)[:q + 1, None]
    return np.hstack((omega, -omega))[:, :dim]


def _mesh2n(traj: Trajectory, n: int, builds, level: float, ladders: bool):
    """The mesh-2n result of ``_mesh_counts`` for the stack (builds, level,
    ladders) of the trajectory, built from its samples alone, as
    ``_counted`` counts it for ``_ladders`` (``ladders``: the twist
    ladders, with windows) or ``_dirichlet_ends`` (omega = 1, the zone
    ends alone)."""
    systems = _twisted(builds, traj)
    ladder = _ladder(traj, systems[0].dim) if ladders else None
    return _mesh_counts(systems, n, level, ladder, ladders, 2)


def _zone_rows(system: SLSystem, n: int, level: float,
               ladder: Optional[np.ndarray] = None,
               counted: Optional[list] = None) -> tuple:
    """(rows, dirichlet).  rows is an int array holding (below, at, k) at
    the level for each twist of ``ladder`` (rows of wrap multipliers that
    replace the system's), or one row for the system alone; k counts the
    eigenvalues in the mesh-n zone (level - zone, level + zone].
    dirichlet is the count below the zone of the Dirichlet problem of the
    same system, read from the by-products of the reductions
    (``_settled``), or None where they do not settle it or the system has
    no wrap.

    ``counted`` holds the system's rows of a stack's count-only results
    (``_counted``); without it the system is counted alone.  Each count
    serves every twist: the zone ends and windows of a mesh, counted in
    one call, and the ends with log|det| for location; a ladder is
    settled as array expressions over its twists.  A twist's k zone
    eigenvalues are zero if its window counts read below, below + k on
    both meshes (see the module docstring), else they are located.  The
    twists to locate are known before any is located, so one log|det|
    call per mesh sweeps their sub-ladder alone.  The first twist whose
    meshes disagree raises once the twists before it are counted; an
    ambiguity in a ladder names the system's l and the twist r."""
    def operator(k: int, mult=ladder):
        op = system.operator(k)
        return op if mult is None else replace(op, wrap_mult=mult)

    if counted is None:
        counted = _counted([system], n, level, ladder)[0]
    zone = _zone(system, n)
    lo, hi = level - zone, level + zone
    # one row per twist, one column per shift: the zone ends, the windows
    ends = [counts for counts, _ in counted]
    dirichlet = _settled([below for _, below in counted])
    (below, top), (below2, top2) = ends[0][:, :2].T, ends[1][:, :2].T
    k = top - below
    faults = np.flatnonzero((below != below2) | (top2 - below != k))
    stop = faults[0] if faults.size else len(k)

    # a twist's windows certify it if they read below, below + k on both
    # meshes
    passing = np.logical_and.reduce(
        [(end[:, 2] == below) & (end[:, 3] == below + k) for end in ends])
    need = np.flatnonzero((k != 0) & ~passing)
    need = need[need < stop].tolist()
    rows = np.stack((below, k, k), axis=1)
    located = {}
    if need:
        sub = None if ladder is None else ladder[need]
        sweeps = [inertia(operator(m, sub), lo, hi, logdet=True)
                  for m in (n, 2 * n)]
        # each located twist's (lo, hi) sweeps on mesh n, then on mesh 2n
        located = dict(zip(need, zip(*([out] if ladder is None else zip(*out)
                                       for out in sweeps))))

    def disagreement(r: int) -> AmbiguousClassificationError:
        if below[r] != below2[r]:
            return AmbiguousClassificationError(
                f"count below {lo:g} changed under mesh doubling: "
                f"{below[r]} vs {below2[r]}")
        return AmbiguousClassificationError(
            f"zone population changed under mesh doubling: {k[r]} vs "
            f"{top2[r] - below[r]}")

    for r in need + faults[:1].tolist():
        try:
            if r == stop:
                raise disagreement(r)
            rows[r, :2] = _located_counts(
                partial(operator, mult=None if ladder is None
                        else ladder[r].tolist()),
                n, level, zone, int(below[r]), located[r])
        except AmbiguousClassificationError as exc:
            if ladder is None:
                raise
            raise AmbiguousClassificationError(
                f"{exc} (l = {system.l}, twist r = {r})") from exc
    return rows, dirichlet


def _settled(counts) -> Optional[int]:
    """The Dirichlet count below the zone, from ``counts``, the Dirichlet
    counts of a reduction on the meshes n and 2n, the zone ends first,
    when those four agree, so the zone is empty on both meshes, and none
    broke down (-1); else None, also for a band operator's (None)."""
    if counts[0] is None:
        return None
    values = set(np.ravel([mesh[:2] for mesh in counts]).tolist())
    return values.pop() if len(values) == 1 and -1 not in values else None


def _zero_classes(lam, level: float, err: float) -> np.ndarray:
    """The class of each eigenvalue level + lam: -1 below -tau, 0 within
    tau, 1 above; one within its error ``err`` of +-tau is ambiguous."""
    near = np.abs(np.abs(lam) - TAU_ZERO) <= err
    if np.any(near):
        raise AmbiguousClassificationError(
            "eigenvalue(s) within the location error of the classification "
            "boundary: " + np.array2string(lam[near] + level, precision=8))
    return np.where(lam < -TAU_ZERO, -1, np.where(lam > TAU_ZERO, 1, 0))


def _located_counts(operator, n: int, level: float, zone: float, below: int,
                    ends: list) -> tuple[int, int]:
    """(below, at) of a twist whose zone eigenvalues are located on the
    meshes n and 2n (``operator(k)``), from ``ends``, the zone end sweeps
    with log|det| of each mesh; ``below`` counts those under the zone.  A
    located value within its error bound of +-tau is ambiguous, and one
    near it is classified again on the meshes 2n and 4n."""
    lo, hi = level - zone, level + zone
    lam = _extrapolated(operator, n, lo, hi, LOCATE_TOL, ends) - level
    cls = _zero_classes(lam, level, LOCATE_ERR)
    borderline = (np.abs(np.abs(lam) - TAU_ZERO) < 2.0 * TAU_ZERO) & \
                 (np.abs(lam) > TAU_ZERO / 3.0)
    if np.any(borderline):
        # near the boundary the h^4 extrapolation remainder can decide the
        # class; resolve with a third mesh and insist the class is stable
        lam_fine = _extrapolated(operator, 2 * n, lo, hi, LOCATE_TOL)
        cls_fine = _zero_classes(lam_fine - level, level, LOCATE_ERR)
        if np.any(cls_fine[borderline] != cls[borderline]):
            raise AmbiguousClassificationError(
                "eigenvalue(s) too close to the classification boundary and "
                "unstable under refinement: "
                + np.array2string(lam[borderline] + level, precision=3)
                + f"; rerun with a finer mesh (n > {2 * n})")
        cls = cls_fine
    return below + int(np.sum(cls == -1)), int(np.sum(cls == 0))


def spectrum_counts(system: SLSystem, n: int) -> tuple[int, int]:
    """(#{lambda < -tau}, #{|lambda| <= tau}) of the system, classified by
    ``_zone_rows``: inertia outside [-zone, zone], certificate or location
    inside."""
    return tuple(_zone_rows(system, n, 0.0)[0][0, :2].tolist())


def spectrum_below(system: SLSystem, cutoff: float, n: int,
                   omega_index: Optional[int] = None) -> SpectrumSummary:
    """Everything below the cutoff: extrapolated eigenvalues plus counts.

    A listing that contradicts the counts, as far as it reaches, is
    ambiguous.  A cutoff that leaves no eigenvalue of the mesh-n operator
    above cutoff + ZONE asks for more than the mesh resolves, and is
    refused before anything is located: when its Gershgorin upper bound,
    the lower bound of -A negated, lies there, or its count there is its
    dimension.
    """
    if not math.isfinite(cutoff):
        raise ValidationError(f"cutoff must be finite, got {cutoff}")
    op, top = system.operator(n), cutoff + ZONE
    if (-replace(op, diag=-op.diag).gershgorin_lower() <= top
            or inertia(op, top, logdet=False)[0][0, 0] == op.m * op.dim):
        raise ValidationError(
            f"cutoff {cutoff:g} leaves no eigenvalue of the mesh-{n} "
            f"operator above {top:g}; a listing that high needs a finer "
            "mesh or a lower cutoff")
    neg, zero = spectrum_counts(system, n)
    tol = 1e-9      # so a listed value is extrapolated to within 5 tol / 6
    lam = _extrapolated(system.operator, n, _floor(system, n),
                        cutoff + ZONE, tol)
    keep = lam < cutoff
    cls = _zero_classes(lam[keep], 0.0, 5.0 * tol / 6.0)
    listed = int(np.sum(cls == -1)), int(np.sum(cls == 0))
    # a class is listed in full once the cutoff passes its upper edge
    for got, counted, edge in zip(listed, (neg, zero), (-TAU_ZERO, TAU_ZERO)):
        if got > counted or (cutoff > edge and got != counted):
            raise AmbiguousClassificationError(
                f"listing (neg, zero) = {listed} contradicts the counts "
                f"{(neg, zero)}")
    return SpectrumSummary(
        eigenvalues=[float(v) for v in lam[keep]], neg_count=neg,
        zero_count=zero, mesh=n, cutoff=cutoff, l=system.l,
        bc=system.bc.kind, omega_index=omega_index)


# ---------------------------------------------------------------------------
# twist ladders on [0, T], the class rule, spectral index, l >= 3 positivity

def ladder_counts(build, traj: Trajectory, n: int, level: float,
                  mesh2n=None) -> np.ndarray:
    """The (2q, 2) array of (below, at), the counts below and at the level
    that ``spectrum_counts`` makes at 0, of each twist omega_r =
    exp(i pi r / q), r = 0..2q-1, of ``build(traj, bc)``; row r is twist r.

    The twisted operators on [0, T] differ only in their wrap multipliers,
    (omega_r, -omega_r) or (omega_r,), so the zone ends and windows of a
    mesh are one reduction of the ladder r = 0..q; a twist whose zone
    holds eigenvalues that the windows do not certify is refined on its
    own operator.  The rows r > q are copied from r' = 2q - r: omega_r is
    exactly conj(omega_r'), and the sweeps take only real parts of
    products of conjugates, so the two twists count bit for bit alike.
    ``mesh2n`` is ``_counted``'s.
    """
    return next(_ladders([build], traj, n, level, mesh2n))[0]


def _ladders(builds, traj: Trajectory, n: int, level: float, mesh2n=None):
    """Yield, for each build in turn, (its ``ladder_counts`` rows, the
    Dirichlet count that ``_zone_rows`` hands out with them).

    The builds' twisted systems share the mesh, the weight p at the half
    nodes, so the couplings and the wrap, and the length T, so the zone;
    the level and the block size are the caller's to share.  So one
    count-only reduction per mesh of the stack of their ladders counts
    every ladder's zone ends and windows (``_counted``), and each ladder
    is classified from its rows, and its twists located, only when its
    turn comes: a caller that checks a ladder before it asks for the next
    sees the errors in the order of the builds.  If the stacked count of
    several ladders raises, each is counted alone in its turn, where its
    error surfaces as it would alone.  ``mesh2n`` is ``_counted``'s, for
    the stack.

    The Dirichlet count is that of the Dirichlet problem of a build's
    system, with the twisted ladder's length T, so its zone: its operator
    is the twisted one with node 0 deleted, which the ladder's reductions
    count at the zone ends for free, and ``edwards.dirichlet_negative_count``
    takes the settled count of modes 1 and 2 as ``known``."""
    q = traj.family.rotation.q
    systems = _twisted(builds, traj)
    ladder = _ladder(traj, systems[0].dim)
    try:
        counted = _counted(systems, n, level, ladder, mesh2n=mesh2n)
    except (NumericalError, ValidationError):
        if len(systems) == 1:
            raise
        counted = [None] * len(systems)
    for system, rows in zip(systems, counted):
        rows, dirichlet = _zone_rows(system, n, level, ladder, rows)
        rows = rows[:, :2]
        yield np.concatenate((rows, rows[q - 1:0:-1])), dirichlet


def class_counts(l: int, q: int, rows: np.ndarray) -> tuple[int, int]:
    """(below, at) of mode l: the ``ladder_counts`` rows summed over every
    twist for odd q, and for even q over the twists r = l (mod 2).  For
    even q the surface is invariant under the half-shift combined with the
    antipodal frame turn, which multiplies mode l by (-1)^l, so it keeps
    the twists with omega_r^q = (-1)^l."""
    return tuple((rows if q % 2 else rows[l % 2::2]).sum(axis=0).tolist())


def _dirichlet_ends(traj: Trajectory, n: int, mesh2n=None) -> dict:
    """{l: the Dirichlet count of mode l's ladder (``_ladders``)} for
    l = 1, 2, without their ladders: the one-twist, zone-ends case of
    ``_counted``, one count-only reduction per mesh of the stack of the
    two modes' twisted operators at omega = 1, whose Dirichlet counts at
    the zone ends are those of the Dirichlet blocks.  ``mesh2n`` is
    ``_counted``'s."""
    counted = _counted(_twisted(_MODES, traj), n, 0.0, windows=False,
                       mesh2n=mesh2n)
    return {l: _settled([below for _, below in rows])
            for l, rows in zip((1, 2), counted)}


def spectral_index(traj: Trajectory, n: int, channel2, mesh2n=None) -> int:
    """Number of Laplace eigenvalues below 2 in the class of the surface;
    mode l = 0 counts once, mode l = 1 twice.  Eigenvalues landing exactly
    on 2 (the coordinate functions) are excluded by extrapolation.

    Mode l = 0 is read from ``channel2``, the ``ladder_counts`` array of
    mode-0 channel 2 at level 0, and only mode l = 1 is swept
    (``_INDEX_STACK``; ``mesh2n`` is ``_counted``'s).  The two are
    supersymmetric partners.  With A h = sqrt(p) h' and sqrt(p) =
    2 pi cos(phi), the Laplace l = 0 operator -(p h')' is A*A, and since
    Q22(l = 0) + 2 = -sqrt(p) sqrt(p)'' along the geodesic, channel 2
    plus 2 is A A*.  sqrt(p) is T-periodic, so A maps omega-twisted
    functions to omega-twisted functions, and so does A*: an eigenfunction
    f of A*A at lambda != 0 gives the eigenfunction A f of A A* at lambda,
    and back through A*.  The kernels of A and A*, the constants and
    1/sqrt(p), are twisted only at omega = 1, one each.  So at every twist
    the channel-2 eigenvalues are the Laplace l = 0 eigenvalues minus 2,
    with multiplicity, and the twist rows count the same classes.  The
    Dirichlet spectra differ, because A does not keep Dirichlet data.

    The potential l^2/cos^2 is at least l^2 and the derivative term is
    nonnegative, so the modes l >= 2 hold no eigenvalue below 2.
    """
    q = traj.family.rotation.q
    (laplace1,), level, _ = _INDEX_STACK
    l1 = ladder_counts(laplace1, traj, n, level, mesh2n)
    return class_counts(0, q, channel2)[0] + 2 * class_counts(1, q, l1)[0]


def verify_high_l_positive(l: int, traj: Trajectory) -> bool:
    """True when the potential Q_l is positive definite over the closed
    length, read at the trajectory nodes t_j on [0, T]: every node has
    lambda_min(Q_l) > 0, and on each interval [t_j, t_j+1] the smaller
    endpoint lambda_min exceeds ||Q_j+1 - Q_j||_2.

    That dismisses the whole mode-l block, and for l = 3 every l >= 3:
    - -(p h')' is positive semidefinite, so the block is at least
      min lambda_min(Q_l), for the discrete and the continuous operator
      alike;
    - Q11, Q22 and Q12^2 are even in (phi, phi'), which only change sign
      from one half period to the next, so [0, T] covers t0;
    - Q_l - Q_3 = (l - 3)/cos(phi) [((l + 3)/cos(phi)) I - 4 pi phi' sigma_x],
      and unit speed, E phi'^2 + G theta'^2 = 1, gives
      4 pi |phi'| cos(phi) <= 2 < l + 3, so Q_l > Q_3 for l >= 4.
    The 2x2 eigenvalues and norms are taken in closed form."""
    if l < 3:
        raise ValidationError("positivity is only claimed for l >= 3")
    a, b, c = separated_coefficients(l, traj).T
    lam_min = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    da, db, dc = np.diff(a), np.diff(b), np.diff(c)
    jump = np.abs(0.5 * (da + dc)) + np.hypot(0.5 * (da - dc), db)
    # jump >= 0, so this also asks lambda_min > 0 at every node
    return bool(np.all(np.minimum(lam_min[:-1], lam_min[1:]) > jump))
