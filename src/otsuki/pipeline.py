"""End-to-end index/nullity computation, bound checks, and the result cache.

Mode 0, modes l = 1, 2 and the spectral index are counted on twist
ladders over the half period [0, T] at mesh n; ``spectral.class_counts``
sums the twists of each mode.  Modes l = 1, 2 enter with weight two.
The spectral index reads its Laplace l = 0 term off the mode-0 channel-2
rows, its supersymmetric partner (``spectral.spectral_index``), so a
family sweeps five ladders: the two mode-0 channels, modes 1 and 2, and
Laplace l = 1.
Modes l >= 3 are dismissed once the mode-3 potential is verified
positive definite at the trajectory nodes on [0, T]; every operator that
the package builds lives on [0, T].

One counting pass (``_count_family``) counts mode 0 and runs the routes
of modes 1 and 2, one mode at a time; ``compute_index`` builds its
records from it, and ``verify_family`` reads the same rows and boundary
forms under 'both'.  ``bounds_check`` sets the report beside the bounds
and the counts known in closed form: mode 0 and the spectral index.

Each family hands part of its work to the process's helper
(``_helper.Handle``): right after it is solved, the family itself, whose
boundary solutions of modes 1 and 2 the helper integrates where the
boundary forms are read ('edwards', 'both' and ``verify_family``), and
right after its trajectory is sampled, the samples and the family's
stacks (``_stacks``), whose mesh-2n count-only reductions the helper
makes next, unless this process needs one before the helper has begun
it, and counts it itself.  The helper is forked once, at the first
family, and serves every later one.  It works on another CPU while this
process samples the trajectory and counts mesh n; each boundary form and
each stack's count then reads its result, after doing first what it did
in process, so every error surfaces where and as it did.  The helper
runs the package code as it stood at its fork, exits with this process,
and is killed and reaped at interpreter exit.  Without fork or process
handles (Linux's pidfd), with one CPU, beside another thread when no
helper runs yet, or while a family of another thread holds the helper,
the work is done in process, as it is when the helper ends without a
result.  A ``finally`` frees the helper for the next family, and first
kills and reaps it if the family left results unread (but those of
counts it made itself), so no family reads another's results.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jsonio
from ._helper import Handle
from .edwards import _integrate_beside, aggregate_roots, boundary_form
from .errors import (EdwardsInapplicableError, NumericalError,
                     RouteDisagreementError, ValidationError)
from .geodesic import (GeodesicFamily, Trajectory, sample_trajectory,
                       solve_parameter)
# spectrum_counts is bound only for perfbench, which traces every binding
from .spectral import (_CHANNELS, _INDEX_STACK, _MODES,  # noqa: F401
                       TAU_ZERO, _count_beside, _dirichlet_ends, _ladders,
                       class_counts, spectral_index, spectrum_counts,
                       verify_high_l_positive)
from .surface import frame, kernel_fields, kernel_residuals

REPORT_VERSION = "2"


@dataclass(frozen=True)
class PerModeRecord:
    l: int
    neg: int
    zero: int
    method: str
    split: Optional[dict] = None        # even q: the unused symmetry class
    per_omega: Optional[np.ndarray] = None  # (2q, 2): (neg, zero) of twist r

    def to_json_dict(self) -> dict:
        d = {"l": self.l, "neg": self.neg, "zero": self.zero,
             "method": self.method}
        if self.split is not None:
            d["split"] = self.split
        if self.per_omega is not None:
            d["per_omega"] = [[r, *row] for r, row
                              in enumerate(self.per_omega.tolist())]
        return d


@dataclass(frozen=True)
class IndexReport:
    p: int
    q: int
    b: float
    c: float
    T: float
    Xi: float
    t0: float
    n: int
    method: str
    per_mode: tuple
    ind: int
    nul: int
    spectral_index: int
    bounds: dict
    flags: dict
    version: str = REPORT_VERSION
    timestamp: str = ""

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q,
            "b": self.b, "c": self.c, "T": self.T, "Xi": self.Xi,
            "t0": self.t0, "n": self.n, "method": self.method,
            "per_mode": [r.to_json_dict() for r in self.per_mode],
            "ind": self.ind, "nul": self.nul,
            "spectral_index": self.spectral_index,
            "bounds": self.bounds, "flags": self.flags,
            "version": self.version, "timestamp": self.timestamp,
        }


def index_bounds(p: int, q: int) -> dict:
    """Index bounds 6q+8p-3 <= ind <= 10q+4p-5 for odd q, halved pattern
    3q+4p-3 <= ind <= 5q+2p-5 for even q; nullity always in [9, 13]."""
    if q % 2 == 1:
        lo, hi = 6 * q + 8 * p - 3, 10 * q + 4 * p - 5
    else:
        lo, hi = 3 * q + 4 * p - 3, 5 * q + 2 * p - 5
    return {"thm_lower": lo, "thm_upper": hi, "nul_lower": 9, "nul_upper": 13}


def _closed_form_counts(p: int, q: int) -> tuple[tuple[int, int], int]:
    """Mode 0's (neg, zero) and the spectral index in closed form:
    (2q+4p-1, 3) and 2q+4p-2 for odd q, (q+2p-1, 3) and q+2p-2 for even q.

    Observed identities: they hold on every family probed whose two routes
    agree (the six README families, 12/17, 41/58, 70/99, 408/577, 10/19).
    The spectral index is the eigenvalue index at which the bipolar
    Otsuki metrics are extremal; compare M. Karpukhin, "Spectral
    properties of bipolar surfaces to Otsuki tori", J. Spectral Theory 4
    (2014)."""
    k = 2 * q + 4 * p if q % 2 else q + 2 * p
    return (k - 1, 3), k - 2


def family_trajectory(family: GeodesicFamily, n: int) -> Trajectory:
    """The family's trajectory for a run at mesh n: 2n nodes, at least 1024
    and at most 4096.  The mesh bounds of a run are checked here, before
    anything is sampled or counted: a mesh too coarse for the counts,
    n < 128 (``SLSystem.discretize`` refuses it too), and one too large
    for memory, n > 2**20."""
    if n < 128:
        raise ValidationError(f"mesh too coarse: n = {n} < 128")
    if n > 2**20:
        raise ValidationError(f"mesh too large: n = {n} > 2**20")
    return sample_trajectory(family, min(4096, max(1024, 2 * n)))


def _check_routes_agree(l: int, edwards_rows, direct_rows) -> None:
    """Raise RouteDisagreementError unless the routes that ran agree."""
    if edwards_rows is None or direct_rows is None:
        return
    diffs = [(l, r, tuple(e), tuple(d)) for r, (e, d)
             in enumerate(zip(edwards_rows.tolist(), direct_rows.tolist()))
             if e != d]
    if diffs:
        raise RouteDisagreementError(
            f"boundary-form and direct counts disagree at l={l}: {diffs}",
            diffs=diffs)


def _stacks(method: str, index: bool = True) -> list:
    """The stacks (builds, level, ladders) of the count-only reductions of
    a family, in the order they are counted: those of ``_count_family``,
    mode 0's channels, then modes 1 and 2 (their ladders, or under
    'edwards' their Dirichlet ends, ``spectral._dirichlet_ends``), and,
    with ``index``, that of ``spectral_index``.  The helper counts their
    mesh-2n halves (``spectral._count_beside``)."""
    stacks = [(_CHANNELS, 0.0, True), (_MODES, 0.0, method != "edwards")]
    return stacks + [_INDEX_STACK] if index else stacks


def _count_family(traj: Trajectory, n: int, method: str, helped: Handle):
    """Count the family below l = 3 one mode per step, so a caller checks
    each mode before the next is counted: yield mode 0's (neg, zero) and
    channel-2 rows, then for l = 1, 2 (l, form, edwards rows, direct rows).
    ``form`` is the boundary form, the EdwardsInapplicableError that
    refused it ('edwards' raises it) or None; rows not counted are None.

    The ladders that share a mesh, a level and a block size are counted
    as one stack, one count-only reduction per mesh (``spectral._ladders``):
    mode 0's channels 1 and 2, and the direct ladders of modes 1 and 2.
    Each ladder is classified in its turn, so errors surface in the order
    channel 1, channel 2, then per mode l = 1, 2 the direct ladder and the
    boundary form.  The boundary form's gate takes the Dirichlet count
    that a reduction settled, if any, instead of reducing the Dirichlet
    operators itself (``edwards.dirichlet_negative_count``).  Under 'both'
    the direct ladder of mode l, classified first, settles it, so where
    both routes raise at the same l, the direct route's error surfaces.
    Under 'edwards' one reduction per mesh of the stack of both modes'
    twisted operators at omega = 1 settles it (``spectral._dirichlet_ends``);
    if that raises, each gate counts alone, and any error surfaces there.
    ``helped``, the family's handle on the helper, gives each boundary
    form its solutions and each stack its mesh-2n count, where it holds
    them."""
    q = traj.family.rotation.q
    (chan1, _), (chan2, _) = _ladders(_CHANNELS, traj, n, 0.0, helped)
    # mode 0's twist r holds the twist r of both channels
    yield class_counts(0, q, chan1 + chan2), chan2
    stacked, direct = {}, None
    if method == "edwards":
        try:
            stacked = _dirichlet_ends(traj, n, helped)
        except (NumericalError, ValidationError):
            pass
    else:
        direct = _ladders(_MODES, traj, n, 0.0, helped)
    for l in (1, 2):
        form = edwards_rows = direct_rows = None
        dirichlet = stacked.get(l)
        if direct is not None:
            direct_rows, dirichlet = next(direct)
        if method != "direct":
            try:
                form = boundary_form(l, traj, n=n, known=dirichlet,
                                     helped=helped)
                edwards_rows = aggregate_roots(form, q)
            except EdwardsInapplicableError as exc:
                if method == "edwards":
                    raise EdwardsInapplicableError(
                        f"boundary-form route inapplicable at l={l}: {exc}; "
                        "rerun with method='direct'") from exc
                form = exc
        yield l, form, edwards_rows, direct_rows


def compute_index(p: int, q: int, method: str = "both",
                  n: int = 4096) -> IndexReport:
    """Full Morse index / nullity report for the closed family p/q.

    method 'direct' discretizes every twisted problem, 'edwards' counts
    through the boundary form, 'both' runs the two routes and fails
    loudly on any per-(l, omega) disagreement.  Counts internally combine
    meshes n and 2n, so a single call already contains the confirmation
    pass.
    """
    if method not in ("direct", "edwards", "both"):
        raise ValidationError(f"unknown method {method!r}")
    family = solve_parameter(p, q)
    # the helper integrates modes 1 and 2's boundary solutions, unless only
    # the direct route runs, beside the trajectory and the counts, and then
    # counts the mesh-2n half of the family's reductions
    helped = Handle()
    try:
        if method != "direct":
            _integrate_beside(helped, family)
        traj = family_trajectory(family, n)
        _count_beside(helped, traj, n, _stacks(method))

        counts = _count_family(traj, n, method, helped)
        (neg, zero), channel2 = next(counts)
        records = [PerModeRecord(l=0, neg=neg, zero=zero, method="direct")]
        flags: dict = {"tau_zero": TAU_ZERO, "edwards_applicable": {},
                       "s1": None, "s2": None, "s1_below_minus_one": None,
                       "abs_s1_gt_s2": None}

        for l, form, edwards_rows, direct_rows in counts:
            flags["edwards_applicable"][str(l)] = (   # None: not attempted
                None if form is None else edwards_rows is not None)
            if l == 1 and edwards_rows is not None:
                poly = form.poly
                flags["s1"], flags["s2"] = poly.s1, poly.s2
                if poly.s1 is not None:
                    flags["s1_below_minus_one"] = bool(poly.s1 < -1.0)
                    flags["abs_s1_gt_s2"] = bool(abs(poly.s1) > poly.s2)
            used = "direct" if edwards_rows is None else method
            rows = direct_rows if edwards_rows is None else edwards_rows
            _check_routes_agree(l, edwards_rows, direct_rows)
            neg, zero = class_counts(l, q, rows)
            # for even q, mode l + 1 counts the twists of the other parity
            other = class_counts(l + 1, q, rows)
            split = None if q % 2 else {
                "used_parity": "odd_r" if l % 2 else "even_r",
                "other_class_neg": other[0], "other_class_zero": other[1]}
            records.append(PerModeRecord(l=l, neg=neg, zero=zero, method=used,
                                         split=split, per_omega=rows))

        if not verify_high_l_positive(3, traj):
            raise NumericalError("mode l=3 failed the positivity check; "
                                 "higher modes cannot be dismissed")
        flags["l3_positive"] = True

        ind = records[0].neg + 2 * records[1].neg + 2 * records[2].neg
        nul = records[0].zero + 2 * records[1].zero + 2 * records[2].zero
        ind_s = spectral_index(traj, n, channel2, helped)

        bounds = index_bounds(p, q)
        bounds["rough_upper"] = 5 * ind_s + 2
        report = IndexReport(
            p=p, q=q, b=family.b, c=family.c, T=family.T, Xi=family.Xi,
            t0=family.t0, n=n, method=method, per_mode=tuple(records),
            ind=ind, nul=nul, spectral_index=ind_s, bounds=bounds, flags=flags,
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    finally:
        helped.close()
    return report


def bounds_check(report: IndexReport) -> dict:
    """Evaluate every stated bound on a finished report.

    Families near the degenerate limit are expected to satisfy all of
    them; far families are reported as findings, not assertions.
    """
    b = report.bounds
    mode0 = [report.per_mode[0].neg, report.per_mode[0].zero]
    want_mode0, want_index = _closed_form_counts(report.p, report.q)
    return {
        "thm_lower_ok": b["thm_lower"] <= report.ind,
        "thm_upper_ok": report.ind <= b["thm_upper"],
        "nul_ok": b["nul_lower"] <= report.nul <= b["nul_upper"],
        "rough_upper_ok": report.ind <= b["rough_upper"],
        "mode0_ok": mode0 == list(want_mode0),
        "spectral_index_ok": report.spectral_index == want_index,
        "ind": report.ind,
        "nul": report.nul,
        "mode0": mode0,
        "mode0_expected": list(want_mode0),
        "spectral_index": report.spectral_index,
        "spectral_index_expected": want_index,
        "bounds": dict(b),
    }


def report_document(report: IndexReport) -> dict:
    """The JSON document the CLI emits: the report plus its bounds check."""
    doc = report.to_json_dict()
    doc["bounds_check"] = bounds_check(report)
    return doc


def iter_reports(pairs, method: str = "both", n: int = 4096):
    """Yield the report document of each (p, q) pair in turn.

    A family that fails with a numerical error yields
    ``{"p", "q", "error": {"type", "message"}}`` instead, and the remaining
    families still run.  A validation error concerns the whole run (the
    pairs are checked before they get here) and propagates.
    """
    for p, q in pairs:
        try:
            yield report_document(compute_index(p, q, method=method, n=n))
        except NumericalError as exc:
            yield {"p": p, "q": q,
                   "error": {"type": type(exc).__name__, "message": str(exc)}}


# ---------------------------------------------------------------------------
# cache

def cache_dir_path(cache_dir: Optional[str] = None) -> str:
    return cache_dir or os.environ.get("OTSUKI_CACHE", ".cache")


def cache_key(p: int, q: int, n: int, method: str = "both") -> str:
    return f"{p}-{q}-{n}-{method}-v{REPORT_VERSION}"


def cache_store(report: IndexReport, cache_dir: Optional[str] = None) -> str:
    """Store the report's emitted document (:func:`report_document`).

    The entry is written to a temporary file and renamed into place, so an
    interrupted run never leaves a truncated entry behind.
    """
    path = cache_dir_path(cache_dir)
    os.makedirs(path, exist_ok=True)
    fname = os.path.join(path, cache_key(report.p, report.q, report.n,
                                         report.method) + ".json")
    tmp = f"{fname}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(jsonio.dumps(report_document(report)) + "\n")
        os.replace(tmp, fname)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return fname


def cache_load(p: int, q: int, n: int, method: str = "both",
               cache_dir: Optional[str] = None) -> Optional[dict]:
    """The cached document for the key, or None.  An entry that cannot be
    parsed, is no report, or names other parameters than its key is
    ignored with a warning, so the caller recomputes it."""
    import json
    import warnings

    fname = os.path.join(cache_dir_path(cache_dir),
                         cache_key(p, q, n, method) + ".json")
    if not os.path.exists(fname):
        return None
    try:
        with open(fname) as fh:
            doc = json.load(fh)
    except (ValueError, OSError) as exc:      # JSON or UTF-8 errors
        warnings.warn(f"ignoring corrupt cache entry {fname}: {exc}")
        return None
    want = {"p": p, "q": q, "n": n, "method": method,
            "version": REPORT_VERSION}
    got = ({k: doc.get(k) for k in want} if isinstance(doc, dict)
           else f"a JSON {type(doc).__name__}")
    if got != want:
        warnings.warn(f"ignoring cache entry {fname}: it holds {got}, "
                      f"not a report for {want}")
        return None
    return doc


# ---------------------------------------------------------------------------
# per-family verification battery (CLI `verify`)

def verify_family(p: int, q: int, n: int = 1024) -> list[dict]:
    """Fast invariant battery for one family; returns pass/fail rows."""
    rows = []

    def add(name, ok, detail):
        rows.append({"check": name, "ok": bool(ok), "detail": detail})

    family = solve_parameter(p, q)
    helped = Handle()   # see compute_index
    try:
        _integrate_beside(helped, family)
        traj = family_trajectory(family, n)
        _count_beside(helped, traj, n, _stacks("both", index=False))
        drift = traj.conservation_drift()
        add("conservation", drift < 1e-10, f"max drift {drift:.3e}")
        add("endpoint phi(T)=-b", abs(traj.phi[-1] + family.b) < 1e-8,
            f"error {abs(traj.phi[-1] + family.b):.3e}")
        add("endpoint theta(T)=Xi", abs(traj.theta[-1] - family.Xi) < 1e-8,
            f"error {abs(traj.theta[-1] - family.Xi):.3e}")

        # node times k T / n of [0, t0), which traj.at folds onto trajectory
        # nodes: there it returns the samples themselves, not its cubic
        # interpolant, whose O(h^4) error alone can exceed the bound; one
        # traj.at call reads all 24 samples
        rng = np.random.default_rng(7)
        step = family.T / traj.n
        draws = [(rng.uniform(0, 2 * math.pi),
                  rng.integers(2 * q * traj.n) * step) for _ in range(24)]
        alphas, times = zip(*draws)
        samples = zip(*(arr.tolist() for arr in traj.at(np.array(times))))
        worst = 0.0
        for al, tt, sample in zip(alphas, times, samples):
            G = frame(al, tt, traj, sample).gram()
            worst = max(worst, float(np.abs(G - np.eye(5)).max()))
        add("frame orthonormal", worst < 1e-10, f"max |Gram - I| {worst:.3e}")

        fields = kernel_fields(traj)
        residuals = kernel_residuals(fields, traj)
        kernel_bound = 1e-5
        add("kernel residuals", max(residuals) < kernel_bound,
            f"max residual {max(residuals):.3e}")

        counts = _count_family(traj, n, "both", helped)
        (neg, zero), channel2 = next(counts)
        want = _closed_form_counts(p, q)[0]
        add("l=0 counts", (neg, zero) == want,
            f"neg={neg} (expect {want[0]}), zero={zero} (expect {want[1]})")

        # the half-period antiperiodic channel-2 problem is the twist r = q
        # (omega = -1) of the channel-2 ladder, which classifies its spectrum;
        # kernel field 3, 2 pi cos^2(phi) phi', is its zero mode: it is
        # A sin(phi), with A h = sqrt(p) h' as in spectral_index, and sin(phi),
        # a coordinate function at Laplace level 2, is antiperiodic over T
        anti = tuple(channel2[q].tolist())
        zero_mode = next(res for field, res in zip(fields, residuals)
                         if field.id == 3)
        add("antiperiodic l=0", anti == (1, 1) and zero_mode < kernel_bound,
            f"channel 2 row r={q} (neg, zero)={anti} (expect (1, 1)), "
            f"field 3 residual {zero_mode:.3e}")

        for l, form, edwards_rows, direct_rows in counts:
            agreed = "boundary-form counts equal direct counts"
            if edwards_rows is None:
                agreed = f"edwards inapplicable: {form}"
            elif l == 1:
                target = -math.cos(p * math.pi / q)
                add("s2 = -cos(p pi / q)", abs(form.poly.s2 - target) < 1e-6,
                    f"s2={form.poly.s2:.9f}, target={target:.9f}")
            else:
                val = abs(form.poly(1.0)) / form.poly.scale
                add("P2(1) = 0", val < 1e-8, f"relative value {val:.3e}")
            try:
                _check_routes_agree(l, edwards_rows, direct_rows)
                add(f"route agreement l={l}", True, agreed)
            except RouteDisagreementError as exc:
                add(f"route agreement l={l}", False, f"MISMATCH: {exc}")

        add("l=3 positive", verify_high_l_positive(3, traj), "")
    finally:
        helped.close()
    return rows
