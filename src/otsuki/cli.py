"""Command-line interface.

Subcommands mirror the computation stages: ``geodesic`` (solve for the
family), ``spectrum`` (one mode's spectrum), ``edwards`` (boundary
form data), ``index`` (the full report), ``verify`` (invariant battery),
``sweep`` (batch of families).  JSON goes to stdout unless --json-out is
given.  Exit codes: 0 success, also when the reader of stdout closes it
early (``otsuki ... | head``), 1 validation problem, a file (the cache
included) that cannot be read or written, or a mesh too large for memory,
2 numerical or consistency failure (for ``sweep``: any family failed).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import jsonio
from .errors import NumericalError, ValidationError
from .geodesic import (GeodesicFamily, RotationNumber, sample_trajectory,
                       solve_parameter)
from .pipeline import (cache_dir_path, cache_load, cache_store, compute_index,
                       family_trajectory, iter_reports, report_document,
                       verify_family)
from .edwards import aggregate_roots, boundary_form
from .sl import BoundaryCondition, roots_of_unity_ladder
from .spectral import SpectrumSummary, spectrum_below
from .surface import fourier_block_system, l0_channel_system


class Parser(argparse.ArgumentParser):
    """Parse errors raise ValidationError, which ``exit_code`` maps to 1."""

    def error(self, message):
        raise ValidationError(message)


def _family_args(sub):
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--q", type=int, default=None)
    sub.add_argument("--b", type=float, default=None,
                     help="direct geodesic parameter override")


def _emit(doc, args) -> None:
    text = jsonio.dumps(doc) + "\n"
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_family(args):
    if args.b is not None:
        return GeodesicFamily.from_b(args.b)
    if args.p is None or args.q is None:
        raise ValidationError("give --p and --q, or a direct --b")
    return solve_parameter(args.p, args.q)


def build_parser() -> Parser:
    parser = Parser(prog="otsuki")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("geodesic", help="solve the closed-geodesic family")
    _family_args(g)
    g.add_argument("--n", type=int, default=None,
                   help="also sample the trajectory on n intervals")
    g.add_argument("--json-out", default=None)

    s = subs.add_parser("spectrum", help="one mode's spectrum below a cutoff")
    _family_args(s)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--bc", default="periodic",
                   choices=["periodic", "antiperiodic", "dirichlet", "twisted"])
    s.add_argument("--omega-index", type=int, default=None)
    s.add_argument("--channel", type=int, default=None, choices=[1, 2])
    s.add_argument("--n", type=int, default=2048, help="intervals of [0, T]")
    s.add_argument("--cutoff", type=float, default=1.0)
    s.add_argument("--json-out", default=None)

    e = subs.add_parser("edwards", help="boundary-form data for l = 1 or 2")
    _family_args(e)
    e.add_argument("--l", type=int, required=True, choices=[1, 2])
    e.add_argument("--n", type=int, default=2048)
    e.add_argument("--json-out", default=None)

    i = subs.add_parser("index", help="full Morse index / nullity report")
    i.add_argument("--p", type=int, required=True)
    i.add_argument("--q", type=int, required=True)
    i.add_argument("--method", default="both",
                   choices=["both", "direct", "edwards"])
    i.add_argument("--n", type=int, default=4096)
    i.add_argument("--json-out", default=None)
    i.add_argument("--cache-dir", default=None)
    i.add_argument("--no-cache", action="store_true")

    v = subs.add_parser("verify", help="run the invariant battery")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--n", type=int, default=1024)

    w = subs.add_parser("sweep", help="batch families from a file of 'p q' lines")
    w.add_argument("--input", required=True)
    w.add_argument("--method", default="both",
                   choices=["both", "direct", "edwards"])
    w.add_argument("--n", type=int, default=4096)
    w.add_argument("--json-out", default=None)
    return parser


def _cmd_geodesic(args) -> int:
    family = _resolve_family(args)
    doc = {"b": family.b, "c": family.c, "T": family.T, "Xi": family.Xi}
    if family.rotation is not None:
        doc["p"] = family.rotation.p
        doc["q"] = family.rotation.q
        doc["t0"] = family.t0
    if args.n is not None:
        traj = sample_trajectory(family, args.n)
        doc["trajectory"] = traj.to_json_dict()
    _emit(doc, args)
    return 0


def _periodic_listing(build, traj, cutoff: float, n: int) -> SpectrumSummary:
    """The periodic listing over 2qT: the union of the twisted ones on [0, T]."""
    q = traj.family.rotation.q
    parts = [spectrum_below(build(traj, BoundaryCondition.twisted(om)), cutoff, n)
             for om in roots_of_unity_ladder(q)[:q + 1]]
    parts += parts[1:q]     # r > q: the exact conjugate of 2q - r lists alike
    return SpectrumSummary(
        sorted(v for s in parts for v in s.eigenvalues),
        sum(s.neg_count for s in parts), sum(s.zero_count for s in parts),
        n, cutoff, parts[0].l, "periodic")


def _cmd_spectrum(args) -> int:
    if args.channel is not None and args.l != 0:
        raise ValidationError("--channel selects an l = 0 channel; "
                              f"l = {args.l} has none")
    if args.omega_index is not None and args.bc != "twisted":
        raise ValidationError("--omega-index applies only to --bc twisted")
    family = _resolve_family(args)
    if args.bc == "twisted":
        if args.omega_index is None or family.rotation is None:
            raise ValidationError("twisted problems need --p/--q and --omega-index")
        ladder = roots_of_unity_ladder(family.rotation.q)
        if not 0 <= args.omega_index < len(ladder):
            raise ValidationError(
                f"--omega-index must lie in [0, {len(ladder)}), "
                f"got {args.omega_index}")
        bc = BoundaryCondition.twisted(ladder[args.omega_index])
    elif args.bc == "periodic" and family.rotation is None:
        raise ValidationError("the periodic spectrum needs --p/--q")
    else:
        bc = BoundaryCondition(args.bc)
    traj = family_trajectory(family, args.n)
    chans = [args.channel] if args.channel else [1, 2]
    builds = ([partial(l0_channel_system, chan) for chan in chans] if args.l == 0
              else [partial(fourier_block_system, args.l)])
    _emit([(_periodic_listing(build, traj, args.cutoff, args.n)
            if args.bc == "periodic" else
            spectrum_below(build(traj, bc), args.cutoff, args.n,
                           omega_index=args.omega_index)).to_json_dict()
           for build in builds], args)
    return 0


def _cmd_edwards(args) -> int:
    family = _resolve_family(args)
    traj = family_trajectory(family, args.n)
    data = boundary_form(args.l, traj, n=args.n)
    doc = data.to_json_dict()
    if family.rotation is not None:
        rows = aggregate_roots(data, family.rotation.q)
        doc["per_omega"] = [{"r": r, "neg": neg, "zero": zero}
                            for r, (neg, zero) in enumerate(rows.tolist())]
        doc["neg_total"], doc["zero_total"] = rows.sum(axis=0).tolist()
    _emit(doc, args)
    return 0


def _cmd_index(args) -> int:
    if not args.no_cache:
        # an unusable cache dir fails here, before the computation
        os.makedirs(cache_dir_path(args.cache_dir), exist_ok=True)
        hit = cache_load(args.p, args.q, args.n, method=args.method,
                         cache_dir=args.cache_dir)
        if hit is not None:
            _emit(hit, args)
            return 0
    report = compute_index(args.p, args.q, method=args.method, n=args.n)
    _emit(report_document(report), args)
    if not args.no_cache:
        cache_store(report, cache_dir=args.cache_dir)
    return 0


def _cmd_verify(args) -> int:
    rows = verify_family(args.p, args.q, n=args.n)
    width = max(len(r["check"]) for r in rows)
    ok_all = True
    for r in rows:
        status = "PASS" if r["ok"] else "FAIL"
        ok_all = ok_all and r["ok"]
        print(f"{r['check']:<{width}}  {status}  {r['detail']}")
    print(f"{'overall':<{width}}  {'PASS' if ok_all else 'FAIL'}")
    return 0 if ok_all else 2


def _read_pairs(path: str) -> list[tuple[int, int]]:
    """Admissible (p, q) pairs from lines 'p q' or 'p/q' ('#' comments)."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file: {exc}") from None
    pairs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip().replace("/", " ")
        if not line:
            continue
        try:
            p, q = map(int, line.split())
            RotationNumber(p, q)
        except ValueError as exc:
            raise ValidationError(
                f"{path}:{lineno}: bad family {raw.strip()!r}: {exc}")
        pairs.append((p, q))
    return pairs


def _cmd_sweep(args) -> int:
    pairs = sorted(_read_pairs(args.input))
    failed = 0
    out = sys.stdout if not args.json_out else open(args.json_out, "w")
    try:
        for doc in iter_reports(pairs, method=args.method, n=args.n):
            failed += "error" in doc
            out.write(jsonio.dumps(doc, indent=0).replace("\n", " ") + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if failed:
        print(f"error: {failed} of {len(pairs)} families failed",
              file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "geodesic": _cmd_geodesic,
    "spectrum": _cmd_spectrum,
    "edwards": _cmd_edwards,
    "index": _cmd_index,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def exit_code(run) -> int:
    """``run()``'s exit code, or the code of the failure it raises, with the
    message on stderr: 1 for a validation problem, a file that cannot be
    read or written, or a mesh too large for memory, 2 for a numerical
    failure.  A closed stdout pipe is the reader stopping early, no
    failure: 0, with stdout pointed at os.devnull so that the
    interpreter's final flush stays quiet.  ``run_cli`` and the scripts
    under ``scripts/`` share it."""
    try:
        return run()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc or 'allocation failed'}); "
              "use a smaller --n", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def run_cli(argv=None) -> int:
    def run():
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    return exit_code(run)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
