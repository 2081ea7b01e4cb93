#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

Unpacks the base commit with ``git archive`` into a temporary directory
and runs ``perfbench/run.py --trace 0`` there and in the working tree,
for a number of pairs.  The side that runs first alternates from pair to
pair, and each pair runs with a seed of its own, the same on both sides.
For each workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (lower is better; ties count for
neither), and whether a gain would be claimable: the change wins at
least nine tenths of the pairs, and the medians differ by more than the
distance between the base's quartiles.  The runs are untraced and write
no bytecode, so nothing is written under perfbench/.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --seconds 5
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_ref_s", "setup_s", "peak_rss_mb")


class Parser(argparse.ArgumentParser):
    """Bad input exits 1 with a message."""

    def error(self, message):
        sys.exit(f"error: {message}")


def unpack(commit: str, into: str) -> None:
    """The tree of ``commit`` written into the directory ``into``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                         capture_output=True, check=False)
    if tar.returncode != 0:
        sys.exit(f"error: git archive {commit}: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into)


def run(side: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced benchmark run in the checkout ``side``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=side, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if doc is None or not doc["correct"] or doc["failed"]:
        sys.exit(f"error: {workload} (seed {seed}) failed in {side}:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: doc["metrics"][name]["value"] for name in METRICS}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(workload: str, runs: dict) -> None:
    print(f"\n{workload}  ({len(runs['base'])} pairs)")
    print(f"  {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':<6} change  claimable")
    for name in METRICS:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        wins = sum(c < b for b, c in zip(base, change))
        claimable = wins >= 0.9 * len(base) and bm - cm > b3 - b1
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                 for q1, m, q3 in ((b1, bm, b3), (c1, cm, c3))]
        print(f"  {name:<12} {cells[0]:<30} {cells[1]:<30} "
              f"{f'{wins}/{len(base)}':<6} {100.0 * (cm / bm - 1.0):+5.1f} %  "
              f"{'yes' if claimable else 'no'}")


def main() -> None:
    ap = Parser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD",
                    help="the commit to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--workload", action="append", default=None,
                    help="a workload to run (default: every one); repeatable")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="the seed of the first pair; pair k runs seed + k")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {known}")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not seconds > 0:
        ap.error("--seconds must be positive")
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base:
        unpack(args.base, base)
        sides = {"base": base, "change": ROOT}
        for workload in workloads:
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run(sides[side], workload, seed, seconds))
                print(f"{workload} pair {k + 1}/{args.pairs} (seed {seed}): "
                      + ", ".join(f"{side} {runs[side][-1]['wall_ref_s']:.4f} s"
                                  for side in ("base", "change")),
                      file=sys.stderr, flush=True)
            report(workload, runs)


if __name__ == "__main__":
    main()
