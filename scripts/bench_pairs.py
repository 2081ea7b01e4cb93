#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

Unpacks the base commit with ``git archive`` into a temporary directory,
copies the working tree's files into another, so that neither holds
bytecode, and runs ``perfbench/run.py --trace 0`` in each, for a number
of pairs.  The side that runs first alternates from pair to
pair, and each pair runs with a seed of its own, the same on both sides.
For each workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (lower is better; ties count for
neither), and whether a gain would be claimable: the change wins at
least nine tenths of the pairs, and the medians differ by more than the
distance between the base's quartiles.  It also prints each metric's
no-regression verdict, with the metric's relative ``bound`` from
BENCHMARK.json: ``ok`` where the change's median is no worse than the
base's by more than the bound, ``worse`` where it is, and
``unresolved`` where the base's quartile spread is wider than the bound
and not every change run beats every base run; the runs of an
unresolved metric are printed in full.  The runs are untraced and write
no bytecode, so nothing is written under perfbench/.

Before each pair it measures the host's two-process CPU scaling, how
much more work two processes do at once than one alone, from 1x (they
share one CPU) to 2x (each has its own), and prints it on the pair's
line: it drifts within a minute on a shared host.  The package does part
of each family's work in a second process, so a gain depends on that
regime, and the summary splits each metric's wins into the pairs run at
a scaling of at least 1.5x and the rest.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --seconds 5
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def copy_tree(into: str) -> None:
    """The working tree's files, tracked or untracked but not ignored,
    copied into the directory ``into``: a checkout without the bytecode
    that the working tree holds, which would lower its setup_s."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):      # a deleted file is listed still
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


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
    return {name: metric["value"] for name, metric in doc["metrics"].items()}


# a fixed load of pure Python arithmetic, started at the wall time argv[1]
# so that the processes of one measurement run at once; prints its seconds
SPIN = """
import sys, time
while time.time() < float(sys.argv[1]):
    time.sleep(0.001)
start, total = time.perf_counter(), 0
for i in range(3_000_000):
    total += i
print(time.perf_counter() - start)
"""


def spin(count: int) -> list:
    """The seconds that each of ``count`` processes, started together,
    takes for the load ``SPIN``."""
    start = repr(time.time() + 0.5)
    procs = [subprocess.Popen([sys.executable, "-c", SPIN, start],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(count)]
    return [float(proc.communicate()[0]) for proc in procs]


# the two-process scaling at and above which a pair counts as run on two
# CPUs in the summary
TWO_CPUS = 1.5


def scaling() -> float:
    """The work of two processes at once over that of one alone: twice the
    seconds of one alone over those of the slower of two."""
    return 2.0 * spin(1)[0] / max(spin(2))


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list, change: list, bound: float, better: str) -> str:
    """The no-regression verdict on one metric's runs: ``unresolved``
    where the base's quartile spread exceeds ``bound`` times its median
    and not every change run beats every base run, else ``worse`` where
    the change's median is worse than the base's by more than that, else
    ``ok``."""
    sign = 1.0 if better == "lower" else -1.0
    (b1, bm, b3), cm = quartiles(base), statistics.median(change)
    beats_all = max(sign * c for c in change) < min(sign * b for b in base)
    if b3 - b1 > bound * abs(bm) and not beats_all:
        return "unresolved"
    return "worse" if sign * (cm - bm) > bound * abs(bm) else "ok"


def report(workload: str, runs: dict, scalings: list,
           end_to_end: list) -> None:
    """Each end-to-end metric's medians and quartiles, its wins over all
    pairs and over those run at a scaling of at least TWO_CPUS and below
    it, and its verdict; the runs of each unresolved metric."""
    two = [x >= TWO_CPUS for x in scalings]
    print(f"\n{workload}  ({len(runs['base'])} pairs, {sum(two)} at "
          f">= {TWO_CPUS}x scaling)")
    print(f"  {'metric':<12} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':<6} "
          f"{f'>={TWO_CPUS}x':<7} {f'<{TWO_CPUS}x':<7} change  claimable  "
          f"verdict")
    unresolved = []
    for metric in end_to_end:
        name = metric["name"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        won = [c < b for b, c in zip(base, change)]
        wins = sum(won)
        claimable = wins >= 0.9 * len(base) and bm - cm > b3 - b1
        judged = verdict(base, change, metric["bound"], metric["better"])
        if judged == "unresolved":
            unresolved.append((name, base, change))
        split = [f"{sum(w for w, t in zip(won, two) if t == side)}/"
                 f"{two.count(side)}" for side in (True, False)]
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                 for q1, m, q3 in ((b1, bm, b3), (c1, cm, c3))]
        print(f"  {name:<12} {cells[0]:<30} {cells[1]:<30} "
              f"{f'{wins}/{len(base)}':<6} {split[0]:<7} {split[1]:<7} "
              f"{100.0 * (cm / bm - 1.0):+5.1f} %  "
              f"{'yes' if claimable else 'no':<9}  {judged}")
    for name, base, change in unresolved:
        for side, values in (("base", base), ("change", change)):
            print(f"  {name} {side} runs: "
                  + " ".join(f"{v:.4g}" for v in values))


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
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change:
        unpack(args.base, base)
        copy_tree(change)
        sides = {"base": base, "change": change}
        for workload in workloads:
            runs, scalings = {"base": [], "change": []}, []
            for k in range(args.pairs):
                seed = args.first_seed + k
                scalings.append(scaling())
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run(sides[side], workload, seed, seconds))
                print(f"{workload} pair {k + 1}/{args.pairs} (seed {seed}, "
                      f"two-process CPU scaling {scalings[-1]:.2f}x): "
                      + ", ".join(f"{side} {runs[side][-1]['wall_ref_s']:.4f} s"
                                  for side in ("base", "change")),
                      flush=True)
            report(workload, runs, scalings, bench["end_to_end"])


if __name__ == "__main__":
    main()
