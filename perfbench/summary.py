"""Run every workload once and print its metrics; run from the repository root:

    python3 perfbench/summary.py [--seed N] [--trace 0|1]

Each workload runs in its own process through ``run.py`` for the
``run_seconds`` of BENCHMARK.json.  The table shows every metric with its
unit, the plain (not speed-corrected) wall time of an untraced run and the
error rate with its base.  Exit status 1 if any run fails or
returns a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(args.seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        doc = json.loads(lines[-1])
        print(workload)
        for name, m in doc["metrics"].items():
            print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
        for line in lines:
            if line.startswith("wall_s "):
                name, value, rest = line.split(" ", 2)
                print(f"  {name:44s} {float(value):14.6g} {rest}")
        rate = doc["failed"] / doc["attempted"]
        print(f"  {'error_rate':44s} {rate:14.6g} "
              f"({doc['failed']} of {doc['attempted']} calls)")
        if not doc["correct"]:
            print(proc.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
