"""Fast self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload in its smoke variant (one family, n = 512) untraced
and traced, and checks that:
- the last output line has exactly the keys correct, attempted, failed and
  metrics, with every result correct;
- every metric BENCHMARK.json names is emitted with its unit, and no other;
- the twisted 2x2 cyclic sweeps run on headline_both and not at all on
  edwards_sweep_q10;
- the stored reference agrees with the README table;
- the tracer wraps every binding of the traced names, and restores them;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  fails without printing a result.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BARE_DIR = os.path.join(HERE, "out", "bare")

# names bound again by ``from .x import y``, each of which must be traced
BINDINGS = {
    "eigencount": ("inertia", "eigenvalues_in"),
    "spectral": ("inertia", "eigenvalues_in", "spectrum_counts"),
    "edwards": ("eigenvalues_in", "spectrum_counts", "boundary_form",
                "aggregate_roots", "solve_ivp"),
    "pipeline": ("spectrum_counts", "boundary_form", "aggregate_roots",
                 "solve_parameter", "sample_trajectory"),
    "geodesic": ("solve_parameter", "sample_trajectory"),
}


def run(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected_units: dict, label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, (label, doc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, \
        (label, doc, proc.stderr)
    units = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert units == expected_units, (label, set(units) ^ set(expected_units))
    return {name: m["value"] for name, m in doc["metrics"].items()}


def check_bindings() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from otsuki.sl import SLSystem

    targets = [(importlib.import_module(f"otsuki.{mod}"), name)
               for mod, names in BINDINGS.items() for name in names]
    targets.append((SLSystem, "discretize"))
    tracer = tracing.Tracer("selftest")
    tracer.install()
    try:
        missing = [f"{getattr(owner, '__name__', owner)}.{name}"
                   for owner, name in targets
                   if not hasattr(getattr(owner, name), "__wrapped__")]
    finally:
        tracer.uninstall()
    assert not missing, f"not traced: {missing}"
    left = [name for owner, name in targets
            if hasattr(getattr(owner, name), "__wrapped__")]
    assert not left, f"not restored: {left}"


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    assert not reference.readme_mismatches(reference.load())
    check_bindings()

    twisted = {}
    for workload in workloads.WORKLOADS:
        check_result(run(workload, 0), end_to_end, f"{workload} untraced")
        values = check_result(run(workload, 1), per_layer, f"{workload} traced")
        twisted[workload] = values["eigencount.sweeps.d2_cyclic_twisted"]
        print(f"{workload}: ok", flush=True)
    assert twisted["headline_both"] > 0, twisted
    assert twisted["edwards_sweep_q10"] == 0, twisted

    shutil.rmtree(BARE_DIR, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(BARE_DIR, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", BARE_DIR)
    proc = run("headline_both", 0, cwd=BARE_DIR)
    shutil.rmtree(BARE_DIR)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("bare directory: fails as it should")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
