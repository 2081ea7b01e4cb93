"""Benchmark of the otsuki index pipeline, driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload headline_both --seed 1 --seconds 10 --trace 0

The untraced run (``--trace 0``) repeats whole passes over the workload's
calls until at least ``--seconds`` have elapsed.  Each pass runs under the
speed probe of ``speedprobe.py``, which rescales its wall time to a fixed
reference speed of the machine; the run reports the median of these
reference times as ``wall_ref_s`` and prints the plain wall times beside
it.  The traced run (``--trace 1``) makes one untraced pass, then one pass
with every layer wrapped (see ``tracing.py``), checks that both passes
return the same results and reports the per-layer metrics and the tracing
overhead.  Every result is compared with ``reference.json``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
THREAD_CAPS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402

import reference  # noqa: E402
import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# times ``import otsuki`` under the speed probe; prints wall and reference seconds
IMPORT_PROBE = ("import speedprobe; _, wall_s, ref_s, _ = "
                "speedprobe.timed(__import__, 'otsuki'); print(wall_s, ref_s)")
OUT_DIR = os.path.join("perfbench", "out")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="one family on a coarse mesh (used by selftest.py)")
    return ap.parse_args(argv)


def setup_seconds(src: str, repeats: int) -> tuple:
    """Medians of the wall and reference times of ``import otsuki``.

    Each import runs in a fresh interpreter under the speed probe.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        samples.append([float(x) for x in out.stdout.split()])
    return (statistics.median(x[0] for x in samples),
            statistics.median(x[1] for x in samples))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "thread_caps": THREAD_CAPS, "seed": seed,
    }


def git_commit() -> str:
    """HEAD of a git checkout in the working directory, else 'unknown'."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def run_call(call):
    """Make one call and return its result as serialized and parsed back."""
    from otsuki import jsonio, pipeline

    fn, p, q, method, n = call
    if fn == "compute_index":
        doc = pipeline.compute_index(p, q, method=method, n=n).to_json_dict()
    else:
        doc = pipeline.verify_family(p, q, n=n)
    return json.loads(jsonio.dumps(doc))


def run_pass(calls, ref, problems):
    """One pass over the calls; returns (results, failed).

    A call that raised or differs from the reference has result None.
    """
    results = []
    for call in calls:
        try:
            doc = run_call(call)
        except Exception:
            problems.append(f"{workloads.call_key(call)} raised:\n"
                            + traceback.format_exc())
            doc = None
        else:
            bad = reference.mismatches(ref, call, doc)
            problems.extend(bad)
            if bad:
                doc = None
        results.append(doc)
    return results, results.count(None)


def timed_pass(calls, ref, problems):
    """One pass under the speed probe; returns (results, failed, wall_s, ref_s)."""
    (results, failed), wall_s, ref_s, speed = speedprobe.timed(
        run_pass, calls, ref, problems)
    print(f"pass wall_s {wall_s:.4f} speed {speed:.4f} wall_ref_s {ref_s:.4f}",
          flush=True)
    return results, failed, wall_s, ref_s


def untraced(calls, ref, seconds, problems):
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        _, bad, wall_s, ref_s = timed_pass(calls, ref, problems)
        passes.append((wall_s, ref_s))
        attempted += len(calls)
        failed += bad
        if time.perf_counter() - start >= seconds:
            break
    wall_s = statistics.median(p[0] for p in passes)
    ref_s = statistics.median(p[1] for p in passes)
    print(f"wall_s {wall_s:.6g} s (median of {len(passes)} passes, "
          "not speed-corrected)")
    return attempted, failed, {"wall_ref_s": (ref_s, "s")}


def without_timestamp(doc):
    if isinstance(doc, dict):
        return {k: v for k, v in doc.items() if k != "timestamp"}
    return doc


def traced(workload, calls, ref, env, problems):
    cpu0 = time.process_time()
    base_docs, failed, base_s, base_ref_s = timed_pass(calls, ref, problems)
    cpu_s = time.process_time() - cpu0
    tracer = tracing.Tracer(uuid.uuid4().hex)
    tracer.install()
    try:
        docs, bad, traced_s, traced_ref_s = timed_pass(calls, ref, problems)
    finally:
        tracer.uninstall()
    failed += bad
    for call, a, b in zip(calls, base_docs, docs):
        if None not in (a, b) and without_timestamp(a) != without_timestamp(b):
            problems.append(f"{workloads.call_key(call)}: traced result "
                            "differs from the untraced one")
            failed += 1
    metrics = tracer.metrics()
    metrics["pipeline.cpu_s"] = (cpu_s, "s")
    metrics["trace.untraced_wall_s"] = (base_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_ref_s / base_ref_s - 1.0), "%")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    tracer.write(path, {"workload": workload, "env": env})
    print(f"spans written to {path}")
    return 2 * len(calls), failed, metrics


def main(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "otsuki", "__init__.py")):
        print(f"no otsuki source tree under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    calls = workloads.calls_for(args.workload, args.seed, args.smoke)
    ref = reference.load()

    import otsuki
    if not os.path.abspath(otsuki.__file__).startswith(src + os.sep):
        print(f"otsuki imported from {otsuki.__file__}, not {src}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print("calls " + ", ".join(workloads.call_key(c) for c in calls))

    problems: list = []
    if args.trace:
        attempted, failed, metrics = traced(args.workload, calls, ref, env,
                                            problems)
    else:
        setup_wall_s, setup_s = setup_seconds(src, 1 if args.smoke else SETUP_REPEATS)
        print(f"setup wall_s {setup_wall_s:.6g} s (median of the import times, "
              "not speed-corrected)")
        attempted, failed, metrics = untraced(calls, ref, args.seconds, problems)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for line in problems:
        print("FAIL " + line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} calls)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(parse_args()))
