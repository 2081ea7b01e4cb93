"""Reference results and the gate that compares each benchmark result to them.

Counts, methods, splits and check outcomes must match exactly; the float
fields b, T, Xi, s1 and s2 must match within FLOAT_RTOL (relative, with an
absolute floor of FLOAT_RTOL for values below 1).

Run ``python3 perfbench/reference.py`` from the repository root to
regenerate ``perfbench/reference.json`` from the current source tree.
"""

from __future__ import annotations

import json
import math
import os
import sys

import workloads

FLOAT_RTOL = 1e-8
FLOAT_FIELDS = ("b", "T", "Xi", "s1", "s2")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# (ind, nul, spectral index) of the q <= 10 table in the README
README_TABLE = {(5, 9): (91, 9, 36), (4, 7): (71, 9, 28), (3, 5): (51, 9, 20),
                (5, 8): (41, 9, 16), (2, 3): (31, 9, 12), (7, 10): (59, 9, 22)}


def summarize(call, doc) -> dict:
    """The parts of a serialized result that the gate compares."""
    if call[0] == "verify_family":
        return {"checks": [[row["check"], row["ok"]] for row in doc]}
    return {
        "ind": doc["ind"], "nul": doc["nul"],
        "spectral_index": doc["spectral_index"],
        "per_mode": doc["per_mode"],
        "floats": {"b": doc["b"], "T": doc["T"], "Xi": doc["Xi"],
                   "s1": doc["flags"]["s1"], "s2": doc["flags"]["s2"]},
    }


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["results"]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isfinite(a) and abs(a - b) <= FLOAT_RTOL * max(1.0, abs(b))


def mismatches(reference: dict, call, doc) -> list:
    """Human-readable differences between a result and its reference."""
    key = workloads.call_key(call)
    want = reference.get(key)
    if want is None:
        return [f"{key}: no reference result"]
    got = summarize(call, doc)
    out = []
    for field, value in want.items():
        if field == "floats":
            for name in FLOAT_FIELDS:
                if not _close(got["floats"][name], value[name]):
                    out.append(f"{key}: {name} = {got['floats'][name]!r}, "
                               f"reference {value[name]!r}")
        elif got[field] != value:
            out.append(f"{key}: {field} = {got[field]!r}, reference {value!r}")
    return out


def readme_mismatches(reference: dict) -> list:
    """Reference entries whose counts contradict the README table."""
    out = []
    for key, want in reference.items():
        if "ind" not in want:
            continue
        p, q = (int(v) for v in key[key.index("(") + 1:].split(",")[:2])
        got = (want["ind"], want["nul"], want["spectral_index"])
        if got != README_TABLE[(p, q)]:
            out.append(f"{key}: (ind, nul, ind_S) = {got}, README says "
                       f"{README_TABLE[(p, q)]}")
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from otsuki import jsonio, pipeline

    calls = {workloads.call_key(c): c
             for table in (workloads.WORKLOADS, workloads.SMOKE)
             for calls in table.values() for c in calls}
    results = {}
    for key, call in sorted(calls.items()):
        fn, p, q, method, n = call
        if fn == "compute_index":
            doc = pipeline.compute_index(p, q, method=method, n=n).to_json_dict()
        else:
            doc = pipeline.verify_family(p, q, n=n)
        results[key] = summarize(call, json.loads(jsonio.dumps(doc)))
        print(key, file=sys.stderr, flush=True)
    bad = readme_mismatches(results)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"float_rtol": FLOAT_RTOL, "results": results}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
