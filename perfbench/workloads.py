"""Benchmark workloads: the calls each one makes into the otsuki pipeline.

A call is ``(function, p, q, method, n)`` with function ``compute_index``
or ``verify_family`` (method ``None``).  The seed only permutes the order
of the families; the program receives nothing but these arguments.
"""

from __future__ import annotations

import random

README_FAMILIES = [(5, 9), (4, 7), (3, 5), (5, 8), (2, 3), (7, 10)]

WORKLOADS = {
    # the paper's headline and the full route cross-check; its time is
    # dominated by the twisted 2x2 cyclic sweeps of the direct route
    "headline_both": [("compute_index", 2, 3, "both", 4096)],
    # every README family through the boundary-form route: no twisted
    # cyclic sweeps, so Dirichlet band sweeps, scalar cyclic sweeps and the
    # geodesic solve carry the time; covers both parities of q
    "edwards_sweep_q10": [("compute_index", p, q, "edwards", 2048)
                          for p, q in README_FAMILIES],
    # the per-family invariant battery: bisection to 1e-10, inverse
    # iteration and a coarse mesh, so fixed per-family costs weigh more
    "verify_battery": [("verify_family", 2, 3, None, 1024),
                       ("verify_family", 5, 8, None, 1024)],
}

# the self-test variant of each workload: one family on a coarse mesh
SMOKE = {
    "headline_both": [("compute_index", 2, 3, "both", 512)],
    "edwards_sweep_q10": [("compute_index", 2, 3, "edwards", 512)],
    "verify_battery": [("verify_family", 2, 3, None, 512)],
}


def call_key(call) -> str:
    fn, p, q, method, n = call
    args = [str(p), str(q)] + ([method] if method else []) + [f"n={n}"]
    return f"{fn}({', '.join(args)})"


def calls_for(workload: str, seed: int, smoke: bool = False) -> list:
    table = SMOKE if smoke else WORKLOADS
    calls = list(table[workload])
    random.Random(seed).shuffle(calls)
    return calls
