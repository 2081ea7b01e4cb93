#!/usr/bin/env python3
"""Sweep every admissible rotation number p/q up to a denominator bound.

For each reduced fraction in (1/2, sqrt(2)/2) the full report is computed
and one JSON line emitted; a closing table summarizes how the measured
index and nullity sit against the bounds as p/q approaches sqrt(2)/2, and
names the checks of ``bounds_check`` that each family fails.
A family that fails gets an error line and row; the exit code is then 2.
One closing line follows: the families run, the number that raised each
error type, and the seconds taken.
Bad input exits 1 with a message.
"""

import math
import sys
import time
from collections import Counter
from fractions import Fraction

from otsuki import jsonio
from otsuki.cli import Parser, exit_code
from otsuki.pipeline import iter_reports


def admissible(max_q):
    out = []
    for q in range(3, max_q + 1):
        for p in range(q // 2 + 1, q):
            if math.gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            if 0.5 < r < math.sqrt(2) / 2:
                out.append((p, q))
    return sorted(out, key=lambda pq: pq[0] / pq[1])


def main():
    ap = Parser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=8)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--method", default="both",
                    choices=["both", "direct", "edwards"])
    ap.add_argument("--jsonl-out", default=None)
    args = ap.parse_args()
    start = time.perf_counter()

    docs = []
    sink = open(args.jsonl_out, "w") if args.jsonl_out else None
    for doc in iter_reports(admissible(args.max_q), method=args.method,
                            n=args.n):
        line = jsonio.dumps(doc, indent=0).replace("\n", " ")
        (sink or sys.stdout).write(line + "\n")
        docs.append(doc)
    if sink:
        sink.close()

    print(f"\n{'p/q':>6} {'b':>12} {'ind':>5} {'bounds':>10} {'nul':>4} "
          f"{'s1':>9}  failed checks")
    for doc in docs:
        p, q = doc["p"], doc["q"]
        if "error" in doc:
            print(f"{p}/{q:<4} error: {doc['error']['type']}")
            continue
        lo, hi = doc["bounds"]["thm_lower"], doc["bounds"]["thm_upper"]
        s1 = doc["flags"]["s1"]
        s1txt = f"{s1:9.4f}" if s1 is not None else "      n/a"
        failed = [key[:-3] for key, ok in doc["bounds_check"].items()
                  if key.endswith("_ok") and not ok]
        print(f"{p}/{q:<4} {doc['b']:12.6f} {doc['ind']:5d} [{lo:3d},{hi:3d}] "
              f"{doc['nul']:4d} {s1txt}  {' '.join(failed) or '-'}")
    raised = Counter(doc["error"]["type"] for doc in docs if "error" in doc)
    by_type = ", ".join(f"{name} {k}" for name, k in raised.most_common())
    print(f"summary: {len(docs)} families, {sum(raised.values())} raised"
          f"{f' ({by_type})' if by_type else ''}, "
          f"{time.perf_counter() - start:.1f} s")
    return 2 if any("error" in doc for doc in docs) else 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
