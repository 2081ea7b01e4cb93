#!/usr/bin/env python3
"""Reproduce the headline computation: index and nullity of the 2/3 family.

Runs both counting routes at the default mesh, prints the per-mode table,
and checks every bound.  Takes under a second single threaded.  Bad input
exits 1 with a message.
"""

import sys
import time

from otsuki import jsonio
from otsuki.cli import Parser, exit_code
from otsuki.pipeline import bounds_check, compute_index


def main():
    ap = Parser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--method", default="both",
                    choices=["both", "direct", "edwards"])
    args = ap.parse_args()

    start = time.monotonic()
    report = compute_index(args.p, args.q, method=args.method, n=args.n)
    elapsed = time.monotonic() - start

    print(f"family p/q = {args.p}/{args.q}   b = {report.b:.12f}   "
          f"T = {report.T:.9f}")
    print(f"{'mode':>4} {'neg':>5} {'zero':>5}  method")
    for rec in report.per_mode:
        print(f"{rec.l:>4} {rec.neg:>5} {rec.zero:>5}  {rec.method}")
    print(f"\nindex = {report.ind}   nullity = {report.nul}   "
          f"spectral index = {report.spectral_index}")
    checks = bounds_check(report)
    for name in (key for key in checks if key.endswith("_ok")):
        print(f"{name:>17}: {'yes' if checks[name] else 'NO'}")
    print(f"\nelapsed: {elapsed:.1f} s")
    print("\nfull report:")
    print(jsonio.dumps(report.to_json_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
