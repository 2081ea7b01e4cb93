#!/usr/bin/env python3
"""The ledger of a near-Clifford sweep: its per-family lines without the
fields that move in their last digits.

Reads the stdout of ``sweep_near_clifford.py`` and writes one line per
family, its JSON document without ``timestamp`` and the float fields b,
c, T, Xi, t0, flags.s1 and flags.s2, then the closing summary line
without its seconds.  Every count, per-twist row, check and error stays.
A change of precision, or another BLAS build, moves only what is left
out.  The ledger in tests/data is regenerated by

    PYTHONPATH=src python scripts/sweep_near_clifford.py --max-q 60 \\
        --n 1024 | python scripts/sweep_ledger.py \\
        > tests/data/sweep_q60_n1024.txt
"""

import json
import re
import sys

DROPPED = ("timestamp", "b", "c", "T", "Xi", "t0")
DROPPED_FLAGS = ("s1", "s2")


def main():
    for line in sys.stdin:
        if line.startswith("{"):
            doc = json.loads(line)
            for key in DROPPED:
                doc.pop(key, None)
            for key in DROPPED_FLAGS:
                doc.get("flags", {}).pop(key, None)
            print(json.dumps(doc))
        elif line.startswith("summary:"):
            print(re.sub(r", [0-9.]+ s$", "", line.rstrip("\n")))


if __name__ == "__main__":
    main()
