#!/usr/bin/env python3
"""Exhaustive malnormality checks for single-syllable relators.

Sweeps cyclic base groups and power exponents, checking in the free
product with a finite cyclic factor that no bounded conjugator drags a
nontrivial base element back into the base group.  A cell whose passing
run would exceed the oracle's check bound is not run and is marked "over
bound".  Exit code 1 when some cell finds a violation, else 3 when some
cell is over bound, else 0.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relpres.conjugacy import OracleBoundExceeded, malnormality_oracle
from relpres.groups import cyclic_group


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--max-syllables", type=int, default=6)
    args = ap.parse_args()

    violations = over_bound = 0
    for order in args.orders:
        group = cyclic_group(order)
        for k in args.k:
            cell = f"Z/{order} k={k} L={args.max_syllables}"
            t0 = time.monotonic()
            try:
                rep = malnormality_oracle(group, 1, k, args.max_syllables)
            except OracleBoundExceeded as exc:
                over_bound += 1
                print(f"{cell}: over bound ({exc})")
                continue
            violations += not rep.holds
            verdict = "malnormal" if rep.holds else f"VIOLATION {rep.counterexample}"
            print(f"{cell}: {verdict} ({rep.checked} checks, {time.monotonic() - t0:.1f}s)")
    return 1 if violations else 3 if over_bound else 0


if __name__ == "__main__":
    sys.exit(main())
