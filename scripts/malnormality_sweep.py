#!/usr/bin/env python3
"""Exhaustive malnormality checks for single-syllable relators.

Sweeps cyclic base groups and power exponents, checking in the free
product with a finite cyclic factor that no bounded conjugator drags a
nontrivial base element back into the base group.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relpres.conjugacy import malnormality_oracle
from relpres.groups import cyclic_group


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--max-syllables", type=int, default=6)
    args = ap.parse_args()

    for order in args.orders:
        group = cyclic_group(order)
        for k in args.k:
            t0 = time.monotonic()
            rep = malnormality_oracle(group, 1, k, args.max_syllables)
            verdict = "malnormal" if rep.holds else f"VIOLATION {rep.counterexample}"
            print(f"Z/{order} k={k} L={args.max_syllables}: {verdict} "
                  f"({rep.checked} checks, {time.monotonic() - t0:.1f}s)")


if __name__ == "__main__":
    main()
