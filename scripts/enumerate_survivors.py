#!/usr/bin/env python3
"""Sweep diagram enumerations across corpus presentations.

For each word in the frozen corpus this rewrites at k = 2 and 3, runs the
clean-diagram enumeration at both the raw and the minimized stage, and
tabulates the survivors.  The expected picture: one degenerate digon per
nontrivial bottom-slice word, nothing else.  A search cut short at the
node bound proves nothing either way, so its row is counted as incomplete
apart from the unexpected ones.  Exit code 1 when some survivor set is
unexpected, else 3 when some search is incomplete, else 0.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relpres.diagram import is_degenerate_digon
from relpres.freeprod import FreeProduct
from relpres.groups import cyclic_group
from relpres.presentation import initial_rewrite, minimize
from relpres.search import EnumerationConfig, enumerate_diagrams
from relpres.words import parse_word

DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                    "rewrite_corpus.json")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-faces", type=int, default=2)
    ap.add_argument("--digon-syllables", type=int, default=1)
    ap.add_argument("--k", type=int, nargs="+", default=[2])
    ap.add_argument("--limit", type=int, default=10, help="corpus words to use")
    ap.add_argument("--out", default="survivor_sweep.json")
    args = ap.parse_args()

    corpus = json.load(open(DATA))["words"][:args.limit]
    z3 = cyclic_group(3, ["e", "x", "y"])
    base = FreeProduct(z3, 0)
    rows = []
    for text in corpus:
        w = parse_word(text, base)
        for k in args.k:
            raw = initial_rewrite(z3, w, k)
            for stage, pres in (("raw", raw), ("minimized", minimize(raw))):
                t0 = time.monotonic()
                res = enumerate_diagrams(EnumerationConfig(
                    pres, max_interior_faces=args.max_faces,
                    digon_syllables=args.digon_syllables))
                degenerate = sum(is_degenerate_digon(d, pres)
                                 for d in res.survivors.values())
                rows.append({
                    "word": text, "k": k, "stage": stage, "s": pres.s,
                    "survivors": len(res.survivors),
                    "degenerate_digons": degenerate,
                    "expected": len(pres.digon_alphabet(args.digon_syllables)),
                    "matchings": res.matchings_tried,
                    "checked": res.checked,
                    "nodes": res.nodes,
                    "prunes": res.prunes,
                    "complete": res.complete,
                    "seconds": round(time.monotonic() - t0, 3),
                })
                print(rows[-1])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    incomplete = [r for r in rows if not r["complete"]]
    bad = [r for r in rows if r["complete"] and (r["survivors"] != r["expected"]
                                                 or r["survivors"] != r["degenerate_digons"])]
    print(f"\n{len(rows)} runs, {len(bad)} unexpected survivor sets, "
          f"{len(incomplete)} incomplete -> {args.out}")
    return 1 if bad else 3 if incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
