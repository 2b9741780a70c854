#!/usr/bin/env python3
"""Print one SHA-256 per CLI output, to show that a change keeps every
output byte for byte.

    python3 scripts/check_outputs.py                   # this checkout
    python3 scripts/check_outputs.py --root OTHER_TREE # another checkout

Each command runs in a fresh ``python -m relpres.cli`` process with the
``src`` directory of ``--root`` on the path, inside a scratch directory
that holds a copy of ``fixtures/`` so that every path the manifest records
is relative.  Covered: the stdout of every README command on the fixtures;
``conjugacy oracle`` over Z/5 at eight syllables; ``presentation
rewrite`` and ``verify`` of a 21 t-letter word; ``diagram reduce`` on
both digon fixtures, on seven spheres from ``tests/fixtures.py`` that need
pulls (a contraction, a split, a loop around a monogon, a discarded
sphere), hole fills and digon merges, and on a 12-digon chain, with
every chain file and the ``--trace`` file; ``diagram validate --pres``
and ``diagram curvature --weights uniform`` on each of those eight
spheres, whose vertex counts and vertex curvatures in vertex order pin
the vertex numbering, and ``diagram validate`` on the thickened dumbbell
with its exterior vertices unmarked, whose ``interior vertex v``
failures name vertex indexes; ``diagram curvature --weights rule --audit`` on
the first four-face survivor over ``pres_z3_k2`` that is not a
degenerate digon (the weight rule does not apply to it); and
``search enumerate`` at three faces and ``--brute-force`` at two faces on
both ``pres_*`` fixtures, each with one and with two digon syllables (two
syllables give many small multisets); ``search enumerate`` on two
minimized k=2 rewrites over Z/3 with deep gluing trees: DEEP_WORD at
three faces and two digon syllables (one pair, 11,706 nodes) and WORD at
four faces, which stops at the node bound with exit code 3; ``conjugacy
center`` on ``(x t)^2`` over Z/3 (s = 0, no pairs, one letter), which is
checked in G * Z_k; a negative ``--digon-syllables`` and
``--max-syllables``, which are usage errors; six more usage errors:
``diagram reduce`` on two disjoint degenerate digons, one file per JSON
loader with a field of the wrong type (a presentation, a diagram and a
group table), a diagram whose ``edge_dir`` key is not an edge index, and
two malformed ``diagram curvature --weights`` files (a list, and a float
weight); and ``conjugacy oracle`` over Z/5 with k = 5 at ten syllables,
refused at the oracle's check bound with exit code 3 (its 11,184,784
checks sit just above the bound, so a checkout without the bound still
finishes the command).
Each line is ``<sha256>  <name>``, with the exit code after a command's
name; compare two checkouts' lines with ``diff``.  A command that runs
longer than TIMEOUT_S seconds is stopped and printed as ``<64 dashes>
<name> timeout``, so a checkout that hangs still gets a full listing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORD = "x t y t^-1 x t"
# unimodular, 21 t-letters; it rewrites to two copies with two pairs
WORD21 = ("x t y t x t^-1 y t x t^-1 y t^-1 x t y t x t^-1 x t y t^-1 y t x t^-1 "
          "y t x t^-1 x t y t^-1 x t y t^-1 x t^-1 y t")
# minimizes at k = 2 to one pair, the shape of the deep s=1 benchmark search
DEEP_WORD = "x t x t x t^-1 x t^-1 x t"
PRES = ("fixtures/pres_z3_k2.json", "fixtures/pres_z2_k2.json")
TIMEOUT_S = 300                  # per command
# (file, word over Z/3, k) of the minimized rewrites the library writes
REWRITES = (("p21_pres.json", WORD21, 3), ("deep_pres.json", DEEP_WORD, 2),
            ("bound_pres.json", WORD, 2))

COMMANDS = [
    ("word-check", ["word", "check", "--group", "fixtures/z3.json", "--word", WORD]),
    ("presentation-rewrite", ["presentation", "rewrite", "--group", "fixtures/z3.json",
                              "--word", WORD, "--k", "2", "--out", "p.json"]),
    ("presentation-verify", ["presentation", "verify", "--pres", PRES[0]]),
    ("diagram-validate", ["diagram", "validate", "--in", "fixtures/degenerate_digon_z3.json",
                          "--pres", PRES[0]]),
    ("curvature-uniform", ["diagram", "curvature", "--in", "fixtures/two_onegons.json",
                           "--weights", "uniform"]),
    ("curvature-rule", ["diagram", "curvature", "--in", "fixtures/degenerate_digon_z3.json",
                        "--weights", "rule", "--pres", PRES[0], "--audit"]),
    ("conjugacy-reduce", ["conjugacy", "reduce", "--pres", PRES[0], "--u", "t^-1 x t",
                          "--h", "x"]),
    ("conjugacy-oracle", ["conjugacy", "oracle", "--group", "fixtures/z4.json", "--g", "x",
                          "--k", "2", "--max-syllables", "6"]),
    ("conjugacy-center", ["conjugacy", "center", "--pres", PRES[0]]),
    ("conjugacy-center-s0", ["conjugacy", "center", "--pres", "s0_pres.json"]),
    ("search-readme", ["search", "enumerate", "--pres", PRES[0], "--max-faces", "2",
                       "--digon-syllables", "1"]),
    ("oracle-z5", ["conjugacy", "oracle", "--group", "fixtures/z5.json", "--g", "x",
                   "--k", "3", "--max-syllables", "8"]),
    ("rewrite-21", ["presentation", "rewrite", "--group", "fixtures/z3.json",
                    "--word", WORD21, "--k", "3", "--out", "p21.json"]),
    ("verify-21", ["presentation", "verify", "--pres", "p21_pres.json"]),
    ("search-3-d2-deep", ["search", "enumerate", "--pres", "deep_pres.json", "--max-faces", "3",
                          "--digon-syllables", "2"]),
    ("search-4-bound", ["search", "enumerate", "--pres", "bound_pres.json", "--max-faces", "4",
                        "--digon-syllables", "1"]),
    ("search-negative-digons", ["search", "enumerate", "--pres", PRES[0],
                                "--digon-syllables", "-1"]),
    ("oracle-negative-bound", ["conjugacy", "oracle", "--group", "fixtures/z4.json", "--g", "x",
                               "--k", "2", "--max-syllables", "-1"]),
    ("oracle-over-bound", ["conjugacy", "oracle", "--group", "fixtures/z5.json", "--g", "x",
                           "--k", "5", "--max-syllables", "10"]),
]
for _pres in PRES:
    _name = os.path.basename(_pres)[:-5]
    COMMANDS += [
        (f"search-3-{_name}", ["search", "enumerate", "--pres", _pres, "--max-faces", "3"]),
        (f"brute-2-{_name}", ["search", "enumerate", "--pres", _pres, "--max-faces", "2",
                              "--brute-force"]),
        (f"search-3-d2-{_name}", ["search", "enumerate", "--pres", _pres, "--max-faces", "3",
                                  "--digon-syllables", "2"]),
        (f"brute-2-d2-{_name}", ["search", "enumerate", "--pres", _pres, "--max-faces", "2",
                                 "--brute-force", "--digon-syllables", "2"]),
    ]


def rewritten_presentations(work: str) -> None:
    """Write the minimized rewrites of REWRITES and the single-letter
    presentation ``s0_pres.json`` that the commands read."""
    from relpres.freeprod import FreeProduct
    from relpres.presentation import RelPresentation, initial_rewrite, minimize
    from relpres.words import parse_word
    from fixtures import Z3

    base = FreeProduct(Z3, 0)
    written = [(name, minimize(initial_rewrite(Z3, parse_word(word, base), k)))
               for name, word, k in REWRITES]
    written.append(("s0_pres.json", RelPresentation(Z3, 0, 2, base.from_name("x"), ())))
    for name, pres in written:
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(pres.to_dict(), fh, sort_keys=True)


def sphere_inputs(work: str) -> list[tuple[str, str, str]]:
    """Write spheres from ``tests/fixtures.py`` that the driver must reduce,
    and the thickened dumbbell with its exterior vertices unmarked as
    ``unmarked_dumbbell.json``, so that four of its twelve vertices fail
    as interior; returns (name, diagram file, presentation file) triples
    of the spheres."""
    from fixtures import (digon_chain, dumbbell, loop_split_sphere, looped_pinch_pair,
                          mirror_large_pair, pres_z3, theta_digons)
    from relpres.moves import thicken

    p2, p3 = pres_z3(2), pres_z3(3)
    x, y = p2.ambient.from_name("x"), p2.ambient.from_name("y")
    thick = thicken(dumbbell(p2, x, y, [x, y, x]))
    unmarked = thick.to_dict()
    unmarked["exterior"]["vertex_seeds"] = []
    with open(os.path.join(work, "unmarked_dumbbell.json"), "w", encoding="utf-8") as fh:
        json.dump(unmarked, fh, sort_keys=True)
    spheres = [("loop-split", loop_split_sphere(p2, x), p2),
               ("dumbbell", thick, p2),
               ("theta", theta_digons(p2, x, y), p2),
               ("mirror-k2", mirror_large_pair(p2), p2),
               ("mirror-k3", mirror_large_pair(p3), p3),
               ("chain-12", digon_chain(p2, [x] * 12), p2),
               ("loop-monogon", looped_pinch_pair(p2, x, y), p2),
               ("loop-discard", looped_pinch_pair(p2, x, y, balloon=True), p2)]
    out = []
    for name, diagram, pres in spheres:
        for suffix, doc in (("", diagram.to_dict()), ("_pres", pres.to_dict())):
            with open(os.path.join(work, f"{name}{suffix}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
        out.append((name, f"{name}.json", f"{name}_pres.json"))
    return out


def bad_inputs(work: str) -> list[tuple[str, list[str]]]:
    """Write two disjoint copies of the degenerate digon fixture, one
    file per JSON loader with a field of the wrong type, a diagram with a
    key that is not an edge index and two malformed weight files; returns
    the commands that read them."""
    def load(path: str):
        with open(os.path.join(work, path), encoding="utf-8") as fh:
            return json.load(fh)

    digon = "fixtures/degenerate_digon_z3.json"
    two, bad_digon = load(digon), load(digon)
    (face,) = two["faces"]
    two["faces"].append({"slots": [dict(s, dart=s["dart"] + 2) for s in face["slots"]]})
    two["pairing"].append([2, 3])
    two["edge_dir"]["1"] = 3
    two["exterior"]["vertex_seeds"] += [[1, 0], [1, 1]]
    bad_digon["faces"][0]["slots"][0]["dart"] = "a"
    docs = {"disconnected.json": two, "bad_pres.json": dict(load(PRES[0]), s="1"),
            "bad_diagram.json": bad_digon, "bad_group.json": {"names": 5, "table": []},
            "bad_edge_key.json": dict(load(digon), edge_dir={"x": 0}),
            "weights_list.json": [1, 1], "weights_float.json": {"0,0": 0.1, "1,0": 1}}
    for name, doc in docs.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    return [("reduce-disconnected", ["diagram", "reduce", "--in", "disconnected.json",
                                     "--pres", PRES[0], "--out", "chain-disconnected"]),
            ("bad-pres", ["conjugacy", "center", "--pres", "bad_pres.json"]),
            ("bad-diagram", ["diagram", "validate", "--in", "bad_diagram.json"]),
            ("bad-edge-key", ["diagram", "validate", "--in", "bad_edge_key.json"]),
            ("bad-group", ["word", "check", "--group", "bad_group.json", "--word", WORD]),
            ("bad-weights-list", ["diagram", "curvature", "--in", "fixtures/two_onegons.json",
                                  "--weights", "weights_list.json"]),
            ("bad-weights-float", ["diagram", "curvature", "--in", "fixtures/two_onegons.json",
                                   "--weights", "weights_float.json"])]


def four_face_survivor(work: str) -> str:
    """Write the first survivor (in canonical-form order, as ``search
    enumerate`` lists them) at four faces and two digon syllables over
    ``pres_z3_k2`` that is not a degenerate digon; returns its file name."""
    from relpres.diagram import is_degenerate_digon
    from relpres.presentation import RelPresentation
    from relpres.search import EnumerationConfig, enumerate_diagrams

    pres = RelPresentation.from_file(os.path.join(work, PRES[0]))
    found = enumerate_diagrams(EnumerationConfig(pres, max_interior_faces=4,
                                                 digon_syllables=2)).survivors
    d = next(found[form] for form in sorted(found)
             if not is_degenerate_digon(found[form], pres))
    with open(os.path.join(work, "survivor4.json"), "w", encoding="utf-8") as fh:
        json.dump(d.to_dict(), fh, sort_keys=True)
    return "survivor4.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src/, fixtures/ and tests/ are used")
    root = os.path.abspath(ap.parse_args().root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(root, "fixtures"), os.path.join(work, "fixtures"))
        rewritten_presentations(work)
        commands = list(COMMANDS)
        commands.append(("curvature-rule-survivor4",
                         ["diagram", "curvature", "--in", four_face_survivor(work),
                          "--weights", "rule", "--pres", PRES[0], "--audit"]))
        reduced = [("digon-z3", "fixtures/degenerate_digon_z3.json", PRES[0]),
                   ("digon-z2", "fixtures/degenerate_digon_z2.json", PRES[1])]
        spheres = sphere_inputs(work)
        for name, infile, pres in reduced + spheres:
            commands.append((f"reduce-{name}", ["diagram", "reduce", "--in", infile, "--pres",
                                                pres, "--out", f"chain-{name}",
                                                "--trace", f"trace-{name}.json"]))
        for name, infile, pres in spheres:
            commands += [(f"validate-{name}", ["diagram", "validate", "--in", infile,
                                               "--pres", pres]),
                         (f"curvature-{name}", ["diagram", "curvature", "--in", infile,
                                                "--weights", "uniform"])]
        commands.append(("unmarked-dumbbell", ["diagram", "validate", "--in",
                                               "unmarked_dumbbell.json", "--pres",
                                               "dumbbell_pres.json"]))
        commands += bad_inputs(work)
        for name, argv in commands:
            try:
                run = subprocess.run([sys.executable, "-m", "relpres.cli", *argv], cwd=work,
                                     env=env, capture_output=True, check=False,
                                     timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{'-' * 64}  {name} timeout")
                continue
            print(f"{digest(run.stdout)}  {name} exit={run.returncode}")
            written = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--trace")]
            for path in written:
                full = os.path.join(work, path)
                if not os.path.exists(full):
                    print(f"{'-' * 64}  {name}:{path} absent")
                    continue
                files = ([os.path.join(path, f) for f in sorted(os.listdir(full))]
                         if os.path.isdir(full) else [path])
                for rel in files:
                    with open(os.path.join(work, rel), "rb") as fh:
                        print(f"{digest(fh.read())}  {name}:{rel}")


if __name__ == "__main__":
    main()
