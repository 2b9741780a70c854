"""Seeded inputs for the relpres benchmark.

Every job spec is plain JSON data (words as text, groups, presentations and
diagrams in the library's file formats), so one seed gives byte-identical
specs and ``digest`` shows that two runs used the same inputs.  The library
is called here only to rewrite generated words into presentations and to
serialize diagrams built with its public constructor; jobs then load the
specs exactly as the CLI loads files.

A workload is one pass of jobs whose shapes are fixed by their slot; the
seed draws the concrete inputs.  A run repeats the pass, so runs with
different seeds, or on a faster program, do the same mix of work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from relpres.diagram import Diagram, Slot
from relpres.freeprod import FPWord, FreeProduct
from relpres.groups import GroupTable, cyclic_group
from relpres.presentation import RelPresentation, initial_rewrite, minimize
from relpres.words import TWord, parse_word, word_str

# -- groups ------------------------------------------------------------------


def symmetric3() -> GroupTable:
    """S3 as the permutations of three points, composed right to left."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
             for p in perms]
    return GroupTable(["e", "a", "b", "r", "r2", "c"], table)


def base_groups() -> dict[str, GroupTable]:
    return {"Z3": cyclic_group(3), "Z5": cyclic_group(5), "S3": symmetric3()}


def cyclic_table(n: int) -> dict:
    return {"names": ["e"] + [f"x{i}" for i in range(1, n)],
            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}


def dihedral_table(n: int) -> dict:
    """D_n of order 2n: index a + n*b stands for r^a s^b."""
    def mul(x, y):
        a, b = x % n, x // n
        c, d = y % n, y // n
        return ((a + (c if b == 0 else -c)) % n) + n * ((b + d) % 2)
    order = 2 * n
    names = ["e"] + [f"r{a}" for a in range(1, n)] + [f"s{a}" for a in range(n)]
    return {"names": names,
            "table": [[mul(x, y) for y in range(order)] for x in range(order)]}


# -- words ---------------------------------------------------------------------


def unimodular_word(rng: random.Random, group: GroupTable, signs: list[int]) -> str:
    """The word g_1 t^e_1 ... g_n t^e_n with the exponents ``signs`` (they
    sum to one) and every g_i nontrivial, so it is cyclically reduced: no
    t^e g t^-e with g trivial occurs, read cyclically."""
    nontrivial = group.nontrivial()
    return " ".join(f"{group.names[rng.choice(nontrivial)]} {'t' if e == 1 else 't^-1'}"
                    for e in signs)


def random_signs(rng: random.Random, n: int) -> list[int]:
    signs = [1] * ((n + 1) // 2) + [-1] * ((n - 1) // 2)
    rng.shuffle(signs)
    return signs


def sign_pattern(slot: int, n: int) -> list[int]:
    """The t-exponents of a job slot's word, the same for every seed: with
    nontrivial letters they fix the copy count of the rewrite and so most of
    its cost."""
    return random_signs(random.Random(f"signs:{slot}"), n)


def parse_base(text: str, group: GroupTable) -> TWord:
    return parse_word(text, FreeProduct(group, 0))


def bottom_word(rng: random.Random, amb: FreeProduct, max_syllables: int) -> FPWord:
    """Nontrivial word in copies 0..s-1 (the domain of the shift); with one
    copy in that slice it has a single syllable."""
    group = amb.group
    letters = []
    for _ in range(rng.randint(1, max_syllables)):
        choices = [c for c in range(amb.s) if not letters or letters[-1][0] != c]
        if not choices:
            break
        letters.append((rng.choice(choices), rng.choice(group.nontrivial())))
    return amb.word(letters)


def alphabet_size(order: int, s: int, syllables: int) -> int:
    """Nontrivial normal forms over copies 0..s-1 with at most the given
    number of syllables: the number of degenerate digons a search finds."""
    total, layer = 0, 0
    for length in range(1, syllables + 1):
        layer = s * (order - 1) if length == 1 else layer * (s - 1) * (order - 1)
        total += layer
    return total


def oracle_checks(order: int, k: int, syllables: int) -> int:
    """Checks a passing malnormality oracle makes: alternating words of
    G-letters and x-letters up to the bound, less the base group, times the
    nontrivial elements conjugated by each."""
    g, x = order - 1, k - 1
    words = 0
    for length in range(1, syllables + 1):
        hi, lo = (length + 1) // 2, length // 2
        words += g ** hi * x ** lo + x ** hi * g ** lo
    return (words - g) * g


# -- presentations ------------------------------------------------------------


def presentation(rng, group: GroupTable, t_letters, k: int, want,
                 signs: list[int] | None = None) -> RelPresentation:
    """Rewrite seeded words until ``want(raw)`` picks a presentation.

    ``want`` returns the presentation to keep, or None to draw again; it
    selects the input class (copy count, pair count), never a result.
    ``signs`` fixes the t-exponents; otherwise each draw shuffles them.
    """
    while True:
        order = signs or random_signs(rng, rng.choice(t_letters))
        w = parse_base(unimodular_word(rng, group, order), group)
        raw = initial_rewrite(group, w, k)
        chosen = want(raw)
        if chosen is not None:
            return chosen


def minimized_shape(s: int):
    def want(raw):
        small = minimize(raw)
        return small if (small.s, small.m) == (s, 0) else None
    return want


def raw_shape(s: int):
    return lambda raw: raw if raw.s == s else None


# -- diagrams -----------------------------------------------------------------


def chain_words(rng: random.Random, amb: FreeProduct, n: int) -> list[FPWord]:
    """Two-syllable words, copy 0 then copy 1, the second the inverse of the
    first.  Any product of them in any order is reduced, so a chain of them
    reduces in a fixed number of merges, with one cancellation."""
    nontrivial = amb.group.nontrivial()
    words = [amb.word([(0, rng.choice(nontrivial)), (1, rng.choice(nontrivial))])
             for _ in range(n - 1)]
    return words[:1] + [words[0].inv()] + words[1:]


def digon_chain_faces(amb: FreeProduct, words: list[FPWord], base: int):
    """Digons D_1..D_n stacked along edges 0..n between poles L and R.

    Edge i has darts base+2i (east, along its arrow) and base+2i+1.  All
    p-corners meet at L and all (p^shift)^-1 corners at R.  Returns the
    digon faces and the two darts the outer face runs along.
    """
    faces = [[Slot(base + 2 * (i + 1), p.shift(1).inv()), Slot(base + 2 * i + 1, p)]
             for i, p in enumerate(words)]
    return faces, base, base + 2 * len(words) + 1


def digon_chain(amb: FreeProduct, words: list[FPWord]) -> Diagram:
    n = len(words)
    faces, east, west = digon_chain_faces(amb, words, 0)
    one = amb.one()
    faces.append([Slot(east, one), Slot(west, one)])
    pairing = {}
    for i in range(n + 1):
        pairing[2 * i], pairing[2 * i + 1] = 2 * i + 1, 2 * i
    return Diagram(amb, faces, pairing, [2 * i for i in range(n + 1)],
                   exterior_faces=[n], exterior_vertex_seeds=[(0, 0), (0, 1)])


def cycle_split_sphere(amb: FreeProduct, words: list[FPWord], cycle: int) -> Diagram:
    """Two digon-chain disks whose R poles are joined by an identity cycle.

    The second disk uses the inverse words in reverse order, so the pinch
    label at R is trivial.  Pulling the cycle contracts its edges until a
    loop is left, and the loop splits the sphere into two chains.
    """
    one = amb.one()
    other = [p.inv() for p in reversed(words)]
    n = len(words)
    f1, e1, w1 = digon_chain_faces(amb, words, 0)
    f2, e2, w2 = digon_chain_faces(amb, other, 2 * n + 2)
    loop = 4 * n + 4
    side_a = [loop + 2 * j for j in range(cycle)]
    side_b = [loop + 2 * j + 1 for j in range(cycle)]
    ext1 = [Slot(e1, one)] + [Slot(d, one) for d in side_a] + [Slot(w1, one)]
    ext2 = [Slot(e2, one)] + [Slot(d, one) for d in reversed(side_b)] + [Slot(w2, one)]
    pairing = {}
    for d in range(0, loop + 2 * cycle, 2):
        pairing[d], pairing[d + 1] = d + 1, d
    arrows = [2 * i for i in range(n + 1)] + [2 * n + 2 + 2 * i for i in range(n + 1)]
    arrows += side_a
    labels = {frozenset((a, b)): "1" for a, b in zip(side_a, side_b)}
    return Diagram(amb, f1 + f2 + [ext1, ext2], pairing, arrows, labels,
                   exterior_faces=[2 * n, 2 * n + 1],
                   exterior_vertex_seeds=[(0, 1), (n, 1)])


def mirror_pair(pres: RelPresentation) -> Diagram:
    """Two mirror copies of the relator face glued edge to edge."""
    rel = pres.relator()
    segs, signs, n = rel.segments, rel.signs, rel.t_count
    if not segs[-1].is_identity():
        raise ValueError("relator must end with a t-letter")
    f1 = [Slot(2 * i, segs[i + 1] if i + 1 < len(segs) - 1 else segs[0])
          for i in range(n)]
    f2 = [Slot(2 * (n - 1 - i) + 1,
               (segs[n - 1 - i] if n - 1 - i >= 1 else segs[0]).inv())
          for i in range(n)]
    pairing = {}
    for i in range(n):
        pairing[2 * i], pairing[2 * i + 1] = 2 * i + 1, 2 * i
    arrows = [2 * i if signs[i] == 1 else 2 * i + 1 for i in range(n)]
    return Diagram(pres.ambient, [f1, f2], pairing, arrows)


def closed_map(rng: random.Random, group: GroupTable, faces: int,
               shape: random.Random | None = None) -> dict:
    """Connected closed oriented map in the diagram file format.

    Face i > 0 is glued to an earlier face first (a spanning tree), then
    the free darts are matched at random.  Faces have 2..6 sides.  ``shape``
    draws the face sizes and the gluing (default ``rng``); ``rng`` draws the
    corner labels and edge directions.
    """
    shape = shape or rng
    sizes = [shape.randint(2, 6) for _ in range(faces)]
    if sum(sizes) % 2:
        sizes[-1] += 1
    darts, dart = [], 0
    for size in sizes:
        darts.append(list(range(dart, dart + size)))
        dart += size
    free = [list(ds) for ds in darts]
    for f in free:
        shape.shuffle(f)
    pairs = []
    for i in range(1, faces):
        j = shape.choice([j for j in range(i) if free[j]])
        pairs.append((free[i].pop(), free[j].pop()))
    rest = [d for f in free for d in f]
    shape.shuffle(rest)
    pairs += list(zip(rest[::2], rest[1::2]))
    edges = sorted((min(a, b), max(a, b)) for a, b in pairs)
    return {
        "ambient": dict(group.to_dict(), s=0),
        "faces": [{"slots": [{"dart": d, "corner": group.names[rng.randrange(group.order)]
                              if rng.random() < 0.7 else ""} for d in ds]}
                  for ds in darts],
        "pairing": [list(e) for e in edges],
        "edge_dir": {str(i): rng.choice(e) for i, e in enumerate(edges)},
        "edge_labels": {},
        "exterior": {"faces": [], "vertex_seeds": []},
    }


def relabeled(doc: dict, rng: random.Random) -> dict:
    """The same map with darts renamed, faces reordered and each face's
    slot list rotated: its canonical form must not change."""
    darts = [s["dart"] for f in doc["faces"] for s in f["slots"]]
    perm = dict(zip(darts, rng.sample(range(len(darts)), len(darts))))
    faces = []
    for f in doc["faces"]:
        slots = [{"dart": perm[s["dart"]], "corner": s["corner"]} for s in f["slots"]]
        r = rng.randrange(len(slots))
        faces.append({"slots": slots[r:] + slots[:r]})
    rng.shuffle(faces)
    old = sorted((min(a, b), max(a, b)) for a, b in doc["pairing"])
    arrow = {e: doc["edge_dir"][str(i)] for i, e in enumerate(old)}
    new = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in old)
    back = {(min(perm[a], perm[b]), max(perm[a], perm[b])): (a, b) for a, b in old}
    return dict(doc, faces=faces, pairing=[list(e) for e in new],
                edge_dir={str(i): perm[arrow[back[e]]] for i, e in enumerate(new)})


def random_weights(rng: random.Random, doc: dict) -> list[list[int]]:
    return [[fi, si, rng.randint(-6, 6), rng.randint(1, 7)]
            for fi, f in enumerate(doc["faces"]) for si in range(len(f["slots"]))]


# -- workloads ------------------------------------------------------------------
#
# A workload is one pass: a list of jobs whose shapes (group, word length,
# k, copy count, diagram size, oracle bound) are fixed by their slot, while
# the seed draws the letters, elements, labels and renumberings.  Every seed
# therefore asks for about the same work, and a run repeats the pass.


# t-exponents of a 5 t-letter word that rewrites to two copies; over Z/3 it
# minimizes to one pair, so the s=1 search always walks the same tree shape
TWO_COPIES = [1, 1, -1, -1, 1]


def search_deep(rng, groups) -> list[dict]:
    """One s=0 job per group (3 t-letter words minimizing to one 6-dart
    relator), then one s=1 job over Z/3 (a 5 t-letter word minimizing to
    one pair)."""
    s0 = [search_spec("deep-s0", name, presentation(rng, groups[name], (3,), 2,
                                                    minimized_shape(0)), 3)
          for name in ("Z3", "Z5", "S3")]
    s1 = search_spec("deep-s1", "Z3", presentation(rng, groups["Z3"], (5,), 2,
                                                   minimized_shape(1), TWO_COPIES), 3)
    return s0 + [s1]


# (group, raw copy count) of the jobs in one search-wide pass, in order
WIDE_PASS = (("Z3", 2), ("S3", 2), ("Z3", 3), ("Z5", 2), ("Z3", 3), ("Z3", 2))


def search_wide(rng, groups) -> list[dict]:
    return [search_spec("wide", name, presentation(rng, groups[name], (5, 7), 2,
                                                   raw_shape(s)), 2)
            for name, s in WIDE_PASS]


def search_spec(kind: str, group: str, pres: RelPresentation, max_faces: int) -> dict:
    return {"kind": kind, "group": group, "pres": pres.to_dict(),
            "max_faces": max_faces, "digon_syllables": 2,
            "expect_survivors": alphabet_size(pres.group.order, pres.s, 2)}


# the oracle settings of one algebra pass: (group, k, max syllables)
ORACLES = (("Z5", 3, 8), ("S3", 2, 8), ("Z3", 4, 8), ("Z5", 2, 7), ("S3", 3, 6),
           ("Z3", 3, 8))


def algebra(rng, groups, workdir_files: dict) -> list[dict]:
    """One pass, shuffled: 60 rewrite pipelines (each of 3..21 t-letters
    with each k in 2..4, twice), 24 conjugator reductions (1..6 nested
    conjugations), 12 center certificates, the six oracle settings, a
    renumbered cyclic table of order 128 and dihedral table of order 64,
    and the eleven README CLI commands on two generated file sets.  Every
    word's t-exponents are fixed by its slot."""
    names = ("Z3", "Z5", "S3")
    block = []
    for i in range(60):
        group = groups[names[i % 3]]
        n = 3 + 2 * (i % 10)
        block.append({"kind": "rewrite", "group": group.to_dict(), "k": (2, 3, 4)[i // 10 % 3],
                      "word": unimodular_word(rng, group, sign_pattern(i, n))})
    for i in range(24):
        block.append(conjugator_spec(rng, groups[names[i % 3]], 1 + i % 6))
    for i in range(12):
        group = groups[names[i % 3]]
        pres = presentation(rng, group, (5,), (2, 3, 4)[i // 3 % 3], lambda raw: raw,
                            sign_pattern(100 + i, 5))
        block.append({"kind": "center", "pres": pres.to_dict()})
    for gname, k, length in ORACLES:
        group = groups[gname]
        block.append({"kind": "oracle", "group": group.to_dict(),
                      "g": rng.choice(group.nontrivial()), "k": k,
                      "max_syllables": length,
                      "expect_checked": oracle_checks(group.order, k, length)})
    block.append(group_spec(rng, "dihedral", 32, dihedral_table(32)))
    block.append(group_spec(rng, "cyclic", 128, cyclic_table(128)))
    for name in ("Z3", "S3"):
        block.extend(cli_specs(rng, groups[name], f"cli_{name}", workdir_files))
    return rng.sample(block, len(block))


def group_spec(rng, family: str, n: int, doc: dict) -> dict:
    """The table with its elements renumbered by a random permutation, so
    the identity and the inverses sit at seed-dependent indices."""
    order = len(doc["names"])
    perm = rng.sample(range(order), order)
    names, table = [""] * order, [[0] * order for _ in range(order)]
    for x in range(order):
        names[perm[x]] = doc["names"][x]
        for y in range(order):
            table[perm[x]][perm[y]] = perm[doc["table"][x][y]]
    return {"kind": "group", "family": family, "n": n, "perm": perm,
            "names": names, "table": table}


def conjugator_spec(rng, group: GroupTable, depth: int) -> dict:
    """A copy-0 letter wrapped in up to ``depth`` nested t-conjugations (the
    inverse of conjugator reduction), over a presentation with copy spread
    >= 2."""
    pres = presentation(rng, group, (5,), 2, lambda raw: raw, TWO_COPIES)
    amb = pres.ambient
    seed = amb.letter(0, rng.choice(group.nontrivial()))
    word = TWord(amb, (seed,), ())
    for _ in range(depth):
        red = word.free_reduce()
        choices = []
        for idx, seg in enumerate(red.segments):
            if not seg.is_identity() and seg.in_bottom():
                choices.append((idx, seg, 1))
            if not seg.is_identity() and seg.in_top():
                choices.append((idx, seg, -1))
        if not choices:
            break
        idx, seg, direction = rng.choice(choices)
        segs, signs = list(red.segments), list(red.signs)
        segs[idx:idx + 1] = [amb.one(), seg.shift(direction), amb.one()]
        signs[idx:idx] = [direction]
        signs[idx + 1:idx + 1] = [-direction]
        word = TWord(amb, tuple(segs), tuple(signs))
    h = amb.letter(0, rng.choice(group.nontrivial()))
    return {"kind": "conjugator", "pres": pres.to_dict(), "u": word_str(word),
            "h": str(h), "seed": str(seed),
            "expect_steps": word.free_reduce().t_count // 2}


# t-exponents of the CLI words: they rewrite to two copies
CLI_SIGNS = [1, 1, -1]


def cli_specs(rng, group: GroupTable, prefix: str, files: dict) -> list[dict]:
    """The README command list, run on one generated file set whose names
    start with ``prefix``."""
    word = unimodular_word(rng, group, CLI_SIGNS)
    pres = presentation(rng, group, (3,), 2, lambda raw: raw, CLI_SIGNS)
    amb = pres.ambient
    p = bottom_word(rng, amb, 1)
    digon = Diagram(amb, [[Slot(0, p), Slot(1, p.shift(1).inv())]], {0: 1, 1: 0}, [1],
                    exterior_vertex_seeds=[(0, 0), (0, 1)])
    chain = digon_chain(amb, chain_words(rng, amb, 4))
    conj = conjugator_spec(rng, group, 3)
    files[prefix + "_group.json"] = group.to_dict()
    files[prefix + "_pres.json"] = pres.to_dict()
    files[prefix + "_min.json"] = minimize(initial_rewrite(group, parse_base(word, group), 2)).to_dict()
    files[prefix + "_conj_pres.json"] = conj["pres"]
    files[prefix + "_digon.json"] = digon.to_dict()
    files[prefix + "_map.json"] = closed_map(rng, group, 2)
    files[prefix + "_chain.json"] = chain.to_dict()
    g = "{work}/" + prefix
    k = 2
    commands = [
        (["word", "check", "--group", g + "_group.json", "--word", word], {}),
        (["presentation", "rewrite", "--group", g + "_group.json", "--word", word,
          "--k", "2", "--out", g + "_p.json"], {}),
        (["presentation", "verify", "--pres", g + "_min.json"], {}),
        (["diagram", "validate", "--in", g + "_digon.json", "--pres", g + "_pres.json"], {}),
        (["diagram", "curvature", "--in", g + "_map.json", "--weights", "uniform"], {}),
        (["diagram", "curvature", "--in", g + "_digon.json", "--weights", "rule",
          "--pres", g + "_pres.json", "--audit"], {}),
        (["diagram", "reduce", "--in", g + "_chain.json", "--pres", g + "_pres.json",
          "--out", g + "_chain", "--trace", g + "_trace.json"], {}),
        (["conjugacy", "reduce", "--pres", g + "_conj_pres.json", "--u", conj["u"],
          "--h", conj["h"]], {"steps": conj["expect_steps"]}),
        (["conjugacy", "oracle", "--group", g + "_group.json",
          "--g", group.names[rng.choice(group.nontrivial())], "--k", str(k),
          "--max-syllables", "6"], {"checked": oracle_checks(group.order, k, 6)}),
        (["conjugacy", "center", "--pres", g + "_pres.json"], {}),
        (["search", "enumerate", "--pres", g + "_pres.json", "--max-faces", "2",
          "--digon-syllables", "1"],
         {"survivors": alphabet_size(group.order, pres.s, 1)}),
    ]
    return [{"kind": "cli", "argv": argv, "expect": expect} for argv, expect in commands]


# (digon count of a chain, group) and (word count, cycle length, group) of a
# cycle-split sphere, per reduce pass
CHAINS = ((8, "Z3"), (16, "Z5"), (24, "S3"), (32, "Z3"))
CYCLES = ((3, 2, "Z5"), (6, 4, "S3"))


def reduce(rng, groups) -> list[dict]:
    """One pass, shuffled: digon chains of 8, 16, 24 and 32 digons, mirror
    relator pairs for k=2 and k=3, two spheres whose halves are joined by an
    identity cycle, and sixteen closed maps of 8..32 faces, each map's face
    sizes and gluing fixed by its slot."""
    block = []
    for n, name in CHAINS:
        pres = presentation(rng, groups[name], (5, 7), 2, lambda raw: raw if raw.s >= 2 else None)
        block.append(reduce_spec("chain", pres, digon_chain(pres.ambient,
                                                            chain_words(rng, pres.ambient, n))))
    for k, name in ((2, "S3"), (3, "Z3")):
        pres = presentation(rng, groups[name], (3,), k, lambda raw: minimize(raw))
        block.append(reduce_spec("mirror", pres, mirror_pair(pres)))
    for n, cycle, name in CYCLES:
        pres = presentation(rng, groups[name], (3, 5), 2, lambda raw: raw)
        words = [bottom_word(rng, pres.ambient, 2) for _ in range(n)]
        block.append(reduce_spec("cycle", pres, cycle_split_sphere(pres.ambient, words, cycle)))
    for i in range(16):
        # the map's shape is the slot's; the seed draws labels and numbering
        doc = relabeled(closed_map(rng, groups[("Z3", "Z5", "S3")[i % 3]], 8 + 24 * i // 15,
                                   random.Random(f"map:{i}")), rng)
        block.append({"kind": "map", "diagram": doc, "weights": random_weights(rng, doc),
                      "relabeled": relabeled(doc, rng)})
    return rng.sample(block, len(block))


def reduce_spec(kind: str, pres: RelPresentation, diagram: Diagram) -> dict:
    return {"kind": kind, "pres": pres.to_dict(), "diagram": diagram.to_dict()}


def weights_of(spec: dict) -> dict:
    return {(fi, si): Fraction(num, den) for fi, si, num, den in spec["weights"]}


def generate(workload: str, seed: int) -> tuple[list[dict], dict]:
    """The job specs of one pass of a workload, and the files its CLI jobs read."""
    rng = random.Random(f"{workload}:{seed}")
    groups = base_groups()
    files: dict = {}
    if workload == "search-deep":
        specs = search_deep(rng, groups)
    elif workload == "search-wide":
        specs = search_wide(rng, groups)
    elif workload == "algebra":
        specs = algebra(rng, groups, files)
    elif workload == "reduce":
        specs = reduce(rng, groups)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return specs, files


def digest(specs: list[dict], files: dict) -> str:
    text = json.dumps([specs, files], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
