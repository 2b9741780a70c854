"""Shared diagram fixtures: small spheres built by hand.

Conventions match the library: face slots anticlockwise, a slot's corner
follows its dart, paired darts are traversed oppositely by their faces.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from relpres.diagram import Diagram, Slot
from relpres.freeprod import FPWord, FreeProduct
from relpres.groups import GroupTable, cyclic_group
from relpres.presentation import RelPresentation, initial_rewrite
from relpres.words import parse_word

Z2 = cyclic_group(2, ["e", "x"])
Z3 = cyclic_group(3, ["e", "x", "y"])
Z4 = cyclic_group(4, ["e", "x", "y", "z"])
Z5 = cyclic_group(5, ["e", "x", "y", "z", "w"])


def _symmetric3() -> GroupTable:
    """S3 as the permutations of three points, composed right to left."""
    perms = sorted(itertools.permutations(range(3)))
    return GroupTable(["e", "a", "b", "r", "r2", "c"],
                      [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
                       for p in perms])


S3 = _symmetric3()


def pres_z3(k: int = 2) -> RelPresentation:
    """Copy-spread presentation over Z/3 (one copy level, no pair list)."""
    w = parse_word("x t y t^-1 x t", FreeProduct(Z3, 0))
    return initial_rewrite(Z3, w, k)


def pres_z2(k: int = 2) -> RelPresentation:
    w = parse_word("x t x t^-1 x t", FreeProduct(Z2, 0))
    return initial_rewrite(Z2, w, k)


def pres_s3(k: int = 2) -> RelPresentation:
    """Copy-spread presentation over the nonabelian S3."""
    w = parse_word("a t r t^-1 b t", FreeProduct(S3, 0))
    return initial_rewrite(S3, w, k)


def degenerate_digon(pres: RelPresentation, p: FPWord) -> Diagram:
    """Single digon with its two sides glued together; two exterior
    vertices labeled p and (p^shift)^-1."""
    q = p.shift(1).inv()
    return Diagram(pres.ambient, [[Slot(0, p), Slot(1, q)]], {0: 1, 1: 0}, [1],
                   exterior_vertex_seeds=[(0, 0), (0, 1)])


def disjoint_digons(pres: RelPresentation, p: FPWord, q: FPWord) -> Diagram:
    """Two degenerate digons side by side, one sphere each: a disconnected
    diagram with four exterior vertices."""
    return Diagram(pres.ambient, [[Slot(0, p), Slot(1, p.shift(1).inv())],
                                  [Slot(2, q), Slot(3, q.shift(1).inv())]],
                   {0: 1, 1: 0, 2: 3, 3: 2}, [1, 3],
                   exterior_vertex_seeds=[(0, 0), (0, 1), (1, 0), (1, 1)])


def theta_digons(pres: RelPresentation, p1: FPWord, p2: FPWord,
                 trivial_exterior_corners: bool = True) -> Diagram:
    """Two digons sharing their middle edge, exterior face outside.

    Vertices L (labels p1, p2, *) and R are exterior.  Darts: top (0 west
    in D1, 1 east in EXT), mid (2 east in D1, 3 west in D2), bottom
    (4 east in D2, 5 west in EXT); arrows point L -> R.
    """
    amb = pres.ambient
    one = amb.one()
    q1 = p1.shift(1).inv()
    q2 = p2.shift(1).inv()
    if trivial_exterior_corners:
        ext_r, ext_l = one, one
    else:
        ext_r = (q1 * q2).inv()
        ext_l = (p1 * p2).inv()
    faces = [
        [Slot(2, q1), Slot(0, p1)],          # D1: mid east, top west
        [Slot(3, p2), Slot(4, q2)],          # D2: mid west, bottom east
        [Slot(1, ext_r), Slot(5, ext_l)],    # EXT
    ]
    return Diagram(amb, faces, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
                   [1, 2, 4], exterior_faces=[2],
                   exterior_vertex_seeds=() if not trivial_exterior_corners
                   else ((0, 0), (0, 1)))


def digon_chain(pres: RelPresentation, words: list[FPWord]) -> Diagram:
    """Stack of digons D_1..D_n sharing consecutive edges, exterior outside.

    Edge i (0..n) runs L -> R; digon D_i sits between edges i-1 and i.
    """
    amb = pres.ambient
    one = amb.one()
    n = len(words)
    faces = []
    pairing = {}
    arrows = []
    # edge i darts: 2i (lower face side, east) and 2i+1 (upper side, west)
    for i in range(n + 1):
        pairing[2 * i] = 2 * i + 1
        pairing[2 * i + 1] = 2 * i
        arrows.append(2 * i)
    for i, p in enumerate(words):
        faces.append([Slot(2 * (i + 1), p.shift(1).inv()), Slot(2 * i + 1, p)])
    faces.append([Slot(0, one), Slot(2 * n + 1, one)])
    return Diagram(amb, faces, pairing, arrows, exterior_faces=[n],
                   exterior_vertex_seeds=[(0, 0), (0, 1)])


def mirror_large_pair(pres: RelPresentation) -> Diagram:
    """Two mirror copies of the relator face glued edge to edge: the
    classic cancellation sphere, reducible at every edge."""
    rel = pres.relator()
    amb = pres.ambient
    segs = rel.segments
    signs = rel.signs
    n = rel.t_count
    assert segs[-1].is_identity()
    f1 = [Slot(2 * i, segs[i + 1] if i + 1 < len(segs) - 1 else segs[0])
          for i in range(n)]
    # mirror: f2 traverses the same edges oppositely; corner after mirror
    # dart of edge i is the inverse of the corner before dart i in f1
    f2 = [Slot(2 * (n - 1 - i) + 1,
               (segs[n - 1 - i] if n - 1 - i >= 1 else segs[0]).inv())
          for i in range(n)]
    pairing = {}
    arrows = []
    for i in range(n):
        pairing[2 * i] = 2 * i + 1
        pairing[2 * i + 1] = 2 * i
        arrows.append(2 * i if signs[i] == 1 else 2 * i + 1)
    return Diagram(amb, [f1, f2], pairing, arrows)


def path_sphere(group: GroupTable, s: int, corner_values: list[FPWord] | None,
                length: int) -> Diagram:
    """Sphere whose one-skeleton is a bare path of the given length; the
    single face is the exterior face walking the path twice."""
    amb = FreeProduct(group, s)
    one = amb.one()
    if corner_values is None:
        corner_values = [one] * (length - 1)
    assert len(corner_values) == length - 1
    pairing = {}
    arrows = []
    for i in range(length):
        pairing[i] = 2 * length - 1 - i
        pairing[2 * length - 1 - i] = i
        arrows.append(i)
    # forward corner i sits at vertex i+1 (value v_i, tip gets 1); the
    # matching backward corner carries the inverse so labels vanish
    slots = []
    for i in range(length):
        c = corner_values[i] if i < length - 1 else one
        slots.append(Slot(i, c))
    for i in range(length):
        idx = length - 2 - i
        c = corner_values[idx].inv() if idx >= 0 else one
        slots.append(Slot(length + i, c))
    return Diagram(amb, [slots], pairing, arrows, exterior_faces=[0])


def dumbbell(pres: RelPresentation, p: FPWord, q: FPWord, path_corners: list[FPWord]
             ) -> Diagram:
    """Two digon disks joined by a doubly-exterior path.

    Disk 1 is the digon for p, disk 2 for q; the connecting path has the
    given interior corner values (their length sets the path length).
    The exterior face walks disk 1, the path, disk 2, and the path back.
    """
    amb = pres.ambient
    one = amb.one()
    k = len(path_corners) + 1
    # digon 1: darts 0 (in D1) / 1 (in EXT), self edge pair (0,1)? no:
    # disk digon: two edges between vertices A0, A1: inner face D1 uses
    # darts 0 (east along edge a) and 2 (west along edge b); EXT uses 1, 3.
    D1 = [Slot(0, p.shift(1).inv()), Slot(2, p)]
    D2 = [Slot(4, q.shift(1).inv()), Slot(6, q)]
    pairing = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
    arrows = [0, 3, 4, 7]
    # path darts: forward f_i = 8 + 2i, backward b_i = 9 + 2i
    for i in range(k):
        pairing[8 + 2 * i] = 9 + 2 * i
        pairing[9 + 2 * i] = 8 + 2 * i
        arrows.append(8 + 2 * i)
    # exterior walk: around disk1 (darts 1 then 3), out along the path,
    # around disk2 (5 then 7), back along the path.
    ext = [Slot(1, one), Slot(3, one)]
    for i in range(k):
        c = path_corners[i] if i < k - 1 else one
        ext.append(Slot(8 + 2 * i, c))
    ext.append(Slot(5, one))
    ext.append(Slot(7, one))
    for i in reversed(range(k)):
        idx = i - 1
        c = path_corners[idx].inv() if idx >= 0 else one
        ext.append(Slot(9 + 2 * i, c))
    faces = [D1, D2, ext]
    return Diagram(amb, faces, pairing, arrows, exterior_faces=[2],
                   exterior_vertex_seeds=[(0, 0), (0, 1), (1, 0), (1, 1)])


def tripod(group: GroupTable, s: int, leg_corner: FPWord | None = None) -> Diagram:
    """Sphere whose one-skeleton is a 3-star; the center is an interior
    branch point of the doubly-exterior tree."""
    amb = FreeProduct(group, s)
    one = amb.one()
    c = leg_corner if leg_corner is not None else one
    # legs 0,1,2: out-darts 0,2,4; back-darts 1,3,5.
    # walk: out leg0, tip, back, corner c at center, out leg1, ...
    slots = []
    for leg in range(3):
        slots.append(Slot(2 * leg, one))          # tip corner
        slots.append(Slot(2 * leg + 1, c))        # center corner after return
    pairing = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    arrows = [0, 2, 4]
    return Diagram(amb, [slots], pairing, arrows, exterior_faces=[0])


def pinch_pair(pres: RelPresentation, p: FPWord, q: FPWord) -> Diagram:
    """Two digon disks sharing a single pinch vertex.

    The pinch vertex is interior, so its four corners must cancel:
    going around it the corners read p, 1(ext), q, (qp)^-1-ish; we pick
    exterior corners so the label collapses to the identity.
    """
    amb = pres.ambient
    one = amb.one()
    # disk 1 on edges a (darts 0 in, 1 ext) and b (2 in, 3 ext) between A and P
    # disk 2 on edges c (4,5) and d (6,7) between P and B
    D1 = [Slot(0, p.shift(1).inv()), Slot(2, p)]
    D2 = [Slot(4, q.shift(1).inv()), Slot(6, q)]
    # pinch corners cycle: (p^phi)^-1, p^phi, (q^phi)^-1, q^phi -> trivial;
    # A and B keep their digon labels p, q and are the exterior vertices
    ext = [Slot(1, one), Slot(3, p.shift(1)), Slot(5, one), Slot(7, q.shift(1))]
    pairing = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
    arrows = [0, 3, 4, 7]
    return Diagram(amb, [D1, D2, ext], pairing, arrows, exterior_faces=[2],
                   exterior_vertex_seeds=[(0, 1), (1, 1)])


def looped_pinch_pair(pres: RelPresentation, p: FPWord, q: FPWord,
                      balloon: bool = False) -> Diagram:
    """``pinch_pair`` with an identity loop (darts 8, 9) at its interior
    pinch vertex, inside the exterior face.

    The loop bounds a trivial monogon, so pulling it contracts the monogon
    away.  With ``balloon`` it bounds a trivial bigon around a second
    identity loop (darts 10, 11) and its trivial monogon: pulling the
    first loop splits off that sphere, which has no exterior vertex and
    a trivial pinch label, so it is discarded.  Either way ``pinch_pair``
    is left.
    """
    amb = pres.ambient
    one = amb.one()
    D1 = [Slot(0, p.shift(1).inv()), Slot(2, p)]
    D2 = [Slot(4, q.shift(1).inv()), Slot(6, q)]
    ext = [Slot(1, one), Slot(3, p.shift(1)), Slot(8, one), Slot(5, one), Slot(7, q.shift(1))]
    pairing = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6, 8: 9, 9: 8}
    arrows = [0, 3, 4, 7, 8]
    labels = {frozenset((8, 9)): "1"}
    inner = [[Slot(9, one)]]
    if balloon:
        inner = [[Slot(9, one), Slot(10, one)], [Slot(11, one)]]
        pairing.update({10: 11, 11: 10})
        arrows.append(10)
        labels[frozenset((10, 11))] = "1"
    return Diagram(amb, [D1, D2, ext, *inner], pairing, arrows, labels,
                   exterior_faces=[2], exterior_vertex_seeds=[(0, 1), (1, 1)])


def loop_split_sphere(pres: RelPresentation, p: FPWord) -> Diagram:
    """Two digon disks (for p and p^-1) separated by an identity loop at
    an interior pinch vertex; pulling the loop splits the sphere in two
    with conjugate-inverse pinch labels."""
    amb = pres.ambient
    one = amb.one()
    q = p.inv()
    D1 = [Slot(0, p.shift(1).inv()), Slot(2, p)]
    D2 = [Slot(4, q.shift(1).inv()), Slot(6, q)]
    EXT1 = [Slot(1, one), Slot(3, one), Slot(8, one)]
    EXT2 = [Slot(5, one), Slot(7, one), Slot(9, one)]
    pairing = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6, 8: 9, 9: 8}
    return Diagram(amb, [D1, D2, EXT1, EXT2], pairing, [0, 3, 4, 7, 8],
                   {frozenset((8, 9)): "1"}, exterior_faces=[2, 3],
                   exterior_vertex_seeds=[(0, 1), (1, 1)])


def square_torus(group: GroupTable) -> Diagram:
    amb = FreeProduct(group, 0)
    one = amb.one()
    sq = [Slot(i, one) for i in range(4)]
    return Diagram(amb, [sq], {0: 2, 2: 0, 1: 3, 3: 1}, [0, 1])


def genus_gluing(group: GroupTable, n_gon: int, shift: int) -> Diagram:
    """One 2n-gon with dart i glued to dart i+shift-ish; various genera."""
    amb = FreeProduct(group, 0)
    one = amb.one()
    face = [Slot(i, one) for i in range(2 * n_gon)]
    pairing = {}
    arrows = []
    used = set()
    for i in range(2 * n_gon):
        if i in used:
            continue
        j = (i + shift) % (2 * n_gon)
        while j in used or j == i:
            j = (j + 1) % (2 * n_gon)
        pairing[i] = j
        pairing[j] = i
        used.update((i, j))
        arrows.append(i)
    return Diagram(amb, [face], pairing, arrows)


def random_closed_map(rng: random.Random, group: GroupTable,
                      max_faces: int = 4, max_slots: int = 6) -> Diagram:
    """Random closed oriented map: random faces, random perfect matching."""
    amb = FreeProduct(group, 0)
    sizes = [rng.randint(1, max_slots) for _ in range(rng.randint(1, max_faces))]
    if sum(sizes) % 2:
        sizes[0] += 1
    dart = 0
    faces = []
    for size in sizes:
        slots = []
        for _ in range(size):
            elem = rng.randrange(group.order)
            slots.append(Slot(dart, amb.word([(0, elem)])))
            dart += 1
        faces.append(slots)
    darts = list(range(dart))
    rng.shuffle(darts)
    pairing = {}
    arrows = []
    for i in range(0, dart, 2):
        a, b = darts[i], darts[i + 1]
        pairing[a] = b
        pairing[b] = a
        arrows.append(rng.choice((a, b)))
    return Diagram(amb, faces, pairing, arrows)


def random_weights(rng: random.Random, diagram: Diagram) -> dict:
    return {(fi, si): Fraction(rng.randint(-6, 6), rng.randint(1, 7))
            for fi, face in enumerate(diagram.faces) for si in range(len(face))}
