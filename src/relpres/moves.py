"""Diagram transformations: digon merging, hole filling, identity-edge
pulls, strip thickening, the reduction driver, and cyclic gluing.

All moves work on a mutable copy and rebuild an immutable Diagram, so a
failed precondition can never corrupt the input.  Exterior-vertex markers
ride on corners and survive corner merges (``MSlot.absorb``).  The rebuilt
diagram shares the face records (``Diagram.face_memo``) of the one the
move started from, so a face the move leaves alone is not read again.

``reduce_to_chain`` picks each move with ``_next_move``, whose docstring
gives the order and the trace-entry format, and applies it with
``_apply``; ``replay_trace`` applies each recorded entry with the same
``_apply``, so every move kind is applied in one place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .diagram import (Diagram, Slot, check_ambient, classify_face, digon_adjacencies,
                      is_phi_reduced, label_from, reducible_pairs, validate_howie)
from .freeprod import FPWord, FreeProduct, conjugate_in_free_product
from .maps import components, corner_cycles
from .presentation import RelPresentation
from .words import TWord


class MoveError(ValueError):
    pass


class ReductionBoundExceeded(MoveError):
    """``reduce_to_chain`` took more steps than its bound allows."""


class MSlot:
    __slots__ = ("dart", "corner", "mark")

    def __init__(self, dart: int, corner: FPWord, mark: bool = False):
        self.dart = dart
        self.corner = corner
        self.mark = mark

    def absorb(self, gone: "MSlot") -> None:
        """Fold the corner and mark of a slot being removed into this one,
        the slot before it in walk order."""
        self.corner = self.corner * gone.corner
        self.mark = self.mark or gone.mark


class MutableDiagram:
    """Working copy for surgery; faces keyed by stable ids."""

    def __init__(self, ambient: FreeProduct):
        self.ambient = ambient
        self.faces: dict[int, list[MSlot]] = {}
        self.pairing: dict[int, int] = {}
        self.arrow: set[int] = set()
        self.label: dict[frozenset, str] = {}
        self.exterior_faces: set[int] = set()
        self.face_memo: dict = {}       # shared with the diagrams built from this one
        self._next_face = 0
        self._next_dart = 0

    @classmethod
    def from_diagram(cls, d: Diagram) -> "MutableDiagram":
        b = cls(d.ambient)
        marked_refs = {ref for v in d.exterior_vertices for ref in d.vertices[v]}
        for fi, face in enumerate(d.faces):
            slots = [MSlot(s.dart, s.corner, (fi, si) in marked_refs)
                     for si, s in enumerate(face)]
            b.faces[fi] = slots
        b._next_face = len(d.faces)
        b.pairing = dict(d.pairing)
        b.arrow = {d.arrow_of_edge[ei] for ei in range(len(d.edges))}
        b.label = {frozenset(e): d.edge_label[ei] for ei, e in enumerate(d.edges)}
        b.exterior_faces = set(d.exterior_faces)
        b.face_memo = d.face_memo
        b._next_dart = max(d.pairing, default=-1) + 1
        return b

    # -- allocation ----------------------------------------------------

    def new_dart(self) -> int:
        self._next_dart += 1
        return self._next_dart - 1

    def add_face(self, slots: list[MSlot], exterior: bool = False) -> int:
        fid = self._next_face
        self._next_face += 1
        self.faces[fid] = slots
        if exterior:
            self.exterior_faces.add(fid)
        return fid

    def pair(self, d1: int, d2: int, label: str = "t", arrow: int | None = None) -> None:
        self.pairing[d1] = d2
        self.pairing[d2] = d1
        self.label[frozenset((d1, d2))] = label
        self.arrow.discard(d1)
        self.arrow.discard(d2)
        self.arrow.add(arrow if arrow is not None else d1)

    def unpair(self, d1: int) -> None:
        d2 = self.pairing.pop(d1)
        self.pairing.pop(d2)
        self.label.pop(frozenset((d1, d2)), None)
        self.arrow.discard(d1)
        self.arrow.discard(d2)

    # -- lookup ----------------------------------------------------------

    def slot_ref(self, dart: int) -> tuple[int, int]:
        for fid, slots in self.faces.items():
            for si, s in enumerate(slots):
                if s.dart == dart:
                    return fid, si
        raise MoveError(f"dart {dart} not found")

    def edge_label(self, dart: int) -> str:
        return self.label[frozenset((dart, self.pairing[dart]))]

    def vertex_slots(self) -> list[list[MSlot]]:
        """The slots around each vertex, in corner-rotation order."""
        faces = [self.faces[fid] for fid in sorted(self.faces)]
        return [[faces[fi][si] for fi, si in orbit] for orbit in corner_cycles(
            [[s.dart for s in slots] for slots in faces], self.pairing)]

    def to_diagram(self) -> Diagram:
        order = sorted(self.faces)
        faces = []
        seeds = []
        for new_fi, fid in enumerate(order):
            slots = self.faces[fid]
            faces.append([Slot(s.dart, s.corner) for s in slots])
            seeds.extend((new_fi, si) for si, s in enumerate(slots) if s.mark)
        ext_faces = [order.index(f) for f in self.exterior_faces if f in self.faces]
        out = Diagram(self.ambient, faces, self.pairing, self.arrow,
                      dict(self.label), ext_faces, seeds)
        out.face_memo = self.face_memo
        return out


# -- elementary surgeries -------------------------------------------------


def _remove_slot_merge_back(builder: MutableDiagram, fid: int, si: int) -> None:
    """Drop slot si, folding its corner into the predecessor's corner."""
    slots = builder.faces[fid]
    slots[si - 1].absorb(slots[si])
    del slots[si]


def merge_faces_along(builder: MutableDiagram, dart: int) -> int:
    """Delete the edge of ``dart`` and join its two distinct faces.

    Returns the id of the merged face.  At each seam vertex the slot
    before the deleted edge absorbs the corner after the other face's dart.
    Neither face may be a monogon: no move merges one (``merge_digons``
    joins digons, ``fill_hole`` large faces).
    """
    f1, i1 = builder.slot_ref(dart)
    f2, i2 = builder.slot_ref(builder.pairing[dart])
    if f1 == f2:
        raise MoveError("edge borders a single face; cannot merge")
    s1 = builder.faces[f1]
    s2 = builder.faces[f2]
    if len(s1) == 1 or len(s2) == 1:
        raise MoveError("edge borders a monogon; cannot merge")
    s1[i1 - 1].absorb(s2[i2])
    s2[i2 - 1].absorb(s1[i1])
    new = s1[i1 + 1:] + s1[:i1] + s2[i2 + 1:] + s2[:i2]
    builder.unpair(dart)
    del builder.faces[f1]
    del builder.faces[f2]
    was_ext = f1 in builder.exterior_faces or f2 in builder.exterior_faces
    builder.exterior_faces.discard(f1)
    builder.exterior_faces.discard(f2)
    return builder.add_face(new, exterior=was_ext)


def merge_digons(diagram: Diagram, pres: RelPresentation, edge_index: int
                 ) -> tuple[Diagram, FPWord, int]:
    """Join two distinct digons sharing the given edge into one digon.

    Returns the new diagram and the merged digon word (trivial when the
    two digons cancel; the resulting bigon is left for the caller, see
    collapse_trivial_bigon).
    """
    d1, d2 = diagram.edges[edge_index]
    f1 = diagram.slot_of_dart[d1][0]
    f2 = diagram.slot_of_dart[d2][0]
    if f1 == f2:
        raise MoveError("edge lies in a single face")
    c1 = classify_face(diagram, pres, f1)
    c2 = classify_face(diagram, pres, f2)
    if c1.kind != "digon" or c2.kind != "digon":
        raise MoveError(f"faces {f1},{f2} are not both digons")
    builder = MutableDiagram.from_diagram(diagram)
    fid = merge_faces_along(builder, d1)
    out = builder.to_diagram()
    out_fi = sorted(builder.faces).index(fid)
    merged = classify_face(out, pres, out_fi)
    if merged.kind == "digon":
        word = merged.digon_word
    elif merged.kind == "null":
        word = diagram.ambient.one()
    else:
        raise MoveError(f"merged face is not a digon: {merged}")
    expected = (c1.digon_word * c2.digon_word, c2.digon_word * c1.digon_word)
    if word not in expected:
        raise MoveError("merged digon word differs from the folded product")
    return out, word, out_fi


def collapse_trivial_bigon(builder: MutableDiagram, fid: int) -> None:
    """Remove a two-sided face with trivial corners, fusing its edges."""
    slots = builder.faces[fid]
    if len(slots) != 2:
        raise MoveError("not a bigon")
    a, b = slots
    if not (a.corner.is_identity() and b.corner.is_identity()):
        raise MoveError("bigon corners are not trivial")
    if a.mark or b.mark:
        # allowed when the marked vertex keeps other (marked) corners
        if any(len(orbit) == 1 and orbit[0] in (a, b) for orbit in builder.vertex_slots()):
            raise MoveError("collapse would delete a marked vertex")
    la = builder.edge_label(a.dart)
    lb = builder.edge_label(b.dart)
    if la != lb:
        raise MoveError("bigon sides carry different labels")
    pa = builder.pairing[a.dart]
    pb = builder.pairing[b.dart]
    keep_arrow = None
    if pa in builder.arrow:
        keep_arrow = pa
    elif pb in builder.arrow:
        keep_arrow = pb
    builder.unpair(a.dart)
    if pa == b.dart:
        # the bigon was glued to itself: an isolated sphere component
        del builder.faces[fid]
        return
    builder.unpair(b.dart)
    del builder.faces[fid]
    builder.pair(pa, pb, label=la, arrow=keep_arrow if keep_arrow is not None else pa)


def _collapse_new_trivial_bigons(builder: MutableDiagram, candidates: list[int]) -> None:
    for fid in candidates:
        if fid in builder.faces:
            try:
                collapse_trivial_bigon(builder, fid)
            except MoveError:
                pass


@dataclass(frozen=True)
class PullResult:
    kind: str                       # contracted | split | discarded
    diagrams: tuple[Diagram, ...]
    pinch_labels: tuple[FPWord, ...] = ()


def pull_identity_edge(diagram: Diagram, edge_index: int) -> PullResult:
    """Contract an identity-labeled edge, or split along an identity loop.

    Distinct endpoints: the edge contracts, adjacent corners multiply, and
    any trivial bigon this creates collapses to an edge.  A loop splits
    the sphere in two; the component without exterior markers is
    discarded after checking its pinch label is trivial, otherwise both
    components return with the pinch vertices marked exterior.  A pull
    never discards the exterior face, and a loop with one face on both
    sides (which a sphere cannot have) does not separate: both raise
    ``MoveError``.
    """
    d1, d2 = diagram.edges[edge_index]
    if diagram.edge_label[edge_index] != "1":
        raise MoveError("edge label is not the identity")
    f1, i1 = diagram.slot_of_dart[d1]
    f2, i2 = diagram.slot_of_dart[d2]
    builder = MutableDiagram.from_diagram(diagram)
    mono = [(f, i) for f, i in ((f1, i1), (f2, i2)) if len(diagram.faces[f]) == 1]
    if mono:
        # an identity loop bounding a monogon: the enclosed disk vanishes
        if len(mono) == 2:
            raise MoveError("identity edge bounds only monogons; nothing to keep")
        (fm, im) = mono[0]
        (fo, io) = (f2, i2) if fm == f1 else (f1, i1)
        gone = builder.faces[fm][im]
        if not gone.corner.is_identity() or gone.mark:
            raise MoveError("monogon corner is not disposable")
        builder.unpair(d1)
        del builder.faces[fm]
        _remove_slot_merge_back(builder, fo, io)
        _collapse_new_trivial_bigons(builder, [fo])
        return PullResult("contracted", (builder.to_diagram(),))
    if diagram.head(d1) != diagram.tail(d1):
        if f1 == f2 and len(diagram.faces[f1]) == 2:
            return _drop_edgeless_sphere(builder, f1)
        builder.unpair(d1)
        # the later slot first, so the earlier index stays valid in one face
        for f, i in sorted(((f1, i1), (f2, i2)), reverse=True):
            _remove_slot_merge_back(builder, f, i)
        _collapse_new_trivial_bigons(builder, [f1, f2])
        return PullResult("contracted", (builder.to_diagram(),))
    if f1 == f2:
        # a loop separates a sphere, so its two sides lie in distinct faces
        raise MoveError("identity loop has one face on both sides; it does not separate "
                        "the diagram")
    return _pull_loop(diagram, builder, d1, d2)


def _drop_edgeless_sphere(builder: MutableDiagram, fid: int) -> PullResult:
    """Contracting the one edge of a face glued to itself leaves a sphere
    with no edges; drop it when its one vertex label is trivial."""
    first, second = builder.faces[fid]
    label = first.corner * second.corner
    if not label.is_identity():
        raise MoveError(f"contraction leaves an edgeless sphere with label {label}")
    if fid in builder.exterior_faces:
        raise MoveError("contraction would drop the exterior face")
    builder.unpair(first.dart)
    del builder.faces[fid]
    builder.exterior_faces.discard(fid)
    return PullResult("discarded", (builder.to_diagram(),))


def _pull_loop(diagram: Diagram, builder: MutableDiagram, d1: int, d2: int) -> PullResult:
    """Split along an identity loop whose sides lie in distinct faces."""
    builder.unpair(d1)
    pinch_corners: list[MSlot] = []
    for dart in (d1, d2):
        fid, si = diagram.slot_of_dart[dart]
        pinch_corners.append(builder.faces[fid][si - 1])
        _remove_slot_merge_back(builder, fid, si)

    comps = _split_components(builder)
    if len(comps) != 2:
        raise MoveError(f"identity loop did not separate (got {len(comps)} components)")

    def has_marks(b: MutableDiagram) -> bool:
        return any(s.mark for slots in b.faces.values() for s in slots)

    def pinch_label(b: MutableDiagram, corner: MSlot) -> FPWord:
        orbit = next(o for o in b.vertex_slots() if any(s is corner for s in o))
        out = b.ambient.one()
        for s in orbit:
            out = out * s.corner
        return out

    sides = []
    for comp in comps:
        corner = next(c for c in pinch_corners
                      if any(c in slots for slots in comp.faces.values()))
        sides.append((comp, corner))
    marked = [has_marks(c) for c, _ in sides]
    if all(marked):
        labels = tuple(pinch_label(comp, corner) for comp, corner in sides)
        for _, corner in sides:
            corner.mark = True
        return PullResult("split", tuple(c.to_diagram() for c, _ in sides), labels)
    keep, drop = (sides[0], sides[1]) if marked[0] else (sides[1], sides[0])
    if drop[0].exterior_faces:
        raise MoveError("identity loop would discard the component with the exterior face")
    drop_label = pinch_label(*drop)
    if not drop_label.is_identity():
        raise MoveError(
            f"discarded component has nontrivial pinch label {drop_label}; "
            "cannot certify it inside the base free product")
    return PullResult("discarded", (keep[0].to_diagram(),), (pinch_label(*keep),))


def _split_components(builder: MutableDiagram) -> list[MutableDiagram]:
    fids = sorted(builder.faces)
    index = {s.dart: i for i, fid in enumerate(fids) for s in builder.faces[fid]}
    groups = components(len(fids), ((index[da], index[db])
                                    for da, db in builder.pairing.items()))
    out = []
    for group in groups:
        members = [fids[i] for i in group]
        part = MutableDiagram(builder.ambient)
        part.face_memo = builder.face_memo
        part._next_dart = builder._next_dart
        part._next_face = builder._next_face
        for f in members:
            part.faces[f] = builder.faces[f]
            if f in builder.exterior_faces:
                part.exterior_faces.add(f)
        darts = {s.dart for f in members for s in part.faces[f]}
        part.pairing = {d: e for d, e in builder.pairing.items() if d in darts}
        part.arrow = {d for d in builder.arrow if d in darts}
        part.label = {k: v for k, v in builder.label.items() if set(k) <= darts}
        out.append(part)
    return out


# -- builder-level label helper --------------------------------------------


def _builder_face_label(builder: MutableDiagram, fid: int) -> TWord:
    slots = builder.faces[fid]
    senses = [(1 if s.dart in builder.arrow else -1) if builder.edge_label(s.dart) == "t"
              else 0 for s in slots]
    return label_from(builder.ambient, [s.corner for s in slots], senses)


# -- hole filling ----------------------------------------------------------


def fill_hole(diagram: Diagram, pres: RelPresentation, edge_index: int) -> Diagram:
    """Remove a reducible pair of large faces and tile the hole with
    trivial-label cells along an identity-edge ladder.

    The two face labels are mutually inverse read from the shared edge, so
    the merged boundary is a mirror banana: corners pair with their
    inverses across new identity rungs, and each rung gap splits into two
    triangle cells whose labels reduce to the identity.
    """
    candidates = {e: (fa, fb) for e, fa, fb in reducible_pairs(diagram)}
    if edge_index not in candidates:
        raise MoveError(f"edge {edge_index} is not a reducible pair")
    f1, f2 = candidates[edge_index]
    for f in (f1, f2):
        if classify_face(diagram, pres, f).kind != "large":
            raise MoveError("reducible pair is not a pair of large faces; "
                            "digon pairs go through merge_digons")
    L = len(diagram.faces[f1])
    if len(diagram.faces[f2]) != L:
        raise MoveError("mirror faces of different length cannot be reducible")
    d1, _d2 = diagram.edges[edge_index]
    if diagram.slot_of_dart[d1][0] != f1:
        d1 = _d2
    builder = MutableDiagram.from_diagram(diagram)
    hole = merge_faces_along(builder, d1)
    label = _builder_face_label(builder, hole).cyclic_free_reduce()
    if not (isinstance(label, FPWord) and label.is_identity()):
        raise MoveError("hole label is not freely trivial (contract violation)")
    slots = builder.faces[hole]
    n_side = L - 1
    part1 = slots[:n_side]
    part2 = slots[n_side:]
    if not part1[-1].corner.is_identity() or not part2[-1].corner.is_identity():
        raise MoveError("seam corners of the hole are not trivial")
    del builder.faces[hole]
    if L == 2:
        # the hole is already a trivial bigon
        fid = builder.add_face([part1[0], part2[0]])
        collapse_trivial_bigon(builder, fid)
        return builder.to_diagram()
    rung_u = {}
    rung_ubar = {}
    for j in range(1, L - 1):
        rung_u[j] = builder.new_dart()
        rung_ubar[j] = builder.new_dart()
        builder.pair(rung_u[j], rung_ubar[j], label="1")
    one = builder.ambient.one()
    for j in range(1, L):
        a_slot = part1[j - 1]            # (A_j, c_j) in walk order
        b_slot = part2[L - 1 - j]        # (B_{L-j}, ...)
        cells: list[MSlot] = [a_slot]
        if j <= L - 2:
            c_j = a_slot.corner
            cells.append(MSlot(rung_u[j], c_j.inv()))
        if j >= 2:
            b_slot.corner = one
        cells.append(b_slot)
        if j >= 2:
            cells.append(MSlot(rung_ubar[j - 1], one))
        builder.add_face(cells)
    return builder.to_diagram()


# -- reduction driver -------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    move: str
    edge_darts: tuple[int, int] | None
    before: str
    after: tuple[str, ...]
    link_labels: tuple[str, str] | None = None


@dataclass(frozen=True)
class MoveTrace:
    entries: tuple[TraceEntry, ...]


@dataclass(frozen=True)
class DiagramChain:
    diagrams: tuple[Diagram, ...]

    def links_conjugate(self) -> bool:
        """Every adjacent pair admits consistent end orientations with the
        facing labels conjugate-inverse in the ambient free product."""
        if len(self.diagrams) <= 1:
            return True
        feasible = {0, 1}
        for a, b in zip(self.diagrams, self.diagrams[1:]):
            la = _chain_labels(a)
            lb = _chain_labels(b)
            nxt = set()
            for o2 in (0, 1):
                for o1 in feasible:
                    right = la[1 - o1]
                    left = lb[o2]
                    if conjugate_in_free_product(left.inv(), right):
                        nxt.add(o2)
            if not nxt:
                return False
            feasible = nxt
        return True


def _chain_labels(d: Diagram) -> tuple[FPWord, FPWord]:
    ext = sorted(d.exterior_vertices)
    if len(ext) != 2:
        raise MoveError(f"chain diagram has {len(ext)} exterior vertices")
    return d.vertex_label(ext[0]), d.vertex_label(ext[1])


def _hash(d: Diagram) -> str:
    return hashlib.sha256(d.canonical_form().encode()).hexdigest()[:16]


def _next_move(d: Diagram, pres: RelPresentation) -> tuple[str, tuple[int, ...]] | None:
    """The move ``reduce_to_chain`` applies next to ``d``, as ``(move,
    darts)``, or None when ``d`` is clean.

    The order is fixed: an identity edge (``"pull"``), then a reducible
    pair (``"fill_hole"`` for two large faces, ``"merge_digons"`` for two
    digons), then a digon adjacency (``"merge_digons"``), each at the edge
    with the lowest darts; then the first non-exterior trivial bigon, a
    two-sided face with trivial corners and equal edge labels
    (``"collapse_bigon"``).  ``darts`` is the edge's dart pair, or the
    bigon's darts in increasing order.

    Each applied move is one ``TraceEntry``: ``move`` is the name
    ``_apply`` returns (``pull_contracted``, ``pull_split`` or
    ``pull_discarded`` for a pull), ``edge_darts`` the ``darts`` above,
    ``before`` and ``after`` the hashes of ``d`` and of the diagrams that
    replace it, and ``link_labels`` a split's two pinch labels (None for
    every other move).
    """
    ids = [ei for ei in range(len(d.edges)) if d.edge_label[ei] == "1"]
    if ids:
        return "pull", min(d.edges[ei] for ei in ids)
    red = reducible_pairs(d)
    if red:
        ei, fa, fb = min(red, key=lambda r: d.edges[r[0]])
        kinds = (classify_face(d, pres, fa).kind, classify_face(d, pres, fb).kind)
        if kinds == ("large", "large"):
            return "fill_hole", d.edges[ei]
        if kinds == ("digon", "digon"):
            return "merge_digons", d.edges[ei]
        raise MoveError(f"mixed reducible pair {kinds[0]}/{kinds[1]} at edge {ei}")
    adj = digon_adjacencies(d, pres)
    if adj:
        return "merge_digons", min(d.edges[ei] for ei, _, _ in adj)
    for fi, face in enumerate(d.faces):
        if (fi not in d.exterior_faces and len(face) == 2
                and all(s.corner.is_identity() for s in face)
                and len({d.edge_label[d.edge_of_dart[s.dart]] for s in face}) == 1):
            return "collapse_bigon", tuple(sorted(s.dart for s in face))
    return None


def _apply(d: Diagram, pres: RelPresentation, move: str, darts: tuple[int, ...] | None
           ) -> tuple[str, tuple[Diagram, ...], tuple[str, ...] | None]:
    """Apply ``move`` at ``darts`` (see ``_next_move``; any name starting
    with ``pull`` pulls).  Returns the move's name in the trace, the
    diagrams that replace ``d`` and a split's pinch labels."""
    if move == "collapse_bigon":
        fi = next((i for i, face in enumerate(d.faces)
                   if tuple(sorted(s.dart for s in face)) == darts), None)
        if fi is None:
            raise MoveError(f"trace collapse_bigon darts {darts} are not a face")
    else:
        ei = next((i for i, e in enumerate(d.edges) if e == darts), None)
        if ei is None:
            raise MoveError(f"trace {move} darts {darts} are not an edge")
        if move.startswith("pull"):
            res = pull_identity_edge(d, ei)
            links = tuple(str(p) for p in res.pinch_labels) if res.kind == "split" else None
            return "pull_" + res.kind, res.diagrams, links
        if move == "fill_hole":
            return move, (fill_hole(d, pres, ei),), None
        if move != "merge_digons":
            raise MoveError(f"unknown trace move {move}")
        d, word, fi = merge_digons(d, pres, ei)
        if not word.is_identity():
            return move, (d,), None
    # a trivial bigon, found by _next_move or left by two cancelling digons
    builder = MutableDiagram.from_diagram(d)
    collapse_trivial_bigon(builder, fi)
    return move, (builder.to_diagram(),), None


def _check_input(diagram: Diagram, pres: RelPresentation) -> None:
    """Raise unless the diagram lives over the presentation's ambient and
    is connected: the moves reduce one surface, and a disjoint union would
    come back as a single-diagram chain."""
    check_ambient(diagram, pres)
    if not diagram.is_connected():
        raise MoveError("the diagram is not connected")


def reduce_to_chain(diagram: Diagram, pres: RelPresentation,
                    step_factor: int = 8) -> tuple[DiagramChain, MoveTrace]:
    """Drive a spherical diagram to a chain of clean diagrams: pull
    identity edges, remove reducible pairs, merge adjacent digons; splits
    extend the chain with conjugate pinch labels.  The input is a
    two-exterior-vertex sphere, a closed sphere that may cancel
    completely, or a thickened diagram with an exterior face; a pull
    that would discard the exterior face raises ``MoveError``.

    Deterministic: each step applies ``_next_move`` to the first chain
    diagram that is not yet clean and records one trace entry.
    """
    _check_input(diagram, pres)
    bound = step_factor * (len(diagram.faces) + len(diagram.edges) + 2)
    chain: list[Diagram] = [diagram]
    entries: list[TraceEntry] = []
    steps = 0
    idx = 0
    while idx < len(chain):
        d = chain[idx]
        steps += 1
        if steps > bound:
            raise ReductionBoundExceeded(f"reduction exceeded the step bound {bound}")
        step = _next_move(d, pres)
        if step is None:
            report = validate_howie(d, pres, allow_null_faces=False)
            if not report.ok:
                raise MoveError("reduced diagram fails validation: "
                                + "; ".join(report.failures))
            ok, witness = is_phi_reduced(d, pres)
            if not ok:
                raise MoveError(f"driver left a non-reduced diagram: {witness}")
            idx += 1
            continue
        name, diagrams, links = _apply(d, pres, *step)
        entries.append(TraceEntry(name, step[1], _hash(d),
                                  tuple(_hash(x) for x in diagrams), links))
        chain[idx:idx + 1] = diagrams
    return DiagramChain(tuple(chain)), MoveTrace(tuple(entries))


def replay_trace(diagram: Diagram, pres: RelPresentation, trace: MoveTrace
                 ) -> DiagramChain:
    """Re-apply a recorded move sequence, checking every move name, split
    link and hash.  An entry that does not fit the chain raises
    ``MoveError``."""
    _check_input(diagram, pres)
    chain: list[Diagram] = [diagram]
    for entry in trace.entries:
        idx = next((i for i, d in enumerate(chain) if _hash(d) == entry.before), None)
        if idx is None:
            raise MoveError(f"trace {entry.move} starts from {entry.before}, "
                            "which matches no chain diagram")
        darts = tuple(entry.edge_darts) if isinstance(entry.edge_darts, (list, tuple)) else None
        name, diagrams, links = _apply(chain[idx], pres, entry.move, darts)
        if name != entry.move:
            raise MoveError(f"trace {entry.move} replays as {name}")
        if tuple(entry.link_labels or ()) != (links or ()):
            raise MoveError(f"trace {entry.move} links {entry.link_labels} differ "
                            "from the pinch labels of the replayed split")
        if tuple(_hash(x) for x in diagrams) != entry.after:
            raise MoveError(f"replay hash mismatch at {entry.move}")
        chain[idx:idx + 1] = diagrams
    return DiagramChain(tuple(chain))


# -- cyclic gluing -----------------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    diagram: Diagram
    closed: bool
    order_ok: bool
    chi: int
    reduced: bool


def glue_cyclic_copies(diagram: Diagram, cut_path: list[int], s: int) -> GlueResult:
    """Cut a two-exterior-vertex sphere along a path and glue s copies in
    a cycle, matching each copy's right bank to the next copy's left bank.

    When both exterior labels have order dividing s, every seam vertex
    label closes up and the result is a closed spherical diagram without
    exterior items; otherwise the exterior markers stay and the order
    mismatch is reported.
    """
    if s < 1:
        raise MoveError("s must be >= 1")
    ext = sorted(diagram.exterior_vertices)
    if len(ext) != 2:
        raise MoveError("cyclic gluing needs exactly two exterior vertices")

    if not cut_path:
        raise MoveError("empty cut path")
    visited = [diagram.tail(cut_path[0])]
    for d in cut_path:
        if d not in diagram.slot_of_dart:
            raise MoveError(f"unknown dart {d} in cut path")
        if diagram.tail(d) != visited[-1]:
            raise MoveError("cut path is not connected")
        visited.append(diagram.head(d))
    if visited[0] not in ext or visited[-1] not in ext or visited[0] == visited[-1]:
        raise MoveError("cut path must join the two exterior vertices")
    if len(set(visited)) != len(visited):
        raise MoveError("cut path crosses itself")
    path_edges = [diagram.edge_of_dart[d] for d in cut_path]
    if len(set(path_edges)) != len(path_edges):
        raise MoveError("cut path repeats an edge")

    label_a = diagram.vertex_label(visited[0])
    label_b = diagram.vertex_label(visited[-1])
    order_ok = label_a.pow(s).is_identity() and label_b.pow(s).is_identity()

    along = set(cut_path)
    copies = s

    def did(d: int, j: int) -> int:
        return d * copies + j

    faces = []
    seeds = []
    marked_refs = {ref for v in diagram.exterior_vertices for ref in diagram.vertices[v]}
    for j in range(copies):
        for fi, face in enumerate(diagram.faces):
            slots = [Slot(did(sl.dart, j), sl.corner) for sl in face]
            fid = len(faces)
            faces.append(slots)
            if not order_ok:
                seeds.extend((fid, si) for si in range(len(face))
                             if (fi, si) in marked_refs)
    pairing = {}
    labels = {}
    arrows = set()
    for d, e in diagram.pairing.items():
        if d > e:
            continue
        ei = diagram.edge_of_dart[d]
        lab = diagram.edge_label[ei]
        arrow_dart = diagram.arrow_of_edge[ei]
        if d in along or e in along:
            da = d if d in along else e
            db = diagram.pairing[da]
            for j in range(copies):
                jn = (j + 1) % copies
                pairing[did(da, j)] = did(db, jn)
                pairing[did(db, jn)] = did(da, j)
                labels[frozenset((did(da, j), did(db, jn)))] = lab
                arrows.add(did(arrow_dart, j if arrow_dart == da else jn))
        else:
            for j in range(copies):
                pairing[did(d, j)] = did(e, j)
                pairing[did(e, j)] = did(d, j)
                labels[frozenset((did(d, j), did(e, j)))] = lab
                arrows.add(did(arrow_dart, j))
    out = Diagram(diagram.ambient, faces, pairing, arrows, labels,
                  exterior_vertex_seeds=seeds)
    if not out.is_connected():
        raise MoveError("glued diagram is disconnected (internal error)")
    closed = order_ok and not out.exterior_vertices and not out.exterior_faces
    reduced = not reducible_pairs(out)
    return GlueResult(out, closed, order_ok, out.chi, reduced)


# -- thickening ---------------------------------------------------------------


def thicken(diagram: Diagram) -> Diagram:
    """Thicken the doubly-exterior part of the one-skeleton.

    Every maximal doubly-exterior path becomes a two-cell-wide strip of
    trivial-label faces; interior branch points of the doubly-exterior
    tree become polygons of trivial-label cells; isolated pinch points
    split along a fresh identity edge.  The exterior face keeps its freely
    reduced label and no new exterior vertices appear.
    """
    ext_faces = sorted(diagram.exterior_faces)
    if len(ext_faces) != 1:
        raise MoveError("thickening needs exactly one exterior face")
    ext = ext_faces[0]

    ext_corner_count: dict[int, int] = {}
    for si in range(len(diagram.faces[ext])):
        v = diagram.vertex_of_corner[(ext, si)]
        ext_corner_count[v] = ext_corner_count.get(v, 0) + 1
    marked_vertices = {v for v, c in ext_corner_count.items() if c >= 2}
    marked_edges = [ei for ei, (d1, d2) in enumerate(diagram.edges)
                    if diagram.slot_of_dart[d1][0] == ext
                    and diagram.slot_of_dart[d2][0] == ext]

    # a graph is a forest when each of its edges joins two components
    n = len(diagram.vertices)
    links = [(diagram.head(diagram.edges[ei][0]), diagram.tail(diagram.edges[ei][0]))
             for ei in marked_edges]
    if len(components(n, links)) != n - len(links):
        raise MoveError("marked graph is not a forest")

    def vertex_class(v: int) -> str:
        if v not in marked_vertices:
            return "leaf"
        if v in diagram.exterior_vertices:
            return "pinch"
        if any(ref[0] != ext for ref in diagram.vertices[v]):
            return "pinch"   # boundary point: touches an interior face
        degree = len(diagram.vertices[v])
        return "ngon" if degree > 2 else "path"

    # decompose marked edges into maximal paths through degree-2 vertices
    incident: dict[int, list[int]] = {}
    for ei in marked_edges:
        d1, _ = diagram.edges[ei]
        for v in (diagram.head(d1), diagram.tail(d1)):
            incident.setdefault(v, []).append(ei)
    unused = set(marked_edges)
    paths: list[list[int]] = []   # each path: list of along-direction darts
    endpoints = sorted(v for v in incident
                       if vertex_class(v) != "path" or len(incident[v]) != 2)
    for v0 in endpoints:
        for ei in sorted(incident[v0]):
            if ei not in unused:
                continue
            steps = []
            cur = v0
            edge = ei
            while True:
                unused.discard(edge)
                d1, d2 = diagram.edges[edge]
                dart = d1 if diagram.tail(d1) == cur else d2
                if diagram.tail(dart) != cur:
                    raise MoveError("marked edge endpoints inconsistent")
                steps.append(dart)
                cur = diagram.head(dart)
                if vertex_class(cur) != "path" or len(incident[cur]) != 2:
                    break
                edge = next(e for e in incident[cur] if e in unused)
            paths.append(steps)
    if unused:
        raise MoveError("marked graph decomposition missed edges (cycle?)")

    builder = MutableDiagram.from_diagram(diagram)
    ext_slots = builder.faces[ext]
    slot_of_dart = {s.dart: (fid, si) for fid, slots in builder.faces.items()
                    for si, s in enumerate(slots)}

    insert_before: dict[int, list[MSlot]] = {}
    insert_after: dict[int, list[MSlot]] = {}
    corner_swap: dict[int, FPWord] = {}

    def ext_corner_after(dart: int) -> MSlot:
        fid, si = slot_of_dart[dart]
        assert fid == ext
        return ext_slots[si]

    # polygons at interior branch points; the dart of the ring side awaiting
    # its strip, per (vertex, leaving dart)
    pending: dict[tuple[int, int], int] = {}
    ngon_vertices = [v for v in sorted(incident) if vertex_class(v) == "ngon"]
    for p in ngon_vertices:
        _build_polygon(diagram, builder, ext, p, pending)

    for steps in paths:
        _build_strip(diagram, builder, ext, steps, pending,
                     insert_before, insert_after, corner_swap,
                     vertex_class, ext_corner_after)
    assert not pending, "unconsumed polygon caps"

    # isolated pinch points (no marked edges) split along an identity edge
    isolated = sorted(v for v in marked_vertices
                      if v not in incident and vertex_class(v) == "pinch"
                      and v not in diagram.exterior_vertices)
    for v in isolated:
        _split_pinch(diagram, builder, ext, v, insert_after, ext_corner_after)

    new_ext = []
    for s_ in ext_slots:
        for item in insert_before.get(s_.dart, []):
            new_ext.append(item)
        if s_.dart in corner_swap:
            new_ext.append(MSlot(s_.dart, corner_swap[s_.dart], False))
        else:
            new_ext.append(s_)
        for item in insert_after.get(s_.dart, []):
            new_ext.append(item)
    builder.faces[ext] = new_ext
    return builder.to_diagram()


def _build_polygon(diagram: Diagram, builder: MutableDiagram, ext: int,
                   p: int, pending: dict) -> None:
    """Replace an interior branch point by a ring of trivial cells.

    One outer vertex per exterior corner at the point; the ring sides
    double as strip caps for the arriving paths.  Base-corner values are
    propagated around the ring so every new vertex label is trivial.
    """
    orbit = diagram.vertices[p]   # cyclic corner order around p
    n = len(orbit)
    corners = [diagram.corner(ref) for ref in orbit]
    # side_j sits between outer vertices u_{j-1} and u_j and carries the
    # edge-end arriving between exterior corners r_{j-1} and r_j
    side_inner = [builder.new_dart() for _ in range(n)]
    side_outer = [builder.new_dart() for _ in range(n)]
    spoke_out = [builder.new_dart() for _ in range(n)]
    spoke_in = [builder.new_dart() for _ in range(n)]
    for j in range(n):
        builder.pair(side_inner[j], side_outer[j], label="1")
        builder.pair(spoke_out[j], spoke_in[j], label="1")
    # cell_j walk: z -> u_j (spoke_out j), u_j -> u_{j-1} (side_j inner),
    # u_{j-1} -> z (spoke_in j-1)
    x = [diagram.ambient.one()] * n
    for j in range(n - 1):
        x[j + 1] = x[j] * corners[j]
    for j in range(n):
        builder.add_face([
            MSlot(spoke_out[j], x[j]),
            MSlot(side_inner[j], x[j].inv()),
            MSlot(spoke_in[(j - 1) % n], diagram.ambient.one()),
        ])
    # the leaving dart between corners r_{j-1} and r_j gets cap side_j
    for j in range(n):
        ref = orbit[j]
        fi, si = ref
        leaving = diagram.faces[ext][(si + 1) % len(diagram.faces[ext])].dart
        pending[(p, leaving)] = side_outer[(j + 1) % n]


def _build_strip(diagram: Diagram, builder: MutableDiagram, ext: int,
                 steps: list[int], pending: dict,
                 insert_before: dict, insert_after: dict,
                 corner_swap: dict, vertex_class, ext_corner_after) -> None:
    """Duplicate a doubly-exterior path into a two-cell strip.

    Each edge copy pair encloses two trivial-label triangles split by a
    stable-letter diagonal; interior path vertices carry compensating
    corners so every new vertex label is trivial.  Pinch-point ends grow
    an identity cap edge on the exterior walk; polygon ends consume the
    pending ring side; leaf tips close the strip with a bigon cell.
    """
    amb = diagram.ambient
    one = amb.one()
    k = len(steps)

    v_start = diagram.tail(steps[0])
    v_end = diagram.head(steps[-1])
    start_kind = vertex_class(v_start)
    end_kind = vertex_class(v_end)

    dA = list(steps)
    dB = [diagram.pairing[d] for d in steps]

    # start cap dart for T2_1 (head = start's R side), if any
    cap_start = None
    if start_kind == "pinch":
        g0 = builder.new_dart()
        ubar0 = builder.new_dart()
        builder.pair(g0, ubar0, label="1")
        insert_before.setdefault(dA[0], []).append(MSlot(g0, one))
        cap_start = ubar0
    elif start_kind == "ngon":
        cap_start = pending.pop((v_start, dA[0]))
    # end cap dart for T1_k (head = end's L side), if any
    cap_end = None
    if end_kind == "pinch":
        gk = builder.new_dart()
        uk = builder.new_dart()
        builder.pair(gk, uk, label="1")
        old = ext_corner_after(dA[-1])
        moved = MSlot(gk, old.corner, old.mark)
        corner_swap[dA[-1]] = one
        old.mark = False
        insert_after.setdefault(dA[-1], []).append(moved)
        cap_end = uk
    elif end_kind == "ngon":
        cap_end = pending.pop((v_end, dB[-1]))

    # rungs between consecutive edges
    rung_u = {}
    rung_ubar = {}
    for i in range(1, k):
        rung_u[i] = builder.new_dart()
        rung_ubar[i] = builder.new_dart()
        builder.pair(rung_u[i], rung_ubar[i], label="1")

    x_in = [builder.new_dart() for _ in range(k)]   # inner darts of top copies
    y_in = [builder.new_dart() for _ in range(k)]   # inner darts of bottom copies
    w = [builder.new_dart() for _ in range(k)]      # diagonals, top cell side
    wbar = [builder.new_dart() for _ in range(k)]

    for i in range(k):
        was_arrow = dA[i] in builder.arrow
        builder.unpair(dA[i])
        builder.pair(dA[i], x_in[i], label="t",
                     arrow=dA[i] if was_arrow else x_in[i])
        builder.pair(dB[i], y_in[i], label="t",
                     arrow=dB[i] if not was_arrow else y_in[i])
        builder.pair(w[i], wbar[i], label="t",
                     arrow=w[i] if was_arrow else wbar[i])

    comp = [one] * (k + 1)
    for i in range(1, k):
        comp[i] = ext_corner_after(dA[i - 1]).corner

    for i in range(1, k + 1):
        # top triangle T1_i: x_i, w_i, u_i
        t1 = [MSlot(x_in[i - 1], one),
              MSlot(w[i - 1], comp[i] if i < k else one)]
        if i < k:
            t1.append(MSlot(rung_u[i], comp[i].inv()))
        elif cap_end is not None:
            t1.append(MSlot(cap_end, one))
        builder.add_face(t1)
        # bottom triangle T2_i: y_i, wbar_i, ubar_{i-1}
        t2 = [MSlot(y_in[i - 1], one),
              MSlot(wbar[i - 1], one)]
        if i > 1:
            t2.append(MSlot(rung_ubar[i - 1], one))
        elif cap_start is not None:
            t2.append(MSlot(cap_start, one))
        builder.add_face(t2)


def _split_pinch(diagram: Diagram, builder: MutableDiagram, ext: int,
                 v: int, insert_after: dict, ext_corner_after) -> None:
    """Separate an interior pinch point along a fresh identity edge.

    The two exterior visits split the corner cycle into two interior
    arcs; corner values are rebalanced so both resulting vertex labels
    are trivial and the exterior label is unchanged after free reduction.
    """
    orbit = diagram.vertices[v]
    ext_positions = [idx for idx, (fi, _si) in enumerate(orbit) if fi == ext]
    if len(ext_positions) != 2:
        raise MoveError(
            f"pinch point visited {len(ext_positions)} times; only double "
            "pinches are supported")
    i1, i2 = ext_positions
    arc_after_1 = [orbit[idx] for idx in range(i1 + 1, i2)]
    ref1 = orbit[i1]
    ref2 = orbit[i2]
    d_b = diagram.ambient.one()
    for fi, si in arc_after_1:
        d_b = d_b * diagram.corner((fi, si))
    ga = builder.new_dart()
    gb = builder.new_dart()
    builder.pair(ga, gb, label="1")
    dart1 = diagram.faces[ext][ref1[1]].dart
    dart2 = diagram.faces[ext][ref2[1]].dart
    slot2 = ext_corner_after(dart2)
    x_b = slot2.corner
    slot2.corner = d_b.inv()
    insert_after.setdefault(dart1, []).append(MSlot(ga, diagram.ambient.one()))
    insert_after.setdefault(dart2, []).append(MSlot(gb, d_b * x_b))
