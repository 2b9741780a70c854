"""Diagram transformations: digon merging, hole filling, identity-edge
pulls, strip thickening, the reduction driver, and cyclic gluing.

Every move edits a copy of its diagram's per-dart tables
(``Diagram.tables``) by dart id and builds its output with
``Diagram.from_tables``, so a failed precondition can never corrupt the
input.  Exterior-vertex marks ride on darts (a mark sits at the dart's
head corner) and survive corner merges (``_absorb``).  The rebuilt
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

from .diagram import (Diagram, MapTables, check_ambient, classify_face, digon_adjacencies,
                      is_phi_reduced, label_from, reducible_pairs, slot_senses, validate_howie)
from .freeprod import FPWord, conjugate_in_free_product
from .maps import components
from .presentation import RelPresentation


class MoveError(ValueError):
    pass


class ReductionBoundExceeded(MoveError):
    """``reduce_to_chain`` took more steps than its bound allows."""


# -- table edits ------------------------------------------------------------


def _new_dart(t: MapTables) -> int:
    t.next_dart += 1
    return t.next_dart - 1


def _pair(t: MapTables, d1: int, d2: int, identity: bool = False, arrow: int | None = None
          ) -> None:
    """Glue two darts into an edge whose arrow ``arrow`` (default ``d1``)
    carries."""
    t.pairing[d1] = d2
    t.pairing[d2] = d1
    for d in (d1, d2):
        t.arrow_darts.discard(d)
        if identity:
            t.identity_darts.add(d)
        else:
            t.identity_darts.discard(d)
    t.arrow_darts.add(d1 if arrow is None else arrow)


def _unpair(t: MapTables, d1: int) -> None:
    d2 = t.pairing.pop(d1)
    del t.pairing[d2]
    for d in (d1, d2):
        t.arrow_darts.discard(d)
        t.identity_darts.discard(d)


def _absorb(t: MapTables, keep: int, gone: int) -> None:
    """Fold the head corner and mark of dart ``gone``, which is leaving
    the map, into those of ``keep``, the dart before it in walk order."""
    t.head_corner[keep] = t.head_corner[keep] * t.head_corner.pop(gone)
    if gone in t.marked_darts:
        t.marked_darts.discard(gone)
        t.marked_darts.add(keep)


def _drop_slot(t: MapTables, f: int, i: int) -> None:
    """Drop slot ``i`` of face ``f``, folding its corner into the slot
    before it."""
    darts = t.face_darts[f]
    _absorb(t, darts[i - 1], darts[i])
    del darts[i]


def _add_face(t: MapTables, darts: list[int], exterior: bool = False) -> int:
    t.face_darts.append(darts)
    if exterior:
        t.exterior_faces.add(len(t.face_darts) - 1)
    return len(t.face_darts) - 1


def _add_cell(t: MapTables, slots: list[tuple[int, FPWord]]) -> None:
    """Add a face of new darts, given as ``(dart, head corner)`` slots."""
    t.head_corner.update(slots)
    _add_face(t, [d for d, _ in slots])


def _remove_face(t: MapTables, f: int) -> list[int]:
    """Delete face ``f`` and return its darts, which stay in the tables."""
    darts = t.face_darts[f]
    t.face_darts[f] = None
    t.exterior_faces.discard(f)
    return darts


def _drop_face(t: MapTables, f: int) -> None:
    """Delete face ``f`` and every table entry of its darts, whose
    partners are unpaired already or go in the same way."""
    for d in _remove_face(t, f):
        del t.head_corner[d]
        t.pairing.pop(d, None)
        t.arrow_darts.discard(d)
        t.identity_darts.discard(d)
        t.marked_darts.discard(d)


# -- elementary surgeries -------------------------------------------------


def merge_faces_along(diagram: Diagram, dart: int) -> tuple[MapTables, int]:
    """Delete the edge of ``dart`` and join its two distinct faces.

    Returns a copy of the diagram's tables with the merged face last, and
    that face's index.  At each seam vertex the dart before the deleted
    edge absorbs the corner after the other face's dart.  Neither face may
    be a monogon: no move merges one (``merge_digons`` joins digons,
    ``fill_hole`` large faces).
    """
    f1, i1 = diagram.slot_of_dart[dart]
    f2, i2 = diagram.slot_of_dart[diagram.pairing[dart]]
    if f1 == f2:
        raise MoveError("edge borders a single face; cannot merge")
    s1, s2 = diagram.face_darts[f1], diagram.face_darts[f2]
    if len(s1) == 1 or len(s2) == 1:
        raise MoveError("edge borders a monogon; cannot merge")
    t = diagram.tables()
    _absorb(t, s1[i1 - 1], s2[i2])
    _absorb(t, s2[i2 - 1], s1[i1])
    _unpair(t, dart)
    was_ext = f1 in t.exterior_faces or f2 in t.exterior_faces
    _remove_face(t, f1)
    _remove_face(t, f2)
    new = s1[i1 + 1:] + s1[:i1] + s2[i2 + 1:] + s2[:i2]
    return t, _add_face(t, list(new), exterior=was_ext)


def merge_digons(diagram: Diagram, pres: RelPresentation, edge_index: int
                 ) -> tuple[Diagram, FPWord, int]:
    """Join two distinct digons sharing the given edge into one digon.

    Returns the new diagram, the merged digon word (trivial when the two
    digons cancel; the resulting bigon is left for the caller, see
    collapse_trivial_bigon) and the merged face's index.
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
    out = Diagram.from_tables(merge_faces_along(diagram, d1)[0])
    out_fi = len(out.face_darts) - 1
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


def collapse_trivial_bigon(t: MapTables, fid: int) -> None:
    """Remove a two-sided face with trivial corners, fusing its edges."""
    darts = t.face_darts[fid]
    if len(darts) != 2:
        raise MoveError("not a bigon")
    a, b = darts
    if not (t.head_corner[a].is_identity() and t.head_corner[b].is_identity()):
        raise MoveError("bigon corners are not trivial")
    pa, pb = t.pairing[a], t.pairing[b]
    # a corner of the bigon is a whole vertex only when the bigon is glued
    # to itself; a marked vertex that keeps other corners survives
    if (a in t.marked_darts or b in t.marked_darts) and pa == b:
        raise MoveError("collapse would delete a marked vertex")
    identity = a in t.identity_darts
    if identity != (b in t.identity_darts):
        raise MoveError("bigon sides carry different labels")
    keep_arrow = pb if pa not in t.arrow_darts and pb in t.arrow_darts else pa
    _unpair(t, a)
    if pa != b:
        # otherwise the bigon was glued to itself: an isolated sphere component
        _unpair(t, b)
        _pair(t, pa, pb, identity=identity, arrow=keep_arrow)
    _drop_face(t, fid)


def _collapse_new_trivial_bigons(t: MapTables, candidates: list[int]) -> None:
    for fid in candidates:
        if t.face_darts[fid] is not None:
            try:
                collapse_trivial_bigon(t, fid)
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
    t = diagram.tables()
    mono = [(f, i) for f, i in ((f1, i1), (f2, i2)) if len(diagram.face_darts[f]) == 1]
    if mono:
        # an identity loop bounding a monogon: the enclosed disk vanishes
        if len(mono) == 2:
            raise MoveError("identity edge bounds only monogons; nothing to keep")
        (fm, im) = mono[0]
        (fo, io) = (f2, i2) if fm == f1 else (f1, i1)
        gone = diagram.face_darts[fm][im]
        if not diagram.head_corner[gone].is_identity() or gone in diagram.marked_darts:
            raise MoveError("monogon corner is not disposable")
        _unpair(t, d1)
        _drop_face(t, fm)
        _drop_slot(t, fo, io)
        _collapse_new_trivial_bigons(t, [fo])
        return PullResult("contracted", (Diagram.from_tables(t),))
    if diagram.head(d1) != diagram.tail(d1):
        if f1 == f2 and len(diagram.face_darts[f1]) == 2:
            return _drop_edgeless_sphere(t, f1)
        _unpair(t, d1)
        # the later slot first, so the earlier index stays valid in one face
        for f, i in sorted(((f1, i1), (f2, i2)), reverse=True):
            _drop_slot(t, f, i)
        _collapse_new_trivial_bigons(t, [f1, f2])
        return PullResult("contracted", (Diagram.from_tables(t),))
    if f1 == f2:
        # a loop separates a sphere, so its two sides lie in distinct faces
        raise MoveError("identity loop has one face on both sides; it does not separate "
                        "the diagram")
    return _pull_loop(diagram, t, d1, d2)


def _drop_edgeless_sphere(t: MapTables, fid: int) -> PullResult:
    """Contracting the one edge of a face glued to itself leaves a sphere
    with no edges; drop it when its one vertex label is trivial."""
    first, second = t.face_darts[fid]
    label = t.head_corner[first] * t.head_corner[second]
    if not label.is_identity():
        raise MoveError(f"contraction leaves an edgeless sphere with label {label}")
    if fid in t.exterior_faces:
        raise MoveError("contraction would drop the exterior face")
    _drop_face(t, fid)
    return PullResult("discarded", (Diagram.from_tables(t),))


def _pull_loop(diagram: Diagram, t: MapTables, d1: int, d2: int) -> PullResult:
    """Split along an identity loop whose sides lie in distinct faces.

    The split map is built whole, then each side is a copy of its tables
    without the other component's faces."""
    _unpair(t, d1)
    pinches = []            # per loop dart, the dart whose corner takes its place
    for dart in (d1, d2):
        fid, si = diagram.slot_of_dart[dart]
        pinches.append(t.face_darts[fid][si - 1])
        _drop_slot(t, fid, si)
    whole = Diagram.from_tables(t)
    comps = whole.components()
    if len(comps) != 2:
        raise MoveError(f"identity loop did not separate (got {len(comps)} components)")

    def side(comp, pinch: int | None = None) -> Diagram:
        part = whole.tables()
        for f in range(len(whole.face_darts)):
            if f not in comp:
                _drop_face(part, f)
        if pinch is not None:
            part.marked_darts.add(pinch)
        return Diagram.from_tables(part)

    sides = [(comp, next(p for p in pinches if whole.slot_of_dart[p][0] in comp))
             for comp in comps]
    labels = [whole.vertex_label(whole.head(pinch)) for _, pinch in sides]
    marked = [any(whole.slot_of_dart[d][0] in comp for d in whole.marked_darts)
              for comp, _ in sides]
    if all(marked):
        return PullResult("split", tuple(side(*s) for s in sides), tuple(labels))
    keep, drop = (0, 1) if marked[0] else (1, 0)
    if any(f in whole.exterior_faces for f in sides[drop][0]):
        raise MoveError("identity loop would discard the component with the exterior face")
    if not labels[drop].is_identity():
        raise MoveError(
            f"discarded component has nontrivial pinch label {labels[drop]}; "
            "cannot certify it inside the base free product")
    return PullResult("discarded", (side(sides[keep][0]),), (labels[keep],))


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
    L = len(diagram.face_darts[f1])
    if len(diagram.face_darts[f2]) != L:
        raise MoveError("mirror faces of different length cannot be reducible")
    d1, _d2 = diagram.edges[edge_index]
    if diagram.slot_of_dart[d1][0] != f1:
        d1 = _d2
    t, hole = merge_faces_along(diagram, d1)
    corner = t.head_corner
    darts = _remove_face(t, hole)
    label = label_from(t.ambient, [corner[d] for d in darts],
                       slot_senses(darts, t.arrow_darts, t.identity_darts)).cyclic_free_reduce()
    if not (isinstance(label, FPWord) and label.is_identity()):
        raise MoveError("hole label is not freely trivial (contract violation)")
    part1 = darts[:L - 1]
    part2 = darts[L - 1:]
    if not corner[part1[-1]].is_identity() or not corner[part2[-1]].is_identity():
        raise MoveError("seam corners of the hole are not trivial")
    if L == 2:
        # the hole is already a trivial bigon
        collapse_trivial_bigon(t, _add_face(t, [part1[0], part2[0]]))
        return Diagram.from_tables(t)
    rung_u = {}
    rung_ubar = {}
    for j in range(1, L - 1):
        rung_u[j] = _new_dart(t)
        rung_ubar[j] = _new_dart(t)
        _pair(t, rung_u[j], rung_ubar[j], identity=True)
    one = t.ambient.one()
    for j in range(1, L):
        a = part1[j - 1]                 # (A_j, c_j) in walk order
        b = part2[L - 1 - j]             # (B_{L-j}, ...)
        cell = [a]
        if j <= L - 2:
            corner[rung_u[j]] = corner[a].inv()
            cell.append(rung_u[j])
        if j >= 2:
            corner[b] = one
        cell.append(b)
        if j >= 2:
            corner[rung_ubar[j - 1]] = one
            cell.append(rung_ubar[j - 1])
        _add_face(t, cell)
    return Diagram.from_tables(t)


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
    for fi, face in enumerate(d.face_darts):
        if (fi not in d.exterior_faces and len(face) == 2
                and all(d.head_corner[x].is_identity() for x in face)
                and len({x in d.identity_darts for x in face}) == 1):
            return "collapse_bigon", tuple(sorted(face))
    return None


def _apply(d: Diagram, pres: RelPresentation, move: str, darts: tuple[int, ...] | None
           ) -> tuple[str, tuple[Diagram, ...], tuple[str, ...] | None]:
    """Apply ``move`` at ``darts`` (see ``_next_move``; any name starting
    with ``pull`` pulls).  Returns the move's name in the trace, the
    diagrams that replace ``d`` and a split's pinch labels."""
    if move == "collapse_bigon":
        fi = next((i for i, face in enumerate(d.face_darts) if tuple(sorted(face)) == darts),
                  None)
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
    t = d.tables()
    collapse_trivial_bigon(t, fi)
    return move, (Diagram.from_tables(t),), None


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
    bound = step_factor * (len(diagram.face_darts) + len(diagram.edges) + 2)
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

    def did(d: int, j: int) -> int:
        return d * s + j

    def copies(darts) -> set[int]:
        return {did(d, j) for d in darts for j in range(s)}

    # a path dart's copy j is glued to copy j + 1 of its partner
    pairing = {}
    for d, e in diagram.pairing.items():
        shift = 1 if d in along else -1 if e in along else 0
        for j in range(s):
            pairing[did(d, j)] = did(e, (j + shift) % s)
    out = Diagram.from_tables(MapTables(
        diagram.ambient,
        [[did(d, j) for d in face] for j in range(s) for face in diagram.face_darts],
        {did(d, j): c for d, c in diagram.head_corner.items() for j in range(s)},
        pairing, copies(diagram.arrow_darts), copies(diagram.identity_darts),
        set() if order_ok else copies(diagram.marked_darts), set()))
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
    for si in range(len(diagram.face_darts[ext])):
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

    t = diagram.tables()
    insert_before: dict[int, list[int]] = {}
    insert_after: dict[int, list[int]] = {}
    # polygons at interior branch points; the dart of the ring side awaiting
    # its strip, per (vertex, leaving dart)
    pending: dict[tuple[int, int], int] = {}
    ngon_vertices = [v for v in sorted(incident) if vertex_class(v) == "ngon"]
    for p in ngon_vertices:
        _build_polygon(diagram, t, ext, p, pending)

    for steps in paths:
        _build_strip(diagram, t, steps, pending, insert_before, insert_after, vertex_class)

    # isolated pinch points (no marked edges) split along an identity edge
    isolated = sorted(v for v in marked_vertices
                      if v not in incident and vertex_class(v) == "pinch"
                      and v not in diagram.exterior_vertices)
    for v in isolated:
        _split_pinch(diagram, t, ext, v, insert_after)

    t.face_darts[ext] = [x for d in diagram.face_darts[ext]
                         for x in (*insert_before.get(d, ()), d, *insert_after.get(d, ()))]
    return Diagram.from_tables(t)


def _build_polygon(diagram: Diagram, t: MapTables, ext: int, p: int, pending: dict) -> None:
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
    side_inner = [_new_dart(t) for _ in range(n)]
    side_outer = [_new_dart(t) for _ in range(n)]
    spoke_out = [_new_dart(t) for _ in range(n)]
    spoke_in = [_new_dart(t) for _ in range(n)]
    for j in range(n):
        _pair(t, side_inner[j], side_outer[j], identity=True)
        _pair(t, spoke_out[j], spoke_in[j], identity=True)
    # cell_j walk: z -> u_j (spoke_out j), u_j -> u_{j-1} (side_j inner),
    # u_{j-1} -> z (spoke_in j-1)
    x = [diagram.ambient.one()] * n
    for j in range(n - 1):
        x[j + 1] = x[j] * corners[j]
    for j in range(n):
        _add_cell(t, [(spoke_out[j], x[j]), (side_inner[j], x[j].inv()),
                      (spoke_in[(j - 1) % n], diagram.ambient.one())])
    # the leaving dart between corners r_{j-1} and r_j gets cap side_j
    ext_darts = diagram.face_darts[ext]
    for j, (_, si) in enumerate(orbit):
        pending[(p, ext_darts[(si + 1) % len(ext_darts)])] = side_outer[(j + 1) % n]


def _build_strip(diagram: Diagram, t: MapTables, steps: list[int], pending: dict,
                 insert_before: dict, insert_after: dict, vertex_class) -> None:
    """Duplicate a doubly-exterior path into a two-cell strip.

    Each edge copy pair encloses two trivial-label triangles split by a
    stable-letter diagonal; interior path vertices carry compensating
    corners so every new vertex label is trivial.  Pinch-point ends grow
    an identity cap edge on the exterior walk; polygon ends consume the
    pending ring side; leaf tips close the strip with a bigon cell.
    """
    one = diagram.ambient.one()
    corner = t.head_corner
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
        g0 = _new_dart(t)
        ubar0 = _new_dart(t)
        _pair(t, g0, ubar0, identity=True)
        corner[g0] = one
        insert_before.setdefault(dA[0], []).append(g0)
        cap_start = ubar0
    elif start_kind == "ngon":
        cap_start = pending.pop((v_start, dA[0]))
    # end cap dart for T1_k (head = end's L side), if any
    cap_end = None
    if end_kind == "pinch":
        gk = _new_dart(t)
        uk = _new_dart(t)
        _pair(t, gk, uk, identity=True)
        # the corner after the path, and its mark, move past the cap edge
        last = dA[-1]
        corner[gk] = corner[last]
        corner[last] = one
        if last in t.marked_darts:
            t.marked_darts.discard(last)
            t.marked_darts.add(gk)
        insert_after.setdefault(last, []).append(gk)
        cap_end = uk
    elif end_kind == "ngon":
        cap_end = pending.pop((v_end, dB[-1]))

    # rungs between consecutive edges
    rung_u = {}
    rung_ubar = {}
    for i in range(1, k):
        rung_u[i] = _new_dart(t)
        rung_ubar[i] = _new_dart(t)
        _pair(t, rung_u[i], rung_ubar[i], identity=True)

    x_in = [_new_dart(t) for _ in range(k)]   # inner darts of top copies
    y_in = [_new_dart(t) for _ in range(k)]   # inner darts of bottom copies
    w = [_new_dart(t) for _ in range(k)]      # diagonals, top cell side
    wbar = [_new_dart(t) for _ in range(k)]

    for i in range(k):
        was_arrow = dA[i] in t.arrow_darts
        _unpair(t, dA[i])
        _pair(t, dA[i], x_in[i], arrow=dA[i] if was_arrow else x_in[i])
        _pair(t, dB[i], y_in[i], arrow=dB[i] if not was_arrow else y_in[i])
        _pair(t, w[i], wbar[i], arrow=w[i] if was_arrow else wbar[i])

    comp = [one] * (k + 1)
    for i in range(1, k):
        comp[i] = corner[dA[i - 1]]

    for i in range(1, k + 1):
        # top triangle T1_i: x_i, w_i, u_i
        t1 = [(x_in[i - 1], one), (w[i - 1], comp[i] if i < k else one)]
        if i < k:
            t1.append((rung_u[i], comp[i].inv()))
        elif cap_end is not None:
            t1.append((cap_end, one))
        _add_cell(t, t1)
        # bottom triangle T2_i: y_i, wbar_i, ubar_{i-1}
        t2 = [(y_in[i - 1], one), (wbar[i - 1], one)]
        if i > 1:
            t2.append((rung_ubar[i - 1], one))
        elif cap_start is not None:
            t2.append((cap_start, one))
        _add_cell(t, t2)


def _split_pinch(diagram: Diagram, t: MapTables, ext: int, v: int, insert_after: dict) -> None:
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
    ga = _new_dart(t)
    gb = _new_dart(t)
    _pair(t, ga, gb, identity=True)
    dart1 = diagram.face_darts[ext][ref1[1]]
    dart2 = diagram.face_darts[ext][ref2[1]]
    x_b = t.head_corner[dart2]
    t.head_corner[dart2] = d_b.inv()
    t.head_corner[ga] = diagram.ambient.one()
    t.head_corner[gb] = d_b * x_b
    insert_after.setdefault(dart1, []).append(ga)
    insert_after.setdefault(dart2, []).append(gb)
