"""Labeled combinatorial maps on closed oriented surfaces.

A diagram is a set of faces, each a cyclic sequence of slots; a slot is a
pre-edge (dart) followed by the corner at its head.  Slots are listed
anticlockwise around the face.  A perfect matching on darts glues faces
with orientation reversal, so the resulting surface is closed and
oriented by construction.  Vertices are never stored: they are orbits of
the corner rotation derived from the pairing.

Each edge carries a geometric arrow (one of its two darts traverses it
along the arrow) and a label: the stable letter "t" or the identity "1"
(identity edges contribute nothing to labels).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .freeprod import FPWord, FreeProduct
from .groups import GroupTable, json_field
from . import maps
from .maps import CornerRef
from .presentation import RelPresentation
from .words import TWord, cyclic_key, from_items, parse_h_word, syllables, word_str

WeightAssignment = Mapping[CornerRef, Fraction]

# the text json.dumps gives a str under its default ensure_ascii=True,
# without dumps's per-call set-up
_json_str = json.encoder.encode_basestring_ascii


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class Slot:
    dart: int
    corner: FPWord


def label_from(ambient: FreeProduct, corners: Sequence[FPWord],
               senses: Sequence[int], start: int = 0) -> TWord:
    """Face label from its slots' corners and pre-edge senses (0 for an
    identity edge), written starting with the pre-edge of slot ``start``."""
    n = len(corners)
    items: list = []
    for off in range(n):
        i = (start + off) % n
        if senses[i]:
            items.append(senses[i])
        items.append(corners[i])
    return from_items(ambient, items)


def label_ending(ambient: FreeProduct, corners: Sequence[FPWord],
                 senses: Sequence[int], end: int) -> TWord:
    """Face label written so that the pre-edge of slot ``end`` is last."""
    n = len(corners)
    items: list = [corners[end]]
    for off in range(1, n + 1):
        i = (end + off) % n
        if senses[i]:
            items.append(senses[i])
        if off < n:
            items.append(corners[i])
    return from_items(ambient, items)


def _word_key(w: TWord) -> tuple:
    """Ints that are equal exactly when the words (of one ambient) are."""
    return w.signs, tuple([seg.letters for seg in w.segments])


class FaceRecord:
    """The values fixed by a face's content, its corners and pre-edge
    senses (0 on an identity edge), each computed on first use and kept:
    the label, per slot the reduced label read from that slot and the
    inverse of the reduced label ending there (as ``_word_key`` keys,
    which ``reducible_pairs`` compares), per slot the corner's JSON text,
    and the face's class.  The class is kept for one presentation object
    at a time, compared with ``is``."""

    __slots__ = ("ambient", "corners", "senses", "_label", "_read", "_ending_inv",
                 "_texts", "_pres", "_class")

    def __init__(self, ambient: FreeProduct, corners: tuple[FPWord, ...],
                 senses: tuple[int, ...]):
        self.ambient = ambient
        self.corners = corners
        self.senses = senses
        self._label: TWord | None = None
        self._read: tuple | None = None
        self._ending_inv: tuple | None = None
        self._texts: tuple[str, ...] | None = None
        self._pres: RelPresentation | None = None
        self._class: FaceClass | None = None

    def label(self) -> TWord:
        if self._label is None:
            self._label = label_from(self.ambient, self.corners, self.senses)
        return self._label

    def read(self) -> tuple:
        if self._read is None:
            self._read = tuple(
                _word_key(label_from(self.ambient, self.corners, self.senses, s).free_reduce())
                for s in range(len(self.corners)))
        return self._read

    def ending_inv(self) -> tuple:
        if self._ending_inv is None:
            self._ending_inv = tuple(
                _word_key(label_ending(self.ambient, self.corners, self.senses, s)
                          .free_reduce().inv().free_reduce())
                for s in range(len(self.corners)))
        return self._ending_inv

    def corner_texts(self) -> tuple[str, ...]:
        """Each corner as the canonical form writes it, up to its dart id."""
        if self._texts is None:
            self._texts = tuple(['{"c":' + _json_str(str(c)) + ',"d":' for c in self.corners])
        return self._texts

    def face_class(self, pres: RelPresentation) -> "FaceClass":
        """Class of the face when it is interior."""
        if self._pres is not pres:
            self._class = classify_label(self.ambient, pres, self.label())
            self._pres = pres
        return self._class


def _int_pairs(data: dict, name: str, *default) -> list[tuple[int, int]]:
    """Field ``name`` of ``data``, a list of two-integer lists, as tuples."""
    pairs = json_field(data, name, list, DiagramError, *default)
    if any(type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int
           for p in pairs):
        raise DiagramError(f"field {name!r} must hold pairs of integers")
    return [tuple(p) for p in pairs]


def _edge_key(key: str, name: str) -> int:
    """Key ``key`` of field ``name``, which maps edge indexes, as an int.
    Only the decimal spelling ``str(i)`` names edge ``i``, so no two keys
    name one edge."""
    if not (key.isdecimal() and key.isascii() and str(int(key)) == key):
        raise DiagramError(f"field {name!r} key {key!r} is not an edge index")
    return int(key)


def slot_senses(darts: Sequence[int], arrow_darts: Container[int],
                identity_darts: Container[int]) -> tuple[int, ...]:
    """Per slot, the sense of its pre-edge: +1 along the edge arrow, -1
    against it, 0 on an identity edge, which contributes no t-letter."""
    return tuple([0 if d in identity_darts else 1 if d in arrow_darts else -1 for d in darts])


@dataclass(eq=False)
class MapTables:
    """A map as per-dart tables, the one form diagrams are built from.

    ``face_darts`` lists each face's darts anticlockwise (a move sets a
    face it deletes to None); per dart, ``head_corner`` is the corner at
    its head, ``pairing`` its partner, and the three sets say whether it
    carries its edge's arrow, lies on an identity edge and marks an
    exterior vertex at its head corner.  ``exterior_faces`` holds indexes
    into ``face_darts``; ``next_dart`` is the next unused dart id.
    ``Diagram.tables`` gives an editable copy of a diagram's tables, and
    ``Diagram.from_tables`` builds a diagram from them, sharing
    ``face_memo``."""

    ambient: FreeProduct
    face_darts: list
    head_corner: dict[int, FPWord]
    pairing: dict[int, int]
    arrow_darts: set[int]
    identity_darts: set[int]
    marked_darts: set[int]
    exterior_faces: set[int]
    next_dart: int = 0
    face_memo: dict = field(default_factory=dict)


class Diagram:
    """Immutable validated map, kept as the per-dart tables of
    ``MapTables``: ``face_darts``, ``head_corner``, ``pairing``,
    ``arrow_darts``, ``identity_darts``, ``marked_darts`` (every dart
    whose head corner lies on an exterior vertex) and ``exterior_faces``.
    The combinatorial structure (edges, vertices) is computed up front;
    ``faces`` is the slot view of the tables.  What depends on one face's
    content alone is kept in a ``FaceRecord`` per face, made on first use;
    the records are found in ``face_memo``, keyed by each slot's corner
    letters and sense.  A diagram made by a move (``from_tables``) shares
    the memo of the diagram the move started from, so along a chain of
    moves each distinct face is read once.  The canonical form is
    computed on first use and kept."""

    def __init__(self,
                 ambient: FreeProduct,
                 faces: Sequence[Sequence[Slot]],
                 pairing: Mapping[int, int],
                 arrow_darts: Iterable[int],
                 edge_labels: Mapping[Iterable[int], str] | None = None,
                 exterior_faces: Iterable[int] = (),
                 exterior_vertex_seeds: Iterable[CornerRef] = ()):
        face_darts: list[list[int]] = []
        head_corner: dict[int, FPWord] = {}
        for face in faces:
            darts = []
            for slot in face:
                if slot.corner.ambient is not ambient and slot.corner.ambient != ambient:
                    raise DiagramError("corner label in wrong ambient")
                head_corner[slot.dart] = slot.corner
                darts.append(slot.dart)
            face_darts.append(darts)
        identity: set[int] = set()
        for key, lab in (edge_labels or {}).items():
            ds = sorted(set(key))
            if len(ds) != 2 or pairing.get(ds[0]) != ds[1]:
                raise DiagramError(f"edge label on non-edge {ds}")
            if lab not in ("t", "1"):
                raise DiagramError(f"unsupported edge label {lab!r}")
            if lab == "1":
                identity.update(ds)
            else:
                identity.difference_update(ds)
        marked = set()
        for ref in exterior_vertex_seeds:
            ref = tuple(ref)
            if (len(ref) != 2 or not 0 <= ref[0] < len(face_darts)
                    or not 0 <= ref[1] < len(face_darts[ref[0]])):
                raise DiagramError(f"exterior vertex seed {ref} is not a corner")
            marked.add(face_darts[ref[0]][ref[1]])
        self._build(MapTables(ambient, face_darts, head_corner, dict(pairing), set(arrow_darts),
                              identity, marked, set(exterior_faces)))

    @classmethod
    def from_tables(cls, tables: MapTables) -> "Diagram":
        """The diagram of ``tables``, which it takes over: the caller edits
        them no further."""
        d = cls.__new__(cls)
        d._build(tables)
        return d

    def tables(self) -> MapTables:
        """An editable copy of the tables, sharing ``face_memo``."""
        return MapTables(self.ambient, [list(f) for f in self.face_darts], dict(self.head_corner),
                         dict(self.pairing), set(self.arrow_darts), set(self.identity_darts),
                         set(self.marked_darts), set(self.exterior_faces),
                         max(self.pairing, default=-1) + 1, self.face_memo)

    def _build(self, t: MapTables) -> None:
        """Validate the tables and derive edges and vertices: the core of
        both constructors.  Deleted faces drop out, the faces after them
        move up, and the marks spread to every corner of a marked vertex."""
        self.ambient = t.ambient
        index: dict[int, int] = {}
        faces: list[tuple[int, ...]] = []
        for f, darts in enumerate(t.face_darts):
            if darts is not None:
                if not darts:
                    raise DiagramError("face with no corners")
                index[f] = len(faces)
                faces.append(tuple(darts))
        self.face_darts: tuple[tuple[int, ...], ...] = tuple(faces)
        self.pairing = t.pairing
        self._validate_pairing()
        self.slot_of_dart: dict[int, CornerRef] = {}
        for fi, darts in enumerate(faces):
            for si, dart in enumerate(darts):
                if dart in self.slot_of_dart:
                    raise DiagramError(f"dart {dart} appears in two slots")
                self.slot_of_dart[dart] = (fi, si)
        missing = self.pairing.keys() ^ self.slot_of_dart.keys()
        if missing:
            raise DiagramError(f"dangling darts: {sorted(missing)}")
        if t.head_corner.keys() != self.slot_of_dart.keys():
            raise DiagramError("the corner table and the faces name different darts")
        self.head_corner = t.head_corner

        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(
            [(d, e) for d, e in self.pairing.items() if d < e]))
        arrows, identity = t.arrow_darts, t.identity_darts
        self.edge_of_dart: dict[int, int] = {}
        self.arrow_of_edge: dict[int, int] = {}
        self.edge_label: dict[int, str] = {}
        for ei, (d1, d2) in enumerate(self.edges):
            self.edge_of_dart[d1] = self.edge_of_dart[d2] = ei
            if d2 not in arrows:
                self.arrow_of_edge[ei] = d1
            elif d1 not in arrows:
                self.arrow_of_edge[ei] = d2
            else:
                raise DiagramError(f"orientation conflict on edge {ei}: both darts marked")
            self.edge_label[ei] = "1" if d1 in identity else "t"
        extra = arrows - self.pairing.keys()
        if extra:
            raise DiagramError(f"orientation conflict: arrow darts {sorted(extra)} unknown")
        self.arrow_darts = frozenset(self.arrow_of_edge.values())
        self.identity_darts = frozenset(identity)

        ext_faces = [index.get(f) for f in t.exterior_faces]
        if None in ext_faces:
            raise DiagramError("exterior face index out of range")
        self.exterior_faces = frozenset(ext_faces)

        self.vertices: tuple[tuple[CornerRef, ...], ...] = tuple(
            maps.corner_cycles(faces, self.pairing))
        self.vertex_of_corner: dict[CornerRef, int] = {}
        for vi, orbit in enumerate(self.vertices):
            for ref in orbit:
                self.vertex_of_corner[ref] = vi
        self.exterior_vertices = frozenset(
            [self.vertex_of_corner[self.slot_of_dart[d]] for d in t.marked_darts])
        self.marked_darts = frozenset([faces[fi][si] for v in self.exterior_vertices
                                       for fi, si in self.vertices[v]])

        self.chi = len(self.vertices) - len(self.edges) + len(faces)
        if self.chi % 2 != 0:
            raise DiagramError(f"odd Euler characteristic {self.chi}")
        self._canonical: str | None = None
        self.face_memo = t.face_memo
        self._records: list[FaceRecord] | None = None

    @cached_property
    def faces(self) -> tuple[tuple[Slot, ...], ...]:
        """Each face's slots, as the constructor takes them."""
        corner = self.head_corner
        return tuple(tuple([Slot(d, corner[d]) for d in darts]) for darts in self.face_darts)

    # -- structure ------------------------------------------------------

    def _validate_pairing(self) -> None:
        for d, e in self.pairing.items():
            if d == e:
                raise DiagramError(f"fixed-point pairing at dart {d}")
            if self.pairing.get(e) != d:
                raise DiagramError(f"pairing is not an involution at dart {d}")

    def corner(self, ref: CornerRef) -> FPWord:
        return self.head_corner[self.face_darts[ref[0]][ref[1]]]

    def head(self, dart: int) -> int:
        """Vertex at the head of a dart."""
        return self.vertex_of_corner[self.slot_of_dart[dart]]

    def tail(self, dart: int) -> int:
        """Vertex at the tail of a dart: the head of its face predecessor."""
        fi, si = self.slot_of_dart[dart]
        return self.vertex_of_corner[(fi, (si - 1) % len(self.face_darts[fi]))]

    def sense(self, dart: int) -> int:
        """+1 when the face traversal follows the edge arrow."""
        return 1 if dart in self.arrow_darts else -1

    def components(self) -> list[frozenset[int]]:
        return [frozenset(c) for c in maps.components(len(self.face_darts), (
            (self.slot_of_dart[d][0], self.slot_of_dart[e][0]) for d, e in self.pairing.items()))]

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def genus(self) -> int:
        if not self.is_connected():
            raise DiagramError("genus of a disconnected diagram")
        return (2 - self.chi) // 2

    # -- labels ----------------------------------------------------------

    def vertex_label(self, v: int) -> FPWord:
        """Product of corner labels in the derived cyclic order (one
        representative of the conjugacy/cyclic-rotation class)."""
        out = self.ambient.one()
        for ref in self.vertices[v]:
            out = out * self.corner(ref)
        return out

    def face_records(self) -> list[FaceRecord]:
        """The record of each face's content, found in ``face_memo`` or
        added to it on the first call."""
        if self._records is None:
            corner, memo, records = self.head_corner, self.face_memo, []
            for darts in self.face_darts:
                senses = slot_senses(darts, self.arrow_darts, self.identity_darts)
                corners = tuple([corner[d] for d in darts])
                key = (senses, tuple([c.letters for c in corners]))
                rec = memo.get(key)
                if rec is None:
                    rec = memo[key] = FaceRecord(self.ambient, corners, senses)
                records.append(rec)
            self._records = records
        return self._records

    def face_label(self, fi: int, start: int = 0) -> TWord:
        """Label written starting with the pre-edge of the given slot."""
        rec = self.face_records()[fi]
        return rec.label() if start == 0 else label_from(self.ambient, rec.corners,
                                                          rec.senses, start)

    # -- corner combinatorics ---------------------------------------------

    def corner_type(self, ref: CornerRef) -> str:
        fi, si = ref
        face = self.face_darts[fi]
        d_in = face[si]
        d_out = face[(si + 1) % len(face)]
        a = "+" if self.sense(d_in) == 1 else "-"
        b = "+" if self.sense(d_out) == 1 else "-"
        return a + b

    def vertex_kind(self, v: int) -> str:
        types = {self.corner_type(ref) for ref in self.vertices[v]}
        if types == {"+-"}:
            return "sink"
        if types == {"-+"}:
            return "source"
        return "mixed"

    def corner_alternation_violations(self) -> list[int]:
        """Vertices where (++) and (--) corners fail to alternate."""
        bad = []
        for v, orbit in enumerate(self.vertices):
            heavy = [self.corner_type(ref) for ref in orbit
                     if self.corner_type(ref) in ("++", "--")]
            if any(heavy[i] == heavy[(i + 1) % len(heavy)] for i in range(len(heavy))) \
                    and len(heavy) > 1:
                bad.append(v)
            elif len(heavy) == 1:
                bad.append(v)  # a lone ++ or -- cannot close up around a vertex
        return bad

    # -- curvature ---------------------------------------------------------

    def curvature(self, weights: WeightAssignment) -> "CurvatureReport":
        for fi, face in enumerate(self.face_darts):
            for si in range(len(face)):
                if (fi, si) not in weights:
                    raise DiagramError(f"missing weight for corner {(fi, si)}")
        vertex_k = []
        for orbit in self.vertices:
            vertex_k.append(Fraction(2) - sum(Fraction(weights[r]) for r in orbit))
        face_k = []
        for fi, face in enumerate(self.face_darts):
            face_k.append(Fraction(2) - sum(1 - Fraction(weights[(fi, si)])
                                            for si in range(len(face))))
        total = sum(vertex_k) + sum(face_k)
        genus = self.genus() if self.is_connected() else None
        return CurvatureReport(tuple(vertex_k), tuple(face_k), total, self.chi, genus)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        edge_dir = {str(ei): self.arrow_of_edge[ei] for ei in range(len(self.edges))}
        labels = {str(ei): lab for ei, lab in self.edge_label.items() if lab != "t"}
        seeds = sorted(min(self.vertices[v]) for v in self.exterior_vertices)
        corner = self.head_corner
        return {
            "ambient": {"names": list(self.ambient.group.names),
                        "table": [list(r) for r in self.ambient.group.table],
                        "s": self.ambient.s},
            "faces": [{"slots": [{"dart": d, "corner": str(corner[d]) if corner[d] else ""}
                                 for d in darts]} for darts in self.face_darts],
            "pairing": [list(e) for e in self.edges],
            "edge_dir": edge_dir,
            "edge_labels": labels,
            "exterior": {"faces": sorted(self.exterior_faces),
                         "vertex_seeds": [list(s) for s in seeds]},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagram":
        amb_data = json_field(data, "ambient", dict, DiagramError)
        group = GroupTable.from_dict(amb_data)
        ambient = FreeProduct(group, json_field(amb_data, "s", int, DiagramError))
        parsed = {"": ambient.one()}        # corner texts repeat; words are immutable
        faces = []
        for f in json_field(data, "faces", list, DiagramError):
            slots = []
            for s in json_field(f, "slots", list, DiagramError):
                if type(s) is not dict:
                    raise DiagramError("field 'slots' must hold objects")
                text, dart = s.get("corner", ""), s.get("dart")
                if type(text) is not str or type(dart) is not int:
                    raise DiagramError("a slot needs an integer 'dart' and a string 'corner'")
                corner = parsed.get(text)
                if corner is None:
                    corner = parsed[text] = parse_h_word(text, ambient)
                slots.append(Slot(dart, corner))
            faces.append(slots)
        pairing = {}
        edge_list = _int_pairs(data, "pairing")
        for d1, d2 in edge_list:
            pairing[d1] = d2
            pairing[d2] = d1
        arrow_darts = []
        order = sorted((min(e), max(e)) for e in edge_list)
        for key, dart in json_field(data, "edge_dir", dict, DiagramError, {}).items():
            ei = _edge_key(key, "edge_dir")
            if not (0 <= ei < len(order)) or dart not in order[ei]:
                raise DiagramError(f"orientation conflict in edge_dir entry {key}")
            arrow_darts.append(dart)
        edge_labels = {}
        for key, label in json_field(data, "edge_labels", dict, DiagramError, {}).items():
            ei = _edge_key(key, "edge_labels")
            if not 0 <= ei < len(order):
                raise DiagramError(f"edge_labels entry {key} names no edge")
            edge_labels[order[ei]] = label
        ext = json_field(data, "exterior", dict, DiagramError, {})
        ext_faces = json_field(ext, "faces", list, DiagramError, [])
        if any(type(f) is not int for f in ext_faces):
            raise DiagramError("field 'faces' of 'exterior' must hold integers")
        return cls(ambient, faces, pairing, arrow_darts, edge_labels,
                   ext_faces, _int_pairs(ext, "vertex_seeds", []))

    def canonical_form(self) -> str:
        """Lexicographically minimal serialization over dart relabelings.

        Every (face, rotation) seed numbers the darts by a breadth-first
        traversal, and the form is the least of the seeds' documents
        (see ``_CanonicalLabeller``).  Computed once per instance.
        """
        if self._canonical is None:
            self._canonical = _CanonicalLabeller(self).form()
        return self._canonical


def _array(items: Iterable[str]) -> str:
    return "[" + ",".join(items) + "]"


def _pieces(groups: Iterable[list[str]]) -> Iterator[str]:
    """The text of the JSON array of every group's items, in pieces: one
    per nonempty group, then the closing bracket."""
    sep = "["
    for items in groups:
        if items:
            yield sep + ",".join(items)
            sep = ","
    yield "[]" if sep == "[" else "]"


class _CanonicalLabeller:
    """Canonical form of one diagram, serializing only the winning seed.

    Slots are numbered face by face.  A seed's traversal gives ``seq``,
    the slots in the order their darts get ids 0, 1, ..., and ``order``,
    the faces in the order they are reached; a face's darts get
    consecutive ids.  The document's keys are sorted and every value is a
    JSON array, no complete one a proper prefix of another, so two seeds'
    documents compare as their values' texts do, key by key.  Seeds are
    narrowed by one key's text at a time, and the form is joined from the
    texts of the one left.  A key's text is built a face at a time, and a
    seed is dropped as soon as its text so far is greater than the least
    one's (``narrow``).  Texts are compared, not numbers: JSON orders
    ``10`` before ``9``.
    """

    def __init__(self, d: Diagram):
        self.d = d
        start: list[int] = []
        self.face_of: list[int] = []
        self.rings: list[list[list[int]]] = []     # [face][rotation] -> slots
        for fi, face in enumerate(d.face_darts):
            first = len(self.face_of)
            start.append(first)
            slots = list(range(first, first + len(face)))
            self.rings.append([slots[r:] + slots[:r] for r in range(len(slots))])
            self.face_of += [fi] * len(face)
        darts = [dart for face in d.face_darts for dart in face]
        mates = [d.slot_of_dart[d.pairing[dart]] for dart in darts]
        self.mate = [start[fi] + si for fi, si in mates]
        self.mate_rot = [si for _, si in mates]
        self.arrow = [dart in d.arrow_darts for dart in darts]
        self.label = ['"1"' if dart in d.identity_darts else None     # JSON text, if listed
                      for dart in darts]
        self.corner = [text for rec in d.face_records() for text in rec.corner_texts()]
        self.num = [str(k) for k in range(len(darts))]
        self.dart = [k + "}" for k in self.num]
        self.ext_orbits = [[start[fi] + si for fi, si in d.vertices[v]]
                           for v in d.exterior_vertices]
        self.keys = (("f", self.faces), ("l", self.labels), ("p", self.pairs),
                     ("xf", self.ext_faces), ("xv", self.ext_vertices))

    def form(self) -> str:
        if not self.rings:
            return '"empty"'
        best: str | None = None
        seeds: list[tuple[list[int], list[int]]] = []
        for f0, rings in enumerate(self.rings):
            for r0, ring in enumerate(rings):
                # every edge has an arrow dart, so the least "a" text starts
                # "[0": its seed's first slot is an arrow dart
                if not self.arrow[ring[0]]:
                    continue
                seed = self.traverse(f0, r0, best)
                if seed is None:
                    continue
                seq, order, text = seed
                if best is None or text < best:
                    best, seeds = text, [(seq, order)]
                else:
                    seeds.append((seq, order))
        doc = {"a": best}
        for key, pieces_of in self.keys:
            doc[key], seeds = self.narrow(pieces_of, seeds)
        return "{" + ",".join(f'"{key}":{text}' for key, text in doc.items()) + "}"

    @staticmethod
    def narrow(pieces_of, seeds: list) -> tuple[str, list]:
        """The least of the seeds' texts of one key, and the seeds that
        give it.  A seed is dropped at the first piece of its text that
        is greater than the same stretch of the least text so far."""
        least: str | None = None
        kept: list = []
        for seed in seeds:
            text, bound = "", least
            for piece in pieces_of(*seed):
                if bound is not None:
                    known = bound[len(text):len(text) + len(piece)]
                    if piece > known:
                        break
                    if piece < known:
                        bound = None
                text += piece
            else:
                if least is None or text < least:
                    least, kept = text, [seed]
                elif text == least:
                    kept.append(seed)
        return least, kept

    def traverse(self, f0: int, r0: int, best: str | None
                 ) -> tuple[list[int], list[int], str] | None:
        """The seed's ``seq``, ``order`` and ``"a"`` text, or None as soon
        as a prefix of that text shows it is worse than ``best``."""
        rings, face_of, mate, mate_rot = self.rings, self.face_of, self.mate, self.mate_rot
        arrow, num = self.arrow, self.num
        queued = [False] * len(rings)
        queued[f0] = True
        order, rots, seq = [f0], [r0], []
        text, sep = "[", ""
        head = 0
        while head < len(order):
            ring = rings[order[head]][rots[head]]
            head += 1
            k = len(seq)
            seq += ring
            for i in ring:
                if arrow[i]:
                    text += sep + num[k]
                    sep = ","
                k += 1
                g = face_of[mate[i]]
                if not queued[g]:
                    queued[g] = True
                    order.append(g)
                    rots.append(mate_rot[i])
            if best is not None:
                known = best[:len(text)]
                if text > known:
                    return None
                if text < known:
                    best = None
        if len(order) < len(rings):
            raise DiagramError("canonical form of a disconnected diagram")
        return seq, order, text + "]"

    @staticmethod
    def _ids(seq: list[int]) -> list[int]:
        """Dart id of each slot."""
        ids = [0] * len(seq)
        for k, i in enumerate(seq):
            ids[i] = k
        return ids

    def _spans(self, order: list[int]) -> Iterator[range]:
        """Per face in walk order, the dart ids of its slots."""
        k = 0
        for f in order:
            n = len(self.rings[f])
            yield range(k, k + n)
            k += n

    def faces(self, seq: list[int], order: list[int]) -> Iterable[str]:
        corner, dart = self.corner, self.dart
        sep = "["
        for span in self._spans(order):
            yield sep + _array([corner[seq[m]] + dart[m] for m in span])
            sep = ","
        yield "]"

    def labels(self, seq: list[int], order: list[int]) -> Iterable[str]:
        ids, mate, label, num = self._ids(seq), self.mate, self.label, self.num
        return _pieces(["[" + num[k] + "," + label[seq[k]] + "]" for k in span
                        if label[seq[k]] and ids[mate[seq[k]]] > k]
                       for span in self._spans(order))

    def pairs(self, seq: list[int], order: list[int]) -> Iterable[str]:
        ids, mate, num = self._ids(seq), self.mate, self.num
        return _pieces(["[" + num[k] + "," + num[ids[mate[seq[k]]]] + "]" for k in span
                        if ids[mate[seq[k]]] > k]
                       for span in self._spans(order))

    def ext_faces(self, seq: list[int], order: list[int]) -> Iterable[str]:
        ext = self.d.exterior_faces
        return (_array([self.num[j] for j, f in enumerate(order) if f in ext]),)

    def ext_vertices(self, seq: list[int], order: list[int]) -> Iterable[str]:
        ids, num = self._ids(seq), self.num
        orbits = sorted(sorted(ids[i] for i in orbit) for orbit in self.ext_orbits)
        return (_array([_array([num[k] for k in orbit]) for orbit in orbits]),)


@dataclass(frozen=True)
class CurvatureReport:
    vertex_curvatures: tuple[Fraction, ...]
    face_curvatures: tuple[Fraction, ...]
    total: Fraction
    chi: int
    genus: int | None = None

    @property
    def satisfies_identity(self) -> bool:
        return self.total == 2 * self.chi


def uniform_weights(diagram: Diagram, value: Fraction = Fraction(1)) -> dict[CornerRef, Fraction]:
    return {(fi, si): Fraction(value)
            for fi, face in enumerate(diagram.face_darts) for si in range(len(face))}


# -- Howie validation ---------------------------------------------------


@dataclass(frozen=True)
class FaceClass:
    kind: str                 # digon | large | null | exterior | invalid
    digon_word: FPWord | None = None
    reason: str = ""


def classify_face(diagram: Diagram, pres: RelPresentation, fi: int) -> FaceClass:
    if fi in diagram.exterior_faces:
        return FaceClass("exterior")
    return diagram.face_records()[fi].face_class(pres)


def classify_label(ambient: FreeProduct, pres: RelPresentation, label: TWord) -> FaceClass:
    """Class of an interior face with the given label."""
    red = label.cyclic_free_reduce()
    if isinstance(red, FPWord):
        if red.is_identity():
            return FaceClass("null")
        return FaceClass("invalid", reason=f"t-free label {red} is not trivial")
    if red.t_count == 2 and red.exponent_sum() == 0:
        digon = _match_digon(ambient, red)
        if digon is not None:
            return FaceClass("digon", digon_word=digon)
    if cyclic_key(red) in pres.relator_keys:
        return FaceClass("large")
    return FaceClass("invalid", reason=f"label {word_str(label)} matches no relator")


def _match_digon(ambient: FreeProduct, red: TWord) -> FPWord | None:
    """Match t^-1 p t (p^shift)^-1 for nontrivial bottom-slice p, in either
    rotation of the cyclic word with one t^-1 and one t."""
    signs, after = syllables(red)
    r = signs.index(-1)
    p, q = after[r], after[1 - r]
    return p if p and p.in_bottom() and q == p.shift(1).inv() else None


@dataclass(frozen=True)
class HowieReport:
    ok: bool
    face_classes: tuple[FaceClass, ...]
    failures: tuple[str, ...]


def check_ambient(diagram: Diagram, pres: RelPresentation) -> None:
    """Raise ``DiagramError`` unless the diagram's corners live in the
    presentation's ambient free product."""
    if diagram.ambient != pres.ambient:
        raise DiagramError("diagram and presentation live in different ambients")


def validate_howie(diagram: Diagram, pres: RelPresentation,
                   allow_null_faces: bool = True) -> HowieReport:
    """Check interior face labels against the relator set and interior
    vertex labels against the identity of H."""
    check_ambient(diagram, pres)
    failures = []
    classes = []
    for fi in range(len(diagram.face_darts)):
        fc = classify_face(diagram, pres, fi)
        classes.append(fc)
        if fc.kind == "invalid":
            failures.append(f"face {fi}: {fc.reason}")
        elif fc.kind == "null" and not allow_null_faces:
            failures.append(f"face {fi}: trivial-label face not allowed here")
    for v in range(len(diagram.vertices)):
        if v in diagram.exterior_vertices:
            continue
        label = diagram.vertex_label(v)
        if not label.is_identity():
            failures.append(f"interior vertex {v} has label {label}")
    return HowieReport(not failures, tuple(classes), tuple(failures))


# -- weight rule and vertex classification -------------------------------


@dataclass(frozen=True)
class VertexStats:
    negative_special: int   # n
    large_side_corners: int  # l: (+-) and (-+) corners of large faces
    positive_special: int   # p
    kind: str               # sink | source | mixed

    @property
    def curvature_by_count(self) -> Fraction:
        return Fraction(2 + self.negative_special
                        - self.large_side_corners - self.positive_special)


@dataclass(frozen=True)
class WeightRuleResult:
    weights: dict[CornerRef, Fraction]
    vertex_stats: tuple[VertexStats, ...]
    special_digons: tuple[int, ...]


def curvature_weights(diagram: Diagram, pres: RelPresentation) -> WeightRuleResult:
    """The curvature-test weight rule for diagrams over the standard
    presentation: digons carry weight zero (special ones -1/+1 across
    their two corners), doubled-sign corners of large faces weigh zero,
    and everything else weighs one.
    """
    report = validate_howie(diagram, pres, allow_null_faces=False)
    if not report.ok:
        raise DiagramError("weight rule needs a valid diagram: " + "; ".join(report.failures))
    kinds = [fc.kind for fc in report.face_classes]
    if any(k == "exterior" for k in kinds):
        raise DiagramError("weight rule applies to diagrams without exterior faces")

    neighbor_types: dict[CornerRef, tuple[str, str]] = {}
    for v, orbit in enumerate(diagram.vertices):
        size = len(orbit)
        for idx, ref in enumerate(orbit):
            prev = diagram.corner_type(orbit[(idx - 1) % size])
            nxt = diagram.corner_type(orbit[(idx + 1) % size])
            neighbor_types[ref] = (prev, nxt)

    special: dict[int, tuple[CornerRef, CornerRef]] = {}
    for fi, kind in enumerate(kinds):
        if kind != "digon":
            continue
        positives = [(fi, si) for si in range(len(diagram.face_darts[fi]))
                     if set(neighbor_types[(fi, si)]) == {"++", "--"}]
        if len(positives) > 1:
            raise DiagramError(f"digon {fi} has two positive corners")
        if positives:
            pos = positives[0]
            neg = (fi, 1 - pos[1])
            special[fi] = (pos, neg)

    weights: dict[CornerRef, Fraction] = {}
    for fi, face in enumerate(diagram.face_darts):
        for si in range(len(face)):
            ref = (fi, si)
            ctype = diagram.corner_type(ref)
            if kinds[fi] == "digon":
                if fi in special:
                    pos, neg = special[fi]
                    weights[ref] = Fraction(1) if ref == pos else Fraction(-1)
                else:
                    weights[ref] = Fraction(0)
            elif ctype in ("++", "--"):
                weights[ref] = Fraction(0)
            else:
                weights[ref] = Fraction(1)

    stats = []
    for v, orbit in enumerate(diagram.vertices):
        n = sum(1 for ref in orbit
                if kinds[ref[0]] == "digon" and ref[0] in special and special[ref[0]][1] == ref)
        p = sum(1 for ref in orbit
                if kinds[ref[0]] == "digon" and ref[0] in special and special[ref[0]][0] == ref)
        l = sum(1 for ref in orbit
                if kinds[ref[0]] == "large" and diagram.corner_type(ref) in ("+-", "-+"))
        stats.append(VertexStats(n, l, p, diagram.vertex_kind(v)))
    return WeightRuleResult(weights, tuple(stats), tuple(sorted(special)))


# -- reducedness -----------------------------------------------------------


def reducible_pairs(diagram: Diagram) -> list[tuple[int, int, int]]:
    """Edges whose two (distinct, interior) faces carry mutually inverse
    labels read from that edge: (edge index, face1, face2)."""
    records, slot_of_dart = diagram.face_records(), diagram.slot_of_dart
    out = []
    for ei, (d1, d2) in enumerate(diagram.edges):
        f1, s1 = slot_of_dart[d1]
        f2, s2 = slot_of_dart[d2]
        if f1 == f2:
            continue
        if f1 in diagram.exterior_faces or f2 in diagram.exterior_faces:
            continue
        if records[f1].read()[s1] == records[f2].ending_inv()[s2]:
            out.append((ei, f1, f2))
    return out


def is_reduced(diagram: Diagram) -> tuple[bool, list[tuple[int, int, int]]]:
    pairs = reducible_pairs(diagram)
    return (not pairs, pairs)


def digon_adjacencies(diagram: Diagram, pres: RelPresentation) -> list[tuple[int, int, int]]:
    """Edges shared by two distinct digon faces (forbidden when reduced
    diagrams are required to keep digons apart)."""
    digon = [classify_face(diagram, pres, fi).kind == "digon"
             for fi in range(len(diagram.face_darts))]
    out = []
    for ei, (d1, d2) in enumerate(diagram.edges):
        f1 = diagram.slot_of_dart[d1][0]
        f2 = diagram.slot_of_dart[d2][0]
        if f1 != f2 and digon[f1] and digon[f2]:
            out.append((ei, f1, f2))
    return out


def is_phi_reduced(diagram: Diagram, pres: RelPresentation
                   ) -> tuple[bool, list[tuple[int, int, int]]]:
    ok, pairs = is_reduced(diagram)
    adj = digon_adjacencies(diagram, pres)
    return (ok and not adj, pairs + adj)


def is_degenerate_digon(diagram: Diagram, pres: RelPresentation) -> bool:
    """One digon face whose two pre-edges are glued to each other, with
    two exterior vertices: the self-associated digon sphere."""
    if len(diagram.face_darts) != 1 or len(diagram.face_darts[0]) != 2:
        return False
    d1, d2 = diagram.face_darts[0]
    if diagram.pairing[d1] != d2:
        return False
    if len(diagram.vertices) != 2 or len(diagram.exterior_vertices) != 2:
        return False
    return classify_face(diagram, pres, 0).kind == "digon"
