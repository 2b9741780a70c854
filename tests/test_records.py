"""Face records against fresh computation.

``Diagram.face_records`` keeps, per face content, the label, the reduced
labels ``reducible_pairs`` compares and the class, and a move's diagram
shares the records of the one it started from.  Here every class,
reducible pair and digon adjacency read through the records is compared
with the same value computed from scratch: ``classify_label`` of
``label_from`` and the per-edge formula ``reducible_pairs`` used before
records.
"""

from __future__ import annotations

import gc
import random
import weakref

from relpres import diagram as diagram_mod
from relpres.diagram import (Diagram, FaceClass, Slot, classify_face, classify_label,
                             digon_adjacencies, label_ending, label_from, reducible_pairs)
from relpres.moves import MoveTrace, reduce_to_chain, replay_trace
from relpres.words import word_str

from fixtures import S3, Z3, Z5, digon_chain, mirror_large_pair, pres_z3
from test_canonical import _connected_map, _move_fixtures

PRES = pres_z3(2)
X = PRES.ambient.from_name("x")


def _senses(d: Diagram, fi: int) -> list[int]:
    out = []
    for slot in d.faces[fi]:
        ei = d.edge_of_dart[slot.dart]
        out.append(0 if d.edge_label[ei] != "t" else 1 if d.arrow_of_edge[ei] == slot.dart else -1)
    return out


def _corners(d: Diagram, fi: int) -> list:
    return [slot.corner for slot in d.faces[fi]]


def fresh_class(d: Diagram, pres, fi: int) -> FaceClass:
    if fi in d.exterior_faces:
        return FaceClass("exterior")
    return classify_label(d.ambient, pres, label_from(d.ambient, _corners(d, fi), _senses(d, fi)))


def fresh_reducible_pairs(d: Diagram) -> list[tuple[int, int, int]]:
    out = []
    for ei, (d1, d2) in enumerate(d.edges):
        f1, s1 = d.slot_of_dart[d1]
        f2, s2 = d.slot_of_dart[d2]
        if f1 == f2 or f1 in d.exterior_faces or f2 in d.exterior_faces:
            continue
        a = label_from(d.ambient, _corners(d, f1), _senses(d, f1), s1).free_reduce()
        b_end = label_ending(d.ambient, _corners(d, f2), _senses(d, f2), s2).free_reduce()
        if a == b_end.inv().free_reduce():
            out.append((ei, f1, f2))
    return out


def fresh_digon_adjacencies(d: Diagram, pres) -> list[tuple[int, int, int]]:
    out = []
    for ei, (d1, d2) in enumerate(d.edges):
        f1, f2 = d.slot_of_dart[d1][0], d.slot_of_dart[d2][0]
        if (f1 != f2 and fresh_class(d, pres, f1).kind == "digon"
                and fresh_class(d, pres, f2).kind == "digon"):
            out.append((ei, f1, f2))
    return out


def check(d: Diagram, pres) -> None:
    for fi in range(len(d.faces)):
        assert classify_face(d, pres, fi) == fresh_class(d, pres, fi)
    assert reducible_pairs(d) == fresh_reducible_pairs(d)
    assert digon_adjacencies(d, pres) == fresh_digon_adjacencies(d, pres)


def _lineage(d: Diagram, pres) -> list[Diagram]:
    """Every diagram of the reduction of ``d`` and of the replays of each
    prefix of its trace."""
    chain, trace = reduce_to_chain(d, pres)
    out = [d, *chain.diagrams]
    for n in range(1, len(trace.entries) + 1):
        out += replay_trace(d, pres, MoveTrace(trace.entries[:n])).diagrams
    return out


class TestAgainstFresh:
    def test_move_fixture_lineages(self):
        checked = 0
        for d, pres in _move_fixtures():
            for x in _lineage(d, pres):
                check(x, pres)
                assert x.face_memo is d.face_memo
                checked += 1
        assert checked > 40

    def test_digon_chain_32(self, monkeypatch):
        classified = []

        def counted(ambient, pres, label):
            classified.append(word_str(label))
            return classify_label(ambient, pres, label)

        monkeypatch.setattr(diagram_mod, "classify_label", counted)
        d = digon_chain(PRES, [X] * 32)
        diagrams = _lineage(d, PRES)
        monkeypatch.undo()
        # across the reduction and every replay, each face is classified once
        assert len(classified) == len(set(classified)) >= 3
        assert len(diagrams) > 20
        for x in diagrams:
            check(x, PRES)

    def test_random_connected_maps(self):
        for group in (Z3, Z5, S3):
            rng = random.Random(f"records-{group.order}")
            for faces in (12, 16, 24):
                d = _connected_map(rng, group, faces)
                assert reducible_pairs(d) == fresh_reducible_pairs(d)
        # classes need the presentation's ambient: move Z3 maps into it
        rng = random.Random("records-classes")
        for faces in (12, 16, 24):
            m = _connected_map(rng, Z3, faces)
            d = Diagram(PRES.ambient,
                        [[Slot(s.dart, PRES.ambient.word(s.corner.letters))
                          for s in face] for face in m.faces],
                        m.pairing, m.arrow_of_edge.values(),
                        {frozenset(m.edges[ei]): lab for ei, lab in m.edge_label.items()},
                        m.exterior_faces, [m.vertices[v][0] for v in m.exterior_vertices])
            check(d, PRES)


class TestMemo:
    def test_class_follows_the_presentation_object(self):
        d = mirror_large_pair(pres_z3(2))
        p2, p3 = pres_z3(2), pres_z3(3)
        for pres in (p2, p3, p2, pres_z3(2), p3):
            got = [classify_face(d, pres, fi).kind for fi in range(len(d.faces))]
            assert got == [fresh_class(d, pres, fi).kind for fi in range(len(d.faces))]
            assert got == (["large", "large"] if pres.k == 2 else ["invalid", "invalid"])

    def test_round_trip_starts_empty(self):
        d = digon_chain(PRES, [X] * 4)
        check(d, PRES)
        assert d.face_memo
        again = Diagram.from_dict(d.to_dict())
        assert again.face_memo == {} and again.face_memo is not d.face_memo

    def test_records_are_freed_with_their_diagrams(self):
        d = digon_chain(PRES, [X] * 6)
        chain, _trace = reduce_to_chain(d, PRES)
        refs = [weakref.ref(x) for x in (d, *chain.diagrams)]
        del d, chain, _trace
        gc.collect()
        assert all(ref() is None for ref in refs)
