"""``Diagram.canonical_form`` against an exhaustive reference.

``slow_canonical_form`` serializes the document of every (face, rotation)
seed with ``json.dumps`` and takes the least string; the library narrows
the seeds key by key and serializes only the winner.  The two must agree
byte for byte, since trace hashes and survivor keys are built from it.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from relpres import diagram as diagram_mod
from relpres.diagram import Diagram, DiagramError, Slot
from relpres.freeprod import FreeProduct
from relpres.moves import MoveTrace, reduce_to_chain, replay_trace, thicken
from relpres.presentation import minimize
from relpres.search import EnumerationConfig, brute_force_enumerate, enumerate_diagrams

from fixtures import (S3, Z3, Z5, degenerate_digon, digon_chain, disjoint_digons, dumbbell,
                      genus_gluing, loop_split_sphere, looped_pinch_pair, mirror_large_pair,
                      path_sphere, pinch_pair, pres_s3, pres_z3, random_closed_map,
                      square_torus, theta_digons, tripod)

PRES = pres_z3(2)
X = PRES.ambient.from_name("x")
Y = PRES.ambient.from_name("y")


def slow_canonical_form(d: Diagram) -> str:
    """Least ``json.dumps`` over the documents of every seed."""
    if not d.faces:
        return '"empty"'
    if len(d.components()) > 1:
        raise DiagramError("canonical form of a disconnected diagram")
    return min(_seed_document(d, f0, r0)
               for f0 in range(len(d.faces)) for r0 in range(len(d.faces[f0])))


def _seed_document(d: Diagram, f0: int, r0: int) -> str:
    dart_id: dict[int, int] = {}
    face_order: list[tuple[int, int]] = []
    queued = {f0}
    queue = [(f0, r0)]
    while queue:
        fi, rot = queue.pop(0)
        face_order.append((fi, rot))
        face = d.faces[fi]
        for off in range(len(face)):
            dart = face[(rot + off) % len(face)].dart
            if dart not in dart_id:
                dart_id[dart] = len(dart_id)
        for off in range(len(face)):
            pf, ps = d.slot_of_dart[d.pairing[face[(rot + off) % len(face)].dart]]
            if pf not in queued:
                queued.add(pf)
                queue.append((pf, ps))
    faces_out = []
    ext_faces = []
    for new_fi, (fi, rot) in enumerate(face_order):
        face = d.faces[fi]
        faces_out.append([
            {"d": dart_id[face[(rot + off) % len(face)].dart],
             "c": str(face[(rot + off) % len(face)].corner)}
            for off in range(len(face))])
        if fi in d.exterior_faces:
            ext_faces.append(new_fi)
    pairing = sorted(sorted((dart_id[a], dart_id[b])) for a, b in d.edges)
    arrows = sorted(dart_id[d.arrow_of_edge[ei]] for ei in range(len(d.edges)))
    labels = sorted((min(dart_id[x] for x in d.edges[ei]), lab)
                    for ei, lab in d.edge_label.items() if lab != "t")
    ext_vertices = sorted(
        sorted(dart_id[x] for x in d.vertices[v])
        for v in d.exterior_vertices)
    doc = {"f": faces_out, "p": pairing, "a": arrows, "l": labels,
           "xf": sorted(ext_faces), "xv": ext_vertices}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _digest(form: str) -> str:
    """The trace hash of a canonical form."""
    return hashlib.sha256(form.encode()).hexdigest()[:16]


def _move_fixtures():
    """Spheres built from the fixtures ``tests/test_moves.py`` moves, each
    of which ``reduce_to_chain`` takes to a chain.  (The thickened tripod
    is not one: its pulls would drop the exterior face, which the driver
    refuses.)"""
    p3 = pres_z3(3)
    return [(degenerate_digon(PRES, X), PRES), (mirror_large_pair(PRES), PRES),
           (mirror_large_pair(p3), p3), (loop_split_sphere(PRES, X), PRES),
           (loop_split_sphere(PRES, Y), PRES), (thicken(dumbbell(PRES, Y, X, [Y, X])), PRES),
           (thicken(dumbbell(PRES, X, Y, [X])), PRES),
           (thicken(dumbbell(PRES, X, Y, [X, Y, X])), PRES),
           (theta_digons(PRES, X, Y), PRES), (digon_chain(PRES, [X, Y, X]), PRES),
           (pinch_pair(PRES, X, Y), PRES), (path_sphere(Z3, 1, [X, Y], 3), PRES)]


class TestTableCopy:
    """``Diagram.from_tables`` of an unedited ``tables()`` copy, the
    conversion every move goes through, gives back the same diagram."""

    @staticmethod
    def _same(d: Diagram) -> None:
        again = Diagram.from_tables(d.tables())
        assert again.to_dict() == d.to_dict()
        assert again.exterior_vertices == d.exterior_vertices
        assert again.face_memo is d.face_memo
        if d.is_connected():
            assert again.canonical_form() == d.canonical_form()

    def test_fixture_diagrams(self):
        rng = random.Random(11)
        diagrams = [d for d, _ in _move_fixtures()] + [
            tripod(Z3, 1), thicken(tripod(Z3, 1)), looped_pinch_pair(PRES, X, Y),
            looped_pinch_pair(PRES, X, Y, balloon=True), disjoint_digons(PRES, X, Y),
            square_torus(Z3), genus_gluing(Z3, 4, 1), random_closed_map(rng, Z3, 6),
            _connected_map(rng, Z5, 12)]
        for d in diagrams:
            self._same(d)

    def test_reduction_diagrams(self):
        checked = 0
        for d, pres in _move_fixtures():
            chain, trace = reduce_to_chain(d, pres)
            for n in range(1, len(trace.entries) + 1):
                for x in replay_trace(d, pres, MoveTrace(trace.entries[:n])).diagrams:
                    self._same(x)
                    checked += 1
        assert checked > 20

    def test_the_copy_is_independent(self):
        d = thicken(dumbbell(PRES, X, Y, [X]))
        before = d.to_dict()
        t = d.tables()
        t.face_darts[0].reverse()
        t.head_corner.clear()
        t.pairing.clear()
        for table in (t.arrow_darts, t.identity_darts, t.marked_darts, t.exterior_faces):
            table.clear()
        assert d.to_dict() == before


def _connected_map(rng: random.Random, group, faces: int) -> Diagram:
    """Random connected closed map with identity edges, exterior faces and
    exterior vertices, darts named at random and slot lists rotated."""
    amb = FreeProduct(group, 0)
    sizes = [rng.randint(2, 5) for _ in range(faces)]
    if sum(sizes) % 2:
        sizes[0] += 1
    total = sum(sizes)
    names = rng.sample(range(10 * total), total)
    local = [list(range(sum(sizes[:f]), sum(sizes[:f + 1]))) for f in range(faces)]
    free = [rng.sample(ds, len(ds)) for ds in local]
    pairs = []
    for f in range(1, faces):
        g = rng.choice([g for g in range(f) if free[g]])
        pairs.append((free[f].pop(), free[g].pop()))
    rest = [d for ds in free for d in ds]
    rng.shuffle(rest)
    pairs += list(zip(rest[::2], rest[1::2]))
    pairing = {}
    for a, b in pairs:
        pairing[names[a]], pairing[names[b]] = names[b], names[a]
    face_list = []
    for ds in local:
        r = rng.randrange(len(ds))
        face_list.append([Slot(names[d], amb.word([(0, rng.randrange(group.order))])
                               if rng.random() < 0.7 else amb.one())
                          for d in ds[r:] + ds[:r]])
    rng.shuffle(face_list)
    arrows = [rng.choice((names[a], names[b])) for a, b in pairs]
    labels = {frozenset((names[a], names[b])): "1" for a, b in pairs if rng.random() < 0.2}
    ext_faces = rng.sample(range(faces), rng.randint(0, 2))
    seeds = [(f, rng.randrange(len(face_list[f]))) for f in rng.sample(range(faces), 2)]
    return Diagram(amb, face_list, pairing, arrows, labels, ext_faces, seeds)


def _relabeled(d: Diagram, rng: random.Random) -> Diagram:
    """``d`` with darts renamed, faces reordered and slot lists rotated."""
    darts = sorted(d.pairing)
    perm = dict(zip(darts, rng.sample(range(1000), len(darts))))
    order = rng.sample(range(len(d.faces)), len(d.faces))
    rots = [rng.randrange(len(f)) for f in d.faces]
    faces = [[Slot(perm[s.dart], s.corner) for s in d.faces[f][rots[f]:] + d.faces[f][:rots[f]]]
             for f in order]
    where = {f: i for i, f in enumerate(order)}
    seeds = [(where[fi], (si - rots[fi]) % len(d.faces[fi]))
             for fi, si in (d.slot_of_dart[d.vertices[v][0]] for v in d.exterior_vertices)]
    labels = {frozenset(perm[x] for x in d.edges[ei]): lab
              for ei, lab in d.edge_label.items() if lab != "t"}
    return Diagram(d.ambient, faces, {perm[a]: perm[b] for a, b in d.pairing.items()},
                   [perm[d.arrow_of_edge[ei]] for ei in range(len(d.edges))], labels,
                   [where[f] for f in d.exterior_faces], seeds)


class TestAgainstReference:
    def test_reduction_chains_and_trace_steps(self):
        checked = 0
        for d, pres in _move_fixtures():
            chain, trace = reduce_to_chain(d, pres)
            for x in chain.diagrams:
                assert x.canonical_form() == slow_canonical_form(x)
            # the chain after each step, rebuilt from the trace's prefixes
            for n in range(len(trace.entries) + 1):
                step = replay_trace(d, pres, MoveTrace(trace.entries[:n])).diagrams
                slow = {_digest(slow_canonical_form(x)) for x in step}
                if n:
                    assert set(trace.entries[n - 1].after) <= slow
                if n < len(trace.entries):
                    assert trace.entries[n].before in slow
                for x in step:
                    assert x.canonical_form() == slow_canonical_form(x)
                    checked += 1
        assert checked > 30

    def test_tie_heavy_digon_chain(self):
        # half of the seeds of a digon chain tie on "a", so the later keys
        # narrow many seeds
        d = digon_chain(PRES, [X] * 32)
        labeller = diagram_mod._CanonicalLabeller(d)
        texts = [labeller.traverse(f0, r0, None)[2]
                 for f0, rings in enumerate(labeller.rings) for r0 in range(len(rings))]
        assert 2 * texts.count(min(texts)) == len(texts)
        chain, trace = reduce_to_chain(d, PRES)
        seen = set()
        for n in range(len(trace.entries) + 1):
            for x in replay_trace(d, PRES, MoveTrace(trace.entries[:n])).diagrams:
                slow = slow_canonical_form(x)
                assert x.canonical_form() == slow
                seen.add(_digest(slow))
        assert {e.before for e in trace.entries} | {h for e in trace.entries
                                                    for h in e.after} == seen
        assert {_digest(slow_canonical_form(x)) for x in chain.diagrams} <= seen

    @pytest.mark.parametrize("pres", [pres_z3(2), pres_z3(3), pres_s3(2), minimize(pres_z3(2))],
                             ids=["z3", "z3-k3", "s3", "z3-min"])
    def test_search_survivors_at_three_faces(self, pres):
        cfg = EnumerationConfig(pres, max_interior_faces=3, digon_syllables=1)
        res = enumerate_diagrams(cfg)
        for form, d in res.survivors.items():
            assert form == d.canonical_form() == slow_canonical_form(d)
        two = EnumerationConfig(pres, max_interior_faces=2, digon_syllables=1)
        for d in brute_force_enumerate(two).survivors.values():
            assert d.canonical_form() == slow_canonical_form(d)

    @pytest.mark.parametrize("group", [Z3, Z5, S3], ids=["z3", "z5", "s3"])
    def test_relabeled_closed_maps(self, group):
        rng = random.Random(f"canonical-{group.order}")
        for faces in (12, 14, 16, 20, 24, 32):
            d = _connected_map(rng, group, faces)
            form = d.canonical_form()
            assert form == slow_canonical_form(d)
            assert '"d":10' in form
            for _ in range(2):
                again = _relabeled(d, rng)
                assert again.canonical_form() == form == slow_canonical_form(again)

    def test_disconnected_and_empty(self):
        amb = PRES.ambient
        two = Diagram(amb, [[Slot(0, X), Slot(1, X.inv())], [Slot(2, X), Slot(3, X.inv())]],
                      {0: 1, 1: 0, 2: 3, 3: 2}, [0, 2])
        for form in (slow_canonical_form, Diagram.canonical_form):
            with pytest.raises(DiagramError):
                form(two)
        assert Diagram(amb, [], {}, []).canonical_form() == '"empty"'


class TestNarrow:
    def test_least_text_and_every_seed_that_gives_it(self):
        # short pieces over two letters: many ties, and many texts that are
        # prefixes of others
        rng = random.Random(3)
        for _ in range(500):
            pieces = [["".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                       for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 8))]
            seeds = [(i,) for i in range(len(pieces))]
            least, kept = diagram_mod._CanonicalLabeller.narrow(lambda i: pieces[i], seeds)
            texts = ["".join(p) for p in pieces]
            assert least == min(texts)
            assert kept == [(i,) for i, text in enumerate(texts) if text == least]


class TestMemo:
    def test_traverses_once_per_instance(self, monkeypatch):
        d = thicken(dumbbell(PRES, X, Y, [X, Y]))
        calls = []
        traverse = diagram_mod._CanonicalLabeller.traverse

        def counted(self, f0, r0, best):
            calls.append((f0, r0))
            return traverse(self, f0, r0, best)

        monkeypatch.setattr(diagram_mod._CanonicalLabeller, "traverse", counted)
        first = d.canonical_form()
        # one walk per seed whose first slot is an arrow dart
        walked = len(calls)
        assert walked == len(d.edges)
        assert d.canonical_form() is first
        assert len(calls) == walked

    def test_round_trip_gives_the_same_string(self):
        rng = random.Random(5)
        for d in (thicken(dumbbell(PRES, X, Y, [X])), loop_split_sphere(PRES, X),
                  _connected_map(rng, Z5, 12)):
            form = d.canonical_form()
            assert Diagram.from_dict(d.to_dict()).canonical_form() == form
            assert Diagram.from_dict(json.loads(json.dumps(d.to_dict()))).canonical_form() == form
