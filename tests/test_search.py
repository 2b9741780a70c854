import itertools
import json
import math
import os
import random

import pytest

from relpres import search
from relpres.diagram import (Diagram, DiagramError, classify_label, is_degenerate_digon,
                             label_ending, label_from)
from relpres.freeprod import FreeProduct
from relpres.maps import vertex_cycles
from relpres.presentation import initial_rewrite, minimize
from relpres.search import (CornerLabels, EnumerationConfig, EnumerationResult, FaceTemplate,
                            LeafCheck, SearchBoundExceeded, TemplateRecord,
                            _balanced_combos, _balanced_multisets, _dart_layout,
                            _enumerate_multiset, _template_table,
                            brute_force_enumerate, curvature_audit, enumerate_diagrams,
                            face_templates)
from relpres.words import parse_word

from fixtures import Z3, degenerate_digon, mirror_large_pair, pres_s3, pres_z2, pres_z3

PRES = pres_z3(2)


def criterion_4_minimized_k3():
    """The minimized k = 3 presentation acceptance criterion 4 searches."""
    with open(os.path.join(os.path.dirname(__file__), "data", "rewrite_corpus.json"),
              encoding="utf-8") as fh:
        word = json.load(fh)["words"][0]
    return minimize(initial_rewrite(Z3, parse_word(word, FreeProduct(Z3, 0)), 3))


class TestTemplates:
    def test_relator_and_digons(self):
        cfg = EnumerationConfig(PRES, max_interior_faces=1, digon_syllables=1)
        tpls = face_templates(cfg)
        kinds = [t.kind for t in tpls]
        assert kinds.count("relator+") == 1 and kinds.count("relator-") == 1
        assert kinds.count("digon") == 2      # x and y in the bottom slice

    def test_digon_alphabet_respects_bound(self):
        # one copy level: the bottom slice is a single group copy
        assert len(PRES.digon_alphabet(1)) == 2
        assert len(PRES.digon_alphabet(2)) == 2

    def test_minimized_presentation_has_no_digons(self):
        p0 = minimize(PRES)
        assert p0.s == 0 and p0.digon_alphabet(2) == []


class TestEnumeration:
    def test_single_face_survivors_are_degenerate_digons(self):
        cfg = EnumerationConfig(PRES, max_interior_faces=1, digon_syllables=1)
        res = enumerate_diagrams(cfg)
        assert len(res.survivors) == 2
        for d in res.survivors.values():
            assert is_degenerate_digon(d, PRES)
        labels = sorted(tuple(sorted(str(d.vertex_label(v))
                                     for v in d.exterior_vertices))
                        for d in res.survivors.values())
        assert labels == [("x", "y@1"), ("x@1", "y")]

    def test_no_survivors_without_digon_alphabet(self):
        p0 = minimize(PRES)
        res = enumerate_diagrams(EnumerationConfig(p0, max_interior_faces=2,
                                                   digon_syllables=2))
        assert not res.survivors

    @pytest.mark.parametrize("k", [2, 3])
    def test_brute_force_agrees_at_two_faces(self, k):
        pres = pres_z3(k)
        cfg = EnumerationConfig(pres, max_interior_faces=2, digon_syllables=1)
        fast = enumerate_diagrams(cfg)
        slow = brute_force_enumerate(cfg)
        assert fast.canonical_forms() == slow.canonical_forms()
        assert fast.complete

    def test_three_faces_only_degenerate_digons(self):
        cfg = EnumerationConfig(PRES, max_interior_faces=3, digon_syllables=2)
        res = enumerate_diagrams(cfg)
        assert res.complete
        assert all(is_degenerate_digon(d, PRES) for d in res.survivors.values())
        assert len(res.survivors) == 2

    @pytest.mark.parametrize("pres,three,four,degenerate,matchings", [
        (pres_z3(2), 2, 5, 2, 262), (pres_s3(2), 5, 20, 5, 2341), (pres_z2(2), 1, 2, 1, 89)],
        ids=["z3", "s3", "z2"])
    def test_pinned_survivors_agree_with_brute_force(self, pres, three, four, degenerate,
                                                    matchings):
        # at three faces only degenerate digons survive; at four faces the
        # multisets relator+ relator- digon digon add spheres that are not
        # degenerate, and the weight rule does not apply to them
        for faces, survivors in ((3, three), (4, four)):
            cfg = EnumerationConfig(pres, max_interior_faces=faces, digon_syllables=2)
            fast = enumerate_diagrams(cfg)
            slow = brute_force_enumerate(cfg)
            assert fast.complete
            assert fast.canonical_forms() == slow.canonical_forms()
            assert len(fast.survivors) == survivors
            plain = [d for d in fast.survivors.values() if not is_degenerate_digon(d, pres)]
            if faces == 3:
                assert not plain
                continue
            assert len(plain) == four - degenerate
            assert slow.matchings_tried == matchings
            for d in plain:
                assert sorted(len(f) for f in d.faces) == [2, 2, 2, 2]
                audit = curvature_audit(d, pres)
                assert not audit.ok and audit.total is None
                assert [(e.kind, e.ok) for e in audit.entries] == [("weight-rule", False)]
                assert "two positive corners" in audit.entries[0].value

    def test_counts_per_multiset_recorded(self):
        cfg = EnumerationConfig(PRES, max_interior_faces=1, digon_syllables=1)
        res = enumerate_diagrams(cfg)
        assert sum(res.counts_per_multiset.values()) >= 2


class TestDedup:
    def test_relabeling_hits_same_canonical_form(self):
        d = degenerate_digon(PRES, PRES.ambient.from_name("x"))
        base = d.canonical_form()
        data = d.to_dict()
        for f in data["faces"]:
            for s in f["slots"]:
                s["dart"] += 11
        data["pairing"] = [[a + 11, b + 11] for a, b in data["pairing"]]
        data["edge_dir"] = {k: v + 11 for k, v in data["edge_dir"].items()}
        from relpres.diagram import Diagram
        assert Diagram.from_dict(data).canonical_form() == base


class TestAudit:
    def test_degenerate_digon_audit(self):
        d = degenerate_digon(PRES, PRES.ambient.from_name("x"))
        audit = curvature_audit(d, PRES)
        assert audit.ok and audit.total == "4"
        exterior = [e for e in audit.entries if e.kind == "exterior-vertex"]
        assert len(exterior) == 2 and all(e.value == "2" for e in exterior)

    def test_audit_requires_clean_diagram(self):
        d = mirror_large_pair(PRES)
        with pytest.raises(DiagramError):
            curvature_audit(d, PRES)

    def test_survivor_audits_total_four(self):
        cfg = EnumerationConfig(PRES, max_interior_faces=2, digon_syllables=1)
        res = enumerate_diagrams(cfg)
        for d in res.survivors.values():
            audit = curvature_audit(d, PRES)
            assert audit.ok and audit.total == "4"

    def test_no_special_digons_in_survivors(self):
        # the weight rule finds no special digons at this scale; all corners
        # at the poles belong to plain digons
        from relpres.diagram import curvature_weights
        cfg = EnumerationConfig(PRES, max_interior_faces=2, digon_syllables=1)
        res = enumerate_diagrams(cfg)
        for d in res.survivors.values():
            rule = curvature_weights(d, PRES)
            assert rule.special_digons == ()
            assert all(s.positive_special == 0 and s.negative_special == 0
                       for s in rule.vertex_stats)


def _multisets(pres, max_faces, digon_syllables):
    cfg = EnumerationConfig(pres, max_interior_faces=max_faces,
                            digon_syllables=digon_syllables)
    return list(_balanced_multisets(face_templates(cfg), max_faces))


def _layouts(pres, max_faces, digon_syllables):
    """The interned corner labels, and (template records, Slot lists, plus
    darts, minus darts) of every balanced multiset, in search order."""
    cfg = EnumerationConfig(pres, max_interior_faces=max_faces,
                            digon_syllables=digon_syllables)
    templates = face_templates(cfg)
    labels = CornerLabels(pres.ambient.factors)
    table = _template_table(templates, pres, labels)
    return labels, [([table[i] for i in combo], *_dart_layout([templates[i] for i in combo]))
                    for combo in _balanced_combos([rec.balance for rec in table], max_faces)]


class TestTemplateTable:
    @pytest.mark.parametrize("pres", [pres_z3(2), pres_s3(2), criterion_4_minimized_k3()],
                             ids=["z3", "s3", "z3-k3-min"])
    def test_offset_arrays_match_slot_layout(self, pres):
        # every array the search reads, built from the template records
        # laid end to end, against the same array read off the Slot lists
        amb = pres.ambient
        words = {}                 # id -> word, shared by every multiset
        labels, layouts = _layouts(pres, 3, 2)
        assert layouts
        assert labels.forms[0] == () and len(set(labels.forms)) == len(labels.forms)
        for records, faces, plus, minus in layouts:
            chains = CornerChains(records, labels.forms, pres.ambient)
            check = LeafCheck(records)
            darts = [slot.dart for face in faces for slot in face]
            assert darts == list(range(len(darts)))
            assert chains.prev_corner == [face[i - 1].dart for face in faces
                                          for i in range(len(face))]
            assert chains.label == [slot.corner.letters for face in faces for slot in face]
            assert chains.first == chains.last == darts and chains.open == len(darts)
            assert (check.plus, check.minus) == (plus, minus)
            assert check.face_of == [f for f, face in enumerate(faces) for _ in face]
            digon = []
            for face in faces:
                corners = [slot.corner for slot in face]
                senses = [1 if slot.dart in plus else -1 for slot in face]
                kind = classify_label(amb, pres, label_from(amb, corners, senses)).kind
                digon.append(kind == "digon")
                for s, slot in enumerate(face):
                    read = label_from(amb, corners, senses, s).free_reduce()
                    ending = label_ending(amb, corners, senses, s).free_reduce()
                    ending_inv = ending.inv().free_reduce()
                    assert words.setdefault(check.read[slot.dart], read) == read
                    assert words.setdefault(check.ending_inv[slot.dart],
                                            ending_inv) == ending_inv
            assert check.digon == digon
        assert len(set(words.values())) == len(words)      # one id per word


def _recount(faces, pairing):
    """From scratch: closed orbits, nontrivial closed labels, and each open
    chain as first corner -> (last corner, label)."""
    face_darts = [[slot.dart for slot in face] for face in faces]
    corner = {slot.dart: slot.corner for face in faces for slot in face}
    closed = vertex_cycles(face_darts, pairing)
    nontrivial = 0
    for orbit in closed:
        label = faces[0][0].corner.ambient.one()
        for d in orbit:
            label = label * corner[d]
        nontrivial += not label.is_identity()
    leaving = {d: darts[(i + 1) % len(darts)]
               for darts in face_darts for i, d in enumerate(darts)}
    chains = {}
    for start in corner:
        if start in pairing:            # some corner links into it
            continue
        c, label = start, corner[start]
        while leaving[c] in pairing:
            c = pairing[leaving[c]]
            label = label * corner[c]
        chains[start] = (c, label)
    return len(closed), nontrivial, chains


class CornerChains:
    """Reference for the flat walk's corner state: the vertex orbits of a
    partial gluing, kept up to date pair by pair with one method call and
    one undo tuple per link, on normal-form label tuples, each product
    normalized from the concatenated letters of both labels.

    Darts are numbered face by face from 0 (as in ``_dart_layout``), so
    corner ``c`` is the corner at the head of dart ``c``, and
    ``prev_corner[x]`` is the corner that dart ``x`` leaves; both start as
    the multiset's template records laid end to end, the label ids read
    as their ``forms``.  Gluing ``a`` to ``b`` adds the corner links
    ``prev_corner[a] -> b`` and ``prev_corner[b] -> a``.  Linked corners
    form open chains and closed cycles; each open chain keeps its ends in
    ``first``/``last`` (valid at the opposite end only) and the product
    of its corner labels at its first corner.  ``closed``, ``open`` and
    ``nontrivial`` (closed cycles with a nontrivial label) are the
    counters the prunes read; ``unglue`` undoes the last ``glue``.
    """

    def __init__(self, records: list[TemplateRecord], forms: list[tuple], ambient):
        self.prev_corner: list[int] = []
        self.label: list[tuple] = []
        offset = 0
        for rec in records:
            self.prev_corner += [offset + p for p in rec.prev]
            self.label += [forms[i] for i in rec.labels]
            offset += rec.darts
        self.first = list(range(offset))
        self.last = list(range(offset))
        self.closed = 0
        self.open = offset
        self.nontrivial = 0
        self._ambient = ambient
        self._undo: list[tuple] = []

    def _link(self, u: int, v: int) -> None:
        """Add the link from corner ``u`` (a chain's last) to ``v`` (a
        chain's first): close one chain or join two."""
        f = self.first[u]
        label = self.label
        if f == v:
            self.closed += 1
            self.open -= 1
            if label[v]:
                self.nontrivial += 1
            self._undo.append((v,))
            return
        w = self.last[v]
        self._undo.append((v, f, u, w, label[f]))
        self.last[f] = w
        self.first[w] = f
        label[f] = self._ambient.word(label[f] + label[v]).letters
        self.open -= 1

    def glue(self, a: int, b: int) -> None:
        self._link(self.prev_corner[a], b)
        self._link(self.prev_corner[b], a)

    def unglue(self) -> None:
        for _ in range(2):
            entry = self._undo.pop()
            if len(entry) == 1:
                v, = entry
                self.closed -= 1
                self.open += 1
                if self.label[v]:
                    self.nontrivial -= 1
            else:
                v, f, u, w, label = entry
                self.last[f] = u
                self.first[w] = v
                self.label[f] = label
                self.open += 1


def reference_walk(config, records, forms, result):
    """The pruned walk on ``CornerChains`` and a ``pairing`` dict, node for
    node the search of ``_enumerate_multiset``: the same survivors in the
    same insertion order, and the same counts added to ``result``."""
    pres = config.presentation
    chains = CornerChains(records, forms, pres.ambient)
    check = LeafCheck(records)
    plus, minus = check.plus, check.minus
    n = len(plus)
    spheres_need = n - len(records) + 2
    bound = config.max_matchings_per_multiset
    survivors = {}
    pairing = {}
    faces = None
    nodes = leaves = checked = labels_cut = euler_cut = 0

    def backtrack(i):
        nonlocal nodes, leaves, checked, labels_cut, euler_cut, faces
        if i == n:
            leaves += 1
            mate = [pairing[d] for d in range(2 * n)]
            if check.passes(chains.nontrivial, chains.closed, mate):
                checked += 1
                if faces is None:
                    faces = _dart_layout(check.multiset)[0]
                marked = search._marked_survivor(pres, faces, pairing, plus)
                if marked is not None:
                    survivors[marked.canonical_form()] = marked
            return True
        a = plus[i]
        for b in minus:
            if b in pairing:
                continue
            if nodes >= bound:
                return False
            nodes += 1
            pairing[a] = b
            pairing[b] = a
            chains.glue(a, b)
            ok = True
            if chains.nontrivial > 2:
                labels_cut += 1
            elif chains.closed + chains.open < spheres_need:
                euler_cut += 1
            else:
                ok = backtrack(i + 1)
            chains.unglue()
            del pairing[a], pairing[b]
            if not ok:
                return False
        return True

    complete = backtrack(0)
    result.matchings_tried += leaves
    result.checked += checked
    result.nodes += nodes
    result.prunes["labels"] += labels_cut
    result.prunes["euler"] += euler_cut
    return survivors, complete


def _pairing(plus, mate):
    """The pairing dict of a complete gluing, in the walk's insertion order."""
    pairing = {}
    for a in plus:
        pairing[a] = mate[a]
        pairing[mate[a]] = a
    return pairing


class TestFlatWalk:
    @pytest.mark.parametrize("bound", [2_000_000, 1, 37, 500])
    @pytest.mark.parametrize("pres,max_faces", [
        (pres_z3(2), 4), (pres_s3(2), 4), (pres_z2(2), 4), (minimize(pres_z3(2)), 3),
        (criterion_4_minimized_k3(), 3)], ids=["z3", "s3", "z2", "z3-min", "z3-k3-min"])
    def test_matches_reference_walk_per_multiset(self, pres, max_faces, bound, monkeypatch):
        cfg = EnumerationConfig(pres, max_interior_faces=max_faces, digon_syllables=2,
                                max_matchings_per_multiset=bound)
        real = LeafCheck.passes
        leaves = []

        def leaf(check, nontrivial, closed, mate):
            # the counters the walk hands over, against a recount from scratch
            faces = _dart_layout(check.multiset)[0]
            closed_now, nontrivial_now, open_chains = _recount(faces, _pairing(check.plus, mate))
            assert (nontrivial, closed) == (nontrivial_now, closed_now) and not open_chains
            leaves.append(closed)
            return real(check, nontrivial, closed, mate)

        monkeypatch.setattr(search.LeafCheck, "passes", leaf)
        labels, layouts = _layouts(pres, max_faces, 2)
        cut = False
        for records, _, _, _ in layouts:
            fast, slow = EnumerationResult(), EnumerationResult()
            fast_found, fast_complete = _enumerate_multiset(cfg, records, labels, fast)
            slow_found, slow_complete = reference_walk(cfg, records, labels.forms, slow)
            assert fast_complete == slow_complete
            assert ((fast.nodes, fast.matchings_tried, fast.checked, fast.prunes)
                    == (slow.nodes, slow.matchings_tried, slow.checked, slow.prunes))
            assert list(fast_found) == list(slow_found)
            assert ([d.to_dict() for d in fast_found.values()]
                    == [d.to_dict() for d in slow_found.values()])
            assert fast.nodes <= bound
            cut = cut or not fast_complete
        if bound == 1:
            assert cut
        elif bound == 2_000_000:
            assert leaves and not cut
        # every memoised product is the normal form of both forms' letters
        forms, amb = labels.forms, pres.ambient
        assert labels.products
        for (x, y), p in labels.products.items():
            assert x and y
            assert forms[p] == amb.word(forms[x] + forms[y]).letters


class TestCornerChains:
    @pytest.mark.parametrize("pres,max_faces", [(PRES, 3), (pres_z2(2), 3),
                                                (minimize(pres_z3(3)), 2)])
    def test_state_matches_recount_on_random_paths(self, pres, max_faces):
        rng = random.Random(max_faces * 31 + pres.k)
        labels, layouts = _layouts(pres, max_faces, 1)
        for records, faces, plus, minus in rng.sample(layouts, min(6, len(layouts))):
            chains = CornerChains(records, labels.forms, pres.ambient)
            pairing, glued = {}, []
            for _ in range(4 * len(plus)):
                if len(glued) < len(plus) and (not glued or rng.random() < 0.7):
                    a = plus[len(glued)]
                    b = rng.choice([d for d in minus if d not in pairing])
                    chains.glue(a, b)
                    pairing[a], pairing[b] = b, a
                    glued.append((a, b))
                else:
                    a, b = glued.pop()
                    chains.unglue()
                    del pairing[a], pairing[b]
                closed, nontrivial, open_chains = _recount(faces, pairing)
                assert (chains.closed, chains.nontrivial) == (closed, nontrivial)
                assert chains.open == len(open_chains)
                for first, (last, label) in open_chains.items():
                    assert chains.last[first] == last and chains.first[last] == first
                    assert chains.label[first] == label.letters


class TestPruneSoundness:
    @pytest.mark.parametrize("pres", [pres_z3(2), pres_z2(2), minimize(pres_z3(2))],
                             ids=["z3", "z2", "z3-minimized"])
    def test_every_two_pole_sphere_is_reached(self, pres, monkeypatch):
        cfg = EnumerationConfig(pres, max_interior_faces=3, digon_syllables=1)
        reached = set()
        passed = []
        real = search.LeafCheck.passes

        def leaf(check, nontrivial, closed, mate):
            faces = _dart_layout(check.multiset)[0]
            pairing = _pairing(check.plus, mate)
            reached.add((tuple(map(tuple, faces)), tuple(sorted(pairing.items()))))
            ok = real(check, nontrivial, closed, mate)
            survivor = search._marked_survivor(pres, faces, pairing, check.plus)
            assert ok == (survivor is not None)
            passed.append(ok)
            return ok

        monkeypatch.setattr(search.LeafCheck, "passes", leaf)
        fast = enumerate_diagrams(cfg)
        assert fast.complete and fast.matchings_tried == len(reached)
        assert fast.checked == sum(passed)
        spheres = 0
        for multiset in _balanced_multisets(face_templates(cfg), 3):
            faces, plus, minus = _dart_layout(multiset)
            for perm in itertools.permutations(minus):
                pairing = dict(zip(plus, perm))
                pairing.update(zip(perm, plus))
                d = Diagram(pres.ambient, faces, pairing, plus)
                if not d.is_connected() or d.chi != 2:
                    continue
                poles = sum(not d.vertex_label(v).is_identity()
                            for v in range(len(d.vertices)))
                if poles <= 2:
                    spheres += 1
                    assert (tuple(map(tuple, faces)),
                            tuple(sorted(pairing.items()))) in reached
        assert spheres > 0
        assert fast.canonical_forms() == brute_force_enumerate(cfg).canonical_forms()

    def test_both_prunes_fire(self):
        res = enumerate_diagrams(EnumerationConfig(minimize(PRES), max_interior_faces=3,
                                                   digon_syllables=1))
        assert res.prunes["labels"] > 0 and res.prunes["euler"] > 0
        assert res.nodes > res.matchings_tried


class TestLeafCheck:
    @pytest.mark.parametrize("pres,digon_syllables,max_faces", [
        (pres_z3(2), 1, 2), (pres_z2(2), 1, 2), (pres_z3(3), 2, 2), (pres_s3(2), 1, 2),
        (pres_z3(2), 1, 3), (pres_z3(3), 2, 3), (pres_s3(2), 1, 3),
        (minimize(pres_z3(2)), 1, 2), (minimize(pres_s3(2)), 1, 2)],
        ids=["z3", "z2", "z3-k3", "s3", "z3-3", "z3-k3-3", "s3-3", "z3-min", "s3-min"])
    def test_agrees_with_marked_survivor_on_every_gluing(self, pres, digon_syllables,
                                                        max_faces):
        outcomes = []
        labels, layouts = _layouts(pres, max_faces, digon_syllables)
        for records, faces, plus, minus in layouts:
            check = LeafCheck(records)
            for perm in itertools.permutations(minus):
                chains = CornerChains(records, labels.forms, pres.ambient)
                pairing = {}
                mate = [-1] * (2 * len(plus))
                for a, b in zip(plus, perm):
                    chains.glue(a, b)
                    pairing[a], pairing[b] = b, a
                    mate[a], mate[b] = b, a
                ok = check.passes(chains.nontrivial, chains.closed, mate)
                assert ok == (search._marked_survivor(pres, faces, pairing, plus) is not None)
                outcomes.append(ok)
        assert not all(outcomes)

    def test_disconnected_gluing_with_two_poles_fails(self):
        # a self-glued digon sphere (two nontrivial vertices) beside a
        # one-face torus whose one vertex is trivial: V - E + F = 2 and
        # every test before the component test passes.  No template
        # gluing has this shape, so the torus's record is hand-made.
        pres = PRES
        templates = face_templates(EnumerationConfig(pres, max_interior_faces=1))
        digon = next(i for i, t in enumerate(templates) if t.kind == "digon")
        one = pres.ambient.one()
        torus = TemplateRecord(
            template=FaceTemplate("torus", (1, 1, -1, -1), (one,) * 4), darts=4,
            prev=(3, 0, 1, 2), labels=(0,) * 4, plus=(0, 1), minus=(2, 3), balance=0,
            key="torus", kind="large", read=(100, 101, 102, 103),
            ending_inv=(200, 201, 202, 203))
        labels = CornerLabels(pres.ambient.factors)
        records = [_template_table(templates, pres, labels)[digon], torus]
        check = LeafCheck(records)
        faces, plus, _ = _dart_layout(check.multiset)
        assert [[slot.dart for slot in face] for face in faces] == [[0, 1], [2, 3, 4, 5]]
        assert plus == check.plus == [1, 2, 3]
        pairing = {1: 0, 0: 1, 2: 4, 4: 2, 3: 5, 5: 3}
        chains = CornerChains(records, labels.forms, pres.ambient)
        for a in plus:
            chains.glue(a, pairing[a])
        assert chains.nontrivial == 2
        assert chains.closed - len(plus) + len(faces) == 2
        mate = [pairing[d] for d in range(6)]
        assert not check.passes(chains.nontrivial, chains.closed, mate)
        assert search._marked_survivor(pres, faces, pairing, plus) is None


class TestBounds:
    def test_node_bound_stops_a_search_without_leaves(self):
        pres = minimize(PRES)
        cfg = EnumerationConfig(pres, max_interior_faces=3, digon_syllables=1)
        assert enumerate_diagrams(cfg).complete
        tiny = EnumerationConfig(pres, max_interior_faces=3, digon_syllables=1,
                                 max_matchings_per_multiset=3)
        res = enumerate_diagrams(tiny)
        assert not res.complete
        assert res.nodes <= 3 * len(res.counts_per_multiset)

    def test_brute_force_bound(self):
        cfg = EnumerationConfig(PRES, max_interior_faces=2, digon_syllables=1,
                                max_matchings_per_multiset=1)
        with pytest.raises(SearchBoundExceeded):
            brute_force_enumerate(cfg)

    def test_brute_force_bound_is_per_multiset(self):
        largest = max(math.factorial(len(_dart_layout(m)[1]))
                      for m in _multisets(PRES, 2, 1))
        cfg = EnumerationConfig(PRES, max_interior_faces=2, digon_syllables=1,
                                max_matchings_per_multiset=largest)
        res = brute_force_enumerate(cfg)
        assert res.matchings_tried > largest
