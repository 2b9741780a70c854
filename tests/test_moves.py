import dataclasses

import pytest

from relpres.diagram import (Diagram, DiagramError, Slot, classify_face, reducible_pairs,
                             validate_howie)
from relpres.freeprod import FreeProduct, conjugate_in_free_product
from relpres.moves import (MoveError, MoveTrace, ReductionBoundExceeded,
                           fill_hole, glue_cyclic_copies, merge_digons, merge_faces_along,
                           pull_identity_edge, reduce_to_chain, replay_trace, thicken)
from fixtures import (Z3, degenerate_digon, digon_chain, disjoint_digons, dumbbell,
                      looped_pinch_pair,
                      loop_split_sphere, mirror_large_pair, path_sphere,
                      pinch_pair, pres_z2, pres_z3, theta_digons, tripod)

PRES = pres_z3(2)
AMB = PRES.ambient
X = AMB.from_name("x")
Y = AMB.from_name("y")


def ext_label(d):
    faces = sorted(d.exterior_faces)
    assert len(faces) == 1
    return d.face_label(faces[0]).free_reduce()


class TestMergeDigons:
    def test_product_digon(self):
        th = theta_digons(PRES, X, X)
        ei = th.edge_of_dart[2]
        out, word, fi = merge_digons(th, PRES, ei)
        assert str(word) == "y"
        assert len(out.faces) == len(th.faces) - 1
        assert validate_howie(out, PRES).ok
        assert classify_face(out, PRES, fi).kind == "digon"

    def test_cancelling_digons(self):
        th = theta_digons(PRES, X, Y)
        out, word, fi = merge_digons(th, PRES, th.edge_of_dart[2])
        assert word.is_identity()
        assert classify_face(out, PRES, fi).kind == "null"

    def test_exterior_labels_untouched(self):
        th = theta_digons(PRES, X, X)
        before = {fi: th.face_label(fi).free_reduce() for fi in th.exterior_faces}
        out, _, _ = merge_digons(th, PRES, th.edge_of_dart[2])
        for fi in out.exterior_faces:
            assert out.face_label(fi).free_reduce() in before.values()

    def test_requires_digons(self):
        d = mirror_large_pair(PRES)
        with pytest.raises(MoveError):
            merge_digons(d, PRES, 0)

    def test_chain_folds_to_ordered_product(self):
        words = [X, X, X, X, X]
        d = digon_chain(PRES, words)
        pres = PRES
        # merge repeatedly at the digon-digon adjacency with the lowest edge
        from relpres.diagram import digon_adjacencies
        while True:
            adj = digon_adjacencies(d, pres)
            if not adj:
                break
            ei, _, _ = min(adj, key=lambda r: d.edges[r[0]])
            d, word, fi = merge_digons(d, pres, ei)
        digons = [classify_face(d, pres, fi) for fi in range(len(d.faces))
                  if classify_face(d, pres, fi).kind == "digon"]
        assert len(digons) == 1
        folded = AMB.one()
        for w in words:
            folded = folded * w
        assert digons[0].digon_word == folded


@pytest.mark.parametrize("make, dart", [
    (lambda: Diagram(AMB, [[Slot(0, X)], [Slot(1, Y)]], {0: 1, 1: 0}, [0]), 0),
    (lambda: looped_pinch_pair(PRES, X, Y), 8)], ids=["two-monogons", "monogon-and-face"])
def test_merge_faces_along_refuses_a_monogon(make, dart):
    d = make()
    before = d.to_dict()
    with pytest.raises(MoveError, match="monogon"):
        merge_faces_along(d, dart)
    assert d.to_dict() == before


class TestFillHole:
    @pytest.mark.parametrize("k", [2, 3])
    def test_mirror_pair_fills_with_trivial_cells(self, k):
        pres = pres_z3(k)
        d = mirror_large_pair(pres)
        pairs = reducible_pairs(d)
        assert pairs
        out = fill_hole(d, pres, pairs[0][0])
        rep = validate_howie(out, pres)
        assert rep.ok
        kinds = [fc.kind for fc in rep.face_classes]
        assert kinds.count("large") == 0
        assert all(kind in ("null", "exterior") for kind in kinds)

    def test_rejects_non_reducible_edge(self):
        th = theta_digons(PRES, X, X)
        with pytest.raises(MoveError):
            fill_hole(th, PRES, th.edge_of_dart[2])

    def test_rejects_digon_pairs(self):
        th = theta_digons(PRES, X, Y)
        ei = [p for p in reducible_pairs(th)][0][0]
        with pytest.raises(MoveError):
            fill_hole(th, PRES, ei)


class TestThicken:
    def test_no_marked_graph_is_identity(self):
        # a lone digon disk: no doubly-exterior edges, no multi-visits
        amb = AMB
        d = Diagram(amb, [[Slot(0, X.shift(1).inv()), Slot(2, X)],
                          [Slot(1, amb.one()), Slot(3, X.inv())]],
                    {0: 1, 1: 0, 2: 3, 3: 2}, [0, 3], exterior_faces=[1],
                    exterior_vertex_seeds=[(0, 0)])
        out = thicken(d)
        assert out.canonical_form() == d.canonical_form()

    def test_two_edge_path_grows_four_cells(self):
        db = dumbbell(PRES, X, Y, [X])
        out = thicken(db)
        assert len(out.faces) == len(db.faces) + 4
        rep = validate_howie(out, PRES)
        assert rep.ok
        assert sum(1 for fc in rep.face_classes if fc.kind == "null") == 4

    def test_exterior_label_and_vertices_preserved(self):
        db = dumbbell(PRES, X, Y, [X, Y])
        out = thicken(db)
        assert ext_label(out) == ext_label(db)
        assert len(out.exterior_vertices) == len(db.exterior_vertices)

    def test_branch_point_polygon(self):
        tp = tripod(Z3, 1, X)
        out = thicken(tp)
        rep = validate_howie(out, PRES)
        assert rep.ok
        # 3 ring cells + 3 legs of one strip cell pair each
        assert len(out.faces) == 1 + 9
        assert ext_label(out) == ext_label(tp)

    def test_bare_path(self):
        ps = path_sphere(Z3, 1, [X], 2)
        out = thicken(ps)
        assert validate_howie(out, PRES).ok
        assert ext_label(out) == ext_label(ps)
        assert len(out.faces) == 1 + 4

    def test_pinch_point_splits(self):
        pp = pinch_pair(PRES, X, Y)
        out = thicken(pp)
        assert validate_howie(out, PRES).ok
        assert ext_label(out) == ext_label(pp)
        ids = [ei for ei in range(len(out.edges)) if out.edge_label[ei] == "1"]
        assert len(ids) == 1

    def test_needs_one_exterior_face(self):
        d = degenerate_digon(PRES, X)
        with pytest.raises(MoveError):
            thicken(d)

    def test_marked_cycle_rejected(self):
        # one-face torus with the face marked exterior: both edges are
        # doubly-exterior loops, so the marked graph has cycles
        from fixtures import square_torus
        from relpres.diagram import Diagram
        base = square_torus(Z3)
        data = base.to_dict()
        data["exterior"]["faces"] = [0]
        d = Diagram.from_dict(data)
        with pytest.raises(MoveError):
            thicken(d)


class TestPull:
    def test_contract_restores_pinch(self):
        pp = pinch_pair(PRES, X, Y)
        t = thicken(pp)
        ei = next(e for e in range(len(t.edges)) if t.edge_label[e] == "1")
        res = pull_identity_edge(t, ei)
        assert res.kind == "contracted"
        out = res.diagrams[0]
        assert validate_howie(out, PRES).ok
        assert out.canonical_form() == pp.canonical_form()

    def test_cap_pull_collapses_cells(self):
        db = dumbbell(PRES, X, Y, [X])
        t = thicken(db)
        ids = [e for e in range(len(t.edges)) if t.edge_label[e] == "1"]
        res = pull_identity_edge(t, ids[0])
        assert res.kind == "contracted"
        # the end cell becomes an edge: exactly one face disappears
        assert len(res.diagrams[0].faces) == len(t.faces) - 1

    def test_contraction_keeps_the_mark_of_a_lone_corner(self):
        # a path of two edges walked by one face; the identity edge ends at
        # the tip, a marked vertex with one corner, which only the folded
        # corner carries on; the bigon left is glued to itself and marked,
        # so it must not collapse
        one = AMB.one()
        d = Diagram(AMB, [[Slot(0, one), Slot(1, one), Slot(2, one), Slot(3, one)]],
                    {0: 3, 3: 0, 1: 2, 2: 1}, [0, 1], {(1, 2): "1"}, exterior_faces=[0],
                    exterior_vertex_seeds=[(0, 1)])
        res = pull_identity_edge(d, d.edge_of_dart[1])
        (out,) = res.diagrams
        assert res.kind == "contracted" and out.face_darts == ((0, 3),)
        assert [out.vertices[v] for v in out.exterior_vertices] == [((0, 0),)]

    def test_loop_split(self):
        d = loop_split_sphere(PRES, X)
        ei = next(e for e in range(len(d.edges)) if d.edge_label[e] == "1")
        res = pull_identity_edge(d, ei)
        assert res.kind == "split"
        assert len(res.diagrams) == 2
        a, b = res.pinch_labels
        assert not a.is_identity()
        assert conjugate_in_free_product(a, b.inv())
        for piece in res.diagrams:
            assert len(piece.exterior_vertices) == 2
            assert validate_howie(piece, PRES).ok

    def test_non_identity_edge_rejected(self):
        d = degenerate_digon(PRES, X)
        with pytest.raises(MoveError):
            pull_identity_edge(d, 0)

    @pytest.mark.parametrize("balloon, kind", [(False, "contracted"), (True, "discarded")],
                             ids=["monogon", "unmarked-sphere"])
    def test_loop_at_the_pinch_leaves_the_pinch_pair(self, balloon, kind):
        d = looped_pinch_pair(PRES, X, Y, balloon)
        assert d.chi == 2 and validate_howie(d, PRES).ok
        res = pull_identity_edge(d, d.edge_of_dart[8])
        assert res.kind == kind
        assert [x.canonical_form() for x in res.diagrams] == \
               [pinch_pair(PRES, X, Y).canonical_form()]
        assert all(label.is_identity() for label in res.pinch_labels)

    def test_loop_with_one_face_on_both_sides_does_not_separate(self):
        # on a torus an identity loop can have the same face on both sides
        amb = FreeProduct(Z3, 0)
        d = Diagram(amb, [[Slot(i, amb.one()) for i in range(4)]],
                    {0: 2, 2: 0, 1: 3, 3: 1}, [0, 1], edge_labels={frozenset((0, 2)): "1"})
        assert d.chi == 0
        with pytest.raises(MoveError, match="separate"):
            pull_identity_edge(d, d.edge_of_dart[0])


class TestReduceToChain:
    def test_already_clean(self):
        d = degenerate_digon(PRES, X)
        chain, trace = reduce_to_chain(d, PRES)
        assert len(chain.diagrams) == 1 and not trace.entries

    def test_step_bound_is_typed(self):
        with pytest.raises(ReductionBoundExceeded):
            reduce_to_chain(mirror_large_pair(PRES), PRES, step_factor=0)

    def test_spurious_mirror_pair_cancels_completely(self):
        pres = pres_z3(2)
        d = mirror_large_pair(pres)
        chain, trace = reduce_to_chain(d, pres)
        assert any(e.move == "fill_hole" for e in trace.entries)
        assert [len(dd.faces) for dd in chain.diagrams] == [0]

    def test_mirror_pair_k3_reduces_clean(self):
        pres = pres_z3(3)
        d = mirror_large_pair(pres)
        chain, trace = reduce_to_chain(d, pres)
        assert any(e.move == "fill_hole" for e in trace.entries)
        for dd in chain.diagrams:
            rep = validate_howie(dd, pres, allow_null_faces=False)
            assert rep.ok
            assert all(fc.kind != "large" for fc in rep.face_classes)

    def test_split_chain_links(self):
        d = loop_split_sphere(PRES, X)
        chain, trace = reduce_to_chain(d, PRES)
        assert len(chain.diagrams) == 2
        assert chain.links_conjugate()
        assert any(e.move == "pull_split" for e in trace.entries)

    def test_thickened_dumbbell_roundtrip(self):
        db = dumbbell(PRES, X, Y, [X])
        t = thicken(db)
        chain, trace = reduce_to_chain(t, PRES)
        assert len(chain.diagrams) == 1
        out = chain.diagrams[0]
        assert out.canonical_form() == db.canonical_form()

    def test_last_identity_edge_of_a_lone_face_is_dropped(self):
        # one bigon glued to itself by an identity edge, trivial corners:
        # contracting it leaves an edgeless sphere with trivial label
        amb = PRES.ambient
        d = Diagram(amb, [[Slot(0, amb.one()), Slot(1, amb.one())]], {0: 1, 1: 0}, [0],
                    edge_labels={frozenset((0, 1)): "1"})
        res = pull_identity_edge(d, 0)
        assert res.kind == "discarded"
        assert [len(x.faces) for x in res.diagrams] == [0]

    def test_pull_that_drops_the_exterior_face_is_refused(self):
        # the thickened tripod has an exterior face and no exterior vertex;
        # its pulls would discard the exterior face and leave one empty
        # diagram, so the driver refuses it instead
        d = thicken(tripod(Z3, 1, X))
        assert len(d.exterior_faces) == 1 and not d.exterior_vertices
        with pytest.raises(MoveError, match="exterior face"):
            reduce_to_chain(d, PRES)

    def test_non_reduced_result_is_a_move_error(self, monkeypatch):
        from relpres import moves
        monkeypatch.setattr(moves, "is_phi_reduced", lambda d, pres: (False, "witness"))
        with pytest.raises(MoveError, match="non-reduced diagram: witness"):
            reduce_to_chain(degenerate_digon(PRES, X), PRES)

    def test_edgeless_sphere_with_label_is_refused(self):
        amb = PRES.ambient
        d = Diagram(amb, [[Slot(0, X), Slot(1, amb.one())]], {0: 1, 1: 0}, [0],
                    edge_labels={frozenset((0, 1)): "1"})
        with pytest.raises(MoveError):
            pull_identity_edge(d, 0)

    def test_step_bound_respected(self):
        db = dumbbell(PRES, X, Y, [X, Y, X])
        t = thicken(db)
        bound = 8 * (len(t.faces) + len(t.edges) + 2)
        chain, trace = reduce_to_chain(t, PRES)
        assert len(trace.entries) <= bound

    @pytest.mark.parametrize("tamper", [
        {"before": "0" * 16}, {"edge_darts": (0, 999)}, {"edge_darts": None},
        {"move": "collapse_bigon", "edge_darts": (0, 999)}],
        ids=["unknown-before", "not-an-edge", "no-edge", "not-a-bigon"])
    def test_tampered_trace_is_a_move_error(self, tamper):
        d = loop_split_sphere(PRES, X)
        _, trace = reduce_to_chain(d, PRES)
        bad = MoveTrace((dataclasses.replace(trace.entries[0], **tamper),))
        with pytest.raises(MoveError, match="matches no chain diagram|are not"):
            replay_trace(d, PRES, bad)

    @pytest.mark.parametrize("tamper", [{"link_labels": ("y", "y")},
                                        {"link_labels": None},
                                        {"move": "pull_whatever"},
                                        {"move": "pull_contracted"}],
                             ids=["edited-links", "no-links", "renamed", "other-pull"])
    def test_pull_entry_must_match_the_replayed_pull(self, tamper):
        d = loop_split_sphere(PRES, X)
        _, trace = reduce_to_chain(d, PRES)
        assert trace.entries[0].move == "pull_split"
        bad = MoveTrace((dataclasses.replace(trace.entries[0], **tamper),))
        with pytest.raises(MoveError, match="pull_split"):
            replay_trace(d, PRES, bad)

    @pytest.mark.parametrize("balloon, move", [(False, "pull_contracted"),
                                               (True, "pull_discarded")],
                             ids=["monogon", "unmarked-sphere"])
    def test_loop_at_the_pinch_is_pulled_first(self, balloon, move):
        d = looped_pinch_pair(PRES, X, Y, balloon)
        chain, trace = reduce_to_chain(d, PRES)
        assert [(e.move, e.edge_darts) for e in trace.entries] == [(move, (8, 9))]
        assert [x.canonical_form() for x in chain.diagrams] == \
               [pinch_pair(PRES, X, Y).canonical_form()]

    def test_disconnected_input_is_refused(self):
        d = disjoint_digons(PRES, X, Y)
        assert not d.is_connected() and len(d.exterior_vertices) == 4
        with pytest.raises(MoveError, match="not connected"):
            reduce_to_chain(d, PRES)
        with pytest.raises(MoveError, match="not connected"):
            replay_trace(d, PRES, MoveTrace(()))

    def test_replay_refuses_a_diagram_over_another_ambient(self):
        with pytest.raises(DiagramError, match="different ambients"):
            replay_trace(degenerate_digon(PRES, X), pres_z2(2), MoveTrace(()))

    def test_replay_reproduces_chain(self):
        for fixture in (loop_split_sphere(PRES, X),
                        thicken(dumbbell(PRES, X, Y, [X])),
                        looped_pinch_pair(PRES, X, Y),
                        looped_pinch_pair(PRES, X, Y, balloon=True)):
            chain, trace = reduce_to_chain(fixture, PRES)
            replayed = replay_trace(fixture, PRES, trace)
            assert [d.canonical_form() for d in replayed.diagrams] == \
                   [d.canonical_form() for d in chain.diagrams]


class TestGlue:
    def test_s1_reproduces_sphere(self):
        pz2 = pres_z2(2)
        d = degenerate_digon(pz2, pz2.ambient.from_name("x"))
        res = glue_cyclic_copies(d, [1], 1)
        assert res.diagram.canonical_form() == d.canonical_form()

    def test_s2_closes_with_order_two_labels(self):
        pz2 = pres_z2(2)
        d = degenerate_digon(pz2, pz2.ambient.from_name("x"))
        res = glue_cyclic_copies(d, [1], 2)
        assert res.order_ok and res.closed and res.chi == 2
        assert not res.diagram.exterior_vertices
        assert not res.diagram.exterior_faces
        assert validate_howie(res.diagram, pz2).ok

    def test_s3_reports_order_mismatch(self):
        pz2 = pres_z2(2)
        d = degenerate_digon(pz2, pz2.ambient.from_name("x"))
        res = glue_cyclic_copies(d, [1], 3)
        assert not res.order_ok and not res.closed
        assert res.chi == 2
        assert len(res.diagram.exterior_vertices) == 2

    def test_path_validation(self):
        pz2 = pres_z2(2)
        d = degenerate_digon(pz2, pz2.ambient.from_name("x"))
        with pytest.raises(MoveError):
            glue_cyclic_copies(d, [], 2)
        with pytest.raises(MoveError):
            glue_cyclic_copies(d, [0, 1], 2)   # revisits vertices

    def test_order_three_labels_close_at_s3(self):
        d = degenerate_digon(PRES, X)   # Z/3 labels
        res3 = glue_cyclic_copies(d, [1], 3)
        assert res3.order_ok and res3.closed and res3.chi == 2
        res2 = glue_cyclic_copies(d, [1], 2)
        assert not res2.order_ok


MOVE_SUITE = None


def _move_suite():
    global MOVE_SUITE
    if MOVE_SUITE is None:
        p3 = pres_z3(3)
        suite = []
        for p in (X, Y):
            suite.append((degenerate_digon(PRES, p), PRES))
            suite.append((theta_digons(PRES, p, X), PRES))
            suite.append((digon_chain(PRES, [p, X, Y]), PRES))
        suite.append((mirror_large_pair(PRES), PRES))
        suite.append((mirror_large_pair(p3), p3))
        for corners in ([X], [Y], [X, Y], [X, X], [Y, X, Y]):
            suite.append((dumbbell(PRES, X, Y, corners), PRES))
        suite.append((tripod(Z3, 1, X), PRES))
        suite.append((tripod(Z3, 1, AMB.one()), PRES))
        suite.append((path_sphere(Z3, 1, [X, Y], 3), PRES))
        suite.append((path_sphere(Z3, 1, [], 1), PRES))
        suite.append((pinch_pair(PRES, X, Y), PRES))
        suite.append((pinch_pair(PRES, Y, Y), PRES))
        suite.append((loop_split_sphere(PRES, X), PRES))
        suite.append((loop_split_sphere(PRES, Y), PRES))
        MOVE_SUITE = suite
    return MOVE_SUITE


class TestMoveInvariance:
    def test_suite_size(self):
        assert len(_move_suite()) >= 20

    def test_every_move_preserves_validity_and_exterior_label(self):
        for d, pres in _move_suite():
            before = validate_howie(d, pres)
            assert before.ok
            ext_before = ([d.face_label(fi).free_reduce()
                           for fi in sorted(d.exterior_faces)])
            moved = []
            from relpres.diagram import digon_adjacencies
            adj = digon_adjacencies(d, pres)
            red = reducible_pairs(d)
            red_digon = [r for r in red if r in adj]
            red_large = [r for r in red
                         if classify_face(d, pres, r[1]).kind == "large"
                         and classify_face(d, pres, r[2]).kind == "large"]
            if adj:
                out, _, _ = merge_digons(d, pres, adj[0][0])
                moved.append(out)
            if red_large:
                moved.append(fill_hole(d, pres, red_large[0][0]))
            if len(d.exterior_faces) == 1:
                moved.append(thicken(d))
            ids = [e for e in range(len(d.edges)) if d.edge_label[e] == "1"]
            if ids:
                res = pull_identity_edge(d, ids[0])
                if res.kind != "split":
                    moved.extend(res.diagrams)
            for out in moved:
                rep = validate_howie(out, pres)
                assert rep.ok, rep.failures
                ext_after = [out.face_label(fi).free_reduce()
                             for fi in sorted(out.exterior_faces)]
                if len(ext_after) == len(ext_before):
                    assert ext_after == ext_before

    def test_zero_cell_labels_stay_trivial(self):
        for d in (thicken(dumbbell(PRES, X, Y, [X])),
                  thicken(tripod(Z3, 1, X))):
            pres = PRES
            rep = validate_howie(d, pres)
            for fi, fc in enumerate(rep.face_classes):
                if fc.kind == "null":
                    red = d.face_label(fi).cyclic_free_reduce()
                    from relpres.freeprod import FPWord
                    assert isinstance(red, FPWord) and red.is_identity()
