import random
from fractions import Fraction

import pytest

from relpres.diagram import (Diagram, DiagramError, Slot, curvature_weights,
                             digon_adjacencies, is_degenerate_digon,
                             is_phi_reduced, is_reduced, uniform_weights,
                             validate_howie)
from relpres.freeprod import FreeProduct
from relpres.words import cyclic_equal, word_str

from fixtures import (Z3, degenerate_digon, digon_chain, genus_gluing,
                      mirror_large_pair, pres_z3, random_closed_map,
                      random_weights, square_torus, theta_digons)

H1 = FreeProduct(Z3, 1)


def two_onegons(corner_a="x", corner_b="y"):
    return Diagram(H1, [[Slot(0, H1.from_name(corner_a))],
                        [Slot(1, H1.from_name(corner_b))]], {0: 1, 1: 0}, [0])


class TestBuild:
    def test_two_onegons_sphere(self):
        d = two_onegons()
        assert (len(d.vertices), len(d.edges), len(d.faces), d.chi) == (1, 1, 2, 2)

    def test_digon_mirror_sphere(self):
        one = H1.one()
        d = Diagram(H1, [[Slot(0, H1.from_name("x")), Slot(2, one)],
                         [Slot(1, H1.from_name("y")), Slot(3, one)]],
                    {0: 1, 1: 0, 2: 3, 3: 2}, [0, 2])
        assert (len(d.vertices), len(d.edges), len(d.faces), d.chi) == (2, 2, 2, 2)

    def test_dangling_dart(self):
        with pytest.raises(DiagramError):
            Diagram(H1, [[Slot(0, H1.one())]], {0: 1, 1: 0}, [0])

    def test_fixed_point_pairing(self):
        with pytest.raises(DiagramError):
            Diagram(H1, [[Slot(0, H1.one()), Slot(1, H1.one())]], {0: 0, 1: 1}, [0])

    def test_orientation_conflict(self):
        data = two_onegons().to_dict()
        data["edge_dir"]["0"] = 7
        with pytest.raises(DiagramError):
            Diagram.from_dict(data)

    def test_empty_face(self):
        with pytest.raises(DiagramError):
            Diagram(H1, [[], [Slot(0, H1.one()), Slot(1, H1.one())]],
                    {0: 1, 1: 0}, [0])

    def test_random_square_gluings_match_orbit_oracle(self):
        rng = random.Random(5)
        amb = FreeProduct(Z3, 0)
        for _ in range(40):
            faces = [[Slot(4 * f + i, amb.one()) for i in range(4)] for f in range(4)]
            darts = list(range(16))
            rng.shuffle(darts)
            pairing = {}
            for i in range(0, 16, 2):
                pairing[darts[i]] = darts[i + 1]
                pairing[darts[i + 1]] = darts[i]
            d = Diagram(amb, faces, pairing, [min(e) for e in
                                              {frozenset((a, b)) for a, b in pairing.items()}])
            assert d.chi % 2 == 0
            assert len(d.vertices) == _vertex_count_oracle(d)
            if d.is_connected():
                assert d.chi <= 2


def _vertex_count_oracle(d: Diagram) -> int:
    """Independent union-find on dart endpoints."""
    points = {}
    for fi, face in enumerate(d.faces):
        for si, slot in enumerate(face):
            points[(slot.dart, "head")] = (slot.dart, "head")
            points[(slot.dart, "tail")] = (slot.dart, "tail")

    def find(x):
        while points[x] != x:
            points[x] = points[points[x]]
            x = points[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            points[ra] = rb

    for fi, face in enumerate(d.faces):
        for si, slot in enumerate(face):
            nxt = face[(si + 1) % len(face)]
            union((slot.dart, "head"), (nxt.dart, "tail"))
    for a, b in d.pairing.items():
        union((a, "head"), (b, "tail"))
        union((a, "tail"), (b, "head"))
    return len({find(x) for x in points})


class TestLabels:
    def test_single_corner_vertex(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        labels = sorted(str(d.vertex_label(v)) for v in range(len(d.vertices)))
        assert labels == ["x", "y@1"]

    def test_face_label_starts(self):
        pres = pres_z3(2)
        th = theta_digons(pres, pres.ambient.from_name("x"),
                          pres.ambient.from_name("y"))
        for fi in range(len(th.faces)):
            a = th.face_label(fi, start=0)
            b = th.face_label(fi, start=1)
            assert cyclic_equal(a, b)

    def test_digon_label_shape(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        assert word_str(d.face_label(0, start=0)) in ("t^-1 x t y@1", "t y@1 t^-1 x")


class TestHowieValidation:
    def test_degenerate_digon_is_valid(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        rep = validate_howie(d, pres)
        assert rep.ok and rep.face_classes[0].kind == "digon"
        assert is_degenerate_digon(d, pres)

    def test_bad_large_face(self):
        pres = pres_z3(2)
        amb = pres.ambient
        x = amb.from_name("x")
        # the relator face needs matching corners; sabotage one corner
        rel = pres.relator()
        f1 = [Slot(0, x), Slot(2, x)]
        f2 = [Slot(1, x.inv()), Slot(3, x.inv())]
        d = Diagram(amb, [f1, f2], {0: 1, 1: 0, 2: 3, 3: 2}, [0, 2])
        rep = validate_howie(d, pres)
        assert not rep.ok
        assert any("matches no relator" in f for f in rep.failures)

    def test_bad_interior_vertex(self):
        pres = pres_z3(2)
        th = theta_digons(pres, pres.ambient.from_name("x"),
                          pres.ambient.from_name("y"),
                          trivial_exterior_corners=False)
        # unmark the exterior vertices: nontrivial labels become failures
        data = th.to_dict()
        data["exterior"]["vertex_seeds"] = []
        data["faces"][2]["slots"][0]["corner"] = "x"
        d = Diagram.from_dict(data)
        rep = validate_howie(d, pres)
        assert not rep.ok
        assert any("interior vertex" in f for f in rep.failures)

    def test_mirror_pair_faces_classify_large(self):
        pres = pres_z3(2)
        d = mirror_large_pair(pres)
        rep = validate_howie(d, pres)
        assert rep.ok
        assert [fc.kind for fc in rep.face_classes] == ["large", "large"]


class TestCornerTypes:
    def test_source_and_sink(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        kinds = {d.vertex_kind(v) for v in range(len(d.vertices))}
        assert kinds == {"source", "sink"}

    def test_mixed_vertex_alternation(self):
        d = square_torus(Z3)
        assert d.corner_alternation_violations() == []

    def test_alternation_structural_on_random_maps(self):
        rng = random.Random(3)
        for _ in range(60):
            d = random_closed_map(rng, Z3)
            assert d.corner_alternation_violations() == []


class TestCurvature:
    def test_two_onegons_algebra(self):
        d = two_onegons()
        a, b = Fraction(1, 3), Fraction(2, 5)
        rep = d.curvature({(0, 0): a, (1, 0): b})
        assert rep.vertex_curvatures == (2 - a - b,)
        assert rep.face_curvatures == (1 + a, 1 + b)
        assert rep.total == 4 and rep.satisfies_identity

    def test_uniform_weights_identity(self):
        rng = random.Random(9)
        for _ in range(50):
            d = random_closed_map(rng, Z3)
            rep = d.curvature(uniform_weights(d))
            assert rep.satisfies_identity

    def test_torus_total_zero(self):
        d = square_torus(Z3)
        rep = d.curvature(uniform_weights(d))
        assert d.chi == 0 and rep.total == 0

    def test_missing_weight(self):
        d = two_onegons()
        with pytest.raises(DiagramError):
            d.curvature({(0, 0): Fraction(1)})

    def test_gauss_bonnet_random_rational_weights(self):
        rng = random.Random(17)
        for _ in range(80):
            d = random_closed_map(rng, Z3)
            rep = d.curvature(random_weights(rng, d))
            assert rep.satisfies_identity


class TestWeightRule:
    def test_degenerate_digon_curvatures(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        rule = curvature_weights(d, pres)
        rep = d.curvature(rule.weights)
        assert rep.face_curvatures == (Fraction(0),)
        assert set(rep.vertex_curvatures) == {Fraction(2)}
        assert rep.total == 4

    @pytest.mark.parametrize("k", [2, 3])
    def test_large_face_curvature_is_two_minus_k(self, k):
        pres = pres_z3(k)
        d = mirror_large_pair(pres)
        rule = curvature_weights(d, pres)
        rep = d.curvature(rule.weights)
        assert set(rep.face_curvatures) == {Fraction(2 - k)}

    def test_formula_matches_engine(self):
        pres = pres_z3(2)
        fixtures = [degenerate_digon(pres, pres.ambient.from_name("x")),
                    mirror_large_pair(pres),
                    digon_chain(pres, [pres.ambient.from_name("x")] * 3)]
        for d in fixtures:
            if d.exterior_faces:
                continue
            rule = curvature_weights(d, pres)
            rep = d.curvature(rule.weights)
            for v, stats in enumerate(rule.vertex_stats):
                assert rep.vertex_curvatures[v] == stats.curvature_by_count

    def test_count_formula_values(self):
        from relpres.diagram import VertexStats
        assert VertexStats(1, 2, 0, "source").curvature_by_count == 1
        assert VertexStats(0, 0, 0, "sink").curvature_by_count == 2
        assert VertexStats(1, 3, 1, "mixed").curvature_by_count == -1


class TestReducedness:
    def test_degenerate_digon_clean(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        assert is_reduced(d)[0]
        assert is_phi_reduced(d, pres)[0]

    def test_mirror_pair_reducible(self):
        pres = pres_z3(2)
        d = mirror_large_pair(pres)
        ok, pairs = is_reduced(d)
        assert not ok and pairs

    def test_adjacent_digons_break_phi(self):
        pres = pres_z3(2)
        amb = pres.ambient
        th = theta_digons(pres, amb.from_name("x"), amb.from_name("x"))
        assert is_reduced(th)[0]                       # x next to x: not mirror
        assert not is_phi_reduced(th, pres)[0]         # but digons touch
        assert digon_adjacencies(th, pres)

    def test_reducible_digon_pair(self):
        pres = pres_z3(2)
        amb = pres.ambient
        th = theta_digons(pres, amb.from_name("x"), amb.from_name("y"))
        ok, pairs = is_reduced(th)
        assert not ok


class TestGenusAndComponents:
    @pytest.mark.parametrize("shift,expected_chi", [(1, 2)])
    def test_cycle_gluing_sphere(self, shift, expected_chi):
        d = genus_gluing(Z3, 3, shift)
        assert d.chi % 2 == 0

    def test_torus_genus(self):
        assert square_torus(Z3).genus() == 1

    def test_disconnected(self):
        amb = FreeProduct(Z3, 0)
        d = Diagram(amb, [[Slot(0, amb.one())], [Slot(1, amb.one())],
                          [Slot(2, amb.one())], [Slot(3, amb.one())]],
                    {0: 1, 1: 0, 2: 3, 3: 2}, [0, 2])
        assert len(d.components()) == 2
        with pytest.raises(DiagramError):
            d.genus()


class TestSerializationAndCanonical:
    def test_roundtrip(self):
        pres = pres_z3(2)
        d = theta_digons(pres, pres.ambient.from_name("x"),
                         pres.ambient.from_name("y"))
        d2 = Diagram.from_dict(d.to_dict())
        assert d2.to_dict() == d.to_dict()
        assert d2.chi == d.chi and d2.exterior_vertices == d.exterior_vertices

    def test_canonical_invariant_under_relabeling(self):
        pres = pres_z3(2)
        d = degenerate_digon(pres, pres.ambient.from_name("x"))
        rng = random.Random(2)
        base = d.canonical_form()
        for _ in range(6):
            perm = list(range(2))
            data = d.to_dict()
            # relabel darts by an arbitrary injection
            offset = rng.randint(1, 50)
            for f in data["faces"]:
                for s in f["slots"]:
                    s["dart"] += offset
            data["pairing"] = [[a + offset, b + offset] for a, b in data["pairing"]]
            data["edge_dir"] = {k: v + offset for k, v in data["edge_dir"].items()}
            d2 = Diagram.from_dict(data)
            assert d2.canonical_form() == base

    def test_canonical_invariant_under_rotation(self):
        pres = pres_z3(2)
        th = theta_digons(pres, pres.ambient.from_name("x"),
                          pres.ambient.from_name("y"))
        data = th.to_dict()
        f0 = data["faces"][0]["slots"]
        data["faces"][0]["slots"] = f0[1:] + f0[:1]
        d2 = Diagram.from_dict(data)
        assert d2.canonical_form() == th.canonical_form()
