"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import os
import random
import time

from relpres.conjugacy import center_certificate, malnormality_oracle, reduce_conjugator
from relpres.diagram import (classify_face, curvature_weights,
                             is_degenerate_digon, is_phi_reduced, validate_howie)
from relpres.freeprod import FreeProduct
from relpres.moves import (glue_cyclic_copies, merge_digons, fill_hole,
                           pull_identity_edge, reduce_to_chain, thicken)
from relpres.presentation import (back_substitute, evaluate_alternating_word,
                                  initial_rewrite, minimize, verify_conditions)
from relpres.search import (EnumerationConfig, brute_force_enumerate,
                            curvature_audit, enumerate_diagrams)
from relpres.words import cyclic_equal, parse_word

from fixtures import (Z2, Z3, Z4, Z5, degenerate_digon, genus_gluing,
                      pres_z2, pres_z3, random_closed_map, random_weights,
                      square_torus)

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS = json.load(open(os.path.join(DATA, "rewrite_corpus.json")))["words"]
BASE3 = FreeProduct(Z3, 0)


def test_criterion_01_gauss_bonnet_exact():
    """200 random closed oriented maps, >=10 tori, random rational weights."""
    rng = random.Random(0xA11CE)
    maps = [square_torus(Z3) for _ in range(6)]
    maps += [genus_gluing(Z3, n, 1) for n in (2, 3, 4, 5, 6)]
    while len([m for m in maps if m.is_connected() and m.chi == 0]) < 10:
        maps.append(random_closed_map(rng, Z3))
    while len(maps) < 200:
        maps.append(random_closed_map(rng, Z3))
    tori = sum(1 for m in maps if m.is_connected() and m.chi == 0)
    assert tori >= 10
    for m in maps[:200]:
        t0 = time.monotonic()
        report = m.curvature(random_weights(rng, m))
        assert report.total == 2 * m.chi          # exact, zero tolerance
        assert time.monotonic() - t0 < 1.0
    print(f"\n[criterion 1] PASS: 200 maps ({tori} tori), curvature sum == 2*chi exactly")


def test_criterion_02_rewrite_pipeline_corpus():
    t0 = time.monotonic()
    for text in CORPUS:
        w = parse_word(text, BASE3)
        pres = minimize(initial_rewrite(Z3, w, 2))
        assert verify_conditions(pres).all_ok, text
        assert cyclic_equal(back_substitute(pres), w.pow(2)), text
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"[criterion 2] PASS: 50-word corpus rewritten, verified, and "
          f"back-substituted in {elapsed:.2f}s")


def test_criterion_03_alternation_bound():
    rng = random.Random(55)
    amb = FreeProduct(Z5, 1)
    a = amb.word([(1, 1)])
    violations = 0
    for _ in range(500):
        parts = []
        for _ in range(rng.randint(1, 6)):
            n = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            parts.append((n, amb.word([(0, rng.randint(1, 4))])))
        value, max_run = evaluate_alternating_word(a, parts)
        assert max_run <= 4
        if value.is_identity():
            violations += 1
    assert violations == 0
    print("[criterion 3] PASS: 500 alternating words with runs <= 4 all nontrivial")


def test_criterion_04_enumeration_desk_scale():
    t0 = time.monotonic()
    pruned = 0.0
    w = parse_word(CORPUS[0], BASE3)
    for k in (2, 3):
        raw = initial_rewrite(Z3, w, k)
        small = minimize(raw)
        for pres in (raw, small):
            t1 = time.monotonic()
            res = enumerate_diagrams(EnumerationConfig(
                pres, max_interior_faces=3, digon_syllables=2))
            pruned += time.monotonic() - t1
            assert res.complete
            assert all(is_degenerate_digon(d, pres) for d in res.survivors.values())
            if pres.digon_alphabet(2):
                assert len(res.survivors) == len(pres.digon_alphabet(2))
            else:
                assert not res.survivors
            cfg2 = EnumerationConfig(pres, max_interior_faces=2, digon_syllables=2)
            fast = enumerate_diagrams(cfg2)
            slow = brute_force_enumerate(cfg2)
            assert fast.canonical_forms() == slow.canonical_forms()
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    assert pruned < 10.0
    print(f"[criterion 4] PASS: survivors are exactly the degenerate digons; "
          f"brute force agrees at two faces ({elapsed:.0f}s, pruned search "
          f"{pruned:.1f}s)")


def test_criterion_05_curvature_audit():
    pres = pres_z3(2)
    diagrams = list(enumerate_diagrams(EnumerationConfig(
        pres, max_interior_faces=3, digon_syllables=2)).survivors.values())
    diagrams += [degenerate_digon(pres, pres.ambient.from_name("x")),
                 degenerate_digon(pres, pres.ambient.from_name("y"))]
    pz2 = pres_z2(2)
    diagrams.append(degenerate_digon(pz2, pz2.ambient.from_name("x")))
    for d in diagrams:
        p = pres if d.ambient == pres.ambient else pz2
        audit = curvature_audit(d, p)
        assert audit.ok and audit.total == "4"
        rule = curvature_weights(d, p)
        report = d.curvature(rule.weights)
        for v, stats in enumerate(rule.vertex_stats):
            assert report.vertex_curvatures[v] == stats.curvature_by_count
            assert stats.large_side_corners >= 2 * stats.negative_special
            if v in d.exterior_vertices:
                assert report.vertex_curvatures[v] == 2
            else:
                assert report.vertex_curvatures[v] <= 0
        for kf in report.face_curvatures:
            assert kf <= 0
    print(f"[criterion 5] PASS: {len(diagrams)} clean diagrams audited; "
          "counts match the engine exactly, totals all 4")


def test_criterion_06_move_invariance():
    from test_moves import _move_suite
    suite = _move_suite()
    assert len(suite) >= 20
    checked = 0
    for d, pres in suite:
        ext_before = [d.face_label(fi).free_reduce() for fi in sorted(d.exterior_faces)]
        outputs = []
        from relpres.diagram import digon_adjacencies, reducible_pairs
        adj = digon_adjacencies(d, pres)
        if adj:
            out, _, _ = merge_digons(d, pres, adj[0][0])
            outputs.append(out)
        large_pairs = [r for r in reducible_pairs(d)
                       if classify_face(d, pres, r[1]).kind == "large"
                       and classify_face(d, pres, r[2]).kind == "large"]
        if large_pairs:
            outputs.append(fill_hole(d, pres, large_pairs[0][0]))
        if len(d.exterior_faces) == 1:
            outputs.append(thicken(d))
        ids = [e for e in range(len(d.edges)) if d.edge_label[e] == "1"]
        if ids:
            res = pull_identity_edge(d, ids[0])
            if res.kind != "split":
                outputs.extend(res.diagrams)
        for out in outputs:
            checked += 1
            assert validate_howie(out, pres).ok
            ext_after = [out.face_label(fi).free_reduce()
                         for fi in sorted(out.exterior_faces)]
            if len(ext_after) == len(ext_before):
                assert ext_after == ext_before
        bound = 8 * (len(d.faces) + len(d.edges) + 2)
        chain, trace = reduce_to_chain(d, pres)
        assert len(trace.entries) <= bound
        assert chain.links_conjugate()
        for dd in chain.diagrams:
            if dd.faces:
                assert is_phi_reduced(dd, pres)[0]
                assert not [e for e in range(len(dd.edges))
                            if dd.edge_label[e] == "1"]
    print(f"[criterion 6] PASS: {len(suite)} fixtures, {checked} move applications, "
          "all chains clean with conjugate links")


def test_criterion_07_malnormality_oracle():
    for group, k in ((Z2, 2), (Z4, 2), (Z4, 3)):
        t0 = time.monotonic()
        rep = malnormality_oracle(group, 1, k, 6)
        elapsed = time.monotonic() - t0
        assert rep.holds, rep.counterexample
        assert elapsed < 60.0
    print("[criterion 7] PASS: no conjugation violations for Z/2 (k=2), "
          "Z/4 (k=2,3) up to six syllables")


def test_criterion_08_conjugator_reduction():
    from test_conjugacy import inflate, pres_with_spread
    rng = random.Random(88)
    pres = pres_with_spread(3)
    amb = pres.ambient
    done = 0
    while done < 100:
        u, seed = inflate(rng, pres, rng.randint(1, 4))
        if u.free_reduce().t_count == 0:
            continue
        h = amb.letter(0, rng.choice(Z3.nontrivial()))
        out = reduce_conjugator(u, h)
        assert out.status == "reduced-to-G0"
        assert out.steps == u.free_reduce().t_count // 2   # minus two per step
        value = out.final_conjugator.h_value()
        assert value.in_subproduct({0})
        assert out.final_conjugate == h.conj(value)        # verified inside H
        done += 1
    print("[criterion 8] PASS: 100 nested conjugators reduced to the base copy, "
          "two t-letters per step")


def test_criterion_09_center_certificates():
    words = {
        "Z2": (Z2, "x t x t^-1 x t"),
        "Z3": (Z3, "x t y t^-1 x t"),
        "Z4": (Z4, "x t y t^-1 z t"),
    }
    for name, (group, text) in words.items():
        base = FreeProduct(group, 0)
        pres = initial_rewrite(group, parse_word(text, base), 2)
        rep = center_certificate(pres)
        assert rep.trivial_center_certified, name
        assert rep.t_outside_base == (1, 2)
        assert len(rep.element_checks) == group.order - 1
        for _h, _conj, copy_index in rep.element_checks:
            assert copy_index == 1
    print("[criterion 9] PASS: Z/2, Z/3, Z/4 certificates: every nontrivial "
          "element moves to the next copy under t and t is not in the base group")


def test_criterion_10_cyclic_gluing():
    pz2 = pres_z2(2)
    d = degenerate_digon(pz2, pz2.ambient.from_name("x"))
    assert is_phi_reduced(d, pz2)[0]
    res2 = glue_cyclic_copies(d, [1], 2)
    assert res2.order_ok and res2.closed and res2.chi == 2
    assert not res2.diagram.exterior_vertices and not res2.diagram.exterior_faces
    res3 = glue_cyclic_copies(d, [1], 3)
    assert not res3.order_ok and not res3.closed
    assert res3.diagram.exterior_vertices
    print("[criterion 10] PASS: order-2 labels close at s=2 (chi=2, no exterior); "
          "s=3 reports the order mismatch")
