import json
import os
import random

import pytest

from relpres.freeprod import FreeProduct
from relpres.presentation import (RelPresentation, RewriteError,
                                  back_substitute, evaluate_alternating_word,
                                  extract_pattern, initial_rewrite, minimize,
                                  shape_certificate, verify_conditions)
from relpres.words import cyclic_equal, parse_word, word_str

from fixtures import Z3, Z5

BASE3 = FreeProduct(Z3, 0)
BASE5 = FreeProduct(Z5, 0)

CORPUS = json.load(open(os.path.join(os.path.dirname(__file__),
                                     "data", "rewrite_corpus.json")))["words"]


class TestInitialRewrite:
    def test_z5_example(self):
        # x t y t^-1 z t: running depths 0,-1,0 -> copies 1,0,1
        w = parse_word("x t y t^-1 z t", BASE5)
        p = initial_rewrite(Z5, w, 2)
        assert p.s == 1 and p.m == -1
        assert str(p.c) == "x@1 y z@1"
        assert word_str(p.relator()) == "x@1 y z@1 t x@1 y z@1 t"

    def test_back_substitution_oracle(self):
        w = parse_word("x t y t^-1 z t", BASE5)
        for k in (2, 3):
            p = initial_rewrite(Z5, w, k)
            assert cyclic_equal(back_substitute(p), w.pow(k))

    def test_single_t_letter_rejected(self):
        w = parse_word("x t", BASE5)
        with pytest.raises(RewriteError):
            initial_rewrite(Z5, w, 2)

    def test_not_unimodular_rejected(self):
        with pytest.raises(RewriteError):
            initial_rewrite(Z3, parse_word("x t y t", BASE3), 2)

    def test_not_cyclically_reduced_rejected(self):
        with pytest.raises(RewriteError):
            initial_rewrite(Z3, parse_word("t^-1 x t y t t", BASE3), 2)

    def test_k_bound(self):
        with pytest.raises(RewriteError):
            initial_rewrite(Z3, parse_word("x t y t^-1 x t", BASE3), 1)

    def test_relator_exponent_sum_is_k(self):
        w = parse_word("x t x t x t^-1", BASE3)
        for k in (2, 3, 4):
            p = initial_rewrite(Z3, w, k)
            assert p.relator().exponent_sum() == k


class TestMinimize:
    def test_fixed_point_is_idempotent(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        p = minimize(initial_rewrite(Z3, w, 2))
        q = minimize(p)
        assert (q.s, q.m, q.c, q.pairs) == (p.s, p.m, p.c, p.pairs)

    def test_pair_absorption_decreases_m(self):
        # handcraft a presentation whose first bottom fragment collapses:
        # a_0 in the bottom slice
        amb = FreeProduct(Z3, 1)
        p = RelPresentation(Z3, 1, 2, amb.from_name("x", 1),
                            pairs=((amb.from_name("y", 1), amb.from_name("x", 0)),))
        from relpres.presentation import _apply_pair_absorption
        moved = _apply_pair_absorption(p)
        assert moved is not None and moved.m == p.m - 1 and moved.s == p.s

    def test_lex_decrease_and_conditions_over_corpus(self):
        for text in CORPUS:
            w = parse_word(text, BASE3)
            p0 = initial_rewrite(Z3, w, 2)
            p = minimize(p0)
            assert (p.s, p.m) <= (p0.s, p0.m)
            assert verify_conditions(p).all_ok, text
            assert cyclic_equal(back_substitute(p), w.pow(2)), text

    def test_a_move_that_does_not_decrease_raises(self, monkeypatch):
        # checked with RewriteError, not assert, so that it holds under -O
        import relpres.presentation as presentation_mod
        monkeypatch.setattr(presentation_mod, "_apply_pair_absorption", lambda pres: pres)
        p0 = initial_rewrite(Z3, parse_word("x t y t^-1 x t", BASE3), 2)
        with pytest.raises(RewriteError, match="decrease"):
            minimize(p0)

    def test_never_touches_group(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        p = minimize(initial_rewrite(Z3, w, 3))
        assert p.group == Z3 and p.k == 3


class TestExtractPattern:
    def test_reads_standard_shape(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        got = extract_pattern(w)
        assert got is not None
        c, pairs = got
        assert str(c) == "x" and len(pairs) == 1
        assert (str(pairs[0][0]), str(pairs[0][1])) == ("y", "x")

    def test_rejects_wrong_shape(self):
        # cyclic sign sequence (-,-,+,+,+) has a doubled minus
        w = parse_word("x t^-1 y t^-1 x t y t x t", BASE3)
        assert extract_pattern(w) is None
        assert extract_pattern(parse_word("t^-1 x t", BASE3)) is None

    def test_pattern_on_power_is_rejected(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        assert extract_pattern(w.pow(2)) is None  # exponent sum two


class TestConditions:
    def test_single_letter_block(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        p = minimize(initial_rewrite(Z3, w, 2))
        cert = shape_certificate(p)
        pc = cert.pairs[0]
        assert pc.p1.is_identity() and pc.p2.is_identity()
        assert pc.n == 3 and pc.m_order == 3

    def test_bracketed_block(self):
        # a_i = (0,x)(1,x)(0,y) over s=1: p1 = (0,x)^-1, p2 = (0,y)^-1
        amb = FreeProduct(Z3, 1)
        a = amb.word([(0, 1), (1, 1), (0, 2)])
        b = amb.word([(1, 1), (0, 1), (1, 2)])
        p = RelPresentation(Z3, 1, 2, amb.one(), pairs=((b, a),))
        cert = shape_certificate(p)
        pc = cert.pairs[0]
        assert pc.p1 == amb.word([(0, 2)]) and pc.p2 == amb.word([(0, 1)])
        assert pc.n == 3
        assert pc.q1 == amb.word([(1, 2)]) and pc.q2 == amb.word([(1, 1)])
        # bracketed product starts and ends in the extremal copy
        block = pc.p1 * a * pc.p2
        assert block.letters[0][0] == 1 and block.letters[-1][0] == 1

    def test_long_block_has_infinite_order(self):
        amb = FreeProduct(Z3, 1)
        a = amb.word([(1, 1), (0, 1), (1, 1)])
        b = amb.word([(0, 1), (1, 1), (0, 1)])
        p = RelPresentation(Z3, 1, 2, amb.one(), pairs=((b, a),))
        cert = shape_certificate(p)
        assert cert.pairs[0].n == float("inf")
        assert cert.pairs[0].m_order == float("inf")

    def test_condition2_witness(self):
        amb = FreeProduct(Z3, 1)
        # a_0 inside the bottom slice: condition 2 must fail with a witness
        p = RelPresentation(Z3, 1, 2, amb.from_name("x", 1),
                            pairs=((amb.from_name("x", 1), amb.from_name("x", 0)),))
        rep = verify_conditions(p)
        assert not rep.fragments_outside_slices.ok
        assert "a_0" in rep.fragments_outside_slices.witness

    def test_condition1_snapshot(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        p0 = initial_rewrite(Z3, w, 2)
        rep = verify_conditions(p0)
        assert not rep.nonempty_product.ok  # the raw stage still has m = -1


class TestAlternatingWords:
    def test_single_syllable_never_vanishes(self):
        amb = FreeProduct(Z5, 1)
        a = amb.word([(1, 1)])
        p1 = amb.word([(0, 1)])
        value, run = evaluate_alternating_word(a, [(1, p1)])
        assert not value.is_identity() and run == 1

    def test_bounded_runs_stay_nontrivial(self):
        # min nontrivial order in Z/5 is 5: runs of at most 4 cannot cancel
        rng = random.Random(11)
        amb = FreeProduct(Z5, 1)
        a = amb.word([(1, 1)])
        for _ in range(500):
            parts = []
            for _ in range(rng.randint(1, 5)):
                n = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                p = amb.word([(0, rng.randint(1, 4))])
                parts.append((n, p))
            value, run = evaluate_alternating_word(a, parts)
            assert run <= 4
            assert not value.is_identity()

    def test_full_order_run_can_cancel(self):
        amb = FreeProduct(Z5, 1)
        a = amb.word([(1, 1)])
        p = amb.word([(0, 1)])
        value, run = evaluate_alternating_word(a, [(5, p)])
        assert run == 5
        assert value == p  # a^5 = 1 swallowed the power block

    def test_malformed(self):
        amb = FreeProduct(Z5, 1)
        a = amb.word([(1, 1)])
        with pytest.raises(RewriteError):
            evaluate_alternating_word(a, [])
        with pytest.raises(RewriteError):
            evaluate_alternating_word(a, [(0, amb.from_name("x"))])
        with pytest.raises(RewriteError):
            evaluate_alternating_word(a, [(1, amb.one())])


class TestSerialization:
    def test_roundtrip(self):
        w = parse_word("x t y t^-1 x t", BASE3)
        p = minimize(initial_rewrite(Z3, w, 2))
        q = RelPresentation.from_dict(json.loads(json.dumps(p.to_dict())))
        assert (q.s, q.k, q.c, q.pairs) == (p.s, p.k, p.c, p.pairs)

    @pytest.mark.parametrize("k", [-2, 0, 1, 2.0])
    def test_bad_k_rejected(self, k):
        data = minimize(initial_rewrite(Z3, parse_word("x t y t^-1 x t", BASE3), 2)).to_dict()
        data["k"] = k
        with pytest.raises(RewriteError):
            RelPresentation.from_dict(data)

    def test_ambient_and_relator_built_once(self):
        p = minimize(initial_rewrite(Z3, parse_word("x t y t^-1 x t", BASE3), 2))
        assert p.ambient is p.ambient and p.relator() is p.relator()
        q = RelPresentation.from_dict(p.to_dict())
        assert q == p and hash(q) == hash(p)

    def test_words_in_wrong_ambient_rejected(self):
        amb = FreeProduct(Z3, 1)
        with pytest.raises(RewriteError):
            RelPresentation(Z3, 0, 2, amb.from_name("x"), ())
        with pytest.raises(RewriteError):
            RelPresentation(Z3, 1, 2, amb.one(), ((amb.one(), BASE3.from_name("x")),))
