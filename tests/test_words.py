import random

import pytest
from hypothesis import given, strategies as st

from relpres.freeprod import FPWord, FreeProduct
from relpres.words import (TWord, WordParseError, cyclic_equal, cyclic_rotations,
                           from_items, h_word, is_cyclically_reduced,
                           is_unimodular, parse_h_word, parse_word,
                           t_exponent_residue, t_letter, word_str)

from fixtures import Z3

BASE = FreeProduct(Z3, 0)
H1 = FreeProduct(Z3, 1)


def tword(text, ambient=BASE):
    return parse_word(text, ambient)


class TestParse:
    def test_simple(self):
        w = tword("x t")
        assert w.exponent_sum() == 1 and is_unimodular(w)

    def test_mixed_signs(self):
        w = tword("t x t^-1 y t")
        assert w.exponent_sum() == 1 and is_unimodular(w)

    def test_not_unimodular(self):
        w = tword("x t y t")
        assert w.exponent_sum() == 2 and not is_unimodular(w)

    def test_copy_suffix(self):
        w = parse_word("x@1 t", H1)
        assert w.segments[0].letters[0][0] == 1

    def test_powers(self):
        w = tword("(x t)^2")
        assert word_str(w) == "x t x t"
        winv = tword("(x t)^-1")
        assert word_str(winv) == "t^-1 y"

    def test_nested_parens(self):
        w = tword("((x t)^2 y)^2")
        assert w.exponent_sum() == 4

    def test_parse_errors_carry_position(self):
        with pytest.raises(WordParseError) as err:
            tword("x q t")
        assert err.value.position == 2
        with pytest.raises(WordParseError):
            tword("( x t")
        with pytest.raises(WordParseError):
            tword("x )^2")
        with pytest.raises(WordParseError):
            tword("(x t) y")  # parenthesized group needs an explicit power
        with pytest.raises(WordParseError):
            parse_word("x@3 t", H1)

    def test_h_word_parser(self):
        assert parse_h_word("x y x", BASE) == BASE.from_name("x")
        with pytest.raises(WordParseError):
            parse_h_word("x t", BASE)

    def test_roundtrip_word_str(self):
        for text in ("x t y t^-1 x t", "t t x", "x"):
            w = tword(text)
            assert word_str(parse_word(word_str(w), BASE)) == word_str(w)


class TestReduction:
    def test_free_reduce_cancels(self):
        w = tword("x t t^-1 x")
        red = w.free_reduce()
        assert red.t_count == 0 and str(red.h_value()) == "y"

    def test_free_reduce_keeps_blocked(self):
        w = tword("x t y t^-1")
        assert w.free_reduce().t_count == 2

    def test_cyclic_reduce_seam(self):
        w = tword("t^-1 x t")
        red = w.cyclic_free_reduce()
        # every t cancels cyclically; what remains is the group element
        from relpres.freeprod import FPWord
        assert isinstance(red, FPWord) and str(red) == "x"

    def test_cyclically_reduced_flag(self):
        assert is_cyclically_reduced(tword("x t y t^-1 x t"))
        assert not is_cyclically_reduced(tword("t^-1 x t"))

    def test_rotations_are_cyclic_equal(self):
        w = tword("x t y t^-1 x t")
        for r in cyclic_rotations(w):
            assert cyclic_equal(w, r)

    def test_cyclic_not_equal(self):
        assert not cyclic_equal(tword("x t"), tword("y t"))
        assert not cyclic_equal(tword("x t"), tword("x t x t"))


def restart_free_reduce(w: TWord) -> TWord:
    """Free reduction that rescans from the left after each cancellation."""
    segs, signs = list(w.segments), list(w.signs)
    changed = True
    while changed:
        changed = False
        for i in range(len(signs) - 1):
            if signs[i] == -signs[i + 1] and segs[i + 1].is_identity():
                segs[i:i + 3] = [segs[i] * segs[i + 2]]
                del signs[i:i + 2]
                changed = True
                break
    return TWord(w.ambient, tuple(segs), tuple(signs))


def _random_word(rng: random.Random, ambient, t_letters: int) -> TWord:
    items = []
    for _ in range(t_letters):
        if rng.random() < 0.5:
            items.append(ambient.word([(rng.randrange(ambient.s + 1), rng.randrange(3))]))
        items.append(rng.choice((1, -1)))
    return from_items(ambient, items)


class TestFreeReduce:
    """The one-pass stack reduction against the restarting loop."""

    def test_cancellation_cascades(self):
        rng = random.Random(8)
        for _ in range(300):
            parts = []
            for _ in range(rng.randint(1, 4)):
                u = _random_word(rng, H1, rng.randint(0, 6))
                # u u^-1 cancels from the middle out, one pair exposing the next
                parts += [_random_word(rng, H1, rng.randint(0, 2)), u, u.inv()]
            w = parts[0]
            for part in parts[1:]:
                w = w * part
            assert w.free_reduce() == restart_free_reduce(w)

    def test_full_cancellation(self):
        rng = random.Random(9)
        for n in range(12):
            u = _random_word(rng, BASE, n)
            assert (u * u.inv()).free_reduce() == h_word(BASE.one())

    @given(st.lists(st.one_of(st.sampled_from((1, -1)), st.integers(0, 2).map(
        lambda e: BASE.word([(0, e)]))), max_size=20))
    def test_matches_restarting_loop(self, items):
        w = from_items(BASE, items)
        assert w.free_reduce() == restart_free_reduce(w)


sign_lists = st.lists(st.sampled_from((1, -1)), max_size=6)
seg_elems = st.lists(st.integers(0, 2), max_size=6)


@st.composite
def twords(draw, ambient=BASE):
    signs = draw(sign_lists)
    items = []
    for i in range(len(signs) + 1):
        elem = draw(st.integers(-1, 2))
        if elem >= 0:
            items.append(ambient.word([(0, elem)]))
        if i < len(signs):
            items.append(signs[i])
    return from_items(ambient, items)


def fold_from_items(ambient, items):
    """from_items as a left fold of TWord products, one item at a time."""
    out = h_word(ambient.one())
    for item in items:
        out = out * (h_word(item) if isinstance(item, FPWord) else t_letter(ambient, item))
    return out


class TestFromItems:
    """The one-pass build against the fold of products."""

    @given(st.lists(st.one_of(
        st.sampled_from((1, -1)),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=4).map(H1.word)),
        max_size=16))
    def test_matches_fold(self, items):
        out = from_items(H1, items)
        assert out == fold_from_items(H1, items)
        assert len(out.segments) == len(out.signs) + 1

    def test_bad_item(self):
        with pytest.raises(TypeError):
            from_items(BASE, [1, 2])


class TestExponentSum:
    @given(twords(), twords())
    def test_homomorphism(self, a, b):
        assert (a * b).exponent_sum() == a.exponent_sum() + b.exponent_sum()

    @given(twords())
    def test_inverse_negates(self, a):
        assert a.inv().exponent_sum() == -a.exponent_sum()

    @given(twords())
    def test_free_reduction_invariant(self, a):
        assert a.free_reduce().exponent_sum() == a.exponent_sum()


class TestResidue:
    def test_gt_obstruction(self):
        assert t_exponent_residue(tword("x t"), 2) == 1

    def test_power_has_no_obstruction(self):
        w = tword("x t y t^-1 x t")
        assert t_exponent_residue(w.pow(2), 2) == 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            t_exponent_residue(tword("x t"), 1)

    def test_products_of_conjugates_of_powers(self):
        # direct exponent-sum computation over 100 random products
        rng = random.Random(7)
        w = tword("x t y t^-1 x t")
        k = 3
        names = ["e", "x", "y"]
        for _ in range(100):
            word = h_word(BASE.one())
            for _ in range(rng.randint(1, 4)):
                conj_text = " ".join(rng.choice(["x", "y", "t", "t^-1"])
                                     for _ in range(rng.randint(0, 3)))
                v = tword(conj_text) if conj_text else h_word(BASE.one())
                power = w.pow(k) if rng.random() < 0.5 else w.pow(-k)
                word = word * v.inv() * power * v
            assert t_exponent_residue(word.free_reduce(), k) == 0
