import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from relpres.freeprod import FPWord, FreeProduct, conjugate_in_free_product
from relpres.presentation import (_substitute_top_copy, extract_pattern, initial_rewrite,
                                  minimize)
from relpres.search import EnumerationConfig, face_templates
from relpres.words import (TWord, WordParseError, cyclic_equal, cyclic_key,
                           from_items, h_word, is_cyclically_reduced,
                           is_unimodular, parse_h_word, parse_word, syllables,
                           t_exponent_residue, t_letter, word_str)

from fixtures import S3, Z3, pres_s3, pres_z3

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
        for r in reference_rotations(w):
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


# -- the cyclic key against rotations ---------------------------------------


def reference_rotations(w: TWord) -> list[TWord]:
    """Every rotation of the freely reduced word at a t-letter, as a
    TWord whose first segment is the seam and whose last is trivial."""
    w = w.free_reduce()
    if w.t_count == 0:
        return [w]
    segs = [w.segments[-1] * w.segments[0]] + list(w.segments[1:-1])
    n = len(w.signs)
    return [TWord(w.ambient, tuple(segs[(r + i) % n] for i in range(n)) + (w.ambient.one(),),
                  tuple(w.signs[(r + i) % n] for i in range(n)))
            for r in range(n)]


def reference_key(w: TWord) -> tuple:
    seam = w.segments[-1] * w.segments[0]
    return w.signs, (seam.letters,) + tuple(h.letters for h in w.segments[1:-1])


def reference_cyclic_equal(a: TWord, b: TWord) -> bool:
    """Cyclic equality by building every rotation of one cyclic reduction
    and comparing it with the other, seam first."""
    ar, br = a.cyclic_free_reduce(), b.cyclic_free_reduce()
    if isinstance(ar, FPWord) != isinstance(br, FPWord):
        return False
    if isinstance(ar, FPWord):
        return conjugate_in_free_product(ar, br)
    if ar.t_count != br.t_count:
        return False
    target = reference_key(br)
    return any(reference_key(r) == target for r in reference_rotations(ar))


AMBIENTS = [FreeProduct(g, s) for g in (Z3, S3) for s in (0, 1, 2)]


@st.composite
def h_words(draw, ambient, max_letters=2):
    letters = draw(st.lists(st.tuples(st.integers(0, ambient.s),
                                      st.integers(0, ambient.group.order - 1)),
                            max_size=max_letters))
    return ambient.word(letters)


@st.composite
def t_words(draw, ambient, max_t=4):
    signs = draw(st.lists(st.sampled_from((1, -1)), max_size=max_t))
    items: list = [draw(h_words(ambient))]
    for e in signs:
        items += [e, draw(h_words(ambient))]
    return from_items(ambient, items)


@st.composite
def conjugate_pairs(draw):
    """(a, b, conjugate): b is a conjugate of a, by a word with t-letters
    or by an H-word, or of a with one letter multiplied in."""
    amb = draw(st.sampled_from(AMBIENTS))
    a = draw(t_words(amb))
    u = draw(st.one_of(t_words(amb), h_words(amb).map(h_word)))
    changed = draw(st.booleans())
    if changed:
        cut = draw(st.integers(0, len(a.segments) - 1))
        extra = draw(h_words(amb, max_letters=1))
        segs = list(a.segments)
        segs[cut] = segs[cut] * extra
        a2 = TWord(amb, tuple(segs), a.signs)
    else:
        a2 = a
    return a, u.inv() * a2 * u, not changed


@st.composite
def cancelling_pairs(draw):
    """Words u h u^-1 whose t-letters all cancel, h a single letter or
    any H-word."""
    amb = draw(st.sampled_from(AMBIENTS))
    words = []
    for _ in range(2):
        u = draw(t_words(amb))
        h = draw(st.one_of(h_words(amb, max_letters=1), h_words(amb)))
        words.append(u * h_word(h) * u.inv())
    return tuple(words)


class TestCyclicKey:
    """``cyclic_equal`` by one key per word against the rotations."""

    @settings(max_examples=100)
    @given(conjugate_pairs())
    def test_conjugates(self, pair):
        a, b, conjugate = pair
        assert cyclic_equal(a, b) == reference_cyclic_equal(a, b)
        if conjugate:
            assert cyclic_equal(a, b)

    @given(cancelling_pairs())
    def test_full_cancellation(self, pair):
        a, b = pair
        assert isinstance(a.cyclic_free_reduce(), FPWord)
        assert cyclic_equal(a, b) == reference_cyclic_equal(a, b)

    @given(st.sampled_from(AMBIENTS).flatmap(lambda amb: st.tuples(t_words(amb), t_words(amb))))
    def test_independent_words(self, pair):
        a, b = pair
        assert cyclic_equal(a, b) == reference_cyclic_equal(a, b)

    def test_single_letter_cores(self):
        x, y = BASE.from_name("x"), BASE.from_name("y")
        for u in (tword("t"), tword("x t^-1 y t t"), h_word(y)):
            w = u * h_word(x) * u.inv()
            assert cyclic_equal(w, h_word(x)) and reference_cyclic_equal(w, h_word(x))
            assert not cyclic_equal(w, h_word(y))
            assert not cyclic_equal(w, tword("x t t^-1 t"))

    def test_key_is_rotation_invariant(self):
        w = tword("x t y t^-1 x t t").cyclic_free_reduce()
        assert {cyclic_key(r) for r in reference_rotations(w)} == {cyclic_key(w)}


# -- the syllable view at each site that read the layout by hand ----------------

CORPUS = json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                     "rewrite_corpus.json")))["words"]


def hand_after(w: TWord) -> tuple:
    """The segments after each sign, written out with the seam last."""
    return tuple(w.segments[1:-1]) + (w.segments[-1] * w.segments[0],)


def hand_fold(w: TWord) -> TWord:
    """A nontrivial last segment moved into the first."""
    if w.segments[-1].is_identity():
        return w
    segs = (w.segments[-1] * w.segments[0],) + w.segments[1:-1] + (w.ambient.one(),)
    return TWord(w.ambient, segs, w.signs)


class TestSyllables:
    def test_items_inverts_from_items(self):
        for text in ("x t y t^-1 x t", "t t x", "x", "t^-1", ""):
            w = tword(text)
            assert from_items(BASE, w.items()) == w
            assert not any(isinstance(i, FPWord) and i.is_identity() for i in w.items())

    def test_t_free_word_has_none(self):
        with pytest.raises(ValueError):
            syllables(tword("x y"))

    @pytest.mark.parametrize("pres", [pres_z3(2), pres_s3(2), pres_z3(3)],
                             ids=["z3-k2", "s3-k2", "z3-k3"])
    def test_relator_corners(self, pres):
        rel, inv = pres.relator(), pres.relator().inv()
        plus, minus = face_templates(EnumerationConfig(pres))[:2]
        assert (plus.signs, plus.corners) == (rel.signs, rel.segments[1:-1] + (rel.segments[0],))
        assert (minus.signs, minus.corners) == (inv.signs, hand_after(inv))

    def test_corpus_patterns_and_folds(self):
        for text in CORPUS:
            w = parse_word(text, BASE)
            assert hand_fold(w.free_reduce()) == w.cyclic_free_reduce(), text
            for k in (2, 3):
                p0 = initial_rewrite(Z3, w, k)
                for p in (p0, minimize(p0)):
                    if p.s == 0:
                        continue
                    sub = _substitute_top_copy(p)
                    red = sub.cyclic_free_reduce()
                    assert syllables(red) == (red.signs, hand_after(red)), text
                    assert extract_pattern(sub) == extract_pattern(red), text

    @given(twords())
    def test_fold_of_reduced_words(self, w):
        w = w.free_reduce()
        if w.t_count and is_cyclically_reduced(w):
            assert hand_fold(w) == w.cyclic_free_reduce()
