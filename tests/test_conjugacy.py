import random

import pytest
from hypothesis import given, strategies as st

import relpres.conjugacy as conjugacy
from relpres.conjugacy import (FreeProductModel, MalnormalityReport, OracleBoundExceeded,
                               StuckSignal, center_certificate, digon_step,
                               malnormality_oracle, oracle_checks, prefix_trace,
                               reduce_conjugator)
from relpres.freeprod import FreeProduct, inverse, normal_form, seam_product
from relpres.presentation import initial_rewrite, minimize
from relpres.words import TWord, from_items, parse_word, t_letter

from fixtures import S3, Z2, Z3, Z4, Z5, pres_z3

PRES = pres_z3(2)       # one copy level: bottom slice is copy 0
AMB = PRES.ambient
X0 = AMB.from_name("x")


def pres_with_spread(spread: int, k: int = 2):
    """Presentation whose copy spread is at least the requested value."""
    base = FreeProduct(Z3, 0)
    text = "x t " * spread + "x " + "t^-1 " * (spread - 1)
    w = parse_word(text.strip(), base)
    p = initial_rewrite(Z3, w, k)
    assert p.s >= spread - 1
    return p


class TestDigonStep:
    def test_shift_up(self):
        assert digon_step(X0, 1) == X0.shift(1)

    def test_membership_violation(self):
        with pytest.raises(StuckSignal) as err:
            digon_step(X0.shift(1), 1)
        assert err.value.required == "bottom"
        with pytest.raises(StuckSignal):
            digon_step(X0, -1)

    @given(st.integers(1, 2))
    def test_roundtrip(self, elem):
        h = AMB.letter(0, elem)
        assert digon_step(digon_step(h, 1), -1) == h


class TestPrefixTrace:
    def test_h_word_single_entry(self):
        u = parse_word("x x@1", AMB)
        out = prefix_trace(u, X0)
        assert out.status != "stuck" and len(out.conjugate_trace) == 1
        assert out.conjugate_trace[0] == X0.conj(u.h_value())

    def test_single_t(self):
        out = prefix_trace(t_letter(AMB, 1), X0)
        assert out.status == "reduced-to-H"
        assert out.final_conjugate == X0.shift(1)
        assert out.residual_t_power == 1

    def test_stuck_records_position_and_slice(self):
        out = prefix_trace(t_letter(AMB, 1), X0.shift(1))
        assert out.status == "stuck"
        assert out.stuck_at == (0, "bottom")

    def test_replay_property(self):
        u = parse_word("x t x@1 t^-1 y", AMB)
        out = prefix_trace(u, X0)
        assert out.status != "stuck"
        letters = []
        red = u.free_reduce()
        for i, seg in enumerate(red.segments):
            if not seg.is_identity():
                letters.append(seg)
            if i < len(red.signs):
                letters.append(red.signs[i])
        cur = X0
        for expect, letter in zip(out.conjugate_trace, letters):
            if isinstance(letter, int):
                cur = digon_step(cur, letter)
            else:
                cur = cur.conj(letter)
            assert cur == expect

    def test_rejects_trivial_element(self):
        with pytest.raises(ValueError):
            prefix_trace(t_letter(AMB, 1), AMB.one())


class TestReduceConjugator:
    def test_single_fragment(self):
        u = parse_word("t^-1 x t", AMB)
        out = reduce_conjugator(u, X0)
        assert out.status == "reduced-to-H"
        assert out.steps == 1
        assert out.final_conjugator.is_h_word()
        assert out.final_conjugator.h_value() == X0.shift(1)

    def test_symmetric_fragment(self):
        u = parse_word("t x@1 t^-1", AMB)
        out = reduce_conjugator(u, X0)
        assert out.steps == 1 and out.status == "reduced-to-G0"
        assert out.final_conjugator.h_value() == X0

    def test_each_step_drops_two_t_letters(self):
        pres = pres_with_spread(3)
        amb = pres.ambient
        u = parse_word("t (t x@2 t^-1)^1 x@1 t^-1", amb)
        before = u.free_reduce().t_count
        out = reduce_conjugator(u, amb.from_name("x"))
        assert before - 2 * out.steps == out.final_conjugator.free_reduce().t_count

    def test_substitutions_verify_shift_identities(self):
        pres = pres_with_spread(3)
        amb = pres.ambient
        u = parse_word("t^-1 (t^-1 x t)^1 y t", amb)
        out = reduce_conjugator(u, amb.from_name("x"))
        assert out.substitutions
        for _pos, seg, shifted in out.substitutions:
            from relpres.words import parse_h_word
            a = parse_h_word(seg, amb)
            b = parse_h_word(shifted, amb)
            candidates = []
            for delta in (1, -1):
                try:
                    candidates.append(a.shift(delta))
                except Exception:
                    pass
            assert b in candidates

    def test_residual_t_power_reported(self):
        out = reduce_conjugator(t_letter(AMB, 1), X0)
        assert out.residual_t_power == 1
        assert out.status == "reduced-to-H"
        assert out.final_conjugate == X0.shift(1)
        assert out.final_conjugate.letters[0][0] == 1

    def test_stuck_outcome(self):
        out = reduce_conjugator(t_letter(AMB, 1), X0.shift(1))
        assert out.status == "stuck" and out.stuck_at is not None

    def test_conjugation_into_base_exhaustive_small(self):
        # u^-1 h u = g with h, g in the base copy forces u into the base copy
        amb = FreeProduct(Z2, 1)
        words = amb.words_up_to(4)
        base = {0}
        for u in words:
            for helem in Z2.nontrivial():
                h = amb.letter(0, helem)
                value = h.conj(u)
                if value.in_subproduct(base) and not value.is_identity():
                    assert u.in_subproduct(base), (u, h, value)


def inflate(rng, pres, depth):
    """Reverse-apply fragment substitutions starting from a base word."""
    amb = pres.ambient
    seed = amb.letter(0, rng.choice(Z3.nontrivial()))
    items = [seed]
    word = from_items(amb, items)
    for _ in range(depth):
        red = word.free_reduce()
        # choose a segment span lying in a shiftable slice and wrap it
        choices = []
        for idx, seg in enumerate(red.segments):
            if seg.in_bottom() and not seg.is_identity():
                choices.append((idx, seg, 1))
            if seg.in_top() and not seg.is_identity():
                choices.append((idx, seg, -1))
        if not choices:
            break
        idx, seg, direction = rng.choice(choices)
        segs = list(red.segments)
        signs = list(red.signs)
        shifted = seg.shift(direction)
        # seg equals t^dir shifted t^-dir since conjugating by t shifts up
        segs[idx:idx + 1] = [amb.one(), shifted, amb.one()]
        signs[idx:idx] = [direction]
        signs[idx + 1:idx + 1] = [-direction]
        word = TWord(amb, tuple(segs), tuple(signs))
    return word, seed


class TestInflationRoundtrip:
    def test_constructed_conjugators_reduce_back(self):
        rng = random.Random(23)
        pres = pres_with_spread(3)
        amb = pres.ambient
        for _ in range(100):
            u, seed = inflate(rng, pres, rng.randint(1, 4))
            h = amb.letter(0, rng.choice(Z3.nontrivial()))
            depth = u.free_reduce().t_count // 2
            out = reduce_conjugator(u, h)
            assert out.status in ("reduced-to-G0", "reduced-to-H")
            assert out.steps == depth
            assert out.final_conjugator.is_h_word()
            assert out.final_conjugator.h_value() == seed
            assert out.final_conjugate == h.conj(seed)


class TestFreeProductModel:
    def test_t_image(self):
        m = FreeProductModel(Z2, 1, 2)
        w = parse_word("t", FreeProduct(Z2, 0))
        assert m.map_word(w) == ((0, 1), (1, 1))

    def test_relator_word_dies(self):
        m = FreeProductModel(Z2, 1, 2)
        w = parse_word("x t", FreeProduct(Z2, 0))
        assert m.map_word(w.pow(2)) == ()

    def test_homomorphism_on_random_pairs(self):
        rng = random.Random(3)
        m = FreeProductModel(Z4, 1, 3)
        base = FreeProduct(Z4, 0)
        tokens = ["x", "y", "z", "t", "t^-1"]
        for _ in range(500):
            a = parse_word(" ".join(rng.choice(tokens)
                                    for _ in range(rng.randint(0, 5))), base)
            b = parse_word(" ".join(rng.choice(tokens)
                                    for _ in range(rng.randint(0, 5))), base)
            assert m.map_word(a * b) == seam_product(m.factors, m.map_word(a), m.map_word(b))

    def test_distinct_normal_forms_stay_distinct(self):
        m = FreeProductModel(Z4, 1, 2)
        base = FreeProduct(Z4, 0)
        words = ["x", "y", "t", "x t", "t x", "t t", "x t y"]
        images = [m.map_word(parse_word(w, base)) for w in words]
        assert len(set(images)) == len(words)


def model_words_up_to(model, syllables):
    """Every normal form of at most the given syllable count, breadth
    first: by length, then G-letters (copy 0) before x-letters (copy 1)
    after each prefix.  This is the conjugator order the oracle keeps."""
    out = [()]
    layer = [()]
    g_letters = [(0, v) for v in model.group.nontrivial()]
    x_letters = [(1, j) for j in range(1, model.k)]
    for _ in range(syllables):
        nxt = []
        for w in layer:
            last = w[-1][0] if w else None
            for letter in (g_letters if last != 0 else []) + \
                          (x_letters if last != 1 else []):
                nxt.append(w + (letter,))
        out.extend(nxt)
        layer = nxt
    return out


def conjugate(model, u, h):
    """u^-1 h u in the model, normalized from its full letter sequence."""
    return normal_form(model.factors, inverse(model.factors, u) + ((0, h),) + u)


def reference_oracle(group, g, k, max_syllables):
    """The oracle over the whole breadth-first word list, with every
    conjugate normalized from its full letter sequence."""
    model = FreeProductModel(group, g, k)
    checked = 0
    for u in model_words_up_to(model, max_syllables):
        if model.in_base_group(u):
            continue
        for h in group.nontrivial():
            value = conjugate(model, u, h)
            checked += 1
            if model.in_base_group(value):
                return MalnormalityReport(False, (u, h, value), checked)
    return MalnormalityReport(True, None, checked)


class TestMalnormalityOracle:
    def test_dihedral_example(self):
        rep = malnormality_oracle(Z2, 1, 2, 4)
        assert rep.holds and rep.checked > 0

    def test_conjugate_stays_outside(self):
        m = FreeProductModel(Z2, 1, 2)
        u = ((1, 1),)
        value = seam_product(m.factors, seam_product(m.factors, inverse(m.factors, u), ((0, 1),)), u)
        assert not m.in_base_group(value) and len(value) == 3

    @pytest.mark.parametrize("k", [2, 3])
    def test_z4_exhaustive(self, k):
        rep = malnormality_oracle(Z4, 1, k, 6)
        assert rep.holds, rep.counterexample

    def test_base_group_words_skipped(self):
        m = FreeProductModel(Z2, 1, 2)
        words = model_words_up_to(m, 2)
        outside = [u for u in words if not m.in_base_group(u)]
        assert ((0, 1),) not in outside and () not in outside

    # (group, g, k, max syllables): the README command, the check script's
    # z5 command and the benchmark's oracle settings
    SETTINGS = [(Z4, 1, 2, 6), (Z5, 1, 3, 8), (S3, 1, 2, 8), (Z3, 1, 4, 8), (Z5, 2, 2, 7),
                (S3, 3, 3, 6), (Z3, 2, 3, 8)]

    @pytest.mark.parametrize("group,g,k,length", SETTINGS)
    def test_streaming_matches_breadth_first_reference(self, group, g, k, length):
        rep = malnormality_oracle(group, g, k, length)
        assert rep == reference_oracle(group, g, k, length)

    @pytest.mark.parametrize("group,g,k,length", SETTINGS + [(Z3, 1, 2, 0), (Z3, 1, 2, 1)])
    def test_closed_form_counts_a_passing_run(self, group, g, k, length):
        rep = malnormality_oracle(group, g, k, length)
        assert rep.holds and rep.checked == oracle_checks(group.order, k, length)

    def test_over_bound_is_refused_before_walking(self, monkeypatch):
        monkeypatch.setattr(conjugacy, "MAX_ORACLE_CHECKS", oracle_checks(3, 3, 4))
        assert malnormality_oracle(Z3, 1, 3, 4).checked == conjugacy.MAX_ORACLE_CHECKS

        def no_walk(self, a):
            raise AssertionError("walked past the bound")
        monkeypatch.setattr(FreeProductModel, "in_base_group", no_walk)
        with pytest.raises(OracleBoundExceeded, match="bound"):
            malnormality_oracle(Z3, 1, 3, 5)

    @pytest.mark.parametrize("group,k", [(Z2, 2), (Z3, 3), (Z4, 3), (S3, 2), (S3, 4)])
    def test_holds_false_is_a_bug(self, group, k):
        """Free factors of a free product are malnormal: G meets u^-1 G u
        trivially for every u of G * Z_k outside G.  So ``holds: false`` in
        this model is a bug in the oracle, never a counterexample."""
        for g in group.nontrivial():
            rep = malnormality_oracle(group, g, k, 5)
            assert rep.holds and rep.counterexample is None, rep.counterexample

    @pytest.mark.parametrize("pick", [0, 7, 0.5, -1], ids=["first", "early", "middle", "last"])
    def test_same_first_hit_when_a_value_is_flagged(self, monkeypatch, pick):
        # every (u, h, value) the reference visits, in its order
        model = FreeProductModel(Z3, 1, 3)
        visits = [(u, h, conjugate(model, u, h))
                  for u in model_words_up_to(model, 5) if not model.in_base_group(u)
                  for h in Z3.nontrivial()]
        target = visits[int(pick * (len(visits) - 1)) if isinstance(pick, float) else pick][2]
        honest = FreeProductModel.in_base_group
        monkeypatch.setattr(FreeProductModel, "in_base_group",
                            lambda self, a: a == target or honest(self, a))
        rep = malnormality_oracle(Z3, 1, 3, 5)
        assert not rep.holds and rep.counterexample[2] == target
        assert rep == reference_oracle(Z3, 1, 3, 5)

    def test_shorter_hit_met_after_a_longer_one_wins(self, monkeypatch):
        """Flag a value of a five-syllable conjugator under the first
        x-letter and one of a four-syllable conjugator under the last.  The
        walk meets a flagged five-syllable value first, yet breadth first
        the four-syllable hit comes first, so the walk must go on past it."""
        model = FreeProductModel(Z3, 1, 3)
        words = [u for u in model_words_up_to(model, 5) if not model.in_base_group(u)]
        long_u = next(u for u in words if len(u) == 5 and u[0] == (1, 1))
        short_u = next(u for u in reversed(words) if len(u) == 4 and u[0] == (1, 2))
        targets = {conjugate(model, long_u, 1), conjugate(model, short_u, 2)}
        flagged = [u for u in words for h in Z3.nontrivial() if conjugate(model, u, h) in targets]
        # breadth first, then in the walk's pre-order (lexicographic, prefixes first)
        assert len(flagged[0]) == 4 and len(min(flagged)) == 5
        honest = FreeProductModel.in_base_group
        monkeypatch.setattr(FreeProductModel, "in_base_group",
                            lambda self, a: a in targets or honest(self, a))
        rep = malnormality_oracle(Z3, 1, 3, 5)
        assert not rep.holds and rep.counterexample[0] == flagged[0]
        assert rep == reference_oracle(Z3, 1, 3, 5)


class TestModelProduct:
    """The seam-only model product against normalizing both operands."""

    @pytest.mark.parametrize("group,k", [(Z3, 2), (Z4, 3), (S3, 2), (S3, 3)],
                             ids=["Z3-k2", "Z4-k3", "S3-k2", "S3-k3"])
    @given(data=st.data())
    def test_matches_normalize(self, group, k, data):
        factors = FreeProductModel(group, 1, k).factors
        raw = st.lists(st.one_of(st.tuples(st.just(0), st.integers(0, group.order - 1)),
                                 st.tuples(st.just(1), st.integers(0, k - 1))),
                       max_size=10)
        a, b, c = (normal_form(factors, data.draw(raw)) for _ in range(3))
        assert seam_product(factors, a, b) == normal_form(factors, a + b)
        b = normal_form(factors, inverse(factors, a) + c)   # cancels a from the seam outward
        assert seam_product(factors, a, b) == normal_form(factors, a + b) == c


class TestCenterCertificate:
    def test_z3_copy_spread(self):
        rep = center_certificate(PRES)
        assert rep.trivial_center_certified
        assert rep.t_outside_base == (1, 2)
        assert len(rep.element_checks) == 2
        for _h, conj, copy_index in rep.element_checks:
            assert copy_index == 1

    @pytest.mark.parametrize("group,name", [(Z3, "x"), (S3, "a")], ids=["Z3", "S3"])
    def test_single_letter_relator(self, group, name):
        # s = 0, m = -1 and one letter c: (c t)^k is checked in G * Z_k,
        # where no nontrivial base element commutes with x
        from relpres.presentation import RelPresentation
        pres = RelPresentation(group, 0, 2, FreeProduct(group, 0).from_name(name), ())
        rep = center_certificate(pres)
        assert rep.trivial_center_certified and rep.t_outside_base == (1, 2)
        assert rep.element_checks == tuple((group.names[g], "moved", -1)
                                           for g in group.nontrivial())

    def test_trivial_group_hypothesis(self):
        from relpres.groups import GroupTable
        from relpres.presentation import RelPresentation
        triv = GroupTable(["e"], [[0]])
        amb = FreeProduct(triv, 0)
        pres = RelPresentation(triv, 0, 2, amb.one(), ())
        rep = center_certificate(pres)
        assert not rep.trivial_center_certified
        assert not rep.group_nontrivial

    def test_minimized_single_letter_form(self):
        # a minimized presentation with s = 0 falls back to the model
        base = FreeProduct(Z3, 0)
        w = parse_word("x t y t^-1 x t", base)
        pres = minimize(initial_rewrite(Z3, w, 2))
        assert pres.s == 0
        rep = center_certificate(pres)
        # m >= 0 here, so the single-letter fallback reports its limits
        assert rep.group_nontrivial
