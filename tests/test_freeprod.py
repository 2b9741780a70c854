import random

import pytest
from hypothesis import given, strategies as st

from relpres.freeprod import (AmbientMismatch, FreeProduct, ShiftDomainError,
                              conjugate_in_free_product)
from relpres.groups import GroupTable, GroupTableError, cyclic_group

from fixtures import S3, Z3

H1 = FreeProduct(Z3, 1)
H2 = FreeProduct(Z3, 2)


def naive_reduce(ambient, raw):
    """Order-independent oracle: scan repeatedly for any adjacent merge."""
    letters = [(c, e) for c, e in raw if e != ambient.group.identity]
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1, 0, -1):
            if i < len(letters) and letters[i - 1][0] == letters[i][0]:
                merged = ambient.group.mul(letters[i - 1][1], letters[i][1])
                if merged == ambient.group.identity:
                    del letters[i - 1:i + 1]
                else:
                    letters[i - 1:i + 1] = [(letters[i - 1][0], merged)]
                changed = True
        letters = [(c, e) for c, e in letters if e != ambient.group.identity]
    return letters


raw_seqs = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=14)


class TestGroupTable:
    def test_cyclic_basics(self):
        assert Z3.identity == 0
        assert Z3.mul(1, 2) == 0
        assert Z3.inv(1) == 2
        assert Z3.element_order(1) == 3

    def test_rejects_broken_table(self):
        with pytest.raises(GroupTableError):
            GroupTable(["e", "a"], [[0, 1], [1, 1]])

    def test_rejects_reserved_names(self):
        with pytest.raises(GroupTableError):
            cyclic_group(2, ["e", "t"])

    def test_nonassociative_rejected(self):
        # a loop with identity and two-sided inverses but no associativity
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(GroupTableError):
            GroupTable(["e", "a", "b", "c", "d"], table)


def cubic_associativity_error(names, table):
    """The full triple loop: the error text of the first non-associative
    triple in lexicographic order, or None for an associative table."""
    n = len(names)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"not associative at ({names[a]},{names[b]},{names[c]})"
    return None


def dihedral(n):
    """D_n: rotations r^i are 0..n-1, reflections s r^i are n..2n-1."""
    def mul(x, y):
        i, j = x % n, y % n
        if x < n:
            return (i + j) % n if y < n else n + (j - i) % n
        return n + (i + j) % n if y < n else (j - i) % n
    return GroupTable([f"g{x}" for x in range(2 * n)],
                      [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)])


def renumbered(group, rng):
    perm = rng.sample(range(group.order), group.order)
    names, table = [""] * group.order, [[0] * group.order for _ in range(group.order)]
    for x in range(group.order):
        names[perm[x]] = group.names[x]
        for y in range(group.order):
            table[perm[x]][perm[y]] = perm[group.table[x][y]]
    return names, table


class TestLightsAssociativity:
    """Light's test over a generating set against the full triple loop."""

    @pytest.mark.parametrize("group", [cyclic_group(1), cyclic_group(12), cyclic_group(31),
                                       dihedral(5), dihedral(8), S3],
                             ids=["Z1", "Z12", "Z31", "D5", "D8", "S3"])
    def test_same_verdict_and_error_text(self, group):
        rng = random.Random(group.order)
        for _ in range(4):
            names, table = renumbered(group, rng)
            assert cubic_associativity_error(names, table) is None
            assert GroupTable(names, table).table == tuple(map(tuple, table))
            e = table.index(list(range(group.order)))
            cells = [(a, b) for a in range(group.order) for b in range(group.order)
                     if e not in (a, b, table[a][b])]
            for a, b in rng.sample(cells, min(len(cells), 12)):
                # one entry off: identity and inverses survive, associativity not
                bad = [row[:] for row in table]
                bad[a][b] = rng.choice([v for v in range(group.order)
                                        if v not in (e, table[a][b])])
                expect = cubic_associativity_error(names, bad)
                assert expect is not None
                with pytest.raises(GroupTableError) as err:
                    GroupTable(names, bad)
                assert str(err.value) == expect


class TestNormalForm:
    def test_inverse_cancellation(self):
        w = H1.word([(0, 1), (0, 2)])
        assert w.is_identity()

    def test_forced_cascade(self):
        # Z/3 named e,x,y: (0,x)(1,x)(1,y) -> merge to identity -> cascade
        w = H1.word([(0, 1), (1, 1), (1, 2), (0, 2)])
        assert w.is_identity()

    def test_already_alternating(self):
        w = H1.word([(0, 1), (1, 1), (0, 1)])
        assert len(w) == 3

    def test_index_errors(self):
        with pytest.raises(IndexError):
            H1.word([(5, 1)])
        with pytest.raises(IndexError):
            H1.word([(0, 9)])

    @given(raw_seqs)
    def test_matches_orderless_oracle(self, raw):
        w = H2.word(raw)
        oracle = naive_reduce(H2, raw)
        assert list(w.letters) == oracle

    @given(raw_seqs)
    def test_idempotent(self, raw):
        w = H2.word(raw)
        again = H2.word(w.letters)
        assert again == w


words = st.builds(lambda raw: H2.word(raw), raw_seqs)


class TestGroupLaws:
    @given(words, words, words)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_associative_thousand_random_triples(self):
        import random
        rng = random.Random(1000)
        def draw():
            return H2.word([(rng.randint(0, 2), rng.randint(0, 2))
                            for _ in range(rng.randint(0, 10))])
        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            assert (a * b) * c == a * (b * c)

    @given(words)
    def test_identity_inverse(self, a):
        assert a * H2.one() == a
        assert (a * a.inv()).is_identity()
        assert (a.inv() * a).is_identity()

    @given(words, words)
    def test_conj(self, a, by):
        assert a.conj(by) == by.inv() * a * by

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            H1.one() * H2.one()


def normal_forms(ambient):
    letters = st.tuples(st.integers(0, ambient.s), st.integers(0, ambient.group.order - 1))
    return st.lists(letters, max_size=10).map(ambient.word)


def full_product(a, b):
    """The product by normalizing every letter of both operands."""
    return a.ambient.word(a.letters + b.letters)


class TestSeamProduct:
    """The seam-only product against normalizing the concatenated letters."""

    @pytest.mark.parametrize("group", [Z3, S3], ids=["Z3", "S3"])
    @pytest.mark.parametrize("s", [0, 1, 2])
    @given(data=st.data())
    def test_matches_full_normalization(self, group, s, data):
        amb = FreeProduct(group, s)
        a, b, c = (data.draw(normal_forms(amb)) for _ in range(3))
        assert a * b == full_product(a, b)
        # b = a^-1 c cancels a from the seam outward
        b = full_product(a.inv(), c)
        assert a * b == full_product(a, b) == c
        assert b * a.inv() == full_product(b, a.inv())


class TestCyclicReduce:
    def test_single_outer_cancellation(self):
        # (0,x)(1,y)(0,x^-1): core (1,y), conjugator (0,x^-1)
        a = H1.word([(0, 1), (1, 2), (0, 2)])
        core, conj = a.cyclic_reduce()
        assert core.letters == ((1, 2),)
        assert conj.letters == ((0, 2),)
        assert core.conj(conj) == a

    @given(words)
    def test_contract(self, a):
        core, conj = a.cyclic_reduce()
        assert core.conj(conj) == a
        if len(core) >= 2:
            assert core.letters[0][0] != core.letters[-1][0]


class TestSubproductAndShift:
    def test_membership(self):
        assert H1.one().in_subproduct({0})
        assert not H1.word([(0, 1), (1, 2)]).in_subproduct({0})
        assert H1.word([(0, 1), (1, 2)]).in_subproduct({0, 1})

    def test_shift_examples(self):
        assert H1.one().shift(1).is_identity()
        w = H1.word([(0, 1)])
        assert w.shift(1) == H1.word([(1, 1)])

    def test_shift_domain(self):
        with pytest.raises(ShiftDomainError):
            H1.word([(1, 1)]).shift(1)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=10))
    def test_shift_roundtrip_and_isomorphism(self, raw):
        a = H2.word(raw)
        assert a.shift(1).shift(-1) == a

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=8),
           st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=8))
    def test_shift_preserves_products(self, ra, rb):
        a, b = H2.word(ra), H2.word(rb)
        assert (a * b).shift(1) == a.shift(1) * b.shift(1)
        assert a.inv().shift(1) == a.shift(1).inv()


class TestOrderAndConjugacy:
    def test_orders(self):
        assert H1.one().order() == 1
        assert H1.word([(0, 1)]).order() == 3
        assert H1.word([(0, 1), (1, 1)]).order() == float("inf")

    def test_conjugate_rotation(self):
        a = H1.word([(0, 1), (1, 1), (0, 2), (1, 2)])
        b = H1.word([(0, 2), (1, 2), (0, 1), (1, 1)])
        assert conjugate_in_free_product(a, b)

    def test_conjugate_in_factor(self):
        a = H1.word([(0, 1)])
        b = H1.word([(0, 1)])
        c = H1.word([(0, 2)])
        assert conjugate_in_free_product(a, b)
        assert not conjugate_in_free_product(a, c)  # Z/3 abelian: x !~ y

    def test_different_lengths(self):
        assert not conjugate_in_free_product(H1.one(), H1.word([(0, 1)]))

    @given(words, words)
    def test_actual_conjugates_detected(self, a, by):
        assert conjugate_in_free_product(a, a.conj(by))
