"""Rewriting <G,t | w^k> into a relative presentation over copies of G.

The target form is

    < H, t | {p^t = p^shift, p in P\\{1}},  (c t  prod_i b_i t^-1 a_i t)^k = 1 >

with H = G(0)*...*G(s), P the bottom slice, and the shift isomorphism
raising copy indices.  ``initial_rewrite`` produces the form with an empty
pair list; ``minimize`` drives it to a fixed point under the two
replacement moves (eliminate the top copy, absorb slice-contained
fragments), never increasing (s, m) lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .freeprod import FPWord, FreeProduct
from .groups import GroupTable, json_field
from .words import (TWord, cyclic_key, from_items, is_cyclically_reduced, is_unimodular,
                    syllables)


class RewriteError(ValueError):
    pass


@dataclass(frozen=True)
class RelPresentation:
    """Presentation data (s, k, c, pairs) over H = G(0)*...*G(s)."""
    group: GroupTable
    s: int
    k: int
    c: FPWord
    pairs: tuple[tuple[FPWord, FPWord], ...]  # (b_i, a_i)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise RewriteError(f"k must be an integer >= 2, got {self.k!r}")
        ambient = self.ambient
        if self.c.ambient != ambient or any(
                w.ambient != ambient for pair in self.pairs for w in pair):
            raise RewriteError(f"words must live in {self.s + 1} copies of the group")

    # Built once per instance: cached_property writes to the instance
    # __dict__, which the frozen dataclass's ==, hash and repr ignore.
    @cached_property
    def ambient(self) -> FreeProduct:
        return FreeProduct(self.group, self.s)

    @property
    def m(self) -> int:
        return len(self.pairs) - 1

    def inner_word(self) -> TWord:
        items: list = [self.c, 1]
        for b, a in self.pairs:
            items.extend([b, -1, a, 1])
        return from_items(self.ambient, items)

    def relator(self) -> TWord:
        return self._relator

    @cached_property
    def _relator(self) -> TWord:
        return self.inner_word().pow(self.k).free_reduce()

    @cached_property
    def relator_keys(self) -> tuple[tuple, tuple]:
        """The cyclic keys of the relator and of its inverse: a face label
        reads a relator exactly when its key is one of them."""
        rel = self.relator()
        return cyclic_key(rel.cyclic_free_reduce()), cyclic_key(rel.inv().cyclic_free_reduce())

    def digon_alphabet(self, max_syllables: int = 1) -> list[FPWord]:
        """Nontrivial bottom-slice words up to a syllable bound."""
        amb = self.ambient
        words = amb.words_up_to(max_syllables, sorted(amb.bottom_indices()))
        return [w for w in words if not w.is_identity()]

    def to_dict(self) -> dict:
        from .words import word_str
        return {
            "group": self.group.to_dict(),
            "s": self.s,
            "k": self.k,
            "c": str(self.c) if self.c else "",
            "pairs": [[str(b) if b else "", str(a) if a else ""]
                      for b, a in self.pairs],
            "relator": word_str(self.relator()),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RelPresentation":
        from .words import parse_h_word
        group = GroupTable.from_dict(json_field(data, "group", dict, RewriteError))
        s = json_field(data, "s", int, RewriteError)
        k = json_field(data, "k", int, RewriteError)
        c = json_field(data, "c", str, RewriteError)
        pairs = json_field(data, "pairs", list, RewriteError)
        if any(type(p) is not list or len(p) != 2 or any(type(w) is not str for w in p)
               for p in pairs):
            raise RewriteError("field 'pairs' must hold [b, a] pairs of strings")
        ambient = FreeProduct(group, s)

        def word(text: str) -> FPWord:
            return parse_h_word(text, ambient) if text else ambient.one()

        return cls(group=group, s=s, k=k, c=word(c),
                   pairs=tuple((word(b), word(a)) for b, a in pairs))

    @classmethod
    def from_file(cls, path: str) -> "RelPresentation":
        import json
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ConditionCheck:
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class ConditionsReport:
    nonempty_product: ConditionCheck        # m >= 0
    fragments_outside_slices: ConditionCheck  # a_i not in P, b_i not in P^phi
    certificate_exists: ConditionCheck      # normal forms split as slice * block * slice
    slice_structure: ConditionCheck         # free-product-of-copies shape

    @property
    def all_ok(self) -> bool:
        return (self.nonempty_product.ok and self.fragments_outside_slices.ok
                and self.certificate_exists.ok and self.slice_structure.ok)


@dataclass(frozen=True)
class PairCertificate:
    """Normal-form bracketing of one pair (b_i, a_i).

    p1 * a_i * p2 begins and ends in the top copy; n is the order of that
    product in H.  q1, q2, m_order are the symmetric data for b_i with the
    bottom copy.
    """
    p1: FPWord
    p2: FPWord
    n: int | float
    q1: FPWord
    q2: FPWord
    m_order: int | float


@dataclass(frozen=True)
class ShapeCertificate:
    pairs: tuple[PairCertificate, ...]


def initial_rewrite(group: GroupTable, w: TWord, k: int) -> RelPresentation:
    """First rewriting step: collect G-letters into indexed copies.

    The word w = g_1 t^{e_1} ... g_n t^{e_n} (cyclically reduced,
    t-exponent sum one, n > 1) becomes (c t)^k over G(0)*...*G(s), where
    c gathers each g_i into the copy determined by its running t-depth,
    normalized by conjugation so all copy indices are nonnegative.
    """
    if k < 2:
        raise RewriteError("k must be >= 2")
    if w.ambient.s != 0:
        raise RewriteError("input word must be over the base group (no copies)")
    w = w.free_reduce()
    if not is_unimodular(w):
        raise RewriteError(f"word is not unimodular (t-exponent sum {w.exponent_sum()})")
    if not is_cyclically_reduced(w):
        raise RewriteError("word is not cyclically reduced")
    n = w.t_count
    if n <= 1:
        raise RewriteError(
            "single t-letter word: the group is a free product with a "
            "finite cyclic factor; use the free-product model instead")
    w = w.cyclic_free_reduce()    # the seam first, a trivial last segment
    heights = list(itertools.accumulate((0,) + w.signs[:-1]))  # height before g_i
    delta = max(heights)
    exponents = [delta - h for h in heights]
    s = max(exponents)
    ambient = FreeProduct(group, s)
    letters = []
    for j, seg in zip(exponents, w.segments[:-1]):
        letters.extend((j, element) for _, element in seg.letters)
    c = ambient.word(letters)
    return RelPresentation(group=group, s=s, k=k, c=c, pairs=())


def _substitute_top_copy(pres: RelPresentation) -> TWord:
    """Rewrite every top-copy letter g(s) as t^-1 g(s-1) t in the inner word."""
    amb = pres.ambient
    s = pres.s

    def expand(word: FPWord) -> list:
        items: list = []
        for letter in word.letters:
            if letter[0] == s:
                items.extend([-1, FPWord(amb, ((s - 1, letter[1]),)), 1])
            else:
                items.append(FPWord(amb, (letter,)))
        return items

    items: list = expand(pres.c) + [1]
    for b, a in pres.pairs:
        items.extend(expand(b) + [-1] + expand(a) + [1])
    return from_items(amb, items)


def extract_pattern(w: TWord) -> tuple[FPWord, tuple[tuple[FPWord, FPWord], ...]] | None:
    """Read (c, pairs) off a cyclic word of the standard alternating shape.

    The cyclic t-sign sequence must be + (-+)* : strictly alternating with
    exactly one doubled +, which locates c.  Returns None when the word is
    not of that shape.
    """
    w2 = w.cyclic_free_reduce()
    if isinstance(w2, FPWord):
        return None
    if w2.exponent_sum() != 1:
        return None
    n = w2.t_count
    signs, after = syllables(w2)
    if n == 1:
        if signs[0] != 1:
            return None
        return after[0], ()
    if n % 2 == 0:
        return None
    doubles = [i for i in range(n) if signs[i] == 1 and signs[(i + 1) % n] == 1]
    if len(doubles) != 1:
        return None
    if any(signs[i] == -1 and signs[(i + 1) % n] == -1 for i in range(n)):
        return None
    i = doubles[0]
    c = after[i]
    m = (n - 3) // 2
    pairs = []
    for j in range(m + 1):
        b_pos = (i + 1 + 2 * j) % n
        a_pos = (i + 2 + 2 * j) % n
        if signs[b_pos] != 1 or signs[a_pos] != -1:
            return None
        pairs.append((after[b_pos], after[a_pos]))
    return c, tuple(pairs)


def eliminate_top_copy(pres: RelPresentation) -> RelPresentation | None:
    """Try the move that trades the top copy for extra pairs.

    Substitutes g(s) -> t^-1 g(s-1) t everywhere, then re-reads the
    standard shape.  Returns the presentation over one copy fewer, or None
    when the substituted word does not have the shape (the move fails and
    s is already fixed-point minimal for this move set).
    """
    if pres.s == 0:
        return None
    substituted = _substitute_top_copy(pres)
    extracted = extract_pattern(substituted)
    if extracted is None:
        return None
    c, pairs = extracted
    new_ambient = FreeProduct(pres.group, pres.s - 1)
    if c.max_copy_index() >= pres.s or any(
            max(b.max_copy_index(), a.max_copy_index()) >= pres.s for b, a in pairs):
        return None
    # normal forms in copies below s are normal forms over one copy fewer
    return RelPresentation(
        group=pres.group, s=pres.s - 1, k=pres.k,
        c=FPWord(new_ambient, c.letters),
        pairs=tuple((FPWord(new_ambient, b.letters), FPWord(new_ambient, a.letters))
                    for b, a in pairs))


def _apply_pair_absorption(pres: RelPresentation) -> RelPresentation | None:
    """Absorb the leftmost fragment lying in its slice, dropping one pair.

    t b_j t^-1 with b_j in the top slice becomes its downshift;
    t^-1 a_j t with a_j in the bottom slice becomes its upshift.
    """
    bottom = pres.ambient.bottom_indices()
    top = pres.ambient.top_indices()
    for j, (b, a) in enumerate(pres.pairs):
        if b.in_subproduct(top):
            shifted = b.shift(-1)
            if j == 0:
                c = pres.c * shifted * a
                return RelPresentation(pres.group, pres.s, pres.k, c, pres.pairs[1:])
            pb, pa = pres.pairs[j - 1]
            merged = (pb, pa * shifted * a)
            return RelPresentation(pres.group, pres.s, pres.k, pres.c,
                                   pres.pairs[:j - 1] + (merged,) + pres.pairs[j + 1:])
        if a.in_subproduct(bottom):
            shifted = a.shift(1)
            if j == pres.m:
                c = b * shifted * pres.c
                return RelPresentation(pres.group, pres.s, pres.k, c, pres.pairs[:j])
            nb, na = pres.pairs[j + 1]
            merged = (b * shifted * nb, na)
            return RelPresentation(pres.group, pres.s, pres.k, pres.c,
                                   pres.pairs[:j] + (merged,) + pres.pairs[j + 2:])
    return None


def minimize(pres: RelPresentation, max_moves: int = 10000) -> RelPresentation:
    """Drive the presentation to a fixed point of the two moves.

    Pair absorptions run first (each drops m by one at fixed s); when none
    applies, the top-copy elimination is attempted (drops s by one).  The
    pair (s, m) decreases lexicographically, so this terminates.
    """
    moves = 0
    while True:
        nxt = _apply_pair_absorption(pres)
        if nxt is None:
            nxt = eliminate_top_copy(pres)
        if nxt is None:
            break
        if (nxt.s, nxt.m) >= (pres.s, pres.m):
            raise RewriteError("minimization move failed to decrease (s, m) "
                               "(internal inconsistency)")
        pres = nxt
        moves += 1
        if moves > max_moves:
            raise RewriteError("minimization move bound exceeded (internal inconsistency)")
    if pres.inner_word().free_reduce().exponent_sum() != 1:
        raise RewriteError("minimized inner word has t-exponent sum other than 1 "
                           "(internal inconsistency)")
    return pres


def _block_certificate(word: FPWord, block_indices: frozenset[int],
                       outside: frozenset[int]) -> tuple[FPWord, FPWord] | None:
    """Split a normal form as prefix * block * suffix with the block
    starting and ending in the given copy set and prefix/suffix outside."""
    amb = word.ambient
    positions = [i for i, (copy, _) in enumerate(word.letters) if copy in block_indices]
    if not positions:
        return None
    first, last = positions[0], positions[-1]
    prefix = FPWord(amb, word.letters[:first])
    suffix = FPWord(amb, word.letters[last + 1:])
    if not prefix.in_subproduct(outside) or not suffix.in_subproduct(outside):
        return None
    return prefix, suffix


def shape_certificate(pres: RelPresentation) -> ShapeCertificate:
    """Bracketing data for every pair; raises when a pair has no block."""
    amb = pres.ambient
    top_block = frozenset({pres.s})
    bottom_block = frozenset({0})
    out = []
    for i, (b, a) in enumerate(pres.pairs):
        split_a = _block_certificate(a, top_block, amb.bottom_indices())
        split_b = _block_certificate(b, bottom_block, amb.top_indices())
        if split_a is None or split_b is None:
            raise RewriteError(f"pair {i} admits no slice bracketing")
        alpha, beta = split_a
        gamma, delta = split_b
        p1, p2 = alpha.inv(), beta.inv()
        q1, q2 = gamma.inv(), delta.inv()
        out.append(PairCertificate(
            p1=p1, p2=p2, n=(p1 * a * p2).order(),
            q1=q1, q2=q2, m_order=(q1 * b * q2).order()))
    return ShapeCertificate(tuple(out))


def verify_conditions(pres: RelPresentation) -> ConditionsReport:
    """Check the four structural conditions of the minimized presentation."""
    bottom = pres.ambient.bottom_indices()
    top = pres.ambient.top_indices()

    cond1 = ConditionCheck(pres.m >= 0, "" if pres.m >= 0 else f"m = {pres.m}")

    bad = []
    for i, (b, a) in enumerate(pres.pairs):
        if a.in_subproduct(bottom):
            bad.append(f"a_{i} = {a} lies in the bottom slice")
        if b.in_subproduct(top):
            bad.append(f"b_{i} = {b} lies in the top slice")
    cond2 = ConditionCheck(not bad, "; ".join(bad))

    try:
        shape_certificate(pres)
        cond3 = ConditionCheck(True)
    except RewriteError as exc:
        cond3 = ConditionCheck(False, str(exc))

    # the slice structure (free products of copies, shift isomorphism) is
    # carried by construction; verify index ranges as a sanity check
    words = [pres.c] + [w for pair in pres.pairs for w in pair]
    in_range = all(0 <= copy <= pres.s for w in words for copy, _ in w.letters)
    cond4 = ConditionCheck(in_range, "" if in_range else "copy index out of range")

    return ConditionsReport(cond1, cond2, cond3, cond4)


def evaluate_alternating_word(a: FPWord, parts: list[tuple[int, FPWord]]
                              ) -> tuple[FPWord, int]:
    """Evaluate a^{n_1} p_1 ... a^{n_r} p_r in H and report max |n_j|.

    The p_j separate the power blocks, so the longest run of a^{+-1}
    letters standing successively is the largest |n_j|.
    """
    if not parts:
        raise RewriteError("malformed alternation: empty")
    value = a.ambient.one()
    max_run = 0
    for n_j, p_j in parts:
        if n_j == 0:
            raise RewriteError("malformed alternation: zero exponent")
        if p_j.is_identity():
            raise RewriteError("malformed alternation: trivial separator")
        value = value * a.pow(n_j) * p_j
        max_run = max(max_run, abs(n_j))
    return value, max_run


def back_substitute(pres: RelPresentation) -> TWord:
    """Expand copy letters g(j) -> t^-j g t^j in the relator.

    The result lives over the base group and must freely reduce to a
    cyclic conjugate of w^k; tests use this as the correctness oracle.
    """
    base = FreeProduct(pres.group, 0)
    relator = pres.relator()
    items: list = []
    for item in relator.items():
        if not isinstance(item, FPWord):
            items.append(item)
            continue
        for copy, element in item.letters:
            items.extend([-1] * copy)
            items.append(FPWord(base, ((0, element),)))
            items.extend([1] * copy)
    return from_items(base, items).free_reduce()
