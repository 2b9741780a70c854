"""Words over H * <t>: alternating H-segments and signed t-letters.

Layout.  A TWord with n t-letters stores n+1 H-segments and n signs,
h_0 t^{e_0} h_1 ... t^{e_(n-1)} h_n, so every prefix is well defined
letter by letter even when segments are trivial.  ``TWord.items`` walks
them in word order.  Read cyclically (``syllables``), sign i is followed
by the segment ``after[i]``: ``h_(i+1)`` for i < n-1, and for the last
sign the seam ``h_n * h_0``, where the word's end meets its start.
``cyclic_free_reduce`` writes its result with a trivial last segment, so
that its first segment is the seam.  Conjugating by an element of H
changes only how the seam is split between h_n and h_0, and conjugating
by t rotates the (sign, after) sequence; so its least rotation, the
``cyclic_key``, decides whether two cyclically reduced words with
t-letters are conjugate.

Grammar.  The word grammar accepted by parse_word:

    token   = name | name@copy | t | t^-1 | '(' word ')' '^' int
    word    = token*            (whitespace separated)

Element names come from the ambient group table; t is reserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .freeprod import FPWord, FreeProduct, conjugate_in_free_product


class WordParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class TWord:
    """h_0 t^{e_0} h_1 ... t^{e_(n-1)} h_n with segments h_i in H."""
    ambient: FreeProduct
    segments: tuple[FPWord, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.segments) != len(self.signs) + 1:
            raise ValueError("segment/sign length mismatch")
        if any(e not in (1, -1) for e in self.signs):
            raise ValueError("t exponents must be +-1")

    # -- basics --------------------------------------------------------

    @property
    def t_count(self) -> int:
        return len(self.signs)

    def exponent_sum(self) -> int:
        return sum(self.signs)

    def is_h_word(self) -> bool:
        return self.t_count == 0

    def h_value(self) -> FPWord:
        if not self.is_h_word():
            raise ValueError("word contains t-letters")
        return self.segments[0]

    def items(self) -> list:
        """The nontrivial segments and the t-signs in word order, the
        inverse of ``from_items``: ``from_items(w.ambient, w.items()) == w``."""
        segs = self.segments
        out: list = [segs[0]] if segs[0] else []
        for e, h in zip(self.signs, segs[1:]):
            out.append(e)
            if h:
                out.append(h)
        return out

    def __mul__(self, other: "TWord") -> "TWord":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        seam = self.segments[-1] * other.segments[0]
        return TWord(self.ambient,
                     self.segments[:-1] + (seam,) + other.segments[1:],
                     self.signs + other.signs)

    def inv(self) -> "TWord":
        return TWord(self.ambient,
                     tuple(h.inv() for h in reversed(self.segments)),
                     tuple(-e for e in reversed(self.signs)))

    def pow(self, n: int) -> "TWord":
        if n < 0:
            return self.inv().pow(-n)
        out = h_word(self.ambient.one())
        for _ in range(n):
            out = out * self
        return out

    def free_reduce(self) -> "TWord":
        """Cancel adjacent t, t^-1 pairs separated by an identity segment.

        One pass over the t-letters with the reduced prefix as a stack: a
        letter that cancels the last one pops it, and the segment after it
        joins the one before.  The reduced word is the free product's
        normal form, so it does not depend on the order of cancellations.
        """
        segs = [self.segments[0]]
        signs: list[int] = []
        for e, h in zip(self.signs, self.segments[1:]):
            if signs and signs[-1] == -e and segs[-1].is_identity():
                signs.pop()
                segs.pop()
                segs[-1] = segs[-1] * h
            else:
                signs.append(e)
                segs.append(h)
        return TWord(self.ambient, tuple(segs), tuple(signs))

    def cyclic_free_reduce(self) -> "TWord | FPWord":
        """Reduce all t-cancellations in the cyclic word.

        Returns an FPWord (the cyclically reduced H-core) when every
        t-letter cancels, otherwise a TWord with a trivial last segment
        whose cyclic form admits no further cancellation.  The linear
        word is freely reduced first, so only the seam can cancel, and
        each cancellation there makes a new seam.
        """
        w = self.free_reduce()
        if w.t_count == 0:
            return w.segments[0].cyclic_reduce()[0]
        signs, after = syllables(w)
        while signs[-1] == -signs[0] and after[-1].is_identity():
            if len(signs) == 2:
                return after[0].cyclic_reduce()[0]
            signs, after = signs[1:-1], after[1:-2] + (after[-2] * after[0],)
        return TWord(self.ambient, (after[-1],) + after[:-1] + (self.ambient.one(),), signs)


def h_word(h: FPWord) -> TWord:
    return TWord(h.ambient, (h,), ())


def t_letter(ambient: FreeProduct, sign: int = 1) -> TWord:
    return TWord(ambient, (ambient.one(), ambient.one()), (sign,))


def syllables(w: TWord) -> tuple[tuple[int, ...], tuple[FPWord, ...]]:
    """The cyclic view of a word with t-letters: its signs, and per sign
    the H-segment that follows it cyclically, the last one being the seam
    ``segments[-1] * segments[0]``.  The word is read as it is, not
    reduced."""
    segs = w.segments
    if len(segs) < 2:
        raise ValueError("a t-free word has no syllables")
    return w.signs, segs[1:-1] + (segs[-1] * segs[0],)


def cyclic_key(w: TWord) -> tuple:
    """The least rotation of the (sign, following segment's letters)
    sequence of a cyclically reduced word with t-letters; two such words
    are conjugate in H * <t> exactly when their keys are equal."""
    signs, after = syllables(w)
    seq = tuple(zip(signs, [h.letters for h in after]))
    return min(seq[r:] + seq[:r] for r in range(len(seq)))


def from_items(ambient: FreeProduct, items) -> TWord:
    """Build a TWord from a list of FPWord segments and +-1 t-signs, in
    one pass: each segment is multiplied into the last one."""
    segs = [ambient.one()]
    signs = []
    for item in items:
        if isinstance(item, FPWord):
            segs[-1] = segs[-1] * item
        elif item in (1, -1):
            signs.append(item)
            segs.append(ambient.one())
        else:
            raise TypeError(f"bad item {item!r}")
    return TWord(ambient, tuple(segs), tuple(signs))


def is_unimodular(w: TWord) -> bool:
    """True iff the t-exponent sum is exactly one after free reduction."""
    return w.free_reduce().exponent_sum() == 1


def t_exponent_residue(w: TWord, k: int) -> int:
    """Exponent sum mod k.

    A nonzero residue certifies the word is not a product of conjugates
    of k-th powers of any fixed word: every such product has t-exponent
    divisible by k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return w.exponent_sum() % k


def is_cyclically_reduced(w: TWord) -> bool:
    w = w.free_reduce()
    if w.t_count == 0:
        return True
    signs, after = syllables(w)
    return not (signs[-1] == -signs[0] and after[-1].is_identity())


def cyclic_equal(a: TWord, b: TWord) -> bool:
    """Equality of cyclic words, i.e. conjugacy in H * <t>: cyclically
    reduce, then compare cyclic keys, or test t-free cores for conjugacy
    in H."""
    ar = a.cyclic_free_reduce()
    br = b.cyclic_free_reduce()
    if isinstance(ar, FPWord) or isinstance(br, FPWord):
        return (isinstance(ar, FPWord) and isinstance(br, FPWord)
                and conjugate_in_free_product(ar, br))
    return ar.t_count == br.t_count and cyclic_key(ar) == cyclic_key(br)


# -- parsing -----------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)(\^-?\d+)?|[^\s()]+")


def tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() > pos and text[pos:m.start()].strip():
            raise WordParseError(f"unreadable input {text[pos:m.start()]!r}", pos)
        tokens.append((m.group(0), m.start()))
        pos = m.end()
    if text[pos:].strip():
        raise WordParseError(f"unreadable input {text[pos:]!r}", pos)
    return tokens


def parse_word(text: str, ambient: FreeProduct) -> TWord:
    """Parse the word grammar over the ambient group's element names."""
    tokens = tokenize(text)
    word, rest = _parse_seq(tokens, ambient, depth=0)
    if rest:
        tok, p = rest[0]
        raise WordParseError(f"unexpected token {tok!r}", p)
    return word


def _parse_seq(tokens, ambient: FreeProduct, depth: int):
    out = h_word(ambient.one())
    i = 0
    while i < len(tokens):
        tok, pos = tokens[i]
        if tok == "(":
            inner, rest = _parse_seq(tokens[i + 1:], ambient, depth + 1)
            if not rest or not rest[0][0].startswith(")"):
                raise WordParseError("unclosed parenthesis", pos)
            closer, cpos = rest[0]
            power = 1
            if len(closer) > 1:
                power = int(closer[2:])
            elif len(closer) == 1:
                raise WordParseError("parenthesized group needs an explicit ^n", cpos)
            out = out * inner.pow(power)
            consumed = len(tokens) - len(rest) + 1
            tokens = tokens[consumed:]
            i = 0
            continue
        if tok.startswith(")"):
            if depth == 0:
                raise WordParseError("unmatched closing parenthesis", pos)
            return out, tokens[i:]
        if tok == "t":
            out = out * t_letter(ambient, 1)
        elif tok == "t^-1":
            out = out * t_letter(ambient, -1)
        else:
            name, copy_index = tok, 0
            if "@" in tok:
                name, _, suffix = tok.partition("@")
                if not suffix.isdigit():
                    raise WordParseError(f"bad copy suffix in {tok!r}", pos)
                copy_index = int(suffix)
            if copy_index > ambient.s:
                raise WordParseError(f"copy index {copy_index} outside ambient", pos)
            try:
                elem = ambient.group.index_of(name)
            except Exception:
                raise WordParseError(f"unknown element token {name!r}", pos) from None
            out = out * h_word(ambient.letter(copy_index, elem))
        i += 1
    if depth > 0:
        raise WordParseError("unclosed parenthesis", 0)
    return out, []


def parse_h_word(text: str, ambient: FreeProduct) -> FPWord:
    w = parse_word(text, ambient)
    if not w.is_h_word():
        raise WordParseError("expected a t-free word", 0)
    return w.h_value()


def word_str(w: TWord) -> str:
    parts: list[str] = []
    for item in w.items():
        if isinstance(item, FPWord):
            parts.extend(item.tokens())
        else:
            parts.append("t" if item == 1 else "t^-1")
    return " ".join(parts) if parts else "1"
