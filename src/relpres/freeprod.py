"""Free products of finite groups and their normal forms.

The ambient structure is H = G(0) * G(1) * ... * G(s).  Words are kept in
normal form: no identity letters, adjacent letters in distinct copies.
The bottom slice P (copies 0..s-1) and top slice (copies 1..s) are related
by the shift isomorphism, which raises every copy index by one.

A letter is a plain ``(copy, element)`` pair of ints and a word a tuple
of letters.  Three functions over such tuples are the whole kernel of
normal forms, whatever the factors are; each takes the factor tables
indexed by copy, ``FreeProduct.factors`` = ``(group,) * (s + 1)`` here:
``normal_form`` reduces a raw letter sequence, ``seam_product``
multiplies two normal forms, which can cancel only where they join, and
``inverse`` inverts one.  The G * Z_k model of ``conjugacy`` runs on the
same three functions with the tables ``(group, cyclic_group(k))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .groups import GroupTable

Letters = tuple[tuple[int, int], ...]     # a word's (copy, element) pairs


class AmbientMismatch(ValueError):
    pass


class ShiftDomainError(ValueError):
    pass


def normal_form(factors: Sequence[GroupTable], raw: Iterable[tuple[int, int]]) -> Letters:
    """Normal form of a raw letter sequence: adjacent same-copy letters are
    merged and identity letters deleted, cascading until stable."""
    out: list[tuple[int, int]] = []
    for copy, element in raw:
        group = factors[copy]
        if out and out[-1][0] == copy:
            element = group.table[out.pop()[1]][element]
        if element != group.identity:
            out.append((copy, element))
    return tuple(out)


def seam_product(factors: Sequence[GroupTable], a: Letters, b: Letters) -> Letters:
    """Product of two normal forms: letters are merged or cancelled where
    they join, and the untouched parts of both operands are kept."""
    if not a or not b or a[-1][0] != b[0][0]:        # distinct factors meet
        return a + b
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        copy = b[j][0]
        group = factors[copy]
        element = group.table[a[i - 1][1]][b[j][1]]
        i -= 1
        j += 1
        if element != group.identity:
            return a[:i] + ((copy, element),) + b[j:]
    return a[:i] + b[j:]


def inverse(factors: Sequence[GroupTable], a: Letters) -> Letters:
    return tuple([(copy, factors[copy].inverse[element]) for copy, element in reversed(a)])


@dataclass(frozen=True)
class FreeProduct:
    """Ambient free product of s+1 copies of a finite group."""
    group: GroupTable
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be >= 0")

    @property
    def copies(self) -> range:
        return range(self.s + 1)

    # Built once per instance: cached_property writes to the instance
    # __dict__, which the frozen dataclass's ==, hash and repr ignore.
    @cached_property
    def factors(self) -> tuple[GroupTable, ...]:
        """The factor tables indexed by copy."""
        return (self.group,) * (self.s + 1)

    def bottom_indices(self) -> frozenset[int]:
        """Copy indices of the shift's domain (the subgroup P)."""
        return frozenset(range(self.s))

    def top_indices(self) -> frozenset[int]:
        """Copy indices of the shift's image."""
        return frozenset(range(1, self.s + 1))

    # -- construction -------------------------------------------------

    def word(self, raw: Iterable[tuple[int, int]]) -> "FPWord":
        """Normal form of a raw (copy_index, element) sequence, every
        letter checked against the ambient's ranges."""
        raw = tuple(raw)
        copies, order = self.copies, self.group.order
        for copy_index, element in raw:
            if copy_index not in copies:
                raise IndexError(f"copy index {copy_index} outside [0, {self.s}]")
            if not (0 <= element < order):
                raise IndexError(f"element index {element} out of range")
        return FPWord(self, normal_form(self.factors, raw))

    def one(self) -> "FPWord":
        return FPWord(self, ())

    def letter(self, copy_index: int, element: int) -> "FPWord":
        return self.word([(copy_index, element)])

    def from_name(self, name: str, copy_index: int = 0) -> "FPWord":
        return self.letter(copy_index, self.group.index_of(name))

    def words_up_to(self, syllables: int, indices: Sequence[int] | None = None) -> list["FPWord"]:
        """All normal-form words with at most the given syllable count."""
        if indices is None:
            indices = list(self.copies)
        out = [self.one()]
        layer: list[Letters] = [()]
        for _ in range(syllables):
            nxt = []
            for w in layer:
                for i in indices:
                    if w and w[-1][0] == i:
                        continue
                    for x in self.group.nontrivial():
                        nxt.append(w + ((i, x),))
            out.extend(FPWord(self, w) for w in nxt)
            layer = nxt
        return out


@dataclass(frozen=True)
class FPWord:
    """Normal-form word in the ambient free product."""
    ambient: FreeProduct
    letters: Letters

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def _require_same(self, other: "FPWord") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch("operands live in different free products")

    def __mul__(self, other: "FPWord") -> "FPWord":
        self._require_same(other)
        return FPWord(self.ambient, seam_product(self.ambient.factors, self.letters,
                                                 other.letters))

    def inv(self) -> "FPWord":
        return FPWord(self.ambient, inverse(self.ambient.factors, self.letters))

    def conj(self, by: "FPWord") -> "FPWord":
        """by^-1 * self * by."""
        return by.inv() * self * by

    def pow(self, n: int) -> "FPWord":
        if n < 0:
            return self.inv().pow(-n)
        out = self.ambient.one()
        for _ in range(n):
            out = out * self
        return out

    def cyclic_reduce(self) -> tuple["FPWord", "FPWord"]:
        """Return (core, conjugator) with self = conjugator^-1 * core * conjugator.

        The core has its first and last letters in distinct copies (or
        length <= 1).
        """
        core = self
        conjugator = self.ambient.one()
        while len(core) >= 2 and core.letters[0][0] == core.letters[-1][0]:
            head = FPWord(self.ambient, core.letters[:1])
            mid = FPWord(self.ambient, core.letters[1:])
            core = mid * head
            conjugator = head.inv() * conjugator
        return core, conjugator

    def in_subproduct(self, indices: Iterable[int]) -> bool:
        """True iff every letter's copy lies in the index set.

        Correct because sub-free-products of free factors are closed
        letterwise on normal forms.
        """
        idx = set(indices)
        return all(copy in idx for copy, _ in self.letters)

    def in_bottom(self) -> bool:
        return self.in_subproduct(self.ambient.bottom_indices())

    def in_top(self) -> bool:
        return self.in_subproduct(self.ambient.top_indices())

    def shift(self, delta: int) -> "FPWord":
        """Shift every copy index by delta (the isomorphism between slices)."""
        for copy, _ in self.letters:
            if copy + delta not in self.ambient.copies:
                side = "bottom slice" if delta > 0 else "top slice"
                raise ShiftDomainError(
                    f"letter in copy {copy} leaves [0, {self.ambient.s}] "
                    f"under shift {delta:+d} (word not in the {side})")
        return FPWord(self.ambient, tuple([(copy + delta, element)
                                           for copy, element in self.letters]))

    def max_copy_index(self) -> int:
        """Largest copy index present; -1 for the identity."""
        return max((copy for copy, _ in self.letters), default=-1)

    def order(self) -> int | float:
        """Order of the element in the free product.

        Syllable length > 1 after cyclic reduction means infinite order;
        a single letter has the order of its element in G.
        """
        core, _ = self.cyclic_reduce()
        if len(core) == 0:
            return 1
        if len(core) == 1:
            return self.ambient.group.element_order(core.letters[0][1])
        return float("inf")

    def tokens(self) -> list[str]:
        names = self.ambient.group.names
        out = []
        for copy, element in self.letters:
            tok = names[element]
            if copy:
                tok += f"@{copy}"
            out.append(tok)
        return out

    def __str__(self) -> str:
        return " ".join(self.tokens()) if self.letters else "1"

    def __repr__(self) -> str:
        return f"FPWord({self})"


def conjugate_in_free_product(a: FPWord, b: FPWord) -> bool:
    """Exact conjugacy test in the ambient free product.

    Cyclically reduced words of syllable length >= 2 are conjugate iff one
    is a cyclic rotation of the other; single letters iff they sit in the
    same copy and are conjugate in G.
    """
    a._require_same(b)
    ca, _ = a.cyclic_reduce()
    cb, _ = b.cyclic_reduce()
    if len(ca) != len(cb):
        return False
    if len(ca) == 0:
        return True
    if len(ca) == 1:
        (copy_a, ea), (copy_b, eb) = ca.letters[0], cb.letters[0]
        if copy_a != copy_b:
            return False
        g = a.ambient.group
        return any(g.conj(ea, by) == eb for by in range(g.order))
    n = len(ca)
    for r in range(n):
        if ca.letters[r:] + ca.letters[:r] == cb.letters:
            return True
    return False
