"""Free products of indexed copies of a finite group.

The ambient structure is H = G(0) * G(1) * ... * G(s).  Words are kept in
normal form: no identity letters, adjacent letters in distinct copies.
The bottom slice P (copies 0..s-1) and top slice (copies 1..s) are related
by the shift isomorphism, which raises every copy index by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import GroupTable


class AmbientMismatch(ValueError):
    pass


class ShiftDomainError(ValueError):
    pass


@dataclass(frozen=True)
class FactorLetter:
    """One syllable: a non-identity element of the copy_index-th copy of G."""
    copy_index: int
    element: int


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

    def bottom_indices(self) -> frozenset[int]:
        """Copy indices of the shift's domain (the subgroup P)."""
        return frozenset(range(self.s))

    def top_indices(self) -> frozenset[int]:
        """Copy indices of the shift's image."""
        return frozenset(range(1, self.s + 1))

    # -- construction -------------------------------------------------

    def word(self, raw: Iterable[tuple[int, int]]) -> "FPWord":
        """Normal form of a raw (copy_index, element) sequence.

        Adjacent same-copy letters are merged with the group table and
        identity letters deleted, cascading until stable.
        """
        out: list[FactorLetter] = []
        g = self.group
        for copy_index, element in raw:
            if copy_index not in self.copies:
                raise IndexError(f"copy index {copy_index} outside [0, {self.s}]")
            if not (0 <= element < g.order):
                raise IndexError(f"element index {element} out of range")
            if element == g.identity:
                continue
            out.append(FactorLetter(copy_index, element))
            while len(out) >= 2 and out[-1].copy_index == out[-2].copy_index:
                merged = g.mul(out[-2].element, out[-1].element)
                out.pop()
                out.pop()
                if merged != g.identity:
                    out.append(FactorLetter(copy_index, merged))
        return FPWord(self, tuple(out))

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
        layer: list[tuple[FactorLetter, ...]] = [()]
        for _ in range(syllables):
            nxt = []
            for w in layer:
                for i in indices:
                    if w and w[-1].copy_index == i:
                        continue
                    for x in self.group.nontrivial():
                        nxt.append(w + (FactorLetter(i, x),))
            out.extend(FPWord(self, w) for w in nxt)
            layer = nxt
        return out


@dataclass(frozen=True)
class FPWord:
    """Normal-form word in the ambient free product."""
    ambient: FreeProduct
    letters: tuple[FactorLetter, ...]

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
        """Product of two normal forms.  They can cancel only where they
        join, so letters are merged or cancelled at that seam and the
        untouched parts of both operands are kept as they are."""
        self._require_same(other)
        a, b = self.letters, other.letters
        g = self.ambient.group
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1].copy_index == b[j].copy_index:
            merged = g.mul(a[i - 1].element, b[j].element)
            if merged != g.identity:
                return FPWord(self.ambient, a[:i - 1] + (FactorLetter(b[j].copy_index, merged),)
                              + b[j + 1:])
            i, j = i - 1, j + 1
        return FPWord(self.ambient, a[:i] + b[j:])

    def inv(self) -> "FPWord":
        g = self.ambient.group
        return FPWord(self.ambient, tuple(
            FactorLetter(l.copy_index, g.inv(l.element)) for l in reversed(self.letters)))

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
        while len(core) >= 2 and core.letters[0].copy_index == core.letters[-1].copy_index:
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
        return all(l.copy_index in idx for l in self.letters)

    def in_bottom(self) -> bool:
        return self.in_subproduct(self.ambient.bottom_indices())

    def in_top(self) -> bool:
        return self.in_subproduct(self.ambient.top_indices())

    def shift(self, delta: int) -> "FPWord":
        """Shift every copy index by delta (the isomorphism between slices)."""
        for l in self.letters:
            j = l.copy_index + delta
            if j not in self.ambient.copies:
                side = "bottom slice" if delta > 0 else "top slice"
                raise ShiftDomainError(
                    f"letter in copy {l.copy_index} leaves [0, {self.ambient.s}] "
                    f"under shift {delta:+d} (word not in the {side})")
        return FPWord(self.ambient, tuple(
            FactorLetter(l.copy_index + delta, l.element) for l in self.letters))

    def max_copy_index(self) -> int:
        """Largest copy index present; -1 for the identity."""
        return max((l.copy_index for l in self.letters), default=-1)

    def order(self) -> int | float:
        """Order of the element in the free product.

        Syllable length > 1 after cyclic reduction means infinite order;
        a single letter has the order of its element in G.
        """
        core, _ = self.cyclic_reduce()
        if len(core) == 0:
            return 1
        if len(core) == 1:
            return self.ambient.group.element_order(core.letters[0].element)
        return float("inf")

    def tokens(self) -> list[str]:
        names = self.ambient.group.names
        out = []
        for l in self.letters:
            tok = names[l.element]
            if l.copy_index:
                tok += f"@{l.copy_index}"
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
        la, lb = ca.letters[0], cb.letters[0]
        if la.copy_index != lb.copy_index:
            return False
        g = a.ambient.group
        return any(g.conj(la.element, by) == lb.element for by in range(g.order))
    n = len(ca)
    for r in range(n):
        if ca.letters[r:] + ca.letters[:r] == cb.letters:
            return True
    return False
