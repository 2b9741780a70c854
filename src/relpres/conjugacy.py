"""Conjugator normalization and malnormality/center certificates.

Over the standard presentation, conjugating a bottom-slice element by t
shifts it one copy up; walking a conjugator letter by letter therefore
keeps the conjugate inside H exactly when every t-crossing happens on the
correct slice.  The reducer cancels matched t^-1 ... t fragments whose
content sits in the right slice, shrinking the conjugator's t-length by
two per step; a slice violation is a first-class "stuck" outcome, not an
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .freeprod import FPWord, Letters, inverse, normal_form, seam_product
from .groups import GroupTable, cyclic_group
from .presentation import RelPresentation
from .words import TWord, h_word


class StuckSignal(ValueError):
    def __init__(self, message: str, required: str):
        super().__init__(message)
        self.required = required


def digon_step(h: FPWord, direction: int) -> FPWord:
    """Conjugation by one t-letter: t^-1 h t for direction +1 (needs h in
    the bottom slice), t h t^-1 for direction -1 (top slice)."""
    if direction == 1:
        if not h.in_bottom():
            raise StuckSignal(f"{h} is not in the bottom slice", "bottom")
        return h.shift(1)
    if direction == -1:
        if not h.in_top():
            raise StuckSignal(f"{h} is not in the top slice", "top")
        return h.shift(-1)
    raise ValueError("direction must be +-1")


@dataclass(frozen=True)
class ReductionOutcome:
    status: str                      # reduced-to-H | reduced-to-G0 | stuck
    final_conjugator: TWord | None
    conjugate_trace: tuple[FPWord, ...]
    stuck_at: tuple[int, str] | None = None
    residual_t_power: int = 0
    final_conjugate: FPWord | None = None
    substitutions: tuple[tuple[int, str, str], ...] = ()
    steps: int = 0


def prefix_trace(u: TWord, h: FPWord) -> ReductionOutcome:
    """Conjugate h through u one letter at a time.

    Every prefix must keep the conjugate in H: group letters conjugate
    inside H, t-letters shift between the slices.  Returns the trace of
    conjugates per prefix, or the stuck position with the slice that was
    required there.
    """
    if h.is_identity():
        raise ValueError("trace a nontrivial element")
    current = h
    trace: list[FPWord] = []
    for pos, letter in enumerate(u.free_reduce().items()):
        if isinstance(letter, FPWord):
            current = current.conj(letter)
        else:
            try:
                current = digon_step(current, letter)
            except StuckSignal as sig:
                return ReductionOutcome(
                    status="stuck", final_conjugator=u, conjugate_trace=tuple(trace),
                    stuck_at=(pos, sig.required))
        trace.append(current)
    status = "reduced-to-G0" if current.in_subproduct({0}) else "reduced-to-H"
    return ReductionOutcome(status=status, final_conjugator=u,
                            conjugate_trace=tuple(trace),
                            residual_t_power=u.free_reduce().exponent_sum(),
                            final_conjugate=current)


def reduce_conjugator(u: TWord, h: FPWord) -> ReductionOutcome:
    """Cancel slice-compatible t^-1 a t / t b t^-1 fragments of u.

    Each substitution replaces the fragment by the shifted group element,
    an identity of the presented group, and shortens the t-length by
    exactly two.  The scan is leftmost-innermost, so runs are
    reproducible.  After the fragment phase the conjugate of h is traced
    through whatever conjugator remains.
    """
    if h.is_identity():
        raise ValueError("reduce against a nontrivial element")
    amb = u.ambient
    current = u.free_reduce()
    substitutions: list[tuple[int, str, str]] = []
    while True:
        signs = current.signs
        hit = None
        for i in range(len(signs) - 1):
            seg = current.segments[i + 1]
            if signs[i] == -1 and signs[i + 1] == 1 and seg.in_bottom():
                hit = (i, seg, seg.shift(1))
                break
            if signs[i] == 1 and signs[i + 1] == -1 and seg.in_top():
                hit = (i, seg, seg.shift(-1))
                break
        if hit is None:
            break
        i, seg, shifted = hit
        segs = list(current.segments)
        new_seg = segs[i] * shifted * segs[i + 2]
        segs[i:i + 3] = [new_seg]
        new_signs = signs[:i] + signs[i + 2:]
        substitutions.append((i, str(seg), str(shifted)))
        current = TWord(amb, tuple(segs), tuple(new_signs)).free_reduce()
    traced = prefix_trace(current, h) if not current.is_h_word() else None
    if current.is_h_word():
        value = current.h_value()
        conjugate = h.conj(value)
        status = "reduced-to-G0" if value.in_subproduct({0}) else "reduced-to-H"
        return ReductionOutcome(
            status=status, final_conjugator=current,
            conjugate_trace=(conjugate,), final_conjugate=conjugate,
            substitutions=tuple(substitutions), steps=len(substitutions))
    return ReductionOutcome(
        status=traced.status, final_conjugator=current,
        conjugate_trace=traced.conjugate_trace, stuck_at=traced.stuck_at,
        residual_t_power=current.exponent_sum(),
        final_conjugate=traced.final_conjugate,
        substitutions=tuple(substitutions), steps=len(substitutions))


# -- the single-t-letter model: G * Z_k ------------------------------------


@dataclass(frozen=True)
class FreeProductModel:
    """G * <x | x^k> for relators built from one group letter and one
    stable letter: t maps to g^-1 x.  It is the free product of two
    factor tables, ``factors = (group, cyclic_group(k))``, so its words
    are ``freeprod`` letter tuples with G-letters in copy 0 and ``x^j``
    written ``(1, j)``, multiplied by ``seam_product``."""
    group: GroupTable
    g: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")

    @cached_property
    def factors(self) -> tuple[GroupTable, GroupTable]:
        return self.group, cyclic_group(self.k)

    def map_word(self, w: TWord) -> Letters:
        """Image of a word over G * <t>: group letters go to themselves,
        t to g^-1 x, t^-1 to x^-1 g."""
        if w.ambient.s != 0:
            raise ValueError("model words live over the base group")
        letters: list[tuple[int, int]] = []
        g_inv = self.group.inv(self.g)
        for item in w.items():
            if isinstance(item, FPWord):
                letters.extend(item.letters)
            elif item == 1:
                letters.extend([(0, g_inv), (1, 1)])
            else:
                letters.extend([(1, self.k - 1), (0, self.g)])
        return normal_form(self.factors, letters)

    def in_base_group(self, a: Letters) -> bool:
        return len(a) == 0 or (len(a) == 1 and a[0][0] == 0)


@dataclass(frozen=True)
class MalnormalityReport:
    holds: bool
    counterexample: tuple | None
    checked: int


# the most checks one oracle call may make; at 1-2 us per check on a 2-CPU
# machine, a passing run at the bound takes 10-20 s
MAX_ORACLE_CHECKS = 10_000_000


class OracleBoundExceeded(RuntimeError):
    """The oracle would make more than ``MAX_ORACLE_CHECKS`` checks."""


def oracle_checks(order: int, k: int, max_syllables: int) -> int:
    """Checks a passing oracle makes over a group of the given order:
    alternating words of G-letters and x-letters up to the bound, less the
    base group, times the nontrivial elements conjugated by each."""
    g, x = order - 1, k - 1
    words = sum(g ** ((n + 1) // 2) * x ** (n // 2) + x ** ((n + 1) // 2) * g ** (n // 2)
                for n in range(1, max_syllables + 1))
    return (words - g) * g if max_syllables else 0


def malnormality_oracle(group: GroupTable, g: int, k: int,
                        max_syllables: int) -> MalnormalityReport:
    """Exhaustive check that the base group meets its conjugates trivially
    in G * Z_k, over all conjugators of bounded syllable length.

    This cross-checks a known fact: G is a free factor of G * Z_k, so by
    the normal form theorem G meets u^-1 G u trivially for every u outside
    G.  ``holds`` false therefore means a bug in the word kernel, never a
    counterexample to that fact.

    The report is that of a breadth-first scan: conjugators by syllable
    length, then lexicographically with G-letters before x-letters, so
    ``checked`` and any counterexample are those of the first failing
    (u, h) in that order.  One pre-order walk visits every conjugator
    once and checks it at its own length; it meets the words of each
    length in that same order.  A hit at length d ends the descent below
    d - 1, since every later word of length d or more comes after it, but
    shorter words met later can still come first.  Each prefix's
    conjugates are kept on the stack and a child's got from
    (p x)^-1 h (p x) = x^-1 (p^-1 h p) x; memory is O(L |G|).
    Words are ``freeprod`` letter tuples over ``model.factors``: G-letters
    in copy 0, x-letters in copy 1.  Raises ``ValueError`` for a negative
    ``max_syllables`` and ``OracleBoundExceeded``, before any walking,
    when a passing run would make more than ``MAX_ORACLE_CHECKS`` checks.
    """
    if max_syllables < 0:
        raise ValueError("max_syllables must be at least 0")
    bound = oracle_checks(group.order, k, max_syllables)
    if bound > MAX_ORACLE_CHECKS:
        raise OracleBoundExceeded(
            f"{max_syllables} syllables over a group of order {group.order} with k = {k} "
            f"need {bound} checks, more than the bound of {MAX_ORACLE_CHECKS}")
    model = FreeProductModel(group, g, k)
    factors, in_base = model.factors, model.in_base_group
    hs = group.nontrivial()
    # (copy, x, x^-1) per one-letter word x, G-letters first
    steps = [(copy, ((copy, v),), inverse(factors, ((copy, v),)))
             for copy, vals in ((0, hs), (1, range(1, k))) for v in vals]
    outside = [0] * (max_syllables + 1)     # conjugators outside G met, per length
    first = None                            # (length, rank, index of h, u, h, value)
    limit = max_syllables                   # the longest length still worth visiting

    def walk(u: tuple, last: int | None, conjugates: list, depth: int):
        nonlocal first, limit
        if not in_base(u):
            for index, value in enumerate(conjugates):
                if in_base(value):
                    first, limit = (depth, outside[depth], index, u, hs[index], value), depth - 1
                    break
            outside[depth] += 1
        for copy, x, x_inv in steps:
            if depth >= limit:
                return
            if copy != last:
                walk(u + x, copy, [seam_product(factors, seam_product(factors, x_inv, c), x)
                                   for c in conjugates], depth + 1)

    walk((), None, [((0, h),) for h in hs], 0)
    if first is None:
        return MalnormalityReport(True, None, sum(outside) * len(hs))
    depth, rank, index, u, h, value = first
    checked = (sum(outside[:depth]) + rank) * len(hs) + index + 1
    return MalnormalityReport(False, (u, h, value), checked)


@dataclass(frozen=True)
class CenterReport:
    trivial_center_certified: bool
    group_nontrivial: bool
    t_outside_base: tuple[int, int] | None      # (residue, k)
    element_checks: tuple[tuple[str, str, int], ...]
    notes: str = ""


def center_certificate(pres: RelPresentation) -> CenterReport:
    """Certify the presented group has trivial center.

    The t-exponent residue of a would-be equality g t = 1 shows t lies
    outside the base group; conjugating each nontrivial base element by t
    lands in the next copy, so nothing in the base group is central.
    Both facts together pin the center (contained in the base group by
    malnormality) to the identity.
    """
    group = pres.group
    if group.order == 1:
        return CenterReport(False, False, None, (),
                            notes="base group is trivial; the hypothesis fails")
    residue = 1 % pres.k
    t_cert = (residue, pres.k) if residue != 0 else None
    checks = []
    ok = True
    if pres.s >= 1:
        amb = pres.ambient
        t = TWord(amb, (amb.one(), amb.one()), (1,))
        for g in group.nontrivial():
            h = amb.letter(0, g)
            outcome = reduce_conjugator(t, h)
            conj = outcome.final_conjugate
            distinct = conj is not None and conj != h
            copy_index = conj.letters[0][0] if conj and conj.letters else -1
            checks.append((str(h), str(conj), copy_index))
            ok = ok and distinct and copy_index == 1
    else:
        # single-letter relators: check in the free-product model
        model = None
        if pres.m == -1 and len(pres.c.letters) == 1:
            model = FreeProductModel(group, pres.c.letters[0][1], pres.k)
        if model is None:
            return CenterReport(False, True, t_cert, (),
                                notes="no copy spread and no single-letter form; "
                                      "use the free-product oracle directly")
        for g in group.nontrivial():
            img = model.map_word(h_word(pres.ambient.letter(0, g)))
            x = ((1, 1),)
            left = seam_product(model.factors, img, x)
            right = seam_product(model.factors, x, img)
            checks.append((group.names[g], "commutes" if left == right else "moved", -1))
            ok = ok and left != right
    return CenterReport(ok and t_cert is not None, True, t_cert, tuple(checks))
