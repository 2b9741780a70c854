"""Desk-scale exhaustive enumeration of clean two-pole spherical diagrams.

Faces available to the search: copies of the relator face (both
orientations) and digon faces over the bottom slice, truncated by a
syllable bound.  Gluings are perfect matchings of along-arrow darts with
against-arrow darts; survivors must be connected spheres, pass the full
validation, keep digons apart, stay reduced, and have exactly two
nontrivially-labeled vertices (marked exterior).

The pruned search glues one dart pair per tree node and keeps the vertex
orbits of the partial gluing up to date as closed corner cycles and open
corner chains.  It cuts a branch for one of two reasons, both sound
because a glued link never reopens an orbit:

* labels: more than two closed vertices already carry nontrivial labels;
* euler: ``closed + open < E - F + 2``.  Each link lowers the count of
  closed cycles plus open chains by 0 (it closes a chain) or 1 (it joins
  two), and a connected sphere with E edges and F faces has
  ``V = E - F + 2`` vertices.

Inside a search every edge is labelled t and its arrow dart is the plus
dart, so everything the search reads about a face depends on its
template alone.  ``_template_table`` computes it once per
``enumerate_diagrams`` call as one ``TemplateRecord`` per template, on
integers with darts numbered inside the face: the corner links and
corner label ids the walk starts from, the plus and minus darts and
their balance, the multiset-key name, and the face table (the face's
class and ids of the labels ``reducible_pairs`` compares).  A multiset's
arrays are its records laid end to end, each shifted by the darts
before it; ``_balanced_combos`` sums the balances.

Corner labels are interned once per call in a ``CornerLabels`` table:
each label is the ``letters`` tuple of its ``FPWord``, taken as it is,
and id 0 is the identity; the label of a chain is an id.  The product of
two ids is memoised in that table's dict, keyed by the id pair, and
``freeprod.seam_product`` over the ambient's factor tables computes only
the misses.  The walk
(``_enumerate_multiset``) keeps its state in flat integer lists, a
``mate`` list with -1 for a free dart among them, and runs both links of
a glue inline.  What a glue overwrites is kept in the recursive call's
frame and written back after it returns, in reverse order, so a node is
a few list reads and writes with no undo stack.

At a leaf (a complete gluing) a ``LeafCheck`` runs first.  It reads the
records, the walk's counters and ``mate`` with integers only: two
nontrivial closed labels, ``closed - E + F == 2``, every face large or a
digon, no edge between distinct faces joining two digons or two mutually
inverse labels, and one component.  It is exact, and only gluings that pass it
reach ``_marked_survivor``, which still builds, validates and marks
every survivor; the ``Slot`` lists it needs (``_dart_layout``) are built
at the first leaf of a multiset that passes, and the ``pairing`` dict
only for leaves that pass.

``matchings_tried`` counts the leaves reached, i.e. the complete gluings
that survive both prunes; ``checked`` counts the leaves that passed the
leaf check; ``nodes`` counts the dart pairs glued.
``brute_force_enumerate`` prunes nothing and serves as the oracle: it
builds the ``Slot`` lists of every multiset and hands every permutation
to ``_marked_survivor``, with no corner chains and no leaf check.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import maps
from .diagram import (Diagram, DiagramError, FaceRecord, Slot, curvature_weights,
                      is_phi_reduced, validate_howie)
from .freeprod import FPWord, Letters, seam_product
from .presentation import RelPresentation, RewriteError
from .words import syllables


class SearchBoundExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationConfig:
    presentation: RelPresentation
    max_interior_faces: int = 2
    digon_syllables: int = 1
    max_matchings_per_multiset: int = 2_000_000

    def __post_init__(self):
        if self.max_interior_faces < 1:
            raise ValueError("need at least one face")
        if self.digon_syllables < 0:
            raise ValueError("digon syllable bound must be at least 0")


@dataclass(frozen=True)
class FaceTemplate:
    kind: str                 # relator+ | relator- | digon
    signs: tuple[int, ...]
    corners: tuple[FPWord, ...]
    word: FPWord | None = None

    @property
    def key(self) -> str:
        """The template's name in ``counts_per_multiset`` keys."""
        return self.kind if self.word is None else f"{self.kind}[{self.word}]"


def face_templates(config: EnumerationConfig) -> list[FaceTemplate]:
    pres = config.presentation
    rel = pres.relator()
    if not rel.segments[-1].is_identity():
        raise RewriteError("relator does not end with a t-letter")
    out = [FaceTemplate("relator+", *syllables(rel)),
           FaceTemplate("relator-", *syllables(rel.inv()))]
    for p in pres.digon_alphabet(config.digon_syllables):
        out.append(FaceTemplate("digon", (-1, 1), (p, p.shift(1).inv()), word=p))
    return out


def _balanced_combos(balances: Sequence[int], max_faces: int):
    """Template positions of each multiset whose plus and minus darts
    balance; ``balances[i]`` is template ``i``'s plus darts less its
    minus darts."""
    n = len(balances)
    for total in range(1, max_faces + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            if not sum(map(balances.__getitem__, combo)):
                yield combo


def _balanced_multisets(templates: list[FaceTemplate], max_faces: int):
    for combo in _balanced_combos([sum(t.signs) for t in templates], max_faces):
        yield [templates[i] for i in combo]


def _dart_layout(multiset: list[FaceTemplate]):
    """Slots of the multiset's faces, darts numbered face by face from 0,
    and the along-arrow (plus) and against-arrow (minus) darts."""
    faces: list[list[Slot]] = []
    plus: list[int] = []
    minus: list[int] = []
    dart = 0
    for tpl in multiset:
        faces.append([Slot(dart + i, c) for i, c in enumerate(tpl.corners)])
        for e in tpl.signs:
            (plus if e == 1 else minus).append(dart)
            dart += 1
    return faces, plus, minus


def _marked_survivor(pres: RelPresentation, faces, pairing: dict[int, int],
                     arrows: list[int]) -> Diagram | None:
    """The glued diagram with its two poles marked exterior, or None when
    it is not a connected, valid, reduced sphere with exactly two
    nontrivially-labeled vertices.  The vertex count and the poles come
    from the integer corner orbits, so a gluing with ``V - E + F != 2``
    or with other than two poles builds no ``Diagram``."""
    cycles = maps.corner_cycles([[slot.dart for slot in face] for face in faces], pairing)
    if len(cycles) - len(pairing) // 2 + len(faces) != 2:
        return None
    poles = []
    for orbit in cycles:
        label = pres.ambient.one()
        for fi, si in orbit:
            label = label * faces[fi][si].corner
        if not label.is_identity():
            poles.append(orbit[0])
    if len(poles) != 2:
        return None
    marked = Diagram(pres.ambient, faces, pairing, arrows, exterior_vertex_seeds=poles)
    if not marked.is_connected():
        return None
    if not validate_howie(marked, pres, allow_null_faces=False).ok:
        return None
    ok, _ = is_phi_reduced(marked, pres)
    return marked if ok else None


class CornerLabels:
    """The corner labels of one ``enumerate_diagrams`` call, interned:
    label id ``i`` stands for the normal form ``forms[i]``, and id 0 is
    the identity.  ``products`` memoises the product of two ids, keyed by
    the id pair; ``product`` computes a miss with ``seam_product`` over
    the factor tables ``factors``."""

    def __init__(self, factors):
        self.forms: list[Letters] = [()]
        self.ids: dict[Letters, int] = {(): 0}
        self.products: dict[tuple[int, int], int] = {}
        self._factors = factors

    def intern(self, form: Letters) -> int:
        i = self.ids.get(form)
        if i is None:
            i = self.ids[form] = len(self.forms)
            self.forms.append(form)
        return i

    def product(self, x: int, y: int) -> int:
        forms = self.forms
        p = self.intern(seam_product(self._factors, forms[x], forms[y]))
        self.products[x, y] = p
        return p


@dataclass(frozen=True)
class TemplateRecord:
    """One template's share of a multiset's search arrays, with darts
    numbered from 0 inside the face; a multiset's arrays concatenate its
    records, each shifted by the darts before it."""
    template: FaceTemplate
    darts: int
    prev: tuple[int, ...]             # prev_corner of each dart
    labels: tuple[int, ...]           # id of the corner label at the head of each dart
    plus: tuple[int, ...]             # along-arrow darts
    minus: tuple[int, ...]            # against-arrow darts
    balance: int                      # len(plus) - len(minus)
    key: str                          # name in counts_per_multiset keys
    kind: str                         # class of the face
    read: tuple[int, ...]             # id of the reduced label read from each slot
    ending_inv: tuple[int, ...]       # id of the inverse of the label ending there


def _template_table(templates: list[FaceTemplate], pres: RelPresentation,
                    labels: CornerLabels) -> list[TemplateRecord]:
    """One record per template position, its corner labels interned in
    ``labels``.  The face-table part is the face's class and, for each
    slot ``s``, the id of the reduced label read from ``s`` and the id of
    the inverse of the reduced label ending at ``s`` (the two words
    ``reducible_pairs`` compares), all read off the template's
    ``FaceRecord``.  A face's senses are its template signs (see the
    module docstring); equal words get equal ids across templates."""
    ids: dict[tuple, int] = {}

    def word_ids(keys: tuple) -> tuple[int, ...]:
        return tuple(ids.setdefault(key, len(ids)) for key in keys)

    table = []
    for tpl in templates:
        n = len(tpl.signs)
        face = FaceRecord(pres.ambient, tuple(tpl.corners), tuple(tpl.signs))
        kind = face.face_class(pres).kind
        read, ending_inv = word_ids(face.read()), word_ids(face.ending_inv())
        table.append(TemplateRecord(
            template=tpl, darts=n, prev=tuple((i - 1) % n for i in range(n)),
            labels=tuple(labels.intern(c.letters) for c in tpl.corners),
            plus=tuple(i for i, e in enumerate(tpl.signs) if e == 1),
            minus=tuple(i for i, e in enumerate(tpl.signs) if e != 1),
            balance=sum(tpl.signs), key=tpl.key, kind=kind, read=read, ending_inv=ending_inv))
    return table


class LeafCheck:
    """``_marked_survivor``'s tests on one multiset's complete gluings,
    read off the template records, the walk's counters and its ``mate``
    list with no ``Diagram``.  ``passes`` is exact: it is True exactly when
    ``_marked_survivor`` returns a diagram, which still builds and decides
    every such gluing.  Also holds the multiset's templates and its plus
    and minus darts, numbered face by face from 0 as in ``_dart_layout``."""

    def __init__(self, records: list[TemplateRecord]):
        self.multiset = [rec.template for rec in records]
        self.classes_ok = all(rec.kind in ("large", "digon") for rec in records)
        self.digon = [rec.kind == "digon" for rec in records]
        self.plus: list[int] = []
        self.minus: list[int] = []
        self.face_of: list[int] = []
        self.read: list[int] = []
        self.ending_inv: list[int] = []
        offset = 0
        for f, rec in enumerate(records):
            self.plus += [offset + d for d in rec.plus]
            self.minus += [offset + d for d in rec.minus]
            self.face_of += [f] * rec.darts
            self.read += rec.read
            self.ending_inv += rec.ending_inv
            offset += rec.darts

    def passes(self, nontrivial: int, closed: int, mate: list[int]) -> bool:
        """``nontrivial`` and ``closed`` count the closed vertices with a
        nontrivial label and all closed vertices; ``mate`` is the complete
        gluing, each dart's partner."""
        faces = len(self.digon)
        if not self.classes_ok or nontrivial != 2:
            return False
        if closed - len(self.plus) + faces != 2:             # V - E + F
            return False
        face_of, digon = self.face_of, self.digon
        for a in self.plus:
            b = mate[a]
            d1, d2 = (a, b) if a < b else (b, a)
            f1, f2 = face_of[d1], face_of[d2]
            if f1 == f2:
                continue
            if (digon[f1] and digon[f2]) or self.read[d1] == self.ending_inv[d2]:
                return False
        links = ((face_of[a], face_of[mate[a]]) for a in self.plus)
        return len(maps.components(faces, links)) == 1


@dataclass
class EnumerationResult:
    survivors: dict[str, Diagram] = field(default_factory=dict)
    counts_per_multiset: dict[tuple[str, ...], int] = field(default_factory=dict)
    matchings_tried: int = 0          # leaves reached
    checked: int = 0                  # leaves the pruned search handed to _marked_survivor
    complete: bool = True
    nodes: int = 0                    # dart pairs glued by the pruned search
    prunes: dict[str, int] = field(default_factory=lambda: {"labels": 0, "euler": 0})

    def canonical_forms(self) -> set[str]:
        return set(self.survivors)


def enumerate_diagrams(config: EnumerationConfig) -> EnumerationResult:
    """Backtracking enumeration over each balanced face multiset.

    Branches are cut when more than two closed vertices carry nontrivial
    labels ("labels") or when too few vertices are left for a connected
    sphere ("euler", see the module docstring).  ``matchings_tried``
    counts the leaves reached; ``max_matchings_per_multiset`` bounds the
    dart pairs glued per multiset, and ``complete`` is False when it cut
    a search short.
    """
    result = EnumerationResult()
    pres = config.presentation
    labels = CornerLabels(pres.ambient.factors)
    table = _template_table(face_templates(config), pres, labels)
    for combo in _balanced_combos([rec.balance for rec in table], config.max_interior_faces):
        records = [table[i] for i in combo]
        survivors, complete = _enumerate_multiset(config, records, labels, result)
        for form, diagram in survivors.items():
            result.survivors.setdefault(form, diagram)
        result.counts_per_multiset[tuple(rec.key for rec in records)] = len(survivors)
        result.complete = result.complete and complete
    return result


def _enumerate_multiset(config: EnumerationConfig, records: list[TemplateRecord],
                        labels: CornerLabels, result: EnumerationResult):
    """Survivors of one multiset by canonical form (the last gluing found
    wins) and whether the search ran to the end; leaves, checked leaves,
    nodes and prunes are added to ``result``.

    The walk's state is flat lists over the multiset's darts, numbered
    face by face from 0 (as in ``_dart_layout``): ``mate`` holds each
    dart's partner, -1 while it is free.  Corner ``c`` is the corner at the
    head of dart ``c`` and ``prev[x]`` the corner that dart ``x`` leaves.
    Gluing ``a`` to ``b`` adds the corner links ``prev[a] -> b`` and
    ``prev[b] -> a``, the steps of the corner rotation of ``maps``.  Linked
    corners form open chains and closed cycles; each open chain keeps its
    ends in ``first``/``last`` (valid at the opposite end only) and, in
    ``lab``, the id of the product of its corner labels at its first
    corner, taken from ``labels.products``.  A link either closes a chain
    (one more closed cycle, nontrivial when its id is not 0) or joins two
    (three list writes).  The counters the prunes read (closed cycles,
    closed cycles plus open chains, and nontrivial closed cycles) are
    arguments of ``backtrack``; the entries a join overwrites are kept in
    its frame and written back, second link first, after the recursive
    call returns.
    """
    pres = config.presentation
    check = LeafCheck(records)
    plus, minus = check.plus, check.minus
    prev: list[int] = []
    lab: list[int] = []
    darts = 0
    for rec in records:
        prev += [darts + p for p in rec.prev]
        lab += rec.labels
        darts += rec.darts
    first = list(range(darts))
    last = list(range(darts))
    mate = [-1] * darts
    products, product = labels.products, labels.product
    n = len(plus)
    spheres_need = n - len(records) + 2      # vertices of a connected sphere
    bound = config.max_matchings_per_multiset
    survivors: dict[str, Diagram] = {}
    faces = None                             # Slot lists, built at the first passing leaf
    nodes = leaves = checked = labels_cut = euler_cut = 0

    def backtrack(i: int, closed: int, room: int, nontrivial: int) -> bool:
        """Glue ``plus[i]`` onward; ``room`` is closed cycles plus open
        chains.  False once the node bound cuts the search short."""
        nonlocal nodes, leaves, checked, labels_cut, euler_cut, faces
        if i == n:
            leaves += 1
            if check.passes(nontrivial, closed, mate):
                checked += 1
                if faces is None:
                    faces = _dart_layout(check.multiset)[0]
                pairing = {}
                for a in plus:
                    b = mate[a]
                    pairing[a] = b
                    pairing[b] = a
                marked = _marked_survivor(pres, faces, pairing, plus)
                if marked is not None:
                    survivors[marked.canonical_form()] = marked
            return True
        a = plus[i]
        u = prev[a]
        for b in minus:
            if mate[b] >= 0:
                continue
            if nodes >= bound:
                return False
            nodes += 1
            mate[a] = b
            mate[b] = a
            c, r, nt = closed, room, nontrivial
            f = first[u]                     # link u -> b
            if f == b:
                c += 1
                if lab[b]:
                    nt += 1
                w = -1
            else:
                w = last[b]
                x = lab[f]
                last[f] = w
                first[w] = f
                y = lab[b]
                if y:                        # id 0 is the identity
                    if x:
                        p = products.get((x, y))
                        lab[f] = product(x, y) if p is None else p
                    else:
                        lab[f] = y
                r -= 1
            v = prev[b]                      # link v -> a
            g = first[v]
            if g == a:
                c += 1
                if lab[a]:
                    nt += 1
                z = -1
            else:
                z = last[a]
                x2 = lab[g]
                last[g] = z
                first[z] = g
                y = lab[a]
                if y:
                    if x2:
                        p = products.get((x2, y))
                        lab[g] = product(x2, y) if p is None else p
                    else:
                        lab[g] = y
                r -= 1
            ok = True
            if nt > 2:
                labels_cut += 1
            elif r < spheres_need:
                euler_cut += 1
            else:
                ok = backtrack(i + 1, c, r, nt)
            if z >= 0:
                last[g] = v
                first[z] = a
                lab[g] = x2
            if w >= 0:
                last[f] = u
                first[w] = b
                lab[f] = x
            mate[b] = -1
            if not ok:
                return False
        mate[a] = -1
        return True

    complete = backtrack(0, 0, darts, 0)
    # backtrack reaches itself through its closure; clearing the name breaks
    # that cycle, so the search state is freed now, not by the cyclic GC
    del backtrack
    result.matchings_tried += leaves
    result.checked += checked
    result.nodes += nodes
    result.prunes["labels"] += labels_cut
    result.prunes["euler"] += euler_cut
    return survivors, complete


def brute_force_enumerate(config: EnumerationConfig) -> EnumerationResult:
    """Unpruned cross-check: try every permutation matching outright.

    Raises ``SearchBoundExceeded`` when one multiset has more than
    ``max_matchings_per_multiset`` matchings."""
    pres = config.presentation
    result = EnumerationResult()
    for multiset in _balanced_multisets(face_templates(config), config.max_interior_faces):
        faces, plus, minus = _dart_layout(multiset)
        count = 0
        for tried, perm in enumerate(itertools.permutations(minus), 1):
            if tried > config.max_matchings_per_multiset:
                raise SearchBoundExceeded("brute force bound exceeded")
            result.matchings_tried += 1
            pairing = {}
            for a, b in zip(plus, perm):
                pairing[a] = b
                pairing[b] = a
            marked = _marked_survivor(pres, faces, pairing, plus)
            if marked is not None:
                form = marked.canonical_form()
                if form not in result.survivors:
                    result.survivors[form] = marked
                count += 1
        result.counts_per_multiset[tuple(t.key for t in multiset)] = count
    return result


@dataclass(frozen=True)
class AuditEntry:
    kind: str
    index: int
    value: str
    ok: bool


@dataclass(frozen=True)
class CurvatureAudit:
    ok: bool
    total: str | None                 # None when the weight rule does not apply
    entries: tuple[AuditEntry, ...]


def curvature_audit(diagram: Diagram, pres: RelPresentation) -> CurvatureAudit:
    """Check the curvature signs the weight rule forces on clean diagrams:
    nonpositive everywhere inside, exactly two at the two poles, the side
    count at least twice the negative-special count, total four.  When
    the weight rule does not apply (for example a digon with two positive
    corners), the audit fails with one "weight-rule" entry giving the
    reason."""
    ok_phi, witness = is_phi_reduced(diagram, pres)
    if not ok_phi:
        raise DiagramError(f"curvature audit needs a clean diagram: {witness}")
    try:
        rule = curvature_weights(diagram, pres)
    except DiagramError as exc:
        return CurvatureAudit(False, None, (AuditEntry("weight-rule", -1, str(exc), False),))
    report = diagram.curvature(rule.weights)
    entries = []
    ok = True
    for v, kv in enumerate(report.vertex_curvatures):
        stats = rule.vertex_stats[v]
        if kv != stats.curvature_by_count:
            entries.append(AuditEntry("vertex-formula", v, f"{kv}!={stats.curvature_by_count}", False))
            ok = False
        if stats.large_side_corners < 2 * stats.negative_special:
            entries.append(AuditEntry("vertex-l2n", v,
                                      f"l={stats.large_side_corners},n={stats.negative_special}", False))
            ok = False
        if v in diagram.exterior_vertices:
            good = kv == 2
            entries.append(AuditEntry("exterior-vertex", v, str(kv), good))
            ok = ok and good
        else:
            good = kv <= 0
            entries.append(AuditEntry("interior-vertex", v, str(kv), good))
            ok = ok and good
    for fi, kf in enumerate(report.face_curvatures):
        good = kf <= 0
        entries.append(AuditEntry("face", fi, str(kf), good))
        ok = ok and good
    total_good = report.total == 4 and diagram.chi == 2
    entries.append(AuditEntry("total", -1, str(report.total), total_good))
    return CurvatureAudit(ok and total_good, str(report.total), tuple(entries))
