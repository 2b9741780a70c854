"""Desk-scale exhaustive enumeration of clean two-pole spherical diagrams.

Faces available to the search: copies of the relator face (both
orientations) and digon faces over the bottom slice, truncated by a
syllable bound.  Gluings are perfect matchings of along-arrow darts with
against-arrow darts; survivors must be connected spheres, pass the full
validation, keep digons apart, stay reduced, and have exactly two
nontrivially-labeled vertices (marked exterior).

The pruned search glues one dart pair per tree node and keeps the vertex
orbits of the partial gluing up to date as closed corner cycles and open
corner chains (``CornerChains``).  It cuts a branch for one of two
reasons, both sound because a glued link never reopens an orbit:

* labels: more than two closed vertices already carry nontrivial labels;
* euler: ``closed + open < E - F + 2``.  Each link lowers the count of
  closed cycles plus open chains by 0 (it closes a chain) or 1 (it joins
  two), and a connected sphere with E edges and F faces has
  ``V = E - F + 2`` vertices.

At a leaf (a complete gluing) a ``LeafCheck`` runs first.  Inside a
search every edge is labelled t and its arrow dart is the plus dart, so
a face's class and the labels ``reducible_pairs`` compares depend on its
template alone; ``_face_table`` computes them once per
``enumerate_diagrams`` call, as ids in a list indexed by template
position.  The check reads that table and the corner chains with
integers only: two nontrivial closed labels, ``closed - E + F == 2``,
every face large or a digon, no edge between distinct faces joining two
digons or two mutually inverse labels, and one component.  It is exact,
and only gluings that pass it reach ``_marked_survivor``, which still
builds, validates and marks every survivor.

``matchings_tried`` counts the leaves reached, i.e. the complete gluings
that survive both prunes; ``checked`` counts the leaves that passed the
leaf check; ``nodes`` counts the dart pairs glued.
``brute_force_enumerate`` prunes nothing and serves as the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import maps
from .diagram import (Diagram, DiagramError, Slot, classify_label, curvature_weights,
                      is_phi_reduced, label_ending, label_from, validate_howie)
from .freeprod import FPWord
from .presentation import RelPresentation, RewriteError
from .words import TWord


class SearchBoundExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationConfig:
    presentation: RelPresentation
    max_interior_faces: int = 2
    digon_syllables: int = 1
    symmetry_dedup: bool = True
    max_matchings_per_multiset: int = 2_000_000

    def __post_init__(self):
        if self.max_interior_faces < 1:
            raise ValueError("need at least one face")


@dataclass(frozen=True)
class FaceTemplate:
    kind: str                 # relator+ | relator- | digon
    signs: tuple[int, ...]
    corners: tuple[FPWord, ...]
    word: FPWord | None = None

    @property
    def plus_darts(self) -> int:
        return sum(1 for e in self.signs if e == 1)

    @property
    def minus_darts(self) -> int:
        return len(self.signs) - self.plus_darts


def face_templates(config: EnumerationConfig) -> list[FaceTemplate]:
    pres = config.presentation
    rel = pres.relator()
    if not rel.segments[-1].is_identity():
        raise RewriteError("relator does not end with a t-letter")
    plus = FaceTemplate("relator+", rel.signs,
                        tuple(rel.segments[1:-1]) + (rel.segments[0],))
    inv = rel.inv()
    inv_signs = inv.signs
    minus = FaceTemplate("relator-", inv_signs,
                         tuple(inv.segments[1:-1]) + (inv.segments[-1] * inv.segments[0],))
    out = [plus, minus]
    for p in pres.digon_alphabet(config.digon_syllables):
        out.append(FaceTemplate("digon", (-1, 1), (p, p.shift(1).inv()), word=p))
    return out


def _balanced_combos(templates: list[FaceTemplate], max_faces: int):
    """Template positions of each multiset whose plus and minus darts balance."""
    n = len(templates)
    for total in range(1, max_faces + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            plus = sum(templates[i].plus_darts for i in combo)
            minus = sum(templates[i].minus_darts for i in combo)
            if plus == minus:
                yield combo


def _balanced_multisets(templates: list[FaceTemplate], max_faces: int):
    for combo in _balanced_combos(templates, max_faces):
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


def _multiset_key(multiset: list[FaceTemplate]) -> tuple[str, ...]:
    return tuple(t.kind + ("" if t.word is None else f"[{t.word}]") for t in multiset)


def _marked_survivor(pres: RelPresentation, faces, pairing: dict[int, int],
                     arrows: list[int]) -> Diagram | None:
    """The glued diagram with its two poles marked exterior, or None when
    it is not a connected, valid, reduced sphere with exactly two
    nontrivially-labeled vertices."""
    diagram = Diagram(pres.ambient, faces, pairing, arrows)
    if not diagram.is_connected() or diagram.chi != 2:
        return None
    poles = [orbit[0] for v, orbit in enumerate(diagram.vertices)
             if not diagram.vertex_label(v).is_identity()]
    if len(poles) != 2:
        return None
    marked = Diagram(pres.ambient, faces, pairing, arrows, exterior_vertex_seeds=poles)
    if not validate_howie(marked, pres, allow_null_faces=False).ok:
        return None
    ok, _ = is_phi_reduced(marked, pres)
    return marked if ok else None


FaceData = tuple[str, tuple[int, ...], tuple[int, ...]]


def _face_table(templates: list[FaceTemplate], pres: RelPresentation) -> list[FaceData]:
    """Per template position: the face's class and, for each slot ``s``,
    the id of the reduced label read from ``s`` and the id of the inverse
    of the reduced label ending at ``s`` (the two words
    ``reducible_pairs`` compares).  A face's senses are its template
    signs (see the module docstring); equal words get equal ids across
    templates."""
    ambient = pres.ambient
    ids: dict[TWord, int] = {}

    def word_id(word: TWord) -> int:
        return ids.setdefault(word, len(ids))

    table = []
    for tpl in templates:
        kind = classify_label(ambient, pres, label_from(ambient, tpl.corners, tpl.signs)).kind
        slots = range(len(tpl.signs))
        read = tuple(word_id(label_from(ambient, tpl.corners, tpl.signs, s).free_reduce())
                     for s in slots)
        ending_inv = tuple(word_id(label_ending(ambient, tpl.corners, tpl.signs, s)
                                   .free_reduce().inv().free_reduce()) for s in slots)
        table.append((kind, read, ending_inv))
    return table


class LeafCheck:
    """``_marked_survivor``'s tests on one multiset's complete gluings,
    read off the face table and the corner chains with no ``Diagram``.
    ``passes`` is exact: it is True exactly when ``_marked_survivor``
    returns a diagram, which still builds and decides every such gluing."""

    def __init__(self, face_data: list[FaceData], faces: list[list[Slot]], plus: list[int]):
        """``face_data[f]`` is the face table entry of face ``f``'s template."""
        self.faces = faces
        self.plus = plus
        self.classes_ok = all(kind in ("large", "digon") for kind, _, _ in face_data)
        self.digon = [kind == "digon" for kind, _, _ in face_data]
        self.face_of: list[int] = []
        self.read: list[int] = []
        self.ending_inv: list[int] = []
        for f, (_, read, ending_inv) in enumerate(face_data):
            self.face_of.extend([f] * len(read))
            self.read.extend(read)
            self.ending_inv.extend(ending_inv)

    def passes(self, chains: "CornerChains", pairing: dict[int, int]) -> bool:
        faces = len(self.faces)
        if not self.classes_ok or chains.nontrivial != 2:
            return False
        if chains.closed - len(self.plus) + faces != 2:       # V - E + F
            return False
        face_of, digon = self.face_of, self.digon
        for a in self.plus:
            b = pairing[a]
            d1, d2 = (a, b) if a < b else (b, a)
            f1, f2 = face_of[d1], face_of[d2]
            if f1 == f2:
                continue
            if (digon[f1] and digon[f2]) or self.read[d1] == self.ending_inv[d2]:
                return False
        links = ((face_of[a], face_of[pairing[a]]) for a in self.plus)
        return len(maps.components(faces, links)) == 1


Label = tuple[tuple[int, int], ...]   # normal-form letters (copy, element)


def _seam_product(left: Label, right: Label, mul, identity: int) -> Label:
    """Product of two normal-form labels; only letters at the seam cancel."""
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1][0] == right[j][0]:
        copy = right[j][0]
        element = mul(left[i - 1][1], right[j][1])
        i -= 1
        j += 1
        if element != identity:
            return left[:i] + ((copy, element),) + right[j:]
    return left[:i] + right[j:]


class CornerChains:
    """Vertex orbits of a partial gluing, kept up to date pair by pair.

    Darts are numbered face by face from 0 (``_dart_layout``), so corner
    ``c`` is the corner at the head of dart ``c``, and ``prev_corner[x]``
    is the corner that dart ``x`` leaves.  Gluing ``a`` to ``b`` adds the
    corner links ``prev_corner[a] -> b`` and ``prev_corner[b] -> a``, the
    steps of the corner rotation of ``maps``.  Linked corners form open
    chains and closed cycles; each open chain keeps its ends in
    ``first``/``last`` (valid at the opposite end only) and the product of
    its corner labels at its first corner.  ``closed``, ``open`` and
    ``nontrivial`` (closed cycles with a nontrivial label) are the
    counters the prunes read; ``unglue`` undoes the last ``glue``.
    """

    def __init__(self, faces: list[list[Slot]], group):
        self.prev_corner: list[int] = []
        self.label: list[Label] = []
        for face in faces:
            self.prev_corner.extend(face[i - 1].dart for i in range(len(face)))
            self.label.extend(tuple((l.copy_index, l.element) for l in slot.corner.letters)
                              for slot in face)
        n = len(self.label)
        self.first = list(range(n))
        self.last = list(range(n))
        self.closed = 0
        self.open = n
        self.nontrivial = 0
        self._mul = group.mul
        self._identity = group.identity
        self._undo: list[tuple] = []

    def _link(self, u: int, v: int) -> None:
        """Add the link from corner ``u`` (a chain's last) to ``v`` (a
        chain's first): close one chain or join two."""
        f = self.first[u]
        label = self.label
        if f == v:
            self.closed += 1
            self.open -= 1
            if label[v]:
                self.nontrivial += 1
            self._undo.append((v,))
            return
        w = self.last[v]
        self._undo.append((v, f, u, w, label[f]))
        self.last[f] = w
        self.first[w] = f
        label[f] = _seam_product(label[f], label[v], self._mul, self._identity)
        self.open -= 1

    def glue(self, a: int, b: int) -> None:
        self._link(self.prev_corner[a], b)
        self._link(self.prev_corner[b], a)

    def unglue(self) -> None:
        for _ in range(2):
            entry = self._undo.pop()
            if len(entry) == 1:
                v, = entry
                self.closed -= 1
                self.open += 1
                if self.label[v]:
                    self.nontrivial -= 1
            else:
                v, f, u, w, label = entry
                self.last[f] = u
                self.first[w] = v
                self.label[f] = label
                self.open += 1


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
    templates = face_templates(config)
    table = _face_table(templates, config.presentation)
    for combo in _balanced_combos(templates, config.max_interior_faces):
        multiset = [templates[i] for i in combo]
        survivors, complete = _enumerate_multiset(
            config, multiset, [table[i] for i in combo], result)
        for form, diagram in survivors.items():
            name = form if config.symmetry_dedup else f"{form}#{len(result.survivors)}"
            if name not in result.survivors:
                result.survivors[name] = diagram
        result.counts_per_multiset[_multiset_key(multiset)] = len(survivors)
        result.complete = result.complete and complete
    return result


def _enumerate_multiset(config: EnumerationConfig, multiset: list[FaceTemplate],
                        face_data: list[FaceData], result: EnumerationResult):
    """Survivors of one multiset by canonical form (the last gluing found
    wins) and whether the search ran to the end; leaves, checked leaves,
    nodes and prunes are added to ``result``."""
    pres = config.presentation
    faces, plus, minus = _dart_layout(multiset)
    chains = CornerChains(faces, pres.group)
    check = LeafCheck(face_data, faces, plus)
    n = len(plus)
    spheres_need = n - len(faces) + 2      # vertices of a connected sphere
    bound = config.max_matchings_per_multiset
    survivors: dict[str, Diagram] = {}
    pairing: dict[int, int] = {}
    nodes = leaves = checked = labels_cut = euler_cut = 0

    def backtrack(i: int) -> bool:
        """False once the node bound cuts the search short."""
        nonlocal nodes, leaves, checked, labels_cut, euler_cut
        if i == n:
            leaves += 1
            if check.passes(chains, pairing):
                checked += 1
                marked = _marked_survivor(pres, faces, pairing, plus)
                if marked is not None:
                    survivors[marked.canonical_form()] = marked
            return True
        a = plus[i]
        for b in minus:
            if b in pairing:
                continue
            if nodes >= bound:
                return False
            nodes += 1
            pairing[a] = b
            pairing[b] = a
            chains.glue(a, b)
            ok = True
            if chains.nontrivial > 2:
                labels_cut += 1
            elif chains.closed + chains.open < spheres_need:
                euler_cut += 1
            else:
                ok = backtrack(i + 1)
            chains.unglue()
            del pairing[a], pairing[b]
            if not ok:
                return False
        return True

    complete = backtrack(0)
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
        result.counts_per_multiset[_multiset_key(multiset)] = count
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
    total: str
    entries: tuple[AuditEntry, ...]


def curvature_audit(diagram: Diagram, pres: RelPresentation) -> CurvatureAudit:
    """Check the curvature signs the weight rule forces on clean diagrams:
    nonpositive everywhere inside, exactly two at the two poles, the side
    count at least twice the negative-special count, total four."""
    ok_phi, witness = is_phi_reduced(diagram, pres)
    if not ok_phi:
        raise DiagramError(f"curvature audit needs a clean diagram: {witness}")
    rule = curvature_weights(diagram, pres)
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
