"""Desk-scale exhaustive enumeration of clean two-pole spherical diagrams.

Faces available to the search: copies of the relator face (both
orientations) and digon faces over the bottom slice, truncated by a
syllable bound.  Gluings are perfect matchings of along-arrow darts with
against-arrow darts; survivors must be connected spheres, pass the full
validation, keep digons apart, stay reduced, and have exactly two
nontrivially-labeled vertices (marked exterior).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .diagram import (Diagram, DiagramError, Slot, curvature_weights,
                      is_phi_reduced, validate_howie)
from .freeprod import FPWord
from .maps import corner_cycles
from .presentation import RelPresentation


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
    assert rel.segments[-1].is_identity()
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


def _balanced_multisets(templates: list[FaceTemplate], max_faces: int):
    n = len(templates)
    for total in range(1, max_faces + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            plus = sum(templates[i].plus_darts for i in combo)
            minus = sum(templates[i].minus_darts for i in combo)
            if plus == minus:
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


@dataclass
class EnumerationResult:
    survivors: dict[str, Diagram] = field(default_factory=dict)
    counts_per_multiset: dict[tuple[str, ...], int] = field(default_factory=dict)
    matchings_tried: int = 0
    complete: bool = True

    def canonical_forms(self) -> set[str]:
        return set(self.survivors)


def enumerate_diagrams(config: EnumerationConfig) -> EnumerationResult:
    """Backtracking enumeration with closed-vertex pruning."""
    result = EnumerationResult()
    for multiset in _balanced_multisets(face_templates(config), config.max_interior_faces):
        survivors, tried, complete = _enumerate_multiset(config, multiset)
        for form, diagram in survivors.items():
            name = form if config.symmetry_dedup else f"{form}#{len(result.survivors)}"
            if name not in result.survivors:
                result.survivors[name] = diagram
        result.counts_per_multiset[_multiset_key(multiset)] = len(survivors)
        result.matchings_tried += tried
        result.complete = result.complete and complete
    return result


def _enumerate_multiset(config: EnumerationConfig, multiset: list[FaceTemplate]):
    """Survivors of one multiset by canonical form (the last gluing found
    wins), the leaves reached, and whether the search ran to the end."""
    pres = config.presentation
    faces, plus, minus = _dart_layout(multiset)
    face_darts = [[slot.dart for slot in face] for face in faces]
    n = len(plus)
    survivors: dict[str, Diagram] = {}
    tried = 0
    complete = True
    pairing: dict[int, int] = {}

    def backtrack(i: int):
        nonlocal tried, complete
        if tried > config.max_matchings_per_multiset:
            complete = False
            return
        if i == n:
            tried += 1
            marked = _marked_survivor(pres, faces, pairing, plus)
            if marked is not None:
                survivors[marked.canonical_form()] = marked
            return
        a = plus[i]
        for b in minus:
            if b in pairing:
                continue
            pairing[a] = b
            pairing[b] = a
            if _partial_ok(pres, faces, face_darts, pairing):
                backtrack(i + 1)
            del pairing[a], pairing[b]

    backtrack(0)
    return survivors, tried, complete


def _partial_ok(pres, faces, face_darts, pairing) -> bool:
    """Prune on closed vertex orbits: more than two nontrivial labels kill
    the branch; closed interior orbits must be trivial eventually, but we
    only count nontrivial ones here."""
    nontrivial = 0
    for orbit in corner_cycles(face_darts, pairing):
        label = pres.ambient.one()
        for fi, si in orbit:
            label = label * faces[fi][si].corner
        if not label.is_identity():
            nontrivial += 1
            if nontrivial > 2:
                return False
    return True


def brute_force_enumerate(config: EnumerationConfig) -> EnumerationResult:
    """Unpruned cross-check: try every permutation matching outright."""
    pres = config.presentation
    result = EnumerationResult()
    for multiset in _balanced_multisets(face_templates(config), config.max_interior_faces):
        faces, plus, minus = _dart_layout(multiset)
        count = 0
        for perm in itertools.permutations(minus):
            result.matchings_tried += 1
            if result.matchings_tried > config.max_matchings_per_multiset:
                raise SearchBoundExceeded("brute force bound exceeded")
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
