"""Vertex orbits and components of combinatorial maps on integer darts.

A map is given by ``face_darts``, the darts of each face in anticlockwise
order, and ``pairing``, which sends each dart to the other dart of its
edge.  Slot ``(f, i)`` is dart ``face_darts[f][i]`` followed by the corner
at its head.  The corner rotation sends ``(f, i)`` across the dart that
leaves that corner, ``face_darts[f][i + 1]``, to the slot of its partner;
vertices are the orbits of this rotation.  Orbits are listed in the order
of their minimal ``(face, slot)`` ref, and each one starts at that ref.
The pairing may be partial: an orbit that reaches an unpaired dart is
open and is left out.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

CornerRef = tuple[int, int]          # (face index, slot index)


def corner_cycles(face_darts: Sequence[Sequence[int]],
                  pairing: Mapping[int, int]) -> list[tuple[CornerRef, ...]]:
    """Closed orbits of the corner rotation, each from its minimal ref."""
    slot_of = {d: (fi, si) for fi, darts in enumerate(face_darts)
               for si, d in enumerate(darts)}
    seen: set[CornerRef] = set()
    cycles = []
    for fi, darts in enumerate(face_darts):
        for si in range(len(darts)):
            ref = (fi, si)
            if ref in seen:
                continue
            seen.add(ref)
            orbit = [ref]
            f, s = ref
            while True:
                around = face_darts[f]
                partner = pairing.get(around[(s + 1) % len(around)])
                if partner is None:          # open orbit
                    break
                f, s = cur = slot_of[partner]
                if cur == ref:
                    cycles.append(tuple(orbit))
                    break
                seen.add(cur)
                orbit.append(cur)
    return cycles


def components(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of ``0..n-1`` joined by ``links``, each sorted, ordered by
    their least member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())
