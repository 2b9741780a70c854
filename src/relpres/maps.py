"""Vertex orbits and components of combinatorial maps on integer darts.

A map is given by ``face_darts``, the darts of each face in anticlockwise
order, and ``pairing``, which sends each dart to the other dart of its
edge.  Each dart is followed in its face by the corner at its head.  The
corner rotation steps from dart ``d`` across the dart that leaves its head
corner, the next dart of ``d``'s face, to that dart's partner; vertices
are the orbits of this rotation, as dart cycles.  Each orbit starts at its
dart of least ``(face, slot)`` position, and orbits are listed in that
order.  The pairing may be partial: an orbit that reaches an unpaired
dart is open and is left out.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

CornerRef = tuple[int, int]          # (face index, slot index)


def vertex_cycles(face_darts: Sequence[Sequence[int]],
                  pairing: Mapping[int, int]) -> list[tuple[int, ...]]:
    """Closed orbits of the corner rotation, each from its first dart."""
    after = {d: e for darts in face_darts for d, e in zip(darts, [*darts[1:], *darts[:1]])}
    seen: set[int] = set()
    cycles = []
    for darts in face_darts:
        for start in darts:
            if start in seen:
                continue
            seen.add(start)
            orbit = [start]
            d = pairing.get(after[start])
            while d != start:
                if d is None:                # open orbit
                    break
                seen.add(d)
                orbit.append(d)
                d = pairing.get(after[d])
            else:
                cycles.append(tuple(orbit))
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
