import random

import pytest

from relpres.maps import components, corner_cycles


def harer_zagier(n: int) -> list[int]:
    """eps_g(n), g = 0..n//2: gluings of one 2n-gon into a genus-g surface,
    from (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2)."""
    eps = {(0, 0): 1}
    for m in range(1, n + 1):
        for g in range(m // 2 + 1):
            total = (2 * (2 * m - 1) * eps.get((g, m - 1), 0)
                     + (m - 1) * (2 * m - 1) * (2 * m - 3) * eps.get((g - 1, m - 2), 0))
            assert total % (m + 1) == 0
            eps[(g, m)] = total // (m + 1)
    return [eps[(g, n)] for g in range(n // 2 + 1)]


def perfect_matchings(darts: list[int]):
    if not darts:
        yield {}
        return
    a = darts[0]
    for i in range(1, len(darts)):
        b = darts[i]
        for rest in perfect_matchings(darts[1:i] + darts[i + 1:]):
            yield {**rest, a: b, b: a}


def pairing_of(edges) -> dict[int, int]:
    out = {}
    for a, b in edges:
        out[a] = b
        out[b] = a
    return out


def test_harer_zagier_values():
    assert [harer_zagier(n) for n in range(1, 6)] == \
        [[1], [2, 1], [5, 10], [14, 70, 21], [42, 420, 483]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_polygon_gluings_match_harer_zagier(n):
    face = list(range(2 * n))
    genus_counts = [0] * (n // 2 + 1)
    for pairing in perfect_matchings(face):
        cycles = corner_cycles([face], pairing)
        assert sorted(ref for c in cycles for ref in c) == [(0, i) for i in face]
        assert all(c[0] == min(c) for c in cycles)
        # V - E + F = 2 - 2g with E = n edges and F = 1 face
        genus_counts[(n + 1 - len(cycles)) // 2] += 1
    assert genus_counts == harer_zagier(n)


def test_partial_cycles_are_orbits_of_every_completion():
    rng = random.Random(5)
    face_darts = [[4 * f + i for i in range(4)] for f in range(4)]
    for _ in range(40):
        darts = list(range(16))
        rng.shuffle(darts)
        edges = [(darts[i], darts[i + 1]) for i in range(0, 16, 2)]
        partial = pairing_of(rng.sample(edges, rng.randint(0, 8)))
        closed = corner_cycles(face_darts, partial)
        free = [d for d in range(16) if d not in partial]
        completions = [pairing_of(edges)]
        for _ in range(3):
            rng.shuffle(free)
            completions.append({**partial, **pairing_of(zip(free[::2], free[1::2]))})
        for full in completions:
            orbits = corner_cycles(face_darts, full)
            assert set(closed) <= set(orbits)
            # an orbit leaving only through darts the partial pairing glues
            # is already closed there
            for orbit in orbits:
                if all(face_darts[f][(s + 1) % 4] in partial for f, s in orbit):
                    assert orbit in closed


def test_components_ordered_by_least_member():
    assert components(6, [(4, 1), (5, 3), (3, 0)]) == [[0, 3, 5], [1, 4], [2]]
    assert components(0, []) == []
