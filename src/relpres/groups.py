"""Finite groups given by explicit multiplication tables.

Elements are 0-based indices into a name list.  All downstream algebra
(free products of copies, relator rewriting, diagram labels) needs exact
equality of elements, which is why the base group is restricted to a
finite table.
"""

from __future__ import annotations

import json
from typing import Sequence

RESERVED_TOKENS = {"t", "t^-1", "1"}
FORBIDDEN_NAME_CHARS = set("()^@ \t\n")


class GroupTableError(ValueError):
    pass


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_REQUIRED = object()


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(data, name: str, kind: type, error: type[ValueError], default=_REQUIRED):
    """``data[name]`` of a JSON document, checked to be of type ``kind``
    (a boolean is never an integer).  Raises ``error`` naming the field
    when ``data`` is not an object, when the field is missing and has no
    default, or when its value has another type."""
    if not isinstance(data, dict):
        raise error(f"expected an object with field {name!r}, got {_json_type(data)}")
    if name not in data:
        if default is _REQUIRED:
            raise error(f"missing field {name!r}")
        return default
    value = data[name]
    if type(value) is not kind:
        raise error(f"field {name!r} must be {_JSON_TYPES[kind]}, got {_json_type(value)}")
    return value


class GroupTable:
    """A finite group: element names plus an order x order product table.

    The table is validated on construction: a two-sided identity,
    two-sided inverses, and associativity by Light's test over a
    generating set (|S| n^2 lookups instead of n^3).  Instances are
    immutable by convention and hashable.
    """

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]):
        self.names = tuple(names)
        self.order = len(self.names)
        if self.order == 0:
            raise GroupTableError("empty group table")
        if len(set(self.names)) != self.order:
            raise GroupTableError("element names are not unique")
        for name in self.names:
            if name in RESERVED_TOKENS:
                raise GroupTableError(f"element name {name!r} is reserved")
            if not name or set(name) & FORBIDDEN_NAME_CHARS:
                raise GroupTableError(f"invalid element name {name!r}")
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != self.order or any(len(r) != self.order for r in self.table):
            raise GroupTableError("product table is not order x order")
        for row in self.table:
            for v in row:
                if not (0 <= v < self.order):
                    raise GroupTableError(f"table entry {v} out of range")
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        self._check_associativity()
        self._index = {n: i for i, n in enumerate(self.names)}

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise GroupTableError("no two-sided identity")

    def _build_inverses(self) -> tuple[int, ...]:
        inv = []
        for x in range(self.order):
            cands = [y for y in range(self.order)
                     if self.table[x][y] == self.identity and self.table[y][x] == self.identity]
            if len(cands) != 1:
                raise GroupTableError(f"element {self.names[x]} lacks a unique two-sided inverse")
            inv.append(cands[0])
        return tuple(inv)

    def _check_associativity(self) -> None:
        """Light's test: the b with (ab)c = a(bc) for all a, c are closed
        under products, so checking b over a generating set suffices.
        Generators are picked greedily until right multiplication by them
        reaches every element from the identity.  On failure the triple
        loop below names the first bad triple."""
        t = self.table
        gens: list[int] = []
        reached = {self.identity}
        for x in range(self.order):
            if x in reached:
                continue
            gens.append(x)
            reached.add(x)
            stack = list(reached)
            while stack:
                row = t[stack.pop()]
                for y in map(row.__getitem__, gens):
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        for b in gens:
            tb = t[b]
            for ta in t:
                if t[ta[b]] != tuple(map(ta.__getitem__, tb)):
                    self._raise_first_nonassociative()

    def _raise_first_nonassociative(self) -> None:
        t = self.table
        for a in range(self.order):
            for b in range(self.order):
                ab = t[a][b]
                for c in range(self.order):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise GroupTableError(
                            f"not associative at ({self.names[a]},{self.names[b]},{self.names[c]})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, by: int) -> int:
        """by^-1 * a * by."""
        return self.mul(self.mul(self.inv(by), a), by)

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GroupTableError(f"unknown element token {name!r}") from None

    def nontrivial(self) -> list[int]:
        return [x for x in range(self.order) if x != self.identity]

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupTable) and self.names == other.names and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.names, self.table))

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, names={list(self.names)})"

    def to_dict(self) -> dict:
        return {"names": list(self.names), "table": [list(r) for r in self.table]}

    @classmethod
    def from_dict(cls, data: dict) -> "GroupTable":
        """The group of a JSON object with a list of element names and a
        table of element indices or names."""
        names = json_field(data, "names", list, GroupTableError)
        table = json_field(data, "table", list, GroupTableError)
        if any(type(n) is not str for n in names):
            raise GroupTableError("field 'names' must hold strings")
        if any(type(row) is not list for row in table):
            raise GroupTableError("field 'table' must hold lists")
        if table and table[0] and type(table[0][0]) is str:
            idx = {n: i for i, n in enumerate(names)}
            if any(type(v) is not str or v not in idx for row in table for v in row):
                raise GroupTableError("field 'table' holds an unknown element name")
            table = [[idx[v] for v in row] for row in table]
        elif any(type(v) is not int for row in table for v in row):
            raise GroupTableError("field 'table' must hold integers or element names")
        return cls(names, table)

    @classmethod
    def from_file(cls, path: str) -> "GroupTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def cyclic_group(n: int, names: Sequence[str] | None = None) -> GroupTable:
    """Z/n with default names e, x1, x2, ..."""
    if names is None:
        names = ["e"] + [f"x{i}" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(names, table)
