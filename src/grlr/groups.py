"""Finitely generated abelian grading groups Z^r x Z/m1 x ... x Z/mk.

Group elements are plain int tuples in canonical form: free coordinates
are arbitrary ints, each torsion coordinate is reduced mod its modulus.
Written multiplicatively in the math, additively in coordinates.

Grades are validated once, where they enter the program: ``reduce`` and
``parse_grade`` canonicalise raw coordinates, ``check`` rejects anything
not canonical, and ``BilinearRule`` and ``AlgebraInstance`` check every
basis grade on construction.  The kernels ``mul`` and ``inv`` assume
canonical inputs of length ``rank`` and do not check them: they add or
negate coordinatewise and reduce only the torsion coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, mod, neg
from typing import Iterable

Grade = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(m) for m in self.torsion))
        for m in self.torsion:
            if m < 2:
                raise ValueError(f"torsion modulus {m} must be >= 2")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    def identity(self) -> Grade:
        return (0,) * self.rank

    def reduce(self, coords: Iterable[int]) -> Grade:
        """Canonical form: torsion coordinates reduced mod their modulus."""
        c = tuple(int(x) for x in coords)
        if len(c) != self.rank:
            raise ValueError(f"grade {c} has length {len(c)}, expected {self.rank}")
        free = c[: self.free_rank]
        tors = tuple(x % m for x, m in zip(c[self.free_rank :], self.torsion))
        return free + tors

    def check(self, g: Grade) -> Grade:
        if self.reduce(g) != tuple(g):
            raise ValueError(f"grade {g} is not in canonical form")
        return tuple(g)

    def mul(self, a: Grade, b: Grade) -> Grade:
        """Product of two canonical grades; the inputs are not checked."""
        s = tuple(map(add, a, b))
        if not self.torsion:
            return s
        r = self.free_rank
        return s[:r] + tuple(map(mod, s[r:], self.torsion))

    def inv(self, a: Grade) -> Grade:
        """Inverse of a canonical grade; the input is not checked."""
        n = tuple(map(neg, a))
        if not self.torsion:
            return n
        r = self.free_rank
        return n[:r] + tuple(map(mod, n[r:], self.torsion))

    def is_identity(self, a: Grade) -> bool:
        return self.check(a) == self.identity()

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        return cls(int(data["free_rank"]), tuple(int(m) for m in data.get("torsion", ())))


def format_grade(g: Grade) -> str:
    return ",".join(str(x) for x in g)


def parse_grade(spec: GroupSpec, text: str | Iterable[int]) -> Grade:
    if isinstance(text, str):
        parts = [p for p in text.split(",") if p.strip() != ""]
        coords = [int(p) for p in parts]
    else:
        coords = [int(x) for x in text]
    return spec.reduce(coords)


def direct_product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    return GroupSpec(a.free_rank + b.free_rank, a.torsion + b.torsion)


def embed_left(a: GroupSpec, b: GroupSpec, g: Grade) -> Grade:
    """Embed a grade of ``a`` into ``a x b`` (zeros on the ``b`` block)."""
    a.check(g)
    return (
        g[: a.free_rank]
        + (0,) * b.free_rank
        + g[a.free_rank :]
        + (0,) * len(b.torsion)
    )


def embed_right(a: GroupSpec, b: GroupSpec, g: Grade) -> Grade:
    b.check(g)
    return (
        (0,) * a.free_rank
        + g[: b.free_rank]
        + (0,) * len(a.torsion)
        + g[b.free_rank :]
    )
