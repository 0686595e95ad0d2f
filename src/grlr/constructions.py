"""Instance-level constructions: direct sums, base changes, field moves."""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import CharacteristicError, ToolkitError
from .fields import Field, Scalar
from .groups import Grade, direct_product, embed_left, embed_right
from .linear import BilinearRule, GradedBasis, Row, Sparse, rref
from .model import AlgebraInstance, contract, rebuild_instance


def direct_sum(a: AlgebraInstance, b: AlgebraInstance, name: str | None = None) -> AlgebraInstance:
    """Componentwise direct sum over the product grading group.

    Grades embed as (g, 0) and (0, h); all cross products vanish.  Basis
    names get a _1 or _2 suffix.
    """
    if a.field != b.field:
        raise ToolkitError("direct sum requires a common field")
    group = direct_product(a.group, b.group)
    f = a.field

    def merged_basis(x: GradedBasis, y: GradedBasis) -> GradedBasis:
        # the grades of a's and b's bases are checked, so their embeddings are canonical
        entries = [(f"{n}_1", embed_left(a.group, b.group, g)) for n, g in x.entries]
        entries += [(f"{n}_2", embed_right(a.group, b.group, g)) for n, g in y.entries]
        return GradedBasis._checked_in(group, entries)

    L = merged_basis(a.L, b.L)
    A = merged_basis(a.A, b.A)

    def merged_table(ra: BilinearRule, dom: str) -> dict[tuple[int, int], Sparse]:
        # a's positions come first in each merged basis, so b's shift by a's dimensions
        table: dict[tuple[int, int], Sparse] = dict(ra.table)
        dl, dr, do = ra.left.dim, ra.right.dim, ra.out.dim
        for (i, j), img in getattr(b, ra.name).table.items():
            table[(i + dl, j + dr)] = {p + do: x for p, x in img.items()}
        return table

    return rebuild_instance((a, b), name or f"{a.name}+{b.name}", f, group, L, A, merged_table)


def _random_invertible(field: Field, n: int, rng: random.Random) -> tuple[list[list[Scalar]], list[Row]]:
    """Small-entry invertible matrix, found by retry, and its inverse: one
    elimination of [matrix | I] per try, whose pivots all lie in the
    matrix's columns exactly when it is invertible.  A 1x1 matrix needs no
    elimination: its one entry, drawn as in a try, is inverted when it is
    nonzero."""
    if n == 1:
        while True:
            x = field.from_int(rng.randint(-2, 2))
            if not field.is_zero(x):
                return [[x]], [(field.inv(x),)]
    unit = [tuple(field.one if k == i else field.zero for k in range(n)) for i in range(n)]
    while True:
        mat = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        rows, pivots = rref(field, [tuple(row) + e for row, e in zip(mat, unit)])
        if all(c < n for c in pivots):
            return mat, [row[n:] for row in rows]


def base_change(inst: AlgebraInstance, seed: int) -> AlgebraInstance:
    """Conjugate all four tables by grade-preserving invertible maps.

    Each L block and each A block gets an independent random invertible
    matrix; axioms and every subspace-level invariant are preserved.

    The new vector at the k-th position of block g is row k of that
    block's matrix M_g, in the old block coordinates, and the old vector
    at offset k reads as row k of the inverse of M_g, drawn with it, with
    no residue (``model.contract``).
    """
    f, rng = inst.field, random.Random(seed)
    sides = []
    # one draw per block, the L grades in order, then the A grades
    for basis in (inst.L, inst.A):
        rows: dict[Grade, list[list[Scalar]]] = {}
        read: list = [None] * basis.dim
        for g in basis.grades():
            at = basis.positions_at(g)
            rows[g], inverse = _random_invertible(f, len(at), rng)
            for o, row in zip(at, inverse):
                read[o] = [(k, x) for k, x in zip(at, row) if x]
        sides.append((basis, rows, read))
    return contract(inst, f"{inst.name}~b{seed}", *sides)


def to_field(inst: AlgebraInstance, field: Field) -> AlgebraInstance:
    """Reduce a rational instance modulo p; over the rationals, the instance itself.

    Refuses when a denominator in the tables vanishes mod p."""
    if inst.field.kind != "rational":
        raise CharacteristicError(
            f"field change starts from rational tables, not {inst.field.label}"
        )
    if field.kind == "rational":
        return inst

    def move(x: Scalar) -> Scalar:
        assert isinstance(x, Fraction)
        if x.denominator % field.p == 0:  # type: ignore[operator]
            raise CharacteristicError(
                f"denominator {x.denominator} vanishes in GF({field.p})"
            )
        return field.div(field.from_int(x.numerator), field.from_int(x.denominator))

    def moved_table(rule: BilinearRule, dom: str) -> dict[tuple[int, int], Sparse]:
        # a scalar that vanishes mod p is dropped, and so is an image left empty
        table = {}
        for key, img in rule.table.items():
            moved = {p: c for p, x in img.items() if (c := move(x))}
            if moved:
                table[key] = moved
        return table

    return rebuild_instance((inst,), f"{inst.name}@{field.label}", field, inst.group, inst.L, inst.A, moved_table)
