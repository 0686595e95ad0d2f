"""Instance-level constructions: direct sums, base changes, field moves."""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import CharacteristicError, ToolkitError
from .fields import Field, Scalar
from .groups import direct_product, embed_left, embed_right
from .linear import BilinearRule, GradedBasis, Sparse, rref
from .model import AlgebraInstance, rebuild_instance, transport


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
        entries = [(f"{n}_1", embed_left(a.group, b.group, g)) for n, g in x.entries]
        entries += [(f"{n}_2", embed_right(a.group, b.group, g)) for n, g in y.entries]
        return GradedBasis(entries)

    L = merged_basis(a.L, b.L)
    A = merged_basis(a.A, b.A)

    def merged_table(ra: BilinearRule, dom: str) -> dict[tuple[int, int], Sparse]:
        # a's positions come first in each merged basis, so b's shift by a's dimensions
        table: dict[tuple[int, int], Sparse] = dict(ra.table)
        dl, dr, do = ra.left.dim, ra.right.dim, ra.out.dim
        for (i, j), img in getattr(b, ra.name).table.items():
            table[(i + dl, j + dr)] = {p + do: x for p, x in img.items()}
        return table

    return rebuild_instance(a, name or f"{a.name}+{b.name}", f, group, L, A, merged_table)


def _random_invertible(field: Field, n: int, rng: random.Random) -> list[list[Scalar]]:
    """Small-entry invertible matrix, found by retry."""
    while True:
        mat = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        rows, pivots = rref(field, mat)
        if len(pivots) == n:
            return mat


def base_change(inst: AlgebraInstance, seed: int, name: str | None = None) -> AlgebraInstance:
    """Conjugate all four tables by grade-preserving invertible maps.

    Each L block and each A block gets an independent random invertible
    matrix; axioms and every subspace-level invariant are preserved.
    """
    f, rng = inst.field, random.Random(seed)
    # one draw per block: the L grades in order, then the A grades
    L_rows = {g: _random_invertible(f, inst.L.block_dim(g), rng) for g in inst.L.grades()}
    A_rows = {g: _random_invertible(f, inst.A.block_dim(g), rng) for g in inst.A.grades()}
    return transport(inst, name or f"{inst.name}~b{seed}", inst.L, L_rows, inst.A, A_rows)


def to_field(inst: AlgebraInstance, field: Field, name: str | None = None) -> AlgebraInstance:
    """Reduce a rational instance modulo p (or, given a name, rename it over the rationals).

    Refuses when a denominator in the tables vanishes mod p."""
    if inst.field.kind != "rational":
        raise CharacteristicError(
            f"field change starts from rational tables, not {inst.field.label}"
        )
    if field.kind == "rational" and name is None:
        return inst

    def move(x: Scalar) -> Scalar:
        assert isinstance(x, Fraction)
        if field.kind == "rational":
            return x
        if x.denominator % field.p == 0:  # type: ignore[operator]
            raise CharacteristicError(
                f"denominator {x.denominator} vanishes in GF({field.p})"
            )
        return field.div(field.from_int(x.numerator), field.from_int(x.denominator))

    def moved_table(rule: BilinearRule, dom: str) -> dict[tuple[int, int], Sparse]:
        return {key: {p: move(x) for p, x in img.items()} for key, img in rule.table.items()}

    new_name = name or f"{inst.name}@{field.label}"
    return rebuild_instance(inst, new_name, field, inst.group, inst.L, inst.A, moved_table)
