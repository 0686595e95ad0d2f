"""Instance-level constructions: direct sums, base changes, field moves."""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import CharacteristicError, ToolkitError
from .fields import Field, Scalar
from .groups import GroupSpec, direct_product, embed_left, embed_right
from .linear import BilinearRule, GradedBasis, Sparse
from .model import AlgebraInstance


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

    def merged_rule(rname: str, ra: BilinearRule, rb: BilinearRule, left, right, out) -> BilinearRule:
        # a's positions come first in each merged basis, so b's shift by a's dimensions
        table: dict[tuple[int, int], Sparse] = dict(ra.table)
        dl, dr, do = ra.left.dim, ra.right.dim, ra.out.dim
        for (i, j), img in rb.table.items():
            table[(i + dl, j + dr)] = {p + do: x for p, x in img.items()}
        return BilinearRule(rname, f, group, left, right, out, table)

    bracket = merged_rule("bracket", a.bracket, b.bracket, L, L, L)
    product = merged_rule("product", a.product, b.product, A, A, A)
    action = merged_rule("action", a.action, b.action, A, L, L)
    anchor = merged_rule("anchor", a.anchor, b.anchor, L, A, A)
    return AlgebraInstance(name or f"{a.name}+{b.name}", f, group, L, A, bracket, product, action, anchor)


def _random_invertible(field: Field, n: int, rng: random.Random) -> list[list[Scalar]]:
    """Small-entry invertible matrix, found by retry."""
    from .linear import rref

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
    f = inst.field
    rng = random.Random(seed)

    def block_maps(basis: GradedBasis) -> dict:
        men = {}
        for g in basis.grades():
            n = basis.block_dim(g)
            fwd = _random_invertible(f, n, rng)
            men[g] = fwd
        return men

    maps_L = block_maps(inst.L)
    maps_A = block_maps(inst.A)

    def new_vectors(basis: GradedBasis, maps: dict) -> list[Sparse]:
        """Old-coordinate expression of each new basis vector."""
        out: list[Sparse] = [dict() for _ in range(basis.dim)]
        for g in basis.grades():
            positions = basis.positions_at(g)
            fwd = maps[g]
            for i, pos in enumerate(positions):
                out[pos] = {
                    positions[j]: fwd[i][j] for j in range(len(positions)) if not f.is_zero(fwd[i][j])
                }
        return out

    vec_L = new_vectors(inst.L, maps_L)
    vec_A = new_vectors(inst.A, maps_A)

    def express(basis: GradedBasis, maps: dict, img: Sparse) -> Sparse:
        """Coordinates of an old-basis vector in the new block bases."""
        from .linear import linear_combination

        out: Sparse = {}
        for g, coords in basis.split_sparse(img, f).items():
            fwd = maps[g]
            combo = linear_combination(f, fwd, coords)
            if combo is None:  # invertible by construction
                raise ToolkitError("base change failed to invert a block")
            positions = basis.positions_at(g)
            for j, c in enumerate(combo):
                if not f.is_zero(c):
                    out[positions[j]] = c
        return out

    def rebuild(rule: BilinearRule, lvec, rvec, out_basis, out_maps) -> BilinearRule:
        table: dict[tuple[int, int], Sparse] = {}
        for i in range(rule.left.dim):
            for j in range(rule.right.dim):
                img = rule.apply_sparse(lvec[i], rvec[j])
                if img:
                    table[(i, j)] = express(out_basis, out_maps, img)
        return BilinearRule(rule.name, f, inst.group, rule.left, rule.right, rule.out, table)

    bracket = rebuild(inst.bracket, vec_L, vec_L, inst.L, maps_L)
    product = rebuild(inst.product, vec_A, vec_A, inst.A, maps_A)
    action = rebuild(inst.action, vec_A, vec_L, inst.L, maps_L)
    anchor = rebuild(inst.anchor, vec_L, vec_A, inst.A, maps_A)
    return AlgebraInstance(
        name or f"{inst.name}~b{seed}", f, inst.group, inst.L, inst.A, bracket, product, action, anchor
    )


def to_field(inst: AlgebraInstance, field: Field, name: str | None = None) -> AlgebraInstance:
    """Reduce a rational instance modulo p (or retag over the rationals).

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

    def rebuild(rule: BilinearRule) -> BilinearRule:
        table = {
            key: {p: move(x) for p, x in img.items()} for key, img in rule.table.items()
        }
        return BilinearRule(rule.name, field, inst.group, rule.left, rule.right, rule.out, table)

    return AlgebraInstance(
        name or f"{inst.name}@{field.label}",
        field,
        inst.group,
        inst.L,
        inst.A,
        rebuild(inst.bracket),
        rebuild(inst.product),
        rebuild(inst.action),
        rebuild(inst.anchor),
    )
