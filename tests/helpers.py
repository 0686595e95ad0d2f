"""Shared test utilities: cached catalog builds, coherent and wild single-constant
mutations, and brute-force re-statements of predicates used as oracles."""
from __future__ import annotations

import functools
import itertools
import random

from grlr import (
    RATIONALS,
    AlgebraInstance,
    GradedBasis,
    GradedSubspace,
    GroupSpec,
    Supports,
    build,
    default_recipe_space,
    generate_instance,
    supports,
)
from grlr.errors import ToolkitError
from grlr.fields import Field, parse_field_label
from grlr.groups import Grade
from grlr.linear import BilinearRule, Sparse, rule_from_names, sparse_add, sparse_scale
from grlr.model import verify_grading

_cache: dict[tuple[str, str | None], AlgebraInstance] = {}


def cached(name: str, field_label: str | None = None, purpose: str = "display") -> AlgebraInstance:
    key = (name, field_label or purpose)
    if key not in _cache:
        fld = parse_field_label(field_label) if field_label else None
        _cache[key] = build(name, fld, purpose)
    return _cache[key]


@functools.cache
def criterion_2_instances() -> tuple[tuple[str, AlgebraInstance], ...]:
    """The criterion-2 set: the six catalog entries, then the first 50
    generated recipes with at most six multipliers."""
    instances = [(n, cached(n)) for n in ["e1", "e2", "e3", "ga2", "ga3", "sl2_ga2"]]
    for recipe in default_recipe_space():
        if len(instances) >= 6 + 50:
            break
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        if len(supports(inst).multipliers()) <= 6:
            instances.append((recipe.label, inst))
    return tuple(instances)


def reference_connections(
    sup: Supports, g1: Grade, g2: Grade, side: str, max_len: int | None = None
) -> tuple[list[list[Grade]], int]:
    """Connection paths by literal recursive search, multiplying with
    ``group.mul`` at every step: (paths in pre-order, number of products)."""
    states = sup.states(side)
    mults = sup.multipliers()
    if max_len is None:
        max_len = 2 * max(1, len(mults))
    group = sup.group
    targets = {group.check(g2), group.inv(g2)}
    paths: list[list[Grade]] = []
    products = 0

    def walk(current: Grade, path: list[Grade]) -> None:
        nonlocal products
        if current in targets:
            paths.append(list(path))
        if len(path) >= max_len or current not in states:
            return
        for m in mults:
            path.append(m)
            products += 1
            walk(group.mul(current, m), path)
            path.pop()

    walk(group.reduce(g1), [group.reduce(g1)])
    return paths, products


def _rule_slots(inst: AlgebraInstance, rule: BilinearRule) -> list[tuple[int, int, int]]:
    # (i, j, out_pos) with out_pos in the grade block the pair must land in
    slots = []
    for i in range(rule.left.dim):
        for j in range(rule.right.dim):
            target = inst.group.mul(rule.left.grade_of(i), rule.right.grade_of(j))
            for k in rule.out.positions_at(target):
                slots.append((i, j, k))
    return slots


def mutate_instance(inst: AlgebraInstance, seed: int) -> tuple[AlgebraInstance, str]:
    """Change one structure constant, staying inside the legal grade block.

    The bracket mirror entry is kept antisymmetric and the product mirror
    symmetric, so the grading and orientation bookkeeping stay valid and
    only a genuine algebra law can fail.
    """
    rng = random.Random(seed)
    f = inst.field
    rules = [inst.bracket, inst.product, inst.action, inst.anchor]
    weighted = [(r, s) for r in rules for s in _rule_slots(inst, r)]
    rule, (i, j, k) = weighted[rng.randrange(len(weighted))]
    if f.kind == "prime":
        delta = f.from_int(rng.randrange(1, f.p))
    else:
        delta = f.from_int(rng.choice([-2, -1, 1, 2, 3]))

    table = {key: dict(img) for key, img in rule.table.items()}

    def bump(key: tuple[int, int], amount) -> None:
        img = table.setdefault(key, {})
        new = f.add(img.get(k, f.zero), amount)
        if f.is_zero(new):
            img.pop(k, None)
        else:
            img[k] = new
        if not img:
            table.pop(key, None)

    bump((i, j), delta)
    if i != j:
        if rule.name == "bracket":
            bump((j, i), f.neg(delta))
        elif rule.name == "product":
            bump((j, i), delta)

    new_rule = BilinearRule(rule.name, f, inst.group, rule.left, rule.right, rule.out, table)
    parts = {r.name: r for r in rules}
    parts[rule.name] = new_rule
    mutated = AlgebraInstance(
        f"{inst.name}~mut{seed}", f, inst.group, inst.L, inst.A,
        parts["bracket"], parts["product"], parts["action"], parts["anchor"],
    )
    where = f"{rule.name}({rule.left.name_of(i)}, {rule.right.name_of(j)}) += {f.format(delta)}*{rule.out.name_of(k)}"
    return mutated, where


def wild_mutant(inst: AlgebraInstance, seed: int) -> tuple[AlgebraInstance, str]:
    """Change one structure constant at an arbitrary (i, j, k), ignoring
    grades and with no mirror entry, so grading and orientation laws
    (``grading.*``, antisymmetry, commutativity) can fail too."""
    rng = random.Random(seed)
    f = inst.field
    rules = [r for r in (inst.bracket, inst.product, inst.action, inst.anchor)
             if r.left.dim and r.right.dim and r.out.dim]
    rule = rules[rng.randrange(len(rules))]
    i, j, k = (rng.randrange(b.dim) for b in (rule.left, rule.right, rule.out))
    if f.kind == "prime":
        delta = f.from_int(rng.randrange(1, f.p))
    else:
        delta = f.from_int(rng.choice([-2, -1, 1, 2, 3]))
    table = {key: dict(img) for key, img in rule.table.items()}
    table.setdefault((i, j), {})[k] = f.add(table.get((i, j), {}).get(k, f.zero), delta)
    parts = {r: getattr(inst, r) for r in ("bracket", "product", "action", "anchor")}
    parts[rule.name] = BilinearRule(rule.name, f, inst.group, rule.left, rule.right, rule.out, table)
    mutated = AlgebraInstance(f"{inst.name}~wild{seed}", f, inst.group, inst.L, inst.A, **parts)
    where = f"{rule.name}({rule.left.name_of(i)}, {rule.right.name_of(j)}) += {f.format(delta)}*{rule.out.name_of(k)}"
    return mutated, where


# ---------------------------------------------------------------------------
# the ten algebra laws restated as discrepancies lhs - rhs on basis
# positions, scanned over every basis tuple: the oracle for verify_all


def sparse_sub(field: Field, a: Sparse, b: Sparse) -> Sparse:
    return sparse_add(field, a, sparse_scale(field, field.neg(field.one), b))


def _alternating(inst: AlgebraInstance, i: int) -> Sparse:
    return inst.bracket.on_basis(i, i)


def _antisymmetry(inst: AlgebraInstance, i: int, j: int) -> Sparse:
    br = inst.bracket
    return sparse_add(inst.field, br.on_basis(i, j), br.on_basis(j, i))


def _jacobi(inst: AlgebraInstance, i: int, j: int, k: int) -> Sparse:
    f, br = inst.field, inst.bracket
    total: Sparse = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        total = sparse_add(f, total, br.apply_sparse(br.on_basis(a, b), {c: f.one}))
    return total


def _commutativity(inst: AlgebraInstance, i: int, j: int) -> Sparse:
    pr = inst.product
    return sparse_sub(inst.field, pr.on_basis(i, j), pr.on_basis(j, i))


def _associativity(inst: AlgebraInstance, i: int, j: int, k: int) -> Sparse:
    f, pr = inst.field, inst.product
    lhs = pr.apply_sparse(pr.on_basis(i, j), {k: f.one})
    return sparse_sub(f, lhs, pr.apply_sparse({i: f.one}, pr.on_basis(j, k)))


def _module(inst: AlgebraInstance, i: int, j: int, k: int) -> Sparse:
    f, ac = inst.field, inst.action
    lhs = ac.apply_sparse(inst.product.on_basis(i, j), {k: f.one})
    return sparse_sub(f, lhs, ac.apply_sparse({i: f.one}, ac.on_basis(j, k)))


def _derivation(inst: AlgebraInstance, v: int, a: int, b: int) -> Sparse:
    f, pr, rho = inst.field, inst.product, inst.anchor
    lhs = rho.apply_sparse({v: f.one}, pr.on_basis(a, b))
    rhs = sparse_add(f, pr.apply_sparse(rho.on_basis(v, a), {b: f.one}),
                     pr.apply_sparse({a: f.one}, rho.on_basis(v, b)))
    return sparse_sub(f, lhs, rhs)


def _homomorphism(inst: AlgebraInstance, v: int, w: int, a: int) -> Sparse:
    f, rho = inst.field, inst.anchor
    lhs = rho.apply_sparse(inst.bracket.on_basis(v, w), {a: f.one})
    rhs = sparse_sub(f, rho.apply_sparse({v: f.one}, rho.on_basis(w, a)),
                     rho.apply_sparse({w: f.one}, rho.on_basis(v, a)))
    return sparse_sub(f, lhs, rhs)


def _linearity(inst: AlgebraInstance, a: int, v: int, b: int) -> Sparse:
    f, rho = inst.field, inst.anchor
    lhs = rho.apply_sparse(inst.action.on_basis(a, v), {b: f.one})
    return sparse_sub(f, lhs, inst.product.apply_sparse({a: f.one}, rho.on_basis(v, b)))


def _compatibility(inst: AlgebraInstance, v: int, a: int, w: int) -> Sparse:
    f, br, ac = inst.field, inst.bracket, inst.action
    lhs = br.apply_sparse({v: f.one}, ac.on_basis(a, w))
    rhs = sparse_add(f, ac.apply_sparse({a: f.one}, br.on_basis(v, w)),
                     ac.apply_sparse(inst.anchor.on_basis(v, a), {w: f.one}))
    return sparse_sub(f, lhs, rhs)


REFERENCE_LAWS = (
    ("lie.alternating", "L", "L", _alternating),
    ("lie.antisymmetry", "LL", "L", _antisymmetry),
    ("lie.jacobi", "LLL", "L", _jacobi),
    ("assoc.commutativity", "AA", "A", _commutativity),
    ("assoc.associativity", "AAA", "A", _associativity),
    ("module.associative_action", "AAL", "L", _module),
    ("anchor.derivation", "LAA", "A", _derivation),
    ("anchor.homomorphism", "LLA", "A", _homomorphism),
    ("anchor.linearity", "ALA", "A", _linearity),
    ("anchor.compatibility", "LAL", "L", _compatibility),
)


def reference_verify(inst: AlgebraInstance) -> list[dict]:
    """Check JSON of ``verify_all`` by literal scan: the grading checks,
    then each law on every basis tuple in lexicographic order, reporting
    the first nonzero discrepancy."""
    checks = [c.to_json() for c in verify_grading(inst).checks]
    for name, args, out, discrepancy in REFERENCE_LAWS:
        bases = [getattr(inst, b) for b in args]
        check: dict = {"check": name, "passed": True}
        for positions in itertools.product(*(range(b.dim) for b in bases)):
            diff = discrepancy(inst, *positions)
            if diff:
                check = {"check": name, "passed": False, "witness": {
                    "args": [b.name_of(p) for b, p in zip(bases, positions)],
                    "value": getattr(inst, out).describe_sparse(diff, inst.field),
                }}
                break
        checks.append(check)
    return checks


def ideal_oracle_L(inst: AlgebraInstance, I: GradedSubspace) -> bool:
    """Graded-ideal predicate restated vector by vector."""
    vectors = I.sparse_vectors()
    for v in vectors:
        for x in range(inst.L.dim):
            if not I.contains_sparse(inst.bracket.apply_sparse({x: inst.field.one}, v)):
                return False
        for a in range(inst.A.dim):
            if not I.contains_sparse(inst.action.apply_sparse({a: inst.field.one}, v)):
                return False
        for a in range(inst.A.dim):
            da = inst.anchor.apply_sparse(v, {a: inst.field.one})
            for x in range(inst.L.dim):
                if not I.contains_sparse(inst.action.apply_sparse(da, {x: inst.field.one})):
                    return False
    return True


def ideal_oracle_A(inst: AlgebraInstance, J: GradedSubspace) -> bool:
    for v in J.sparse_vectors():
        for a in range(inst.A.dim):
            if not J.contains_sparse(inst.product.apply_sparse({a: inst.field.one}, v)):
                return False
    return True


def random_sparse(rng: random.Random, field: Field, dim: int) -> Sparse:
    v: Sparse = {}
    for pos in range(dim):
        if rng.random() < 0.5:
            c = field.from_int(rng.randint(-3, 3))
            if not field.is_zero(c):
                v[pos] = c
    return v


def abelian_pair_instance() -> AlgebraInstance:
    """Two 1-dim components at opposite grades, zero bracket and anchor."""
    f = RATIONALS
    G = GroupSpec(1)
    L = GradedBasis([("v", (1,)), ("w", (-1,))])
    A = GradedBasis([("one", (0,))])
    bracket = rule_from_names("bracket", f, G, L, L, L, {})
    product = rule_from_names("product", f, G, A, A, A, {("one", "one"): {"one": f.one}})
    action = rule_from_names(
        "action", f, G, A, L, L,
        {("one", "v"): {"v": f.one}, ("one", "w"): {"w": f.one}},
    )
    anchor = rule_from_names("anchor", f, G, L, A, A, {})
    return AlgebraInstance("abelian_pair", f, G, L, A, bracket, product, action, anchor)
