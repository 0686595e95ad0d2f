"""Shared test utilities: cached catalog builds, coherent and wild single-constant
mutations, and brute-force re-statements of predicates used as oracles."""
from __future__ import annotations

import functools
import itertools
import random
import sys
from typing import Iterable

from grlr import (
    RATIONALS,
    AlgebraInstance,
    GradedBasis,
    GradedSubspace,
    GroupSpec,
    SearchReport,
    Supports,
    TemplateRecipe,
    build,
    catalog_names,
    check_hypotheses5,
    default_recipe_space,
    generate_instance,
    supports,
)
from grlr.catalog import derivation_instance
from grlr.errors import ToolkitError
from grlr.fields import Field, Scalar, parse_field_label, prime_field
from grlr.groups import Grade, format_grade
from grlr.linear import (
    BilinearRule,
    Sparse,
    bilinear_image,
    nullspace,
    rule_from_names,
    sparse_add,
    subspace_sum,
)
from grlr.oracle import _block_echelons

_cache: dict[tuple[str, str | None], AlgebraInstance] = {}


def cached(name: str, field_label: str | None = None, purpose: str = "display") -> AlgebraInstance:
    key = (name, field_label or purpose)
    if key not in _cache:
        fld = parse_field_label(field_label) if field_label else None
        _cache[key] = build(name, fld, purpose)
    return _cache[key]


@functools.cache
def recipe_and_catalog_instances() -> tuple[tuple[str, AlgebraInstance], ...]:
    """Every buildable recipe of ``default_recipe_space()``, then every
    catalog entry at q, gf3 and gf5 that builds: 160 labelled instances."""
    instances = []
    for recipe in default_recipe_space():
        try:
            instances.append((recipe.label, generate_instance(recipe)))
        except ToolkitError:
            continue
    for name in catalog_names():
        for label in ("q", "gf3", "gf5"):
            try:
                instances.append((f"{name}@{label}", build(name, parse_field_label(label))))
            except ToolkitError:  # e2 and e3 exist only in characteristic 3
                continue
    return tuple(instances)


@functools.cache
def recipe_and_catalog_wild_mutants() -> tuple[tuple[str, AlgebraInstance], ...]:
    """Four mutants of each of ``recipe_and_catalog_instances()``: its
    ``wild_mutant``s of seeds 0, 1 and 2, then the seed-2 mutant of its
    seed-0 mutant, which may break the grade-shift law on two block pairs."""
    out = []
    for label, inst in recipe_and_catalog_instances():
        singles = [wild_mutant(inst, seed) for seed in range(3)]
        out += [(f"{label}~{where}", mutant) for mutant, where in singles]
        first, where = singles[0]
        both, where_2 = wild_mutant(first, 2)
        out.append((f"{label}~{where}~{where_2}", both))
    return tuple(out)


def reference_search(space: list[TemplateRecipe]) -> SearchReport:
    """The recipe search one recipe at a time: each instance built from
    scratch by ``generate_instance``, then gated by ``check_hypotheses5``;
    a build error is a rejection with its text, otherwise the first
    failing condition is."""
    survivors, rejections = [], []
    for recipe in space:
        try:
            inst = generate_instance(recipe)
        except ToolkitError as exc:
            rejections.append((recipe.label, f"build failed: {exc}"))
            continue
        hyp = check_hypotheses5(inst)
        if hyp.all_hold:
            survivors.append((recipe.label, hyp))
        else:
            rejections.append((recipe.label, next(name for name, ok in hyp.conditions.items() if not ok)))
    return SearchReport(survivors, rejections)


def count_returns(monkeypatch, targets) -> dict[str, int]:
    """Count the calls that return, of each function ``module.name`` in
    ``targets`` (pairs of module and name): every ``grlr`` module that
    binds the function gets the counting wrapper, as the benchmark's
    tracer does, so calls through imported names are counted too."""
    counts: dict[str, int] = {}
    for module, name in targets:
        original = getattr(module, name)
        counts[name] = 0

        def counting(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            counts[_name] += 1
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "grlr" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting)
    return counts


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


def added_entries(inst: AlgebraInstance, changes) -> AlgebraInstance:
    """``inst`` with each (rule, left name, right name, output name, delta
    literal) added to one table entry, with no mirror entry: hand-made
    mutants whose deltas may carry any denominator."""
    f = inst.field
    rules = {r: getattr(inst, r) for r in ("bracket", "product", "action", "anchor")}
    for name, left, right, out, delta in changes:
        rule = rules[name]
        table = {key: dict(img) for key, img in rule.table.items()}
        i, j, k = rule.left.position_of(left), rule.right.position_of(right), rule.out.position_of(out)
        img = table.setdefault((i, j), {})
        img[k] = f.add(img.get(k, f.zero), f.parse(delta))
        rules[name] = BilinearRule(name, f, inst.group, rule.left, rule.right, rule.out, table)
    return AlgebraInstance(f"{inst.name}~added", f, inst.group, inst.L, inst.A, **rules)


def parse_grade(spec: GroupSpec, text: str | Iterable[int]) -> Grade:
    """A grade from text such as ``"1,-2"`` or from coordinates, reduced by ``spec``."""
    if isinstance(text, str):
        coords = [int(p) for p in text.split(",") if p.strip() != ""]
    else:
        coords = [int(x) for x in text]
    return spec.reduce(coords)


def graded_subspaces(field: Field, basis: GradedBasis):
    """Every graded subspace of ``basis``, adopted from the RREF bases of
    ``all_subspaces`` (listed once per block dimension) without reduction."""
    grades = sorted(basis.grades())
    echelons = _block_echelons(field, (basis.block_dim(g) for g in grades))
    per_block = [echelons[basis.block_dim(g)] for g in grades]
    for combo in itertools.product(*per_block):
        yield GradedSubspace._from_rref(field, basis, dict(zip(grades, combo)))


# ---------------------------------------------------------------------------
# the ten algebra laws restated as discrepancies lhs - rhs on basis
# positions, scanned over every basis tuple: the oracle for verify_all


def sparse_scale(field: Field, c: Scalar, v: Sparse) -> Sparse:
    if field.is_zero(c):
        return {}
    return {pos: field.mul(c, x) for pos, x in v.items()}


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


def reference_grading_violations(rule: BilinearRule) -> list[dict]:
    """``rule.grading_violations()`` by literal scan: one product grade per
    table entry, entries in sorted order, each component in sorted order."""
    bad = []
    for (i, j), image in sorted(rule.table.items()):
        expected = rule.group.mul(rule.left.grade_of(i), rule.right.grade_of(j))
        for pos in sorted(image):
            got = rule.out.grade_of(pos)
            if got != expected:
                bad.append(
                    {
                        "rule": rule.name,
                        "left": rule.left.name_of(i),
                        "right": rule.right.name_of(j),
                        "component": rule.out.name_of(pos),
                        "expected_grade": expected,
                        "got_grade": got,
                    }
                )
    return bad


def reference_grading(inst: AlgebraInstance) -> list[dict]:
    """Check JSON of ``verify_grading``: a failed check's witness is its
    rule's first reference violation with formatted grades, and their count."""
    checks = []
    for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
        bad = reference_grading_violations(rule)
        check: dict = {"check": f"grading.{rule.name}", "passed": not bad}
        if bad:
            witness = dict(bad[0], violations=len(bad))
            witness["expected_grade"] = format_grade(witness["expected_grade"])
            witness["got_grade"] = format_grade(witness["got_grade"])
            check["witness"] = witness
        checks.append(check)
    return checks


def reference_verify(inst: AlgebraInstance) -> list[dict]:
    """Check JSON of ``verify_all`` by literal scan: the grading checks,
    then each law on every basis tuple in lexicographic order, reporting
    the first nonzero discrepancy."""
    checks = reference_grading(inst)
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


def literal_ideal_test_L(inst: AlgebraInstance, I: GradedSubspace) -> tuple[bool, dict | None]:
    """``is_graded_ideal_L`` as three literal loops over every product of a
    basis vector and a row of I, with no skipping: the reference for its
    verdicts and witnesses."""
    f = inst.field
    full_L_vecs = [{p: f.one} for p in range(inst.L.dim)]
    full_A_vecs = [{p: f.one} for p in range(inst.A.dim)]
    ideal_vecs = I.sparse_vectors()

    for u in full_L_vecs:
        for w in ideal_vecs:
            img = inst.bracket.apply_sparse(u, w)
            if not I._contains(img):
                return False, {
                    "law": "[L, I] <= I",
                    "args": [inst.describe_L(u), inst.describe_L(w)],
                    "value": inst.describe_L(img),
                }
    for a in full_A_vecs:
        for w in ideal_vecs:
            img = inst.action.apply_sparse(a, w)
            if not I._contains(img):
                return False, {
                    "law": "A.I <= I",
                    "args": [inst.describe_A(a), inst.describe_L(w)],
                    "value": inst.describe_L(img),
                }
    for w in ideal_vecs:
        for a in full_A_vecs:
            da = inst.anchor.apply_sparse(w, a)
            for u in full_L_vecs:
                img = inst.action.apply_sparse(da, u)
                if not I._contains(img):
                    return False, {
                        "law": "rho(I)(A)L <= I",
                        "args": [inst.describe_L(w), inst.describe_A(a), inst.describe_L(u)],
                        "value": inst.describe_L(img),
                    }
    return True, None


def literal_ideal_test_A(inst: AlgebraInstance, J: GradedSubspace) -> tuple[bool, dict | None]:
    """``is_graded_ideal_A`` as one literal loop, with no skipping."""
    f = inst.field
    ideal_vecs = J.sparse_vectors()
    for a in range(inst.A.dim):
        for w in ideal_vecs:
            img = inst.product.apply_sparse({a: f.one}, w)
            if not J._contains(img):
                return False, {
                    "law": "A.J <= J",
                    "args": [inst.A.name_of(a), inst.describe_A(w)],
                    "value": inst.describe_A(img),
                }
    return True, None


def plain_closure(inst: AlgebraInstance, seed: GradedSubspace, side: str) -> GradedSubspace:
    """Ideal closure on ``side`` by the plain fixpoint loop: add the images
    until a round brings nothing new, with no early stop."""
    def images(current: GradedSubspace) -> list[GradedSubspace]:
        if side == "A":
            return [bilinear_image(inst.product, inst.full_A(), current)]
        return [
            bilinear_image(inst.bracket, inst.full_L(), current),
            bilinear_image(inst.action, inst.full_A(), current),
            bilinear_image(inst.action, bilinear_image(inst.anchor, current, inst.full_A()), inst.full_L()),
        ]

    current = seed
    while True:
        grown = functools.reduce(subspace_sum, images(current), current)
        if grown == current:
            return current
        current = grown


def projective_block_points(field: Field, dim: int):
    """One representative per line of a ``dim``-dimensional block over a
    prime field, first nonzero coordinate 1, by recursion over prefixes."""

    def rec(prefix: list, lead_placed: bool):
        if len(prefix) == dim:
            if lead_placed:
                yield tuple(prefix)
            return
        if not lead_placed:
            yield from rec(prefix + [field.zero], False)
            yield from rec(prefix + [field.one], True)
        else:
            for x in field.elements():
                yield from rec(prefix + [x], True)

    return rec([], False)


def homogeneous_seeds(inst: AlgebraInstance, basis: GradedBasis, cap: int) -> tuple[list[tuple[Grade, tuple]], bool]:
    """The reference seed listing of the gr-simplicity scan, unscaled, and
    whether it is exhaustive.

    Finite field: all projective points, truncated at ``cap`` seeds.
    Rationals: basis vectors, pairwise sums and 32 seeded random
    combinations per block, zero vectors dropped, a sample only.
    """
    f = inst.field
    seeds: list[tuple[Grade, tuple]] = []
    exhaustive = f.kind == "prime"
    if exhaustive:
        for g in basis.grades():
            for p in projective_block_points(f, basis.block_dim(g)):
                if len(seeds) >= cap:
                    return seeds, False
                seeds.append((g, p))
        return seeds, True
    rng = random.Random(7)
    for g in basis.grades():
        n = basis.block_dim(g)
        block = []
        for i in range(n):
            block.append(tuple(f.one if j == i else f.zero for j in range(n)))
        for i in range(n):
            for j in range(i + 1, n):
                block.append(tuple(f.add(x, y) for x, y in zip(block[i], block[j])))
        for _ in range(32):
            block.append(tuple(f.from_int(rng.randint(-5, 5)) for _ in range(n)))
        seeds.extend((g, p) for p in block if any(not f.is_zero(x) for x in p))
    return seeds, False


def reference_rref(field: Field, rows) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Reduced row echelon form by the field-generic loop: scale each pivot
    row to 1 and clear its column from every other row with the field's
    operations.  The reference for ``linear.rref`` over every field."""
    mat = [list(row) for row in rows]
    if not mat:
        return (), ()
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def map_kernel(field: Field, ambient: GradedBasis, images) -> GradedSubspace:
    """Homogeneous kernel of v -> (list of sparse images of v), literally.

    ``images(pos)`` gives, for the ambient basis vector at ``pos``, the
    image vectors under each defining map.  The kernel block at grade g
    is cut out by one linear condition per (map, output coordinate).
    """
    blocks = {}
    for g in ambient.grades():
        per_basis = [images(p) for p in ambient.positions_at(g)]
        rows = [
            [imgs[m].get(c, field.zero) for imgs in per_basis]
            for m in range(len(per_basis[0]))
            for c in sorted({pos for imgs in per_basis for pos in imgs[m]})
        ]
        blocks[g] = nullspace(field, rows, len(per_basis))[0]
    return GradedSubspace(field, ambient, blocks)


def reference_kernels(inst: AlgebraInstance) -> dict[str, GradedSubspace]:
    """Z(L), Ann_L(A), Ann(A) and Ker rho by ``map_kernel``, each basis
    vector's images read one ``on_basis`` product at a time."""
    L, A = range(inst.L.dim), range(inst.A.dim)
    return {
        "center": map_kernel(inst.field, inst.L, lambda p: (
            [inst.bracket.on_basis(p, j) for j in L] + [inst.anchor.on_basis(p, a) for a in A])),
        "ann_L_of_A": map_kernel(inst.field, inst.L, lambda p: [inst.action.on_basis(a, p) for a in A]),
        "ann_A": map_kernel(inst.field, inst.A, lambda p: [inst.product.on_basis(p, b) for b in A]),
        "ker_anchor": map_kernel(inst.field, inst.L, lambda p: [inst.anchor.on_basis(p, a) for a in A]),
    }


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


def truncated_poly_derivations(p: int) -> AlgebraInstance:
    """(Der(A), A) for A = F[x]/(x^p) over GF(p), graded by Z/p with deg x = 1:
    the Witt algebra W(1;1), built by ``catalog.derivation_instance``."""
    f = prime_field(p)
    G = GroupSpec(0, (p,))
    A = GradedBasis([(f"a{i}", (i,)) for i in range(p)])
    product = BilinearRule("product", f, G, A, A, A,
                           {(i, j): {i + j: f.one} for i in range(p) for j in range(p) if i + j < p})
    return derivation_instance(f"W(1;1)@gf{p}", f, G, A, product)


def truncated_poly_one_block(p: int, n: int) -> AlgebraInstance:
    """(Der(A), A) for A = F[x]/(x^n) over GF(p) with every basis vector at
    grade 0, so each side is one block; built by ``catalog.derivation_instance``."""
    f = prime_field(p)
    G = GroupSpec(1)
    A = GradedBasis([(f"x{i}", (0,)) for i in range(n)])
    product = BilinearRule("product", f, G, A, A, A,
                           {(i, j): {i + j: f.one} for i in range(n) for j in range(n) if i + j < n})
    return derivation_instance(f"Der(F[x]/(x^{n}))@gf{p}", f, G, A, product)


def action_and_anchor_witnesses() -> AlgebraInstance:
    """A graded but otherwise lawless instance over GF(3) (abelian L, a
    one-sided product) in which span{w} fails A.I <= I, span{v} fails
    rho(I)(A)L <= I, and span{b} fails A.J <= J only through c.b, not b.c."""
    f, G = prime_field(3), GroupSpec(1)
    L = GradedBasis([("v", (1,)), ("w", (-1,))])
    A = GradedBasis([("one", (0,)), ("b", (-1,)), ("c", (1,)), ("t", (2,))])
    product = {("one", x): {x: 1} for x in ("one", "b", "c", "t")}
    return AlgebraInstance(
        "action_and_anchor_witnesses", f, G, L, A,
        rule_from_names("bracket", f, G, L, L, L, {}),
        rule_from_names("product", f, G, A, A, A, {**product, ("c", "b"): {"one": 1}}),
        rule_from_names("action", f, G, A, L, L, {("one", "v"): {"v": 1}, ("one", "w"): {"w": 1}, ("t", "w"): {"v": 1}}),
        rule_from_names("anchor", f, G, L, A, A, {("v", "b"): {"one": 1}}),
    )


# ---------------------------------------------------------------------------
# outcomes of the tightness, decomposition, simplicity and kernel calls


def outcome(call, inst: AlgebraInstance):
    """``call(inst).to_json()``, or the refusal's exception type and message."""
    try:
        return call(inst).to_json()
    except ToolkitError as exc:
        return [type(exc).__name__, str(exc)]
