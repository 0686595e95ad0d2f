"""Derived instances: the rules that ``rebuild_instance`` builds unchecked,
restrictions and base changes by ``model.contract`` against the
product-by-product reference ``helpers.transport``, and subspaces over
another field."""
from __future__ import annotations

import random
from collections import Counter

import pytest

import grlr.oracle
from grlr import RATIONALS, GradedBasis, GradedSubspace, build, prime_field, to_field
from grlr.constructions import _random_invertible, base_change, direct_sum
from grlr.errors import ToolkitError
from grlr.files import instance_to_json
from grlr.linear import BilinearRule
from grlr.model import RULES, is_graded_ideal_A, is_graded_ideal_L, restrict_instance
from grlr.oracle import TemplateRecipe, default_recipe_space, generate_instance

from helpers import catalog_instances, recipe_and_catalog_instances, recipe_and_catalog_wild_mutants, transport
from test_constructions_golden import instances, subpairs


@pytest.fixture
def checked_rebuilds(monkeypatch) -> list[BilinearRule]:
    """Every rule built through ``BilinearRule._from_canonical`` while the
    test runs, each compared on the spot with what the checked constructor
    ``BilinearRule(...)`` makes of the same table: the table, its order
    and ``off_grade_pairs``, which a rule marked lawful inherits."""
    built: list[BilinearRule] = []
    unchecked = BilinearRule._from_canonical.__func__

    def compared(cls, name, field, group, left, right, out, table, lawful):
        rule = unchecked(cls, name, field, group, left, right, out, table, lawful)
        checked = BilinearRule(name, field, group, left, right, out, table)
        assert list(rule.table.items()) == list(checked.table.items()), name
        assert rule.off_grade_pairs == checked.off_grade_pairs, name
        built.append(rule)
        return rule

    monkeypatch.setattr(BilinearRule, "_from_canonical", classmethod(compared))
    return built


def mutant_subpairs():
    """Each wild mutant of ``recipe_and_catalog_wild_mutants`` with the
    ``subpairs`` of the instance it was made from, whose bases it shares."""
    mutants = recipe_and_catalog_wild_mutants()
    for k, (_, inst) in enumerate(recipe_and_catalog_instances()):
        pairs = subpairs(inst)
        for label, mutant in mutants[4 * k:4 * k + 4]:
            assert (mutant.L, mutant.A) == (inst.L, inst.A), label
            yield mutant, pairs


def restricted(call) -> dict:
    """``instance_to_json`` of the instance ``call`` builds, with each
    table's entries in their own order, or the refusal text."""
    try:
        inst = call()
    except ToolkitError as exc:
        return {"error": str(exc)}
    return {"json": instance_to_json(inst), "tables": [list(getattr(inst, r).table.items()) for r, _ in RULES]}


def transported(inst, L_sub: GradedSubspace, A_sub: GradedSubspace, name: str):
    """The restriction as ``transport`` builds it from the RREF rows, with
    the basis names ``restrict_instance`` gives."""

    def basis(sub: GradedSubspace, prefix: str) -> GradedBasis:
        return GradedBasis((f"{prefix}{k}", g) for k, (g, _) in enumerate(sub.block_vectors()))

    return transport(inst, name, basis(L_sub, "l"), L_sub.blocks, basis(A_sub, "a"), A_sub.blocks)


def is_coordinate(sub: GradedSubspace) -> bool:
    return all(sum(1 for x in row if x) == 1 for rows in sub.blocks.values() for row in rows)


def coordinate_subspace(rng: random.Random, inst, side: str) -> GradedSubspace:
    """The span of a seeded random set of the basis vectors of ``side``."""
    basis, f = getattr(inst, side), inst.field
    blocks = {}
    for g in basis.grades():
        n = basis.block_dim(g)
        blocks[g] = [[f.one if k == c else f.zero for k in range(n)] for c in range(n) if rng.random() < 0.6]
    return GradedSubspace(f, basis, blocks)


def test_rebuilt_rules_match_the_checked_constructor(checked_rebuilds):
    for recipe in default_recipe_space():
        try:
            generate_instance(recipe)
        except ToolkitError:
            continue
    recipes = len(checked_rebuilds)
    for inst in instances():
        for name, L_sub, A_sub in subpairs(inst):
            try:
                restrict_instance(inst, L_sub, A_sub, name)
            except ToolkitError:
                continue
    golden = len(checked_rebuilds) - recipes
    lawless = 0
    for mutant, pairs in mutant_subpairs():
        for name, L_sub, A_sub in pairs:
            try:
                sub = restrict_instance(mutant, L_sub, A_sub, name)
            except ToolkitError:
                continue
            lawless += any(getattr(sub, r).off_grade_pairs for r, _ in RULES)
    e1 = build("e1", RATIONALS)
    gf2 = to_field(e1, prime_field(2))
    # [e, f] = h and [h, e] = 2e, [h, f] = -2f with their mirrors: only h survives mod 2
    assert (len(e1.bracket.table), len(gf2.bracket.table)) == (6, 2)
    assert recipes > 600 and golden > 2000 and lawless > 0


def test_rules_rebuilt_from_wild_mutants_inherit_only_lawful_verdicts(checked_rebuilds):
    """Each of the 640 wild mutants summed with a lawful atom on either
    side and with the next mutant of its instance, twisted, and, over Q,
    moved to GF(3) and GF(5): ``checked_rebuilds`` compares every rule with
    the checked constructor's on the same table.  Every kind meets rules
    that break the grade-shift law, so a verdict inherited from a source
    that keeps it, while another breaks it, would show."""
    mutants = recipe_and_catalog_wild_mutants()
    atoms, lawless = {}, Counter()
    for k, (label, mutant) in enumerate(mutants):
        f = mutant.field
        if f not in atoms:
            try:
                atoms[f] = build("e1", f)
            except ToolkitError:
                atoms[f] = build("ga2", f)
        atom, sibling = atoms[f], mutants[k - k % 4 + (k + 1) % 4][1]
        assert not any(getattr(atom, r).off_grade_pairs for r, _ in RULES), label
        built = [("mutant+atom", direct_sum(mutant, atom)), ("atom+mutant", direct_sum(atom, mutant)),
                 ("mutant+mutant", direct_sum(mutant, sibling)), ("twist", base_change(mutant, k))]
        if f.kind == "rational":
            for p in (3, 5):
                try:
                    built.append(("to", to_field(mutant, prime_field(p))))
                except ToolkitError:
                    continue
        for kind, inst in built:
            lawless[kind] += sum(bool(getattr(inst, r).off_grade_pairs) for r, _ in RULES)
    assert len(mutants) == 640 and len(checked_rebuilds) > 4 * 4 * 640
    assert sorted(lawless) == ["atom+mutant", "mutant+atom", "mutant+mutant", "to", "twist"]
    assert min(lawless.values()) > 0, lawless


def restriction_cases() -> list:
    """(instance, (name, L_sub, A_sub)): the golden subpairs, three random
    coordinate subpairs of each golden instance and the subpairs of the
    wild mutants."""
    rng = random.Random(0)
    cases = []
    for inst in instances():
        cases += [(inst, pair) for pair in subpairs(inst)]
        cases += [(inst, (f"{inst.name}|random{k}", coordinate_subspace(rng, inst, "L"),
                          coordinate_subspace(rng, inst, "A"))) for k in range(3)]
    cases += [(mutant, pair) for mutant, pairs in mutant_subpairs() for pair in pairs]
    return cases


def compared_restrictions(coordinate: bool) -> Counter:
    """Compare every case whose subpair is (``coordinate``) or is not
    (not ``coordinate``) spanned by unit rows with ``transport`` on the
    same RREF rows, in its tables' order and its refusal text; count the
    cases by whether they were refused."""
    # refused -> count
    counts = Counter()
    for inst, (name, L_sub, A_sub) in restriction_cases():
        if (is_coordinate(L_sub) and is_coordinate(A_sub)) != coordinate:
            continue
        got = restricted(lambda: restrict_instance(inst, L_sub, A_sub, name))
        assert got == restricted(lambda: transported(inst, L_sub, A_sub, name)), name
        counts["error" in got] += 1
    return counts


def test_coordinate_restrictions_match_transport():
    counts = compared_restrictions(coordinate=True)
    assert counts == {False: 3087, True: 434}, counts


def test_a_non_unit_row_takes_transport():
    """Subpairs with a row that is not a unit row contract like the
    others, and match ``transport`` as well."""
    # e3 twisted: the identity part of a class ideal mixes the two grade-(0, 0) derivations
    e3 = generate_instance(TemplateRecipe("e3@gf3+twist:1", "e3", "gf3", (("twist", 1),)))
    name, L_sub, A_sub = next(pair for pair in subpairs(e3) if not is_coordinate(pair[1]))
    got = restricted(lambda: restrict_instance(e3, L_sub, A_sub, name))
    assert "json" in got and got == restricted(lambda: transported(e3, L_sub, A_sub, name))
    counts = compared_restrictions(coordinate=False)
    assert counts == {False: 187, True: 73}, counts


@pytest.mark.parametrize("label", ["gf5", "q"])
def test_subspaces_over_another_field_are_refused(label):
    inst = build("sl2_ga2", prime_field(3))
    other = prime_field(5) if label == "gf5" else RATIONALS
    L_other, A_other = GradedSubspace.full(other, inst.L), GradedSubspace.full(other, inst.A)
    with pytest.raises(ValueError, match=r"^subpair is not over gf3$"):
        restrict_instance(inst, L_other, inst.full_A(), "x")
    with pytest.raises(ValueError, match=r"^subpair is not over gf3$"):
        restrict_instance(inst, inst.full_L(), A_other, "x")
    with pytest.raises(ValueError, match=r"^subspace is not inside L over gf3$"):
        is_graded_ideal_L(inst, L_other)
    with pytest.raises(ValueError, match=r"^subspace is not inside A over gf3$"):
        is_graded_ideal_A(inst, A_other)


def drawn_rows(inst, seed: int) -> list[dict]:
    """The matrices ``base_change(inst, seed)`` draws, one per block: the
    L grades in order, then the A grades, from one ``Random(seed)``."""
    f, rng = inst.field, random.Random(seed)
    return [{g: _random_invertible(f, basis.block_dim(g), rng)[0] for g in basis.grades()}
            for basis in (inst.L, inst.A)]


def transported_twist(inst, seed: int):
    """``base_change(inst, seed)`` as ``transport`` builds it from the same rows."""
    L_rows, A_rows = drawn_rows(inst, seed)
    return transport(inst, f"{inst.name}~b{seed}", inst.L, L_rows, inst.A, A_rows)


def test_base_changes_of_the_recipe_space_match_transport(monkeypatch):
    twists, wide = [], 0

    def compared(inst, seed):
        got = restricted(lambda: base_change(inst, seed))
        assert got == restricted(lambda: transported_twist(inst, seed)), (inst.name, seed)
        twists.append(inst.name)
        return base_change(inst, seed)

    monkeypatch.setattr(grlr.oracle, "base_change", compared)
    for recipe in default_recipe_space():
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        wide += any(inst.L.block_dim(g) > 1 for g in inst.L.grades())
    # every twist step of the space, some on blocks of dimension 2
    assert len(twists) == 85 and wide > 0


def test_base_changes_match_transport_on_every_corpus():
    cases = (list(recipe_and_catalog_instances()) + catalog_instances(("q", "gf3", "gf5", "gf7"))
             + list(recipe_and_catalog_wild_mutants()))
    lawless = 0
    for label, inst in cases:
        for seed in (3, 5):
            got = restricted(lambda: base_change(inst, seed))
            assert got == restricted(lambda: transported_twist(inst, seed)), (label, seed)
        lawless += any(getattr(inst, r).off_grade_pairs for r, _ in RULES)
    assert len(cases) == 160 + 18 + 640 and lawless > 500, lawless
