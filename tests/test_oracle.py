from __future__ import annotations

import pytest

from grlr import (
    TemplateRecipe,
    all_subspaces,
    decompose_A,
    decompose_L,
    default_recipe_space,
    enumerate_graded_ideals_A,
    enumerate_graded_ideals_L,
    generate_instance,
    gr_simple_A,
    gr_simple_L,
    hypothesis_search,
    prime_field,
    supports,
    verify_all,
)
from grlr.constructions import to_field
from grlr.errors import GuardError, ToolkitError
from grlr.fields import RATIONALS
from grlr.files import instance_to_json

from helpers import cached, ideal_oracle_A, ideal_oracle_L


def test_all_subspaces_counts_match_gaussian_binomials():
    assert len(all_subspaces(prime_field(3), 0)) == 1
    assert len(all_subspaces(prime_field(5), 1)) == 2
    assert len(all_subspaces(prime_field(3), 2)) == 6  # 1 + 4 + 1
    assert len(all_subspaces(prime_field(2), 3)) == 16  # 1 + 7 + 7 + 1


def test_all_subspaces_rows_are_canonical_rref():
    from grlr.linear import rref

    f = prime_field(3)
    for rows in all_subspaces(f, 3):
        reduced, _ = rref(f, [list(r) for r in rows])
        assert reduced == rows


def test_frozen_ideal_lattices():
    e1 = cached("e1", purpose="oracle")
    assert [s.dim for s in enumerate_graded_ideals_L(e1)] == [0, 3]
    e2 = cached("e2")
    assert [s.dim for s in enumerate_graded_ideals_L(e2)] == [0, 3]
    assert [s.dim for s in enumerate_graded_ideals_A(e2)] == [0, 1, 2, 3]
    e3 = cached("e3")
    assert [s.dim for s in enumerate_graded_ideals_L(e3)] == [0, 3, 3, 6]
    assert len(enumerate_graded_ideals_A(e3)) == 16
    sg = cached("sl2_ga2", purpose="oracle")
    assert [s.dim for s in enumerate_graded_ideals_L(sg)] == [0, 6]
    assert [s.dim for s in enumerate_graded_ideals_A(sg)] == [0, 2]


def test_lattice_members_satisfy_the_slow_restatement():
    e2 = cached("e2")
    for s in enumerate_graded_ideals_L(e2):
        assert ideal_oracle_L(e2, s)
    for s in enumerate_graded_ideals_A(e2):
        assert ideal_oracle_A(e2, s)


def test_lattice_contains_every_class_ideal():
    e3 = cached("e3")
    lattice = enumerate_graded_ideals_L(e3)
    for ci in decompose_L(e3).ideals:
        assert any(ci.total == s for s in lattice)
    lattice_A = enumerate_graded_ideals_A(e3)
    for ci in decompose_A(e3).ideals:
        assert any(ci.total == s for s in lattice_A)


def test_guards_reject_rationals_and_large_dimensions():
    with pytest.raises(GuardError, match="prime field"):
        enumerate_graded_ideals_L(cached("e1"))  # display field is rational
    with pytest.raises(GuardError, match="exceeds the bound"):
        enumerate_graded_ideals_L(cached("sl2_ga2", field_label="gf5"))


def test_lattice_verdicts_match_gr_simple():
    # gr_simple says simple iff the lattice has no proper nonzero ideal
    # distinct from Ker rho (L side) / none at all (A side)
    for name in ("e2", "e3"):
        inst = cached(name)
        proper_L = [s for s in enumerate_graded_ideals_L(inst) if 0 < s.dim < inst.L.dim]
        assert (gr_simple_L(inst).status == "gr_simple") == (len(proper_L) == 0)
        proper_A = [s for s in enumerate_graded_ideals_A(inst) if 0 < s.dim < inst.A.dim]
        assert (gr_simple_A(inst).status == "gr_simple") == (len(proper_A) == 0)


def test_generated_sum_matches_catalog_double():
    made = generate_instance(TemplateRecipe("e2+e2", "e2", "gf3", (("sum", "e2"),)))
    e3 = cached("e3")
    assert (made.L.dim, made.A.dim) == (e3.L.dim, e3.A.dim)
    assert made.group.to_json() == e3.group.to_json()
    assert supports(made).sigma == supports(e3).sigma
    assert supports(made).lam == supports(e3).lam
    assert verify_all(made).passed
    assert [s.dim for s in enumerate_graded_ideals_L(made)] == [0, 3, 3, 6]


def test_twist_preserves_structure():
    base = cached("e2")
    for seed in (1, 2, 3):
        t = generate_instance(TemplateRecipe("e2~tw", "e2", "gf3", (("twist", seed),)))
        assert verify_all(t).passed
        assert [s.dim for s in enumerate_graded_ideals_L(t)] == [s.dim for s in enumerate_graded_ideals_L(base)]
        assert [s.dim for s in enumerate_graded_ideals_A(t)] == [s.dim for s in enumerate_graded_ideals_A(base)]


def test_field_carry_step():
    moved = generate_instance(TemplateRecipe("e1>5", "e1", "q", (("to", "gf5"),)))
    assert moved.field.label == "gf5"
    assert verify_all(moved).passed
    assert [s.dim for s in enumerate_graded_ideals_L(moved)] == [0, 3]


def test_rational_field_move_keeps_a_given_name():
    base = cached("e1")
    assert to_field(base, RATIONALS) is base
    renamed = to_field(base, RATIONALS, "renamed")
    assert renamed.name == "renamed" and renamed.field == RATIONALS
    assert {k: v for k, v in instance_to_json(renamed).items() if k != "name"} == {
        k: v for k, v in instance_to_json(base).items() if k != "name"
    }


def test_unknown_step_is_rejected():
    with pytest.raises(ToolkitError):
        generate_instance(TemplateRecipe("bad", "e1", "q", (("frobnicate", 1),)))


def test_recipe_space_is_deterministic_and_sized():
    space = default_recipe_space()
    again = default_recipe_space()
    assert len(space) == 200
    assert [r.label for r in space] == [r.label for r in again]
    assert len({r.label for r in space}) == 200  # labels are unique


def test_every_buildable_recipe_verifies():
    built = 0
    for recipe in default_recipe_space():
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        built += 1
        assert verify_all(inst).passed, recipe.label
    assert built > 100


def test_search_on_plain_atoms_reports_first_failing_condition():
    space = [
        TemplateRecipe("e1@gf5", "e1", "gf5"),
        TemplateRecipe("e2@gf3", "e2", "gf3"),
        TemplateRecipe("e2@gf7", "e2", "gf7"),
        TemplateRecipe("ga2@gf5", "ga2", "gf5"),
    ]
    rep = hypothesis_search(space)
    rejected = dict(rep.rejections)
    assert rejected["e1@gf5"] == "tight"
    assert rejected["e2@gf3"] == "g_multiplicative"
    assert rejected["e2@gf7"].startswith("build failed:")
    assert [label for label, _ in rep.survivors] == ["ga2@gf5"]
    data = rep.to_json()
    assert data["examined"] == 4
    assert all(set(e) == {"label", "reason"} for e in data["rejections"])


def test_search_respects_budget_and_empty_space():
    rep = hypothesis_search([])
    assert rep.survivors == [] and rep.rejections == []
    rep2 = hypothesis_search(budget=5)
    assert rep2.to_json()["examined"] == 5


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        hypothesis_search(budget=-1)
    assert hypothesis_search(budget=0).to_json()["examined"] == 0
