from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

import grlr.catalog
import grlr.oracle
from grlr import (
    GradedBasis,
    GradedSubspace,
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
from grlr.catalog import build, catalog_names
from grlr.constructions import to_field
from grlr.errors import GuardError, ToolkitError
from grlr.fields import RATIONALS, parse_field_label
from grlr.linear import BilinearRule

from helpers import (
    action_and_anchor_witnesses,
    cached,
    count_returns,
    graded_subspaces,
    ideal_oracle_A,
    ideal_oracle_L,
    literal_ideal_test_A,
    literal_ideal_test_L,
    reference_search,
    truncated_poly_one_block,
    wild_mutant,
)


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


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dims", [(), (1,), (2,), (3,), (3, 1), (1, 2, 3)])
def test_lattice_candidates_equal_the_checked_constructor(p, dims):
    # candidates are adopted from all_subspaces unreduced: each must equal,
    # pivots included, the subspace the checked constructor builds from it
    f = prime_field(p)
    basis = GradedBasis((f"b{g}_{i}", (g,)) for g, dim in enumerate(dims) for i in range(dim))
    candidates = list(graded_subspaces(f, basis))
    for sub in candidates:
        checked = GradedSubspace(f, basis, sub.blocks)
        assert sub == checked and sub.pivots == checked.pivots
    assert len(candidates) == math.prod(len(all_subspaces(f, dim)) for dim in dims)
    assert len({json.dumps(sub.to_json(), sort_keys=True) for sub in candidates}) == len(candidates)


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


def _admitted(inst, side: str) -> bool:
    """The enumeration guard's verdict on one side, asked instead of caught."""
    if inst.field.kind != "prime":
        return False
    bound = grlr.oracle.MAX_DIM_SMALL_P if inst.field.p <= 3 else grlr.oracle.MAX_DIM_LARGE_P
    return getattr(inst, side).dim <= bound


def _literal_lattice(inst, side: str) -> list[GradedSubspace]:
    """The graded ideals by definition: every candidate of the lattice,
    kept when the literal loops of ``helpers`` find no escaping product."""
    literal = literal_ideal_test_L if side == "L" else literal_ideal_test_A
    candidates = graded_subspaces(inst.field, getattr(inst, side))
    return sorted((s for s in candidates if literal(inst, s)[0]), key=grlr.oracle._sort_key)


def _lattice_equality_instances() -> list[tuple[str, object]]:
    """Every buildable prime recipe and every catalog entry at gf2, gf3, gf5
    and gf7 that builds, with either side admitted; then 60 wild mutants
    of those, taken in turn; then a graded instance where A.I <= I and
    rho(I)(A)L <= I decide on their own."""
    chosen = []
    for recipe in default_recipe_space():
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        chosen.append((recipe.label, inst))
    for name in catalog_names():
        for label in ("gf2", "gf3", "gf5", "gf7"):
            try:
                chosen.append((f"{name}@{label}", build(name, parse_field_label(label))))
            except ToolkitError:
                continue
    chosen = [(label, inst) for label, inst in chosen if _admitted(inst, "L") or _admitted(inst, "A")]
    mutants = []
    for seed in range(60):
        label, inst = chosen[(7 * seed) % len(chosen)]
        mutant, where = wild_mutant(inst, seed)
        mutants.append((f"{label}~{where}", mutant))
    return chosen + mutants + [("action_and_anchor_witnesses", action_and_anchor_witnesses())]


def test_lattices_equal_the_literal_definition():
    instances = _lattice_equality_instances()
    spanning = 0
    for label, inst in instances:
        rules = (inst.bracket, inst.product, inst.action, inst.anchor)
        # a table entry with components in two grades breaks the grade-shift
        # law and sends one block to several
        spanning += any(len({r.out.grade_of(pos) for pos in entry}) > 1 for r in rules for entry in r.table.values())
        for side, enumerate_ideals in (("L", enumerate_graded_ideals_L), ("A", enumerate_graded_ideals_A)):
            if not _admitted(inst, side):
                continue
            got = enumerate_ideals(inst)
            want = _literal_lattice(inst, side)
            assert [(s.blocks, s.pivots) for s in got] == [(s.blocks, s.pivots) for s in want], (label, side)
    assert len(instances) > 150 and spanning >= 30


def test_one_block_truncated_polynomials_known_lattices():
    # A = GF(3)[x]/(x^6) with every basis vector at grade 0: one 6-dimensional
    # block on each side, the largest the enumeration guard admits
    inst = truncated_poly_one_block(3, 6)
    f = inst.field
    powers = [
        GradedSubspace.from_sparse_vectors(f, inst.A, [{i: f.one} for i in range(k, 6)]) for k in range(7)
    ]
    assert enumerate_graded_ideals_A(inst) == sorted(powers, key=grlr.oracle._sort_key)
    assert [s.dim for s in enumerate_graded_ideals_L(inst)] == [0, 3, 6]


@pytest.mark.parametrize("name", ["e3", "sl2_ga2"])
@pytest.mark.parametrize("side", ["L", "A"])
def test_lattice_makes_each_product_once(monkeypatch, name, side):
    inst = cached(name, field_label="gf3")
    seen: list[tuple] = []
    apply_sparse = BilinearRule.apply_sparse

    def counted(rule, u, v):
        seen.append((rule.name, tuple(sorted(u.items())), tuple(sorted(v.items()))))
        return apply_sparse(rule, u, v)

    monkeypatch.setattr(BilinearRule, "apply_sparse", counted)
    lattice = (enumerate_graded_ideals_L if side == "L" else enumerate_graded_ideals_A)(inst)
    assert len(lattice) >= 2 and seen
    assert len(set(seen)) == len(seen)


def test_lattice_stays_independent_of_the_fast_paths():
    # the lattice judges the closure scan, so it may not run it, nor the
    # subspace products or the graded-ideal predicates the scan relies on
    called: set[tuple[str, str]] = set()

    def watch(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((Path(code.co_filename).name, code.co_name))

    inst = cached("e3", field_label="gf3")
    sys.setprofile(watch)
    try:
        enumerate_graded_ideals_L(inst)
        enumerate_graded_ideals_A(inst)
    finally:
        sys.setprofile(None)
    assert ("oracle.py", "_enumerate_graded_ideals") in called
    assert not {(f, c) for f, c in called if f == "simplicity.py"}
    forbidden = {"bilinear_image", "is_graded_ideal_L", "is_graded_ideal_A"}
    assert not {c for f, c in called if c in forbidden}


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


def test_rational_field_move_returns_the_instance():
    base = cached("e1")
    assert to_field(base, RATIONALS) is base


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


# sha256 of json.dumps(hypothesis_search(default_recipe_space()).to_json()):
# every survivor's conditions and every rejection's reason, in order,
# build errors included
SEARCH_DIGEST = "6145d616e62af585d06801c261cc8aaec753ff68ab17c1b9fc83ac9aad0b972c"


def test_search_matches_recorded_digest():
    blob = json.dumps(hypothesis_search(default_recipe_space()).to_json()).encode()
    assert hashlib.sha256(blob).hexdigest() == SEARCH_DIGEST


def _hand_made_space() -> list[TemplateRecipe]:
    """Recipes whose builds share atoms or fail: an unknown atom twice, a
    sum with an atom the field refuses and then that atom alone, an atom
    repeated within and across recipes, steps after a field change, a
    twist then a field change and the same atom over Q after it, and
    unknown or refused steps."""
    recipes = [
        ("nosuch", "gf3"),
        ("nosuch", "gf3"),
        ("ga2", "gf5", ("sum", "e2")),
        ("e2", "gf5"),
        ("ga2", "gf5"),
        ("ga2", "gf5", ("sum", "ga2")),
        ("ga2", "gf5", ("sum", "ga2"), ("twist", 4)),
        ("ga2", "q", ("to", "gf3"), ("sum", "ga2")),
        ("ga2", "gf3"),
        ("sl2_ga2", "q", ("twist", 11), ("to", "gf5")),
        ("sl2_ga2", "q"),
        ("sl2_ga2", "gf5", ("sum", "ga2")),
        ("e2", "gf3", ("to", "gf5")),
        ("ga3", "gf7", ("bogus", 1)),
        ("e3", "gf3", ("sum", "nosuch")),
    ]
    return [TemplateRecipe(f"{i}:{atom}@{fld}", atom, fld, tuple(steps))
            for i, (atom, fld, *steps) in enumerate(recipes)]


@pytest.mark.parametrize("space", [_hand_made_space(), default_recipe_space()], ids=["hand-made", "default"])
def test_search_equals_the_per_recipe_reference(space):
    assert hypothesis_search(space).to_json() == reference_search(space).to_json()


def test_search_builds_each_catalog_atom_once(monkeypatch):
    # 206 successful builds when each recipe builds its own atoms
    builds = count_returns(monkeypatch, [(grlr.catalog, "build")])
    report = hypothesis_search(default_recipe_space())
    assert len(report.survivors) + len(report.rejections) == 200
    assert builds == {"build": 20}


def test_hand_made_space_fails_where_expected():
    rejected = dict(hypothesis_search(_hand_made_space()).rejections)
    assert rejected["0:nosuch@gf3"] == rejected["1:nosuch@gf3"]
    assert rejected["0:nosuch@gf3"].startswith("build failed: unknown catalog name 'nosuch'")
    assert rejected["2:ga2@gf5"] == rejected["3:e2@gf5"]
    assert rejected["12:e2@gf3"] == "build failed: field change starts from rational tables, not gf3"
    assert rejected["13:ga3@gf7"] == "build failed: unknown recipe step 'bogus'"


def test_search_respects_budget_and_empty_space():
    rep = hypothesis_search([])
    assert rep.survivors == [] and rep.rejections == []
    rep2 = hypothesis_search(budget=5)
    assert rep2.to_json()["examined"] == 5


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError):
        hypothesis_search(budget=-1)
    assert hypothesis_search(budget=0).to_json()["examined"] == 0
