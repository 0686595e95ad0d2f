from __future__ import annotations

import hashlib
import json

import pytest

from grlr import (
    GradedSubspace,
    RATIONALS,
    ann_A,
    ann_L_of_A,
    build,
    center,
    compute_derivations,
    default_recipe_space,
    generate_instance,
    is_graded_ideal_A,
    is_graded_ideal_L,
    ker_anchor,
    prime_field,
    restrict_instance,
    verify_all,
)
from grlr.decompose import decompose_A, decompose_L
from grlr.errors import ToolkitError
from grlr.model import verify_grading

from helpers import abelian_pair_instance, cached, mutate_instance, reference_verify, wild_mutant

CATALOG_NAMES = ["e1", "e2", "e3", "ga2", "ga3", "sl2_ga2"]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_passes_all_verifiers(name):
    for purpose in ("display", "oracle"):
        inst = cached(name, purpose=purpose)
        report = verify_all(inst)
        assert report.passed, [c.to_json() for c in report.failed_checks()]


def test_verify_groups_cover_all_five_suites():
    inst = cached("e2")
    names = {c.name for c in verify_all(inst).checks}
    assert {"grading.bracket", "lie.jacobi", "assoc.associativity",
            "module.associative_action", "anchor.compatibility"} <= names


def test_e1_bracket_mutation_fails_jacobi_with_pinned_witness():
    # redirect [e, f] from h to e; the first failing Jacobi triple is (e, f, h)
    e1 = build("e1")
    f = e1.field
    table = {k: dict(v) for k, v in e1.bracket.table.items()}
    ef = (e1.L.position_of("e"), e1.L.position_of("f"))
    table[ef] = {e1.L.position_of("e"): f.one}
    table[(ef[1], ef[0])] = {e1.L.position_of("e"): f.neg(f.one)}
    from grlr.linear import BilinearRule
    bad = BilinearRule("bracket", f, e1.group, e1.L, e1.L, e1.L, table)
    from grlr.model import AlgebraInstance
    mutated = AlgebraInstance("e1-mut", f, e1.group, e1.L, e1.A, bad, e1.product, e1.action, e1.anchor)
    report = verify_all(mutated)
    failed = {c.name: c for c in report.failed_checks()}
    assert "lie.jacobi" in failed
    assert failed["lie.jacobi"].witness["args"] == ["e", "f", "h"]


# sha256 of the check JSON of verify_all on 312 instances: each catalog
# entry at its default field and at gf3, and 25 mutants of each.  It pins
# the check names, their order, the verdicts and every witness.
VERIFY_DIGEST = "7a26052c3c172fa9654d0effdf79435d730fcbe0f441245f9e545b169edceb05"


def test_verify_checks_match_recorded_digest():
    records = []
    for name in CATALOG_NAMES:
        for field_label in (None, "gf3"):
            base = cached(name, field_label)
            mutants = [mutate_instance(base, seed)[0] for seed in range(25)]
            records += [[c.to_json() for c in verify_all(m).checks] for m in [base, *mutants]]
    assert len(records) == 312
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == VERIFY_DIGEST


# sha256 of the check JSON of verify_all on 300 wild mutants (one entry
# bumped at an arbitrary position, no mirror): 25 of each catalog entry at
# its default field and at gf3.  Unlike VERIFY_DIGEST it holds failing
# grading and commutativity checks.
WILD_VERIFY_DIGEST = "1da6c56a4d02e4cb1aabcc63bd73cf57cb738274cef355c2bdbeb4e0dab045bc"


def test_wild_mutant_checks_match_recorded_digest():
    records = []
    for name in CATALOG_NAMES:
        for field_label in (None, "gf3"):
            base = cached(name, field_label)
            mutants = [wild_mutant(base, seed)[0] for seed in range(25)]
            records += [[c.to_json() for c in verify_all(m).checks] for m in mutants]
    assert len(records) == 300
    failed = {c["check"] for rec in records for c in rec if not c["passed"]}
    assert "assoc.commutativity" in failed
    assert {"grading.bracket", "grading.product", "grading.action", "grading.anchor"} <= failed
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == WILD_VERIFY_DIGEST


def _verify_oracle_instances():
    bases = []
    for name in CATALOG_NAMES:
        for field_label in (None, "gf3", "gf5"):
            try:
                bases.append(cached(name, field_label))
            except ToolkitError:  # e2 and e3 exist only in characteristic 3
                pass
    for recipe in default_recipe_space():
        try:
            bases.append(generate_instance(recipe))
        except ToolkitError:
            continue
    for base in bases:
        yield base
        for seed in range(4):
            yield mutate_instance(base, seed)[0]
            yield wild_mutant(base, seed)[0]


def test_verify_matches_literal_scan():
    count = 0
    for inst in _verify_oracle_instances():
        assert [c.to_json() for c in verify_all(inst).checks] == reference_verify(inst), inst.name
        count += 1
    assert count == 162 * 9


def test_twenty_seeded_mutations_of_e2_each_fail():
    base = cached("e2")
    seen = set()
    for seed in range(20):
        mutated, where = mutate_instance(base, seed)
        report = verify_all(mutated)
        assert not report.passed, f"mutation {where} (seed {seed}) silently passed"
        first = report.failed_checks()[0]
        assert first.witness is not None
        seen.add(where)
    assert len(seen) > 5  # the seeds hit genuinely different constants


def test_grading_violation_reported_not_raised():
    e1 = build("e1")
    f = e1.field
    from grlr.linear import BilinearRule
    from grlr.model import AlgebraInstance
    # send [e, h] to h: lands at grade 1, block of grade says 0 stays 0
    table = {k: dict(v) for k, v in e1.bracket.table.items()}
    table[(0, 2)] = {2: f.one}
    table[(2, 0)] = {2: f.neg(f.one)}
    bad = BilinearRule("bracket", f, e1.group, e1.L, e1.L, e1.L, table)
    mutated = AlgebraInstance("e1-grade", f, e1.group, e1.L, e1.A, bad, e1.product, e1.action, e1.anchor)
    report = verify_grading(mutated)
    failed = [c for c in report.checks if not c.passed]
    assert len(failed) == 1 and failed[0].name == "grading.bracket"
    assert failed[0].witness["left"] == "e" and failed[0].witness["right"] == "h"


def test_invariant_subspaces_of_catalog():
    e1 = cached("e1")
    assert center(e1).dim == 0
    assert ann_L_of_A(e1).dim == 0
    assert ann_A(e1).dim == 0
    assert ker_anchor(e1).dim == 3  # zero anchor
    e2 = cached("e2")
    assert center(e2).dim == 0
    assert ker_anchor(e2).dim == 0  # anchor is the identity embedding of Der
    ab = abelian_pair_instance()
    assert center(ab).dim == 2  # abelian with zero anchor


def test_ideal_predicates_with_witnesses():
    e1 = cached("e1")
    f = e1.field
    span_e = GradedSubspace.from_sparse_vectors(f, e1.L, [{0: f.one}])
    ok, wit = is_graded_ideal_L(e1, span_e)
    assert not ok
    assert wit["law"] == "[L, I] <= I"
    assert wit["args"] == ["1*f", "1*e"] and wit["value"] == "-1*h"
    ok, wit = is_graded_ideal_L(e1, e1.full_L())
    assert ok and wit is None
    ok, wit = is_graded_ideal_L(e1, GradedSubspace.zero(f, e1.L))
    assert ok

    e2 = cached("e2")
    f2 = e2.field
    # <x^2> and <x, x^2> are ideals of F[x]/(x^3); <x> alone is not
    x = {e2.A.position_of("a1"): f2.one}
    x2 = {e2.A.position_of("a2"): f2.one}
    assert is_graded_ideal_A(e2, GradedSubspace.from_sparse_vectors(f2, e2.A, [x2]))[0]
    assert is_graded_ideal_A(e2, GradedSubspace.from_sparse_vectors(f2, e2.A, [x, x2]))[0]
    ok, wit = is_graded_ideal_A(e2, GradedSubspace.from_sparse_vectors(f2, e2.A, [x]))
    assert not ok and wit["law"] == "A.J <= J"


def test_class_ideals_pass_predicates():
    for name in CATALOG_NAMES:
        inst = cached(name)
        for ci in decompose_L(inst).ideals:
            assert is_graded_ideal_L(inst, ci.total)[0], (name, ci.label_json())
        for ci in decompose_A(inst).ideals:
            assert is_graded_ideal_A(inst, ci.total)[0], (name, ci.label_json())


def test_derivations_of_truncated_polynomials():
    # over characteristic 3 the shift-2 derivation d/dx survives; over
    # characteristic 0 or 7 it does not
    from grlr.catalog import _truncated_poly_algebra

    for field, expect in [
        (prime_field(3), {(0,): 1, (1,): 1, (2,): 1}),
        (RATIONALS, {(0,): 1, (1,): 1}),
        (prime_field(7), {(0,): 1, (1,): 1}),
    ]:
        group, A, product = _truncated_poly_algebra(field)
        ders = compute_derivations(field, group, A, product)
        dims = {shift: len(mats) for shift, mats in ders if mats}
        assert dims == expect, (field.label, dims)


def test_derivations_of_semisimple_group_algebra_vanish():
    ga2 = cached("ga2")
    ders = compute_derivations(ga2.field, ga2.group, ga2.A, ga2.product)
    assert all(not mats for _, mats in ders)
    ga3 = cached("ga3")
    ders = compute_derivations(ga3.field, ga3.group, ga3.A, ga3.product)
    assert all(not mats for _, mats in ders)


def test_derivation_values_of_e2_are_pinned():
    e2 = cached("e2")
    f = e2.field
    names = {n for n, _ in e2.L.entries}
    assert names == {"l0", "l1", "l2"}
    # l0 = x d/dx, l1 = x^2 d/dx, l2 = d/dx
    assert e2.anchor.on_basis(e2.L.position_of("l0"), e2.A.position_of("a1")) == {e2.A.position_of("a1"): 1}
    assert e2.anchor.on_basis(e2.L.position_of("l0"), e2.A.position_of("a2")) == {e2.A.position_of("a2"): 2}
    assert e2.anchor.on_basis(e2.L.position_of("l1"), e2.A.position_of("a1")) == {e2.A.position_of("a2"): 1}
    assert e2.anchor.on_basis(e2.L.position_of("l2"), e2.A.position_of("a1")) == {e2.A.position_of("a0"): 1}
    assert e2.anchor.on_basis(e2.L.position_of("l2"), e2.A.position_of("a2")) == {e2.A.position_of("a1"): 2}
    assert e2.bracket.on_basis(e2.L.position_of("l0"), e2.L.position_of("l1")) == {e2.L.position_of("l1"): 1}
    assert e2.bracket.on_basis(e2.L.position_of("l1"), e2.L.position_of("l2")) == {e2.L.position_of("l0"): 1}
    assert e2.action.on_basis(e2.A.position_of("a1"), e2.L.position_of("l2")) == {e2.L.position_of("l0"): 1}


def test_restrict_instance_to_summand():
    e3 = cached("e3")
    rep_L = decompose_L(e3)
    rep_A = decompose_A(e3)
    sub = restrict_instance(e3, rep_L.ideals[0].total, rep_A.ideals[0].total, "e3-part")
    assert sub.L.dim == 3 and sub.A.dim == 3
    assert verify_all(sub).passed


def test_restrict_rejects_nonclosed_subspaces():
    e1 = cached("e1")
    f = e1.field
    # [e, f] = h escapes the span of e and f
    span_ef = GradedSubspace.from_sparse_vectors(f, e1.L, [{0: f.one}, {1: f.one}])
    with pytest.raises(ToolkitError) as err:
        restrict_instance(e1, span_ef, e1.full_A(), "bad")
    assert str(err.value) == "restriction is not closed: bracket(l0, ...) escapes the subspace"


def test_restrict_rejects_subspaces_of_the_wrong_space():
    ga2 = cached("ga2")
    # ga2's L is 0, so its A must not pass for a subspace of L
    with pytest.raises(ValueError):
        restrict_instance(ga2, ga2.full_A(), ga2.full_A(), "x")
    e1 = cached("e1")
    with pytest.raises(ValueError):
        restrict_instance(e1, e1.full_L(), e1.full_L(), "x")


def test_instance_rejects_mismatched_rule_domains():
    e1 = cached("e1")
    from grlr.model import AlgebraInstance
    with pytest.raises(ValueError):
        AlgebraInstance("broken", e1.field, e1.group, e1.L, e1.A,
                        e1.product, e1.product, e1.action, e1.anchor)
