from __future__ import annotations

import hashlib
import json
import re

import pytest

from grlr import (
    AlgebraInstance,
    TemplateRecipe,
    check_tight,
    decompose_A,
    decompose_L,
    generate_instance,
    is_graded_ideal_A,
    is_graded_ideal_L,
    pair_ideals,
)
import grlr.decompose
import grlr.linear
import grlr.simplicity
from grlr.errors import ToolkitError
from grlr.linear import BilinearRule, GradedSubspace, bilinear_image, product_is_zero, subspace_intersect
from grlr.decompose import tightness
from grlr.model import ann_A, ann_L_of_A, center, ker_anchor
from grlr.simplicity import check_hypotheses5, gr_simple_A, gr_simple_L

from helpers import (
    abelian_pair_instance,
    action_and_anchor_witnesses,
    cached,
    count_returns,
    half_acted_pair_instance,
    ideal_oracle_A,
    ideal_oracle_L,
    outcome,
    recipe_and_catalog_instances,
    recipe_and_catalog_wild_mutants,
    reference_tightness,
    truncated_poly_one_block,
)

TIGHT_NAMES = ["center_zero", "ann_L_of_A_zero", "ann_A_zero", "AA_equals_A",
               "AL_equals_L", "L_identity_generated", "A_identity_generated"]


def test_e1_decomposition_shape():
    e1 = cached("e1")
    L = decompose_L(e1)
    assert len(L.ideals) == 1
    assert L.ideals[0].total.dim == 3
    assert L.complement.dim == 0
    assert L.span_ok and L.direct
    A = decompose_A(e1)
    # A sits entirely at the identity grade: no support classes, the
    # complement is all of A, and directness fails by convention
    assert A.ideals == []
    assert A.complement.dim == 1
    assert A.span_ok and not A.direct


def test_e2_decomposition_shape():
    e2 = cached("e2")
    for rep, dim in ((decompose_L(e2), 3), (decompose_A(e2), 3)):
        assert len(rep.ideals) == 1
        assert rep.ideals[0].total.dim == dim
        assert rep.complement.dim == 0
        assert rep.span_ok and rep.direct
        assert rep.orthogonal == []


def test_e3_decomposition_shape_and_orthogonality():
    e3 = cached("e3")
    for decomp in (decompose_L, decompose_A):
        rep = decomp(e3)
        assert sorted(i.total.dim for i in rep.ideals) == [3, 3]
        assert rep.complement.dim == 0
        assert rep.span_ok and rep.direct
        assert len(rep.orthogonal) == 1
        fact = rep.orthogonal[0]
        assert fact["product_zero"] and fact["intersection_zero"]
        both = subspace_intersect(rep.ideals[0].total, rep.ideals[1].total)
        assert both.is_zero()


def test_e3_cross_class_products_vanish_directly():
    e3 = cached("e3")
    L = decompose_L(e3).ideals
    A = decompose_A(e3).ideals
    assert bilinear_image(e3.bracket, L[0].total, L[1].total).is_zero()
    assert bilinear_image(e3.product, A[0].total, A[1].total).is_zero()


def test_generated_multiclass_sum_is_orthogonal():
    inst = generate_instance(TemplateRecipe("ga2+ga3", "ga2", "gf5", (("sum", "ga3"),)))
    rep = decompose_A(inst)
    assert len(rep.ideals) == 2
    # each class ideal carries its support blocks plus the identity
    # component its products generate: 1+1 for the two-cycle, 2+1 for the three-cycle
    assert {i.total.dim for i in rep.ideals} == {2, 3}
    assert all(f["product_zero"] and f["intersection_zero"] for f in rep.orthogonal)
    for ci in rep.ideals:
        ok, _ = is_graded_ideal_A(inst, ci.total)
        assert ok and ideal_oracle_A(inst, ci.total)


def test_class_ideal_parts():
    e3 = cached("e3")
    for ci in decompose_L(e3).ideals:
        assert ci.identity_part.dim + ci.support_part.dim >= ci.total.dim
        inside = subspace_intersect(ci.identity_part, e3.full_L().at_grades([e3.group.identity()]))
        assert inside == ci.identity_part  # identity part lives at the identity grade
    for ci in decompose_A(e3).ideals:
        inside = subspace_intersect(ci.identity_part, e3.full_A().at_grades([e3.group.identity()]))
        assert inside == ci.identity_part


def test_class_ideals_agree_with_oracle_restatement():
    for name in ("e1", "e2", "e3", "sl2_ga2"):
        inst = cached(name)
        for ci in decompose_L(inst).ideals:
            assert is_graded_ideal_L(inst, ci.total)[0]
            assert ideal_oracle_L(inst, ci.total)
        for ci in decompose_A(inst).ideals:
            assert is_graded_ideal_A(inst, ci.total)[0]
            assert ideal_oracle_A(inst, ci.total)


def test_tightness_e2_e3_all_hold():
    for name in ("e2", "e3"):
        rep = check_tight(cached(name))
        assert rep.tight, rep.witnesses
        assert sorted(rep.conditions) == sorted(TIGHT_NAMES)
        assert all(rep.conditions.values())
        assert rep.witnesses == {}


def test_tightness_e1_fails_only_identity_generation_of_A():
    rep = check_tight(cached("e1"))
    assert not rep.tight
    failing = sorted(k for k, v in rep.conditions.items() if not v)
    assert failing == ["A_identity_generated"]
    assert "A_identity_generated" in rep.witnesses


def witness_cases():
    """Instances that together fail every tightness condition, each with the
    witnesses of all its failing conditions; only the mutant fails AA = A."""
    mutant = dict(recipe_and_catalog_wild_mutants())["e1@gf3~product(one, one) += 2*one"]
    return (
        (abelian_pair_instance(),
         {"center_zero": "nonzero element: 1*w", "A_identity_generated": "not spanned: 1*one"}),
        (action_and_anchor_witnesses(),
         {"center_zero": "nonzero element: 1*w", "ann_A_zero": "nonzero element: 1*b"}),
        (truncated_poly_one_block(5, 5),
         {"L_identity_generated": "not spanned: 1*l0", "A_identity_generated": "not spanned: 1*x0"}),
        (half_acted_pair_instance(),
         {"center_zero": "nonzero element: 1*w", "ann_L_of_A_zero": "nonzero element: 1*w",
          "AL_equals_L": "not spanned: 1*w", "A_identity_generated": "not spanned: 1*one"}),
        (mutant,
         {"ann_A_zero": "nonzero element: 1*one", "AA_equals_A": "not spanned: 1*one",
          "A_identity_generated": "not spanned: 1*one"}),
    )


def test_every_tightness_condition_fails_with_its_witness():
    failed = set()
    for inst, witnesses in witness_cases():
        rep = check_tight(inst)
        assert rep.witnesses == witnesses, inst.name
        assert {name for name, ok in rep.conditions.items() if not ok} == set(witnesses), inst.name
        failed |= set(witnesses)
    assert failed == set(TIGHT_NAMES)


def test_tightness_matches_reference_on_corpora_and_witness_instances():
    cases = (list(recipe_and_catalog_instances()) + list(recipe_and_catalog_wild_mutants())
             + [(inst.name, inst) for inst, _ in witness_cases()])
    refused = 0
    for label, inst in cases:
        got = outcome(check_tight, inst)
        assert got == outcome(reference_tightness, inst), label
        refused += isinstance(got, list)
    assert refused == 263  # mutants refused on a block pair, the same one as the reference


def test_tightness_stopped_at_its_first_failure_matches_reference_on_wild_mutants():
    """The lazy evaluator read as the recipe search reads it, up to its
    first failing condition only, names the first condition the
    reference report fails, with the reference's witness; where the
    reference refuses a block pair, it refuses the same pair first."""
    stopped, refused = 0, 0
    for label, inst in recipe_and_catalog_wild_mutants():
        expected = outcome(reference_tightness, inst)
        try:
            got = next(((name, witness()) for name, witness in tightness(inst) if witness), None)
        except ToolkitError as exc:
            got = [type(exc).__name__, str(exc)]
        if isinstance(expected, list):
            assert got == expected, label
            refused += 1
            continue
        first = next((name for name in TIGHT_NAMES if not expected["conditions"][name]), None)
        assert got == (None if first is None else (first, expected["witnesses"][first])), label
        stopped += first is not None
    assert refused == 263 and stopped > 100, (refused, stopped)


def test_tightness_builds_subspaces_only_for_a_witness(monkeypatch):
    instances = {name: cached(name) for name in ("e1", "e2", "e3", "sl2_ga2")}
    counts = count_returns(monkeypatch, [(grlr.linear, "rref")])
    # per GradedSubspace built, whether a witness builder was running
    built, witnesses, depth = [], [], [0]
    adopt = GradedSubspace._adopt

    def counting_adopt(self, *args):
        built.append(depth[0] > 0)
        adopt(self, *args)

    def in_witness(name, original):
        def wrapper(*args):
            witnesses.append(name)
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(GradedSubspace, "_adopt", counting_adopt)
    for name in ("_nonzero_witness", "_not_spanned_witness"):
        monkeypatch.setattr(grlr.decompose, name, in_witness(name, getattr(grlr.decompose, name)))
    for name in ("e2", "e3", "sl2_ga2"):
        assert check_tight(instances[name]).tight
        assert counts["rref"] == 0 and built == [], name
    assert list(check_tight(instances["e1"]).witnesses) == ["A_identity_generated"]
    assert witnesses == ["_not_spanned_witness"]
    assert built and all(built)


def test_pairing_unique_on_tight_instances():
    for name in ("e2", "e3"):
        inst = cached(name)
        L, A = decompose_L(inst), decompose_A(inst)
        rep = pair_ideals(inst, L, A, check_tight(inst).tight)
        assert not rep.contradiction
        assert len(rep.pairs) == len(L.ideals)
        assert all(p["unique"] for p in rep.pairs)
        matched = [tuple(p["A_classes"][0]) for p in rep.pairs]
        assert len(set(matched)) == len(matched)  # distinct L classes pair with distinct A classes


def test_class_ideal_and_pairing_zero_tests_match_bilinear_image():
    # every ordered pair of class ideals of a side under its own rule, and
    # every (A ideal, L ideal) pair under the action, on the recipe and
    # catalog corpora (catalog entries at q, gf3 and gf5)
    zero = nonzero = 0
    for label, inst in recipe_and_catalog_instances():
        L, A = [i.total for i in decompose_L(inst).ideals], [i.total for i in decompose_A(inst).ideals]
        for rule, lefts, rights in ((inst.bracket, L, L), (inst.product, A, A), (inst.action, A, L)):
            for U in lefts:
                for V in rights:
                    got = product_is_zero(rule, U, V)
                    assert got == bilinear_image(rule, U, V).is_zero(), (label, rule.name)
                    zero += got
                    nonzero += not got
    assert (zero, nonzero) == (288, 406)


def test_pairing_flags_contradiction_when_tight_claim_is_wrong():
    e1 = cached("e1")
    L, A = decompose_L(e1), decompose_A(e1)
    # e1 has one L ideal and no A class ideals; claiming tightness must trip the flag
    rep = pair_ideals(e1, L, A, True)
    assert rep.contradiction
    assert rep.pairs[0]["A_classes"] == []
    honest = pair_ideals(e1, L, A, False)
    assert not honest.contradiction


def test_report_json_is_serializable_and_stable():
    import json

    e3 = cached("e3")
    one = json.dumps(decompose_L(e3).to_json(), sort_keys=True)
    two = json.dumps(decompose_L(e3).to_json(), sort_keys=True)
    assert one == two
    data = json.loads(one)
    assert data["side"] == "L" and data["span_ok"] and data["direct"]


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "ga2", "ga3", "sl2_ga2"])
def test_span_holds_everywhere(name):
    inst = cached(name)
    assert decompose_L(inst).span_ok
    assert decompose_A(inst).span_ok


# sha256 of the outcome JSON on the 640 mutants of
# helpers.recipe_and_catalog_wild_mutants(): per mutant its label, then the
# to_json() output, or the refusal's exception type and message, of each
# call in MUTANT_CALLS, with the closure cap at 20.  About a fifth of the
# calls raise, most where a product meets a block pair that breaks the
# grade-shift law; on the double mutants, with two such pairs, the digest
# also pins which one is refused first.
MUTANT_OUTCOME_DIGEST = "abfa796057d5980fa3ba6360a355bb1763c809b8d7656d1c895dfd22a7234bd4"
MUTANT_CALLS = (
    check_tight,
    check_hypotheses5,
    decompose_L,
    decompose_A,
    gr_simple_L,
    gr_simple_A,
    center,
    ann_L_of_A,
    ann_A,
    ker_anchor,
)


def test_wild_mutant_outcomes_match_recorded_digest(monkeypatch):
    monkeypatch.setattr(grlr.simplicity, "CLOSURE_CAP", 20)
    records = [[label] + [outcome(call, inst) for call in MUTANT_CALLS]
               for label, inst in recipe_and_catalog_wild_mutants()]
    assert len(records) == 640
    refusals = [o for rec in records for o in rec[1:] if isinstance(o, list)]
    assert len(refusals) > 1000
    assert any("violates the grade-shift law" in message for _, message in refusals)
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == MUTANT_OUTCOME_DIGEST


def _with_off_grade_entries(inst, entries):
    """``inst`` with each (rule name, left, right, component) of ``entries``
    added to its table with coefficient 1, ignoring the grade-shift law."""
    f = inst.field
    rules = {name: getattr(inst, name) for name in ("bracket", "product", "action", "anchor")}
    tables = {name: {key: dict(img) for key, img in rule.table.items()} for name, rule in rules.items()}
    for name, left, right, component in entries:
        rule = rules[name]
        key = (rule.left.position_of(left), rule.right.position_of(right))
        tables[name].setdefault(key, {})[rule.out.position_of(component)] = f.one
    parts = {name: BilinearRule(name, f, inst.group, rule.left, rule.right, rule.out, tables[name])
             for name, rule in rules.items()}
    return AlgebraInstance(f"{inst.name}~off", f, inst.group, inst.L, inst.A, **parts)


def test_identity_part_refuses_terms_grade_by_grade_cross_first():
    # e3 over GF(3): the L class {(1,0), (2,0)} is also in Lambda, so its
    # identity part takes action(A_{g^-1}, L_g), then [L_{g^-1}, L_g], at
    # g = (1,0) and then at g = (2,0)
    e3 = cached("e3", "gf3")
    bracket_at_1 = ("bracket", "l2_1", "l1_1", "l1_1")  # the pair ((2,0), (1,0))
    action_at_1 = ("action", "a2_1", "l1_1", "l1_1")
    action_at_2 = ("action", "a1_1", "l2_1", "l1_1")  # the pair ((1,0), (2,0))
    # own term at (1,0) before the cross term at (2,0)
    with pytest.raises(ToolkitError, match=re.escape("rule 'bracket' violates the grade-shift law on (2,0, 1,0)")):
        decompose_L(_with_off_grade_entries(e3, [bracket_at_1, action_at_2]))
    # cross term before own term at the same grade
    with pytest.raises(ToolkitError, match=re.escape("rule 'action' violates the grade-shift law on (2,0, 1,0)")):
        decompose_L(_with_off_grade_entries(e3, [bracket_at_1, action_at_1]))
