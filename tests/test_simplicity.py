from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from grlr import (
    GradedSubspace,
    check_hypotheses5,
    decompose_L,
    fine_decompose,
    gr_simple_A,
    gr_simple_L,
    split_case_b,
    verify_all,
)
import grlr.simplicity
from grlr.catalog import catalog_names
from grlr.errors import DecompositionError, ToolkitError
from grlr.oracle import default_recipe_space, generate_instance
from grlr.simplicity import CLOSURE_CAP, _seed_lines, ideal_closure_A, ideal_closure_L

from helpers import (
    abelian_pair_instance,
    cached,
    homogeneous_seeds,
    literal_ideal_test_A,
    literal_ideal_test_L,
    plain_closure,
    recipe_and_catalog_instances,
    reference_kernels,
)

HYPOTHESIS_NAMES = ["tight", "maximal_length", "g_multiplicative", "sigma_symmetric",
                    "lambda_symmetric", "sigma_all_connected", "lambda_all_connected"]


def test_hypotheses_report_covers_all_seven():
    rep = check_hypotheses5(cached("ga2"))
    assert sorted(rep.conditions) == sorted(HYPOTHESIS_NAMES)
    assert rep.all_hold and rep.witnesses == {}


def test_hypotheses_fail_on_e1_for_tightness():
    rep = check_hypotheses5(cached("e1"))
    assert not rep.all_hold
    assert not rep.conditions["tight"]
    assert rep.witnesses["tight"] == "failing: A_identity_generated"


def test_hypotheses_fail_on_e2_e3_for_multiplicativity():
    rep2 = check_hypotheses5(cached("e2"))
    assert rep2.conditions["tight"]
    assert not rep2.conditions["g_multiplicative"]
    # the first offending pair is the (1, 1) bracket block
    assert rep2.witnesses["g_multiplicative"] == "[L_1, L_1] = 0"
    rep3 = check_hypotheses5(cached("e3"))
    assert not rep3.conditions["g_multiplicative"]


def test_hypotheses_hold_on_group_algebra_family():
    for name in ("ga2", "ga3", "sl2_ga2"):
        rep = check_hypotheses5(cached(name))
        assert rep.all_hold, (name, rep.witnesses)


def test_gr_simple_frozen_verdicts():
    e1 = cached("e1", purpose="oracle")
    assert gr_simple_L(e1).status == "gr_simple"
    assert gr_simple_A(e1).status == "gr_simple"
    e2 = cached("e2")
    assert gr_simple_L(e2).status == "gr_simple"
    va = gr_simple_A(e2)
    assert va.status == "not_gr_simple"
    # the certificate is the nilpotent part, spanned by x and x^2
    assert sorted(va.certificate.grades()) == [(1,), (2,)]
    assert va.certificate.dim == 2
    sg = cached("sl2_ga2", purpose="oracle")
    assert gr_simple_L(sg).status == "gr_simple"
    assert gr_simple_A(sg).status == "gr_simple"


def test_e3_certificate_is_one_of_the_class_ideals():
    e3 = cached("e3")
    v = gr_simple_L(e3)
    assert v.status == "not_gr_simple"
    assert v.certificate.dim == 3
    totals = [ci.total for ci in decompose_L(e3).ideals]
    assert any(v.certificate == t for t in totals)


def test_rational_scalars_stay_undecided():
    sg = cached("sl2_ga2")  # display field is rational
    v = gr_simple_L(sg)
    assert v.status == "undecided"
    assert "rational" in v.reason
    assert v.closures_run > 0


def test_closure_cap_reports_undecided_with_cap(monkeypatch):
    e1 = cached("e1", purpose="oracle")
    monkeypatch.setattr(grlr.simplicity, "CLOSURE_CAP", 2)
    v = gr_simple_L(e1)
    assert v.status == "undecided"
    assert "capped at 2" in v.reason
    assert v.closures_run == 2


def test_closure_cap_leaves_the_rational_sample_whole(monkeypatch):
    sg = cached("sl2_ga2")  # display field is rational
    whole = gr_simple_L(sg)
    monkeypatch.setattr(grlr.simplicity, "CLOSURE_CAP", 3)
    v = gr_simple_L(sg)
    assert v.to_json() == whole.to_json()
    assert v.status == "undecided" and v.closures_run > 3
    assert v.reason == "rational scalars: sampled closures found no counterexample, enumeration is not exhaustive"


def test_split_case_b_on_antisymmetric_ideal():
    ab = abelian_pair_instance()
    f = ab.field
    I = GradedSubspace.from_sparse_vectors(f, ab.L, [{0: f.one}])
    left, right = split_case_b(ab, I)
    assert left == I
    assert sorted(right.grades()) == [(-1,)]
    assert left.dim == 1 and right.dim == 1


def test_split_case_b_rejections():
    e3 = cached("e3")
    ci = decompose_L(e3).ideals[0].total
    with pytest.raises(DecompositionError, match="Case a applies"):
        split_case_b(e3, ci)  # class ideals have symmetric support
    with pytest.raises(DecompositionError, match="proper nonzero"):
        split_case_b(e3, e3.full_L())
    with pytest.raises(DecompositionError, match="proper nonzero"):
        split_case_b(e3, GradedSubspace.zero(e3.field, e3.L))
    e1 = cached("e1")
    span_e = GradedSubspace.from_sparse_vectors(e1.field, e1.L, [{0: e1.field.one}])
    with pytest.raises(DecompositionError, match="not a graded ideal"):
        split_case_b(e1, span_e)


def test_fine_decompose_refines_sl2_ga2_over_prime_field():
    rep = fine_decompose(cached("sl2_ga2", purpose="oracle"))
    assert rep.refined and rep.note == ""
    assert len(rep.summands) == 2
    by_side = {s.side: s for s in rep.summands}
    assert by_side["L"].verdict.status == "gr_simple"
    assert by_side["A"].verdict.status == "gr_simple"
    assert by_side["L"].subspace.dim == 6 and by_side["A"].subspace.dim == 2
    assert by_side["L"].partner == [["0,1"]]
    assert by_side["A"].partner == [by_side["L"].label]
    assert by_side["L"].restricted_verified and by_side["A"].restricted_verified


def test_fine_decompose_gates_on_hypotheses():
    rep = fine_decompose(cached("e2"))
    assert not rep.refined
    assert rep.summands == []
    assert rep.note == "hypotheses not satisfied: g_multiplicative"
    assert not rep.hypotheses.conditions["g_multiplicative"]


def test_fine_decompose_undecided_over_rationals():
    rep = fine_decompose(cached("sl2_ga2"))
    assert rep.refined
    assert all(s.verdict.status == "undecided" for s in rep.summands)


def test_fine_summands_restrict_to_verifying_instances():
    rep = fine_decompose(cached("ga3", purpose="oracle"))
    assert rep.refined
    for s in rep.summands:
        assert s.restricted_verified


def test_verdict_json_round_trip_fields():
    v = gr_simple_A(cached("e2"))
    data = v.to_json()
    assert data["status"] == "not_gr_simple"
    assert data["side"] == "A"
    assert "certificate" in data and data["closures_run"] >= 1
    full = fine_decompose(cached("sl2_ga2", purpose="oracle")).to_json()
    assert full["refined"] is True
    assert {s["side"] for s in full["summands"]} == {"L", "A"}


def test_abelian_pair_verifies():
    assert verify_all(abelian_pair_instance()).passed


# sha256 of the verdict JSON on the 126 buildable prime-field recipes of
# default_recipe_space(): per recipe its label, gr_simple_L, gr_simple_A,
# fine_decompose and check_hypotheses5.  It pins every status, reason
# text, certificate and closures_run count beyond the catalog.
VERDICT_DIGEST = "ff1500c9be9cb1ecc74be58a2fc3591c714c21875fedcc7868a2490f22dacbb1"


def test_prime_field_verdicts_match_recorded_digest():
    records = []
    for recipe in default_recipe_space():
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        if inst.field.kind != "prime":
            continue
        records.append([
            recipe.label,
            gr_simple_L(inst).to_json(),
            gr_simple_A(inst).to_json(),
            fine_decompose(inst).to_json(),
            check_hypotheses5(inst).to_json(),
        ])
    assert len(records) == 126
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == VERDICT_DIGEST


# sha256 of the verdict JSON on the 20 buildable rational recipes of
# default_recipe_space(): per recipe its label, gr_simple_L, gr_simple_A
# and fine_decompose.  It pins the sampled closure scans over Q, their
# reasons and closures_run counts, which no golden file holds.
RATIONAL_VERDICT_DIGEST = "3c3eb61305a604545c228a038c1fc78f4393f6e480c79888f5f762b9c714df2f"


def _rational_recipes():
    """(label, instance) for each buildable rational recipe of default_recipe_space()."""
    for recipe in default_recipe_space():
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        if inst.field.kind != "prime":
            yield recipe.label, inst


def test_rational_verdicts_match_recorded_digest():
    records = []
    for label, inst in _rational_recipes():
        records.append([
            label,
            gr_simple_L(inst).to_json(),
            gr_simple_A(inst).to_json(),
            fine_decompose(inst).to_json(),
        ])
    assert len(records) == 20
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == RATIONAL_VERDICT_DIGEST


def _closure_cases():
    """The catalog entries at GF(3), then the first three buildable rational recipes."""
    cases = [pytest.param(cached(name, "gf3"), id=name) for name in ("e1", "e2", "e3", "ga2", "ga3", "sl2_ga2")]
    rational = itertools.islice(_rational_recipes(), 3)
    return cases + [pytest.param(inst, id=label) for label, inst in rational]


def _seed_listing_cases():
    """Every catalog entry at GF(3), GF(5) and GF(7) that builds, then the
    buildable rational recipes."""
    for name in catalog_names():
        for label in ("gf3", "gf5", "gf7"):
            try:
                yield f"{name}@{label}", cached(name, label)
            except ToolkitError:  # e2 and e3 exist only in characteristic 3
                continue
    yield from _rational_recipes()


def test_seed_lines_scale_the_reference_seeds_in_order():
    rational = 0
    for label, inst in _seed_listing_cases():
        f = inst.field
        rational += f.kind == "rational"
        for side in ("L", "A"):
            basis = getattr(inst, side)
            seeds, exhaustive = homogeneous_seeds(inst, basis, CLOSURE_CAP)
            assert exhaustive == (f.kind == "prime"), (label, side)
            expected = []
            for g, coords in seeds:
                pivot = next(i for i, x in enumerate(coords) if not f.is_zero(x))
                expected.append((g, tuple(f.div(x, coords[pivot]) for x in coords), pivot))
            assert list(_seed_lines(inst, basis)) == expected, (label, side)
    assert rational == 20


@pytest.mark.parametrize("inst", _closure_cases())
def test_closures_equal_the_plain_fixpoint_loop(inst):
    name = inst.name
    checked = 0
    for side, closure_of in (("L", ideal_closure_L), ("A", ideal_closure_A)):
        basis = getattr(inst, side)  # L is zero on ga2 and ga3
        for g, row, pivot in _seed_lines(inst, basis):
            seed = GradedSubspace.from_block_vectors(inst.field, basis, [(g, row)])
            assert seed.blocks[g] == (row,) and seed.pivots[g] == (pivot,), (name, side, g, row)
            assert closure_of(inst, seed) == plain_closure(inst, seed, side), (name, side, g, row)
            checked += 1
    assert checked > 0


def test_each_seed_line_is_closed_once(monkeypatch):
    inst = cached("sl2_ga2")  # rational scalars, so the sampled seeds repeat lines
    seeds = list(_seed_lines(inst, inst.L))
    lines = {(g, row) for g, row, _ in seeds}
    assert len(lines) < len(seeds)

    calls = []

    def counting(inst_arg, seed):
        calls.append(seed)
        return ideal_closure_L(inst_arg, seed)

    monkeypatch.setattr(grlr.simplicity, "ideal_closure_L", counting)
    verdict = grlr.simplicity.gr_simple_L(inst)
    assert verdict.status == "undecided"
    assert len(calls) == len(lines)
    assert verdict.closures_run == len(seeds)


# the rule whose whole product a pre-check verdict's reason says is zero
PRE_CHECK_RULES = {"[L, L] = 0": "bracket", "AA = 0": "product", "AL = 0": "action"}


def test_not_gr_simple_verdicts_recheck_from_the_tables():
    certificates = {"L": 0, "A": 0}
    pre_checks = 0
    for label, inst in recipe_and_catalog_instances():
        for side, verdict_of, literal in (("L", gr_simple_L, literal_ideal_test_L), ("A", gr_simple_A, literal_ideal_test_A)):
            verdict = verdict_of(inst)
            if verdict.status != "not_gr_simple":
                continue
            if verdict.certificate is None:
                # a pre-check verdict: every product of two basis vectors is 0
                rule = getattr(inst, PRE_CHECK_RULES[verdict.reason])
                assert all(not rule.on_basis(i, j) for i in range(rule.left.dim) for j in range(rule.right.dim))
                pre_checks += 1
                continue
            cert = verdict.certificate
            assert literal(inst, cert) == (True, None), (label, side)
            assert not cert.is_zero() and cert != getattr(inst, f"full_{side}")(), (label, side)
            if side == "L":
                assert cert != reference_kernels(inst)["ker_anchor"], label
            certificates[side] += 1
    assert certificates == {"L": 29, "A": 66} and pre_checks == 68
