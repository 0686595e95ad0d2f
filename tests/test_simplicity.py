from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from grlr import (
    GradedSubspace,
    check_hypotheses5,
    decompose_A,
    decompose_L,
    fine_decompose,
    gr_simple_A,
    gr_simple_L,
    split_case_b,
    verify_all,
)
import grlr.connections
import grlr.decompose
import grlr.model
import grlr.simplicity
from grlr.catalog import build, catalog_names
from grlr.cli import main
from grlr.decompose import check_tight
from grlr.errors import DecompositionError, ToolkitError
from grlr.fields import prime_field
from grlr.groups import GroupSpec, format_grade
from grlr.linear import GradedBasis, bilinear_image, entry_rows, rule_from_names
from grlr.model import AlgebraInstance
from grlr.oracle import default_recipe_space, generate_instance
from grlr.simplicity import CLOSURE_CAP, _seed_lines, ideal_closure_A, ideal_closure_L

from helpers import (
    abelian_pair_instance,
    action_and_anchor_witnesses,
    cached,
    count_returns,
    from_block_vectors,
    from_sparse_vectors,
    homogeneous_seeds,
    literal_ideal_test_A,
    literal_ideal_test_L,
    on_basis,
    plain_closure,
    recipe_and_catalog_instances,
    recipe_and_catalog_wild_mutants,
    reference_kernels,
    truncated_poly_derivations,
    truncated_poly_one_block,
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
    I = from_sparse_vectors(f, ab.L, [{0: f.one}])
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
    span_e = from_sparse_vectors(e1.field, e1.L, [{0: e1.field.one}])
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


def test_fine_decompose_restricts_each_subpair_once(monkeypatch):
    # on sl2_ga2 the L summand and the A summand are the same subpair
    # (I, A_j), which a restriction per summand would build twice
    inst = build("sl2_ga2", prime_field(3))
    restrictions = count_returns(monkeypatch, [(grlr.model, "restrict_instance")])
    rep = fine_decompose(inst)
    assert restrictions == {"restrict_instance": 1}
    assert [s.side for s in rep.summands] == ["L", "A"]
    assert all(s.restricted_verified for s in rep.summands)


# the coarse pipeline of one `decompose NAME --fine` command
COARSE = [(grlr.decompose, "check_tight"), (grlr.decompose, "decompose_L"), (grlr.decompose, "decompose_A"),
          (grlr.decompose, "pair_ideals"), (grlr.connections, "sigma_classes"), (grlr.connections, "lambda_classes"),
          (grlr.decompose, "_decompose")]


@pytest.mark.parametrize("name, side", [
    pytest.param(name, side, id=name if side == "both" else f"{name}-{side}")
    for name in ["ga2", "ga3", "sl2_ga2", "e3"] for side in ["both", "L", "A"]
])
def test_decompose_fine_builds_the_coarse_pipeline_once(monkeypatch, capsys, name, side):
    # refining again from scratch ran check_tight and each report twice
    # on ga2, ga3 and sl2_ga2, and the classes three times; with one side
    # the printed side's report was built twice.  The gate reads both
    # partitions off the class reports, which every --side builds once
    counts = count_returns(monkeypatch, COARSE)
    assert main(["decompose", name, "--side", side, "--fine", "--field", "gf3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fine"]["refined"] == (name != "e3")
    assert counts == {"check_tight": 1, "decompose_L": 1, "decompose_A": 1, "pair_ideals": 1,
                      "sigma_classes": 1, "lambda_classes": 1, "_decompose": 2}


@pytest.mark.parametrize("field", [[], ["--field", "gf3"]])
@pytest.mark.parametrize("name", catalog_names())
def test_one_side_fine_output_is_that_side_of_both(capsys, name, field):
    def decompose(*flags):
        assert main(["decompose", name, "--fine", "--json", *field, *flags]) == 0
        return json.loads(capsys.readouterr().out)

    both = decompose()
    for side in ("L", "A"):
        one = decompose("--side", side)
        assert "pairing" not in one
        assert (one[side], one["fine"]) == (both[side], both["fine"])


@pytest.mark.parametrize("name", ["ga2", "ga3", "sl2_ga2", "e3"])
def test_fine_decompose_finds_each_partition_once(monkeypatch, name):
    # the gate and the class reports share both partitions: ga2, ga3 and
    # sl2_ga2 pass the gate and build reports, e3 stops at the gate
    inst = build(name, prime_field(3))
    counts = count_returns(monkeypatch, [(grlr.connections, "sigma_classes"), (grlr.connections, "lambda_classes")])
    assert fine_decompose(inst).refined == (name != "e3")
    assert counts == {"sigma_classes": 1, "lambda_classes": 1}


def _count_supports_built(monkeypatch) -> list[int]:
    """A one-element list counting every ``Supports`` construction."""
    built = [0]
    original = grlr.connections.Supports.__post_init__

    def counting(self):
        original(self)
        built[0] += 1

    monkeypatch.setattr(grlr.connections.Supports, "__post_init__", counting)
    return built


def test_supports_are_built_once_per_instance(monkeypatch, capsys):
    # the gate, the tightness report, both class reports and the g-multiplicative
    # check each built the supports again: 5 per fine_decompose, 6 per command
    built = _count_supports_built(monkeypatch)
    inst = build("sl2_ga2", prime_field(3))
    assert fine_decompose(inst).refined
    assert built == [1]
    assert grlr.connections.supports(inst) is grlr.connections.supports(inst)
    assert built == [1]
    built[0] = 0
    assert main(["decompose", "sl2_ga2", "--fine", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fine"]["refined"]
    assert built == [1]


@pytest.mark.parametrize("name", ["e2", "e3"])
def test_fine_decompose_builds_nothing_past_a_failed_gate(monkeypatch, name):
    # the class reports, their pairing and the restrictions serve only the
    # refinement, so an instance that fails the gate builds none of them
    counts = count_returns(monkeypatch, [(grlr.decompose, "_decompose"), (grlr.decompose, "pair_ideals"),
                                         (grlr.model, "restrict_instance")])
    assert not fine_decompose(build(name, prime_field(3))).refined
    assert counts == {"_decompose": 0, "pair_ideals": 0, "restrict_instance": 0}


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


def two_anchor_images() -> AlgebraInstance:
    """A graded but lawless instance over GF(3) on which one row v has two
    independent anchor images at grade 0, rho(v)(b1) = one and
    rho(v)(b2) = e, that act on different vectors: one.w = w and e.z = y.
    The closure of span{v} is span{v, w, y}: y comes only from e.z."""
    f, G = prime_field(3), GroupSpec(1)
    L = GradedBasis([("v", (1,)), ("w", (-1,)), ("y", (-1,)), ("z", (-1,))])
    A = GradedBasis([("one", (0,)), ("e", (0,)), ("b1", (-1,)), ("b2", (-1,))])
    return AlgebraInstance(
        "two_anchor_images", f, G, L, A,
        rule_from_names("bracket", f, G, L, L, L, {}),
        rule_from_names("product", f, G, A, A, A, {("one", x): {x: 1} for x in ("one", "e", "b1", "b2")}),
        rule_from_names("action", f, G, A, L, L, {("one", "w"): {"w": 1}, ("e", "z"): {"y": 1}}),
        rule_from_names("anchor", f, G, L, A, A, {("v", "b1"): {"one": 1}, ("v", "b2"): {"e": 1}}),
    )


def _closure_cases():
    """The catalog entries at GF(3), the first three buildable rational
    recipes, W(1;1) at GF(7), the one-block Der(F[x]/(x^5)) at GF(5), and
    two lawless instances on which rho(v)(a).w adds what [x, v] and a.v do
    not (on a Lie-Rinehart algebra it adds nothing: rho(v)(a)w = [v, aw] - a[v, w])."""
    cases = [pytest.param(cached(name, "gf3"), id=name) for name in ("e1", "e2", "e3", "ga2", "ga3", "sl2_ga2")]
    rational = itertools.islice(_rational_recipes(), 3)
    return cases + [pytest.param(inst, id=label) for label, inst in rational] + [
        pytest.param(truncated_poly_derivations(7), id="W(1;1)@gf7"),
        pytest.param(truncated_poly_one_block(5, 5), id="Der(F[x]/(x^5))@gf5"),
        pytest.param(action_and_anchor_witnesses(), id="action_and_anchor_witnesses"),
        pytest.param(two_anchor_images(), id="two_anchor_images"),
    ]


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


def _closure_seeds(inst, side):
    """Each seed line of ``side`` as a one-row subspace; the identity part
    and total of each class ideal of decompose_L/A; and for each seed line,
    its sum with the first seed line at the next grade."""
    f, basis = inst.field, getattr(inst, side)
    lines = list(_seed_lines(inst, basis))
    for g, row, pivot in lines:
        seed = from_block_vectors(f, basis, [(g, row)])
        assert seed.blocks[g] == (row,) and seed.pivots[g] == (pivot,), (inst.name, side, g, row)
        yield seed
    for ideal in (decompose_L if side == "L" else decompose_A)(inst).ideals:
        yield ideal.identity_part
        yield ideal.total
    first = {}
    for g, row, _ in lines:
        first.setdefault(g, row)
    grades = sorted(first)
    for g, row, _ in lines:
        h = grades[(grades.index(g) + 1) % len(grades)]
        if h != g:
            yield from_block_vectors(f, basis, [(g, row), (h, first[h])])


@pytest.mark.parametrize("inst", _closure_cases())
def test_closures_equal_the_plain_fixpoint_loop(inst):
    closed, several_blocks = 0, False
    for side, closure_of in (("L", ideal_closure_L), ("A", ideal_closure_A)):
        for seed in _closure_seeds(inst, side):  # L is zero on ga2 and ga3
            assert closure_of(inst, seed) == plain_closure(inst, seed, side), (inst.name, side, seed.to_json())
            closed += 1
            several_blocks |= len(seed.blocks) > 1
    assert closed > 0
    if len(inst.L.grades()) > 1 or len(inst.A.grades()) > 1:
        assert several_blocks, inst.name


def _off_grade_prefixes(inst):
    """The start of the refusal text of each block pair of the four rules
    that ``off_grade`` finds breaking the grade-shift law."""
    prefixes = set()
    for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
        for gu, gv in rule.block_pairs():
            if rule.off_grade(gu, gv, inst.group.mul(gu, gv)):
                prefixes.add(f"rule {rule.name!r} violates the grade-shift law on ({format_grade(gu)}, {format_grade(gv)}):")
    return prefixes


def test_closures_on_wild_mutants_keep_the_plain_loop_or_refuse_or_fill():
    """On tables that break the grading, a spun closure equals the plain
    loop's when that returns.  Where the plain loop refuses, the spin
    refuses too or fills the side before it meets the bad pair; it never
    returns a partial ideal, and each refusal names a pair that breaks
    the law."""
    outcomes = {"equal": 0, "refused by both": 0, "filled": 0}
    for label, inst in recipe_and_catalog_wild_mutants():
        prefixes = _off_grade_prefixes(inst)
        for side, closure_of in (("L", ideal_closure_L), ("A", ideal_closure_A)):
            basis = getattr(inst, side)
            for g, row, pivot in itertools.islice(_seed_lines(inst, basis), 20):
                seed = GradedSubspace._from_rref(inst.field, basis, {g: ((row,), (pivot,))})
                try:
                    expected = plain_closure(inst, seed, side)
                except ToolkitError as exc:
                    expected = exc
                try:
                    got = closure_of(inst, seed)
                except ToolkitError as exc:
                    assert any(str(exc).startswith(prefix) for prefix in prefixes), (label, side, str(exc))
                    assert isinstance(expected, ToolkitError), (label, side, g, row)
                    outcomes["refused by both"] += 1
                    continue
                if isinstance(expected, ToolkitError):
                    assert got == (inst.full_L() if side == "L" else inst.full_A()), (label, side, g, row)
                    outcomes["filled"] += 1
                else:
                    assert got == expected, (label, side, g, row)
                    outcomes["equal"] += 1
    # the split between the last two depends on the order of the operators
    assert outcomes["equal"] == 3920 and outcomes["refused by both"] + outcomes["filled"] == 4104, outcomes
    assert outcomes["refused by both"] and outcomes["filled"], outcomes


def test_closures_refuse_a_seed_from_another_space():
    inst = build("e1", prime_field(5))
    wrong_field = GradedSubspace.full(prime_field(3), inst.L)
    with pytest.raises(ValueError, match="not a subspace of L over gf5"):
        ideal_closure_L(inst, wrong_field)
    with pytest.raises(ValueError, match="not a subspace of A over gf5"):
        ideal_closure_A(inst, inst.full_L())
    with pytest.raises(ValueError, match="not a subspace of L over gf5"):
        ideal_closure_L(inst, inst.full_A())


@pytest.mark.parametrize("inst, L_answer, A_answer", [
    pytest.param(truncated_poly_derivations(13), ("gr_simple", 13), ("not_gr_simple", 2), id="W(1;1)@gf13"),
    pytest.param(truncated_poly_one_block(5, 5), ("gr_simple", 781), ("not_gr_simple", 1), id="Der(F[x]/(x^5))@gf5"),
])
def test_gr_simple_on_larger_blocks(inst, L_answer, A_answer):
    for verdict_of, (status, run) in ((gr_simple_L, L_answer), (gr_simple_A, A_answer)):
        verdict = verdict_of(inst)
        assert (verdict.status, verdict.closures_run) == (status, run), inst.name


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
                assert all(not on_basis(rule, i, j) for i in range(rule.left.dim) for j in range(rule.right.dim))
                pre_checks += 1
                continue
            cert = verdict.certificate
            assert literal(inst, cert) == (True, None), (label, side)
            assert not cert.is_zero() and cert != getattr(inst, f"full_{side}")(), (label, side)
            if side == "L":
                assert cert != reference_kernels(inst)["ker_anchor"], label
            certificates[side] += 1
    assert certificates == {"L": 29, "A": 66} and pre_checks == 68


def test_products_and_closures_multiply_no_grades_of_a_built_rule(monkeypatch):
    # the grade-shift law is decided when a rule is built, so products,
    # whole-block spans, closures and the tightness checks only read it
    instances = [build("e3"), build("sl2_ga2")]
    calls = []
    group_mul = GroupSpec.mul
    monkeypatch.setattr(GroupSpec, "mul", lambda self, a, b: calls.append((a, b)) or group_mul(self, a, b))
    for inst in instances:
        f = inst.field
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            bilinear_image(rule, GradedSubspace.full(f, rule.left), GradedSubspace.full(f, rule.right))
            entry_rows(f, rule.out, [(rule, pair) for pair in sorted(rule.block_pairs())])
        for basis, closure in ((inst.L, ideal_closure_L), (inst.A, ideal_closure_A)):
            for g, row in homogeneous_seeds(inst, basis, 40)[0]:
                closure(inst, from_block_vectors(f, basis, [(g, row)]))
        check_tight(inst)
    assert calls == []
