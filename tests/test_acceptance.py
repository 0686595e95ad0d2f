"""Acceptance battery for the toolkit.

Each test prints one summary line (PASS/FAIL with timing) directly to the
real stdout so the battery's outcome is visible even under capture.  The
timing limits are part of the acceptance bar and are asserted, not only
reported.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time

from grlr import (
    TemplateRecipe,
    check_hypotheses5,
    check_tight,
    decompose_A,
    decompose_L,
    default_recipe_space,
    enumerate_connections,
    enumerate_graded_ideals_A,
    enumerate_graded_ideals_L,
    fine_decompose,
    generate_instance,
    gr_simple_A,
    gr_simple_L,
    is_graded_ideal_A,
    is_graded_ideal_L,
    ker_anchor,
    lambda_connected,
    pair_ideals,
    sigma_connected,
    supports,
    verify_all,
)
from grlr import oracle
from grlr.errors import ToolkitError
from grlr.linear import bilinear_image

from helpers import cached, mutate_instance

CATALOG_NAMES = ["e1", "e2", "e3", "ga2", "ga3", "sl2_ga2"]


def _line(capsys, number: int, label: str, ok: bool, elapsed: float, limit: float | None) -> None:
    verdict = "PASS" if ok else "FAIL"
    timing = f"({elapsed:.2f}s, limit {limit:.0f}s)" if limit else f"({elapsed:.2f}s)"
    with capsys.disabled():
        print(f"[criterion {number}] {label}: {verdict} {timing}", flush=True)


def _all_generated() -> list[tuple[str, object]]:
    out = []
    for recipe in default_recipe_space():
        try:
            out.append((recipe.label, generate_instance(recipe)))
        except ToolkitError:
            pass
    return out


def test_criterion_1_axiom_suite_and_mutations(capsys):
    start = time.perf_counter()
    problems = []
    for name in ("e1", "e2", "e3"):
        report = verify_all(cached(name))
        groups = {c.name.split(".")[0] for c in report.checks}
        if groups != {"grading", "lie", "assoc", "module", "anchor"}:
            problems.append(f"{name}: verifier groups {sorted(groups)}")
        if not report.passed:
            problems.append(f"{name}: {report.failed_checks()[0].to_json()}")
    base = cached("e2")
    for seed in range(20):
        mutated, where = mutate_instance(base, seed)
        rep = verify_all(mutated)
        if rep.passed:
            problems.append(f"mutation #{seed} ({where}) passed silently")
        elif rep.failed_checks()[0].witness is None:
            problems.append(f"mutation #{seed} has no witness")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 5.0
    _line(capsys, 1, "axiom suite and 20-mutation battery", ok, elapsed, 5.0)
    assert ok, problems or f"too slow: {elapsed:.2f}s"


def test_criterion_2_connection_partitions_match_enumeration(capsys):
    start = time.perf_counter()
    instances = [(n, cached(n)) for n in CATALOG_NAMES]
    for recipe in default_recipe_space():
        if len(instances) >= 6 + 50:
            break
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        if len(supports(inst).multipliers()) <= 6:
            instances.append((recipe.label, inst))
    mismatches = []
    pairs = 0
    for label, inst in instances:
        sup = supports(inst)
        for side, base, connect in (
            ("sigma", sup.sigma, sigma_connected),
            ("lambda", sup.lam, lambda_connected),
        ):
            for g in sorted(base):
                for h in sorted(base):
                    verdict, _ = connect(sup, g, h)
                    listed = enumerate_connections(sup, g, h, side)
                    pairs += 1
                    if verdict != bool(listed):
                        mismatches.append((label, side, g, h))
    elapsed = time.perf_counter() - start
    ok = len(instances) == 56 and not mismatches and elapsed < 30.0
    _line(capsys, 2, f"search equals path enumeration on {len(instances)} instances / {pairs} pairs",
          ok, elapsed, 30.0)
    assert ok, mismatches or f"{len(instances)} instances, {elapsed:.2f}s"


def test_criterion_3_class_ideals_pass_predicates(capsys):
    start = time.perf_counter()
    bad = []
    for label, inst in [(n, cached(n)) for n in CATALOG_NAMES] + _all_generated():
        for ci in decompose_L(inst).ideals:
            if not is_graded_ideal_L(inst, ci.total)[0]:
                bad.append((label, "L", ci.label_json()))
        for ci in decompose_A(inst).ideals:
            if not is_graded_ideal_A(inst, ci.total)[0]:
                bad.append((label, "A", ci.label_json()))
    elapsed = time.perf_counter() - start
    ok = not bad
    _line(capsys, 3, "every class ideal verifies as a graded ideal", ok, elapsed, None)
    assert ok, bad


def test_criterion_4_distinct_class_orthogonality(capsys):
    start = time.perf_counter()
    e3 = cached("e3")
    bad = []
    L = decompose_L(e3).ideals
    A = decompose_A(e3).ideals
    if not bilinear_image(e3.bracket, L[0].total, L[1].total).is_zero():
        bad.append(("e3", "bracket"))
    if not bilinear_image(e3.product, A[0].total, A[1].total).is_zero():
        bad.append(("e3", "product"))
    multi = 0
    for label, inst in _all_generated():
        reps = [decompose_L(inst), decompose_A(inst)]
        if all(len(r.ideals) < 2 for r in reps):
            continue
        multi += 1
        for rep in reps:
            for fact in rep.orthogonal:
                if not (fact["product_zero"] and fact["intersection_zero"]):
                    bad.append((label, rep.side, fact))
    elapsed = time.perf_counter() - start
    ok = not bad and multi > 0
    _line(capsys, 4, f"cross-class products vanish on e3 and {multi} generated multi-class instances",
          ok, elapsed, None)
    assert ok, bad


def test_criterion_5_span_everywhere_directness_on_corollary_cases(capsys):
    start = time.perf_counter()
    bad = []
    for label, inst in [(n, cached(n)) for n in CATALOG_NAMES] + _all_generated():
        if not decompose_L(inst).span_ok:
            bad.append((label, "L span"))
        if not decompose_A(inst).span_ok:
            bad.append((label, "A span"))
    for name in ("e2", "e3"):
        inst = cached(name)
        if not decompose_L(inst).direct:
            bad.append((name, "L direct"))
        if not decompose_A(inst).direct:
            bad.append((name, "A direct"))
    elapsed = time.perf_counter() - start
    ok = not bad
    _line(capsys, 5, "span holds everywhere; e2/e3 decompose directly", ok, elapsed, None)
    assert ok, bad


def test_criterion_6_tightness_and_pairing(capsys):
    start = time.perf_counter()
    bad = []
    rep2 = check_tight(cached("e2"))
    if not (rep2.tight and all(rep2.conditions.values()) and len(rep2.conditions) == 7):
        bad.append(("e2", rep2.to_json()))
    rep1 = check_tight(cached("e1"))
    failing = sorted(k for k, v in rep1.conditions.items() if not v)
    if failing != ["A_identity_generated"]:
        bad.append(("e1", failing))
    for name in ("e2", "e3"):
        inst = cached(name)
        L, A = decompose_L(inst), decompose_A(inst)
        pairing = pair_ideals(inst, L, A, check_tight(inst).tight)
        if pairing.contradiction or not all(p["unique"] for p in pairing.pairs):
            bad.append((name, pairing.to_json()))
        if len(pairing.pairs) != len(L.ideals):
            bad.append((name, "pairing length"))
    elapsed = time.perf_counter() - start
    ok = not bad
    _line(capsys, 6, "tightness verdicts exact; pairing unique on tight instances", ok, elapsed, None)
    assert ok, bad


def _admissible_for_enumeration(inst) -> bool:
    if inst.field.kind != "prime":
        return False
    bound = oracle.MAX_DIM_SMALL_P if inst.field.p <= 3 else oracle.MAX_DIM_LARGE_P
    return inst.L.dim <= bound and inst.A.dim <= bound


def _lattice_simple_L(inst) -> bool:
    lattice = enumerate_graded_ideals_L(inst)
    ker = ker_anchor(inst)
    nontrivial = [s for s in lattice if not s.is_zero() and s.dim != inst.L.dim and s != ker]
    products_ok = (
        not bilinear_image(inst.bracket, inst.full_L(), inst.full_L()).is_zero()
        and not bilinear_image(inst.product, inst.full_A(), inst.full_A()).is_zero()
        and not bilinear_image(inst.action, inst.full_A(), inst.full_L()).is_zero()
    )
    return products_ok and not nontrivial


def _lattice_simple_A(inst) -> bool:
    lattice = enumerate_graded_ideals_A(inst)
    nontrivial = [s for s in lattice if not s.is_zero() and s.dim != inst.A.dim]
    return not bilinear_image(inst.product, inst.full_A(), inst.full_A()).is_zero() and not nontrivial


def test_criterion_7_simplicity_matches_lattice_enumeration(capsys):
    start = time.perf_counter()
    chosen = [("e1@gf5", cached("e1", purpose="oracle")), ("e2", cached("e2")), ("e3", cached("e3"))]
    for recipe in default_recipe_space():
        if len(chosen) >= 23:
            break
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        if _admissible_for_enumeration(inst):
            chosen.append((recipe.label, inst))
    bad = []
    for label, inst in chosen:
        vL, vA = gr_simple_L(inst), gr_simple_A(inst)
        if vL.status == "undecided" or vA.status == "undecided":
            bad.append((label, "undecided on a prime field"))
            continue
        if (vL.status == "gr_simple") != _lattice_simple_L(inst):
            bad.append((label, "L", vL.status))
        if (vA.status == "gr_simple") != _lattice_simple_A(inst):
            bad.append((label, "A", vA.status))
    # the pinned individual verdicts
    if gr_simple_L(cached("e1", purpose="oracle")).status != "gr_simple":
        bad.append(("e1", "expected gr_simple"))
    if gr_simple_L(cached("e2")).status != "gr_simple":
        bad.append(("e2 L", "expected gr_simple"))
    va = gr_simple_A(cached("e2"))
    if va.status != "not_gr_simple" or sorted(va.certificate.grades()) != [(1,), (2,)]:
        bad.append(("e2 A", va.status))
    v3 = gr_simple_L(cached("e3"))
    class_totals = [ci.total for ci in decompose_L(cached("e3")).ideals]
    if v3.status != "not_gr_simple" or not any(v3.certificate == t for t in class_totals):
        bad.append(("e3", v3.status))
    elapsed = time.perf_counter() - start
    ok = not bad and len(chosen) == 23 and elapsed < 120.0
    _line(capsys, 7, f"verdicts match ideal lattices on {len(chosen)} instances", ok, elapsed, 120.0)
    assert ok, bad or f"{len(chosen)} instances, {elapsed:.2f}s"


def _oracle_variant(recipe: TemplateRecipe) -> TemplateRecipe:
    """The same construction rebuilt over GF(3) so the enumeration guards
    admit it; field-carry steps drop out, sums and twists are kept."""
    steps = tuple(step for step in recipe.steps if step[0] != "to")
    return TemplateRecipe(recipe.label + "#oracle", recipe.atom, "gf3", steps)


def test_criterion_8_hypothesis_pipeline(capsys):
    from grlr import hypothesis_search

    start = time.perf_counter()
    bad = []
    rep1 = check_hypotheses5(cached("e1"))
    if rep1.conditions["tight"] or rep1.witnesses.get("tight") != "failing: A_identity_generated":
        bad.append(("e1", rep1.witnesses))
    rep2 = check_hypotheses5(cached("e2"))
    if rep2.conditions["g_multiplicative"] or rep2.witnesses.get("g_multiplicative") != "[L_1, L_1] = 0":
        bad.append(("e2", rep2.witnesses))
    rep3 = check_hypotheses5(cached("e3"))
    if rep3.conditions["g_multiplicative"] or rep3.witnesses.get("g_multiplicative") != "[L_0,1, L_0,1] = 0":
        bad.append(("e3", rep3.witnesses))

    space = default_recipe_space()
    search = hypothesis_search(space)
    report = search.to_json()
    if report["examined"] != 200:
        bad.append(("examined", report["examined"]))
    if len(search.survivors) != 65:
        bad.append(("survivors", len(search.survivors)))
    if not all(entry["reason"] for entry in report["rejections"]):
        bad.append(("rejections", "missing reason"))

    by_label = {r.label: r for r in space}
    for label, _ in search.survivors:
        variant = generate_instance(_oracle_variant(by_label[label]))
        if not check_hypotheses5(variant).all_hold:
            bad.append((label, "variant loses hypotheses"))
            continue
        fine = fine_decompose(variant)
        if not fine.refined:
            bad.append((label, "variant not refined"))
            continue
        for summand in fine.summands:
            if summand.verdict.status != "gr_simple":
                bad.append((label, summand.side, summand.verdict.status))
            if summand.restricted_verified is False:
                bad.append((label, summand.side, "restriction fails verification"))
        one = variant.group.identity()
        for lattice in (enumerate_graded_ideals_L(variant), enumerate_graded_ideals_A(variant)):
            for sub in lattice:
                if not sub.is_zero() and set(sub.grades()) == {one}:
                    bad.append((label, "nonzero graded ideal inside the identity block"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    _line(capsys, 8, f"gate witnesses exact; 200-recipe search; {len(search.survivors)} survivors confirmed",
          ok, elapsed, 300.0)
    assert ok, bad or f"too slow: {elapsed:.2f}s"


def test_criterion_9_deterministic_cli_output(capsys):
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "grlr", "decompose", "e3", "--json"]
    first = subprocess.run(cmd, capture_output=True, timeout=60)
    second = subprocess.run(cmd, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and json.loads(first.stdout.decode())["instance"] == "e3"
    )
    _line(capsys, 9, "two decompose runs emit byte-identical output", ok, elapsed, None)
    assert ok, (first.returncode, second.returncode, len(first.stdout), len(second.stdout))
