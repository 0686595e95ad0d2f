from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlr import (
    GradedBasis,
    GradedSubspace,
    GroupSpec,
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
from grlr.catalog import derivation_instance
from grlr.decompose import decompose_A, decompose_L
from grlr.errors import CharacteristicError, GuardError, ToolkitError
from grlr.linear import BilinearRule
from grlr.model import LAWS, verify_grading
from grlr.oracle import (
    TemplateRecipe,
    _guard_enumeration,
    enumerate_graded_ideals_A,
    enumerate_graded_ideals_L,
)
from grlr.simplicity import gr_simple_A, gr_simple_L

from helpers import (
    abelian_pair_instance,
    action_and_anchor_witnesses,
    added_entries,
    cached,
    from_sparse_vectors,
    graded_subspaces,
    ideal_oracle_A,
    ideal_oracle_L,
    integer_instance,
    literal_ideal_test_A,
    literal_ideal_test_L,
    mutate_instance,
    on_basis,
    recipe_and_catalog_instances,
    recipe_and_catalog_wild_mutants,
    reference_derivation_tables,
    reference_grading_violations,
    reference_kernels,
    reference_verify,
    truncated_poly_derivations,
    truncated_poly_one_block,
    wild_mutant,
    witt_2_1_gf3,
)

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


def test_verify_matches_literal_scan_on_larger_blocks():
    # W(2;1)@gf3 has two derivations in each of its nine blocks: many more
    # products per law than any shipped instance, and each law fails on some mutant
    base = witt_2_1_gf3()
    assert (base.L.dim, base.A.dim) == (18, 9) and verify_all(base).passed
    instances = [base] + [mutant(base, seed)[0] for seed in range(5) for mutant in (mutate_instance, wild_mutant)]
    failed = set()
    for inst in instances:
        expected = reference_verify(inst)
        assert [c.to_json() for c in verify_all(inst).checks] == expected, inst.name
        failed.update(c["check"] for c in expected if not c["passed"])
    assert failed >= {name for name, *_ in LAWS}


def test_off_grade_pairs_are_the_block_pairs_of_the_literal_violations():
    # each rule decides the grade-shift law once, when it is built
    off_grade = 0
    for label, inst in recipe_and_catalog_wild_mutants():
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            left, right = rule.left, rule.right
            flagged = {
                (left.grade_of(left.position_of(v["left"])), right.grade_of(right.position_of(v["right"])))
                for v in reference_grading_violations(rule)
            }
            assert rule.off_grade_pairs == flagged, (label, rule.name)
            off_grade += bool(flagged)
    assert off_grade == 621


def test_grading_violations_match_the_literal_scan():
    # one product grade per block pair against one per table entry.  The
    # e3 mutant breaks the law on two bracket block pairs, ((0,0), (1,0))
    # and ((1,0), (0,1)), whose violations interleave in table order
    e3 = added_entries(cached("e3", "gf3"), [
        ("bracket", "l0_2", "l1_1", "l2_2", "1"),
        ("bracket", "l1_1", "l1_2", "l0_1", "1"),
        ("bracket", "l0_1", "l1_1", "l0_2", "1"),
    ])
    assert [(v["left"], v["right"], v["component"]) for v in e3.bracket.grading_violations()] == [
        ("l0_1", "l1_1", "l0_2"), ("l1_1", "l1_2", "l0_1"), ("l0_2", "l1_1", "l2_2"),
    ]
    failing = 0
    for label, inst in recipe_and_catalog_instances() + recipe_and_catalog_wild_mutants() + (("e3~off", e3),):
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            bad = rule.grading_violations()
            assert bad == reference_grading_violations(rule), (label, rule.name)
            failing += bool(bad)
    assert failing == 622  # 621 rules of the wild mutants, and the e3 bracket


# Over Q the law sums run on integer tables scaled by the lcm D of all
# denominators, and a witness is rescaled by D (antisymmetry,
# commutativity) or D**2 (every law with an outer rule).  Integer deltas
# leave D at the instance's own; these carry coprime denominators.
FRACTIONAL_MUTANTS = (
    ("e1", 4, [("bracket", "e", "f", "h", "1/3")],
     {"lie.antisymmetry", "lie.jacobi"}),
    ("e1", 4, [("anchor", "h", "one", "one", "-5/7")],
     {"anchor.derivation", "anchor.homomorphism", "anchor.compatibility"}),
    ("e1", 4, [("bracket", "e", "f", "h", "1/3"), ("anchor", "h", "one", "one", "-5/7")],
     {"lie.antisymmetry", "lie.jacobi", "anchor.derivation", "anchor.homomorphism", "anchor.compatibility"}),
    ("sl2_ga2", 1, [("product", "one", "u", "u", "2/5"), ("action", "u", "e1", "eu", "-3/4")],
     {"assoc.commutativity", "assoc.associativity", "module.associative_action", "anchor.compatibility"}),
    ("sl2_ga2", 1, [("action", "u", "e1", "eu", "-3/4"), ("anchor", "e1", "u", "u", "7/9")],
     {"grading.anchor", "module.associative_action", "anchor.derivation", "anchor.homomorphism",
      "anchor.linearity", "anchor.compatibility"}),
)


@pytest.mark.parametrize("atom, seed, changes, failing", FRACTIONAL_MUTANTS)
def test_fractional_witnesses_over_q_match_literal_scan(atom, seed, changes, failing):
    inst = added_entries(generate_instance(TemplateRecipe(f"{atom}@q+twist:{seed}", atom, "q", (("twist", seed),))),
                         changes)
    got = [c.to_json() for c in verify_all(inst).checks]
    assert got == reference_verify(inst)
    failed = {c["check"]: c["witness"] for c in got if not c["passed"]}
    assert set(failed) == failing
    # a degree-1 or degree-2 law reports a witness value with a denominator
    assert any("/" in str(w.get("value")) for w in failed.values())


# The least nonzero tuple of lie.antisymmetry, assoc.commutativity and
# lie.jacobi has its first argument <= each other argument (< for
# commutativity), so verify_all walks only those tuples (model docstring).
# Each mutant breaks an entry at a non-least permutation or on the
# diagonal; the witness must still name the least tuple (None: passes).
ORBIT_MUTANTS = (
    ("e1", "gf3", [("bracket", "h", "e", "e", "1")], "lie.antisymmetry", ["e", "h"]),
    ("e1", "gf3", [("bracket", "f", "f", "e", "1")], "lie.antisymmetry", ["f", "f"]),  # 2[f,f] != 0
    ("e1", "gf2", [("bracket", "f", "f", "e", "1")], "lie.antisymmetry", None),  # 2[f,f] = 0
    ("sl2_ga2", "gf3", [("product", "u", "one", "u", "1")], "assoc.commutativity", ["one", "u"]),
    ("sl2_ga2", "q", [("product", "u", "u", "one", "1")], "assoc.commutativity", None),  # ab - ba = 0 at a = b
    ("e1", "gf3", [("bracket", "h", "f", "h", "1"), ("bracket", "f", "h", "h", "-1")], "lie.jacobi", ["e", "f", "h"]),
    ("e1", "q", [("bracket", "h", "e", "f", "1")], "lie.jacobi", ["e", "e", "h"]),  # a repeated least argument
)


@pytest.mark.parametrize("name, field_label, changes, law, args", ORBIT_MUTANTS)
def test_symmetric_laws_name_the_least_tuple_of_each_orbit(name, field_label, changes, law, args):
    inst = added_entries(integer_instance(name, field_label), changes)
    got = [c.to_json() for c in verify_all(inst).checks]
    assert got == reference_verify(inst)
    check = next(c for c in got if c["check"] == law)
    assert check["passed"] == (args is None)
    if args is not None:
        assert check["witness"]["args"] == args


@st.composite
def random_entries(draw, inst):
    """1 to 6 (rule, left, right, output, delta) changes for ``added_entries``,
    at any positions, off-grade included, with a nonzero delta of the field."""
    f = inst.field
    rules = [r for r in (inst.bracket, inst.product, inst.action, inst.anchor)
             if r.left.dim and r.right.dim and r.out.dim]
    changes = []
    for _ in range(draw(st.integers(1, 6))):
        rule = draw(st.sampled_from(rules))
        i, j, k = (draw(st.integers(0, b.dim - 1)) for b in (rule.left, rule.right, rule.out))
        if f.p is None:
            delta = f"{draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))}/{draw(st.integers(1, 4))}"
        else:
            delta = str(draw(st.integers(1, f.p - 1)))
        changes.append((rule.name, rule.left.name_of(i), rule.right.name_of(j), rule.out.name_of(k), delta))
    return changes


@pytest.mark.parametrize("field_label", ["gf2", "gf3", "q"])
@pytest.mark.parametrize("name", ["e1", "ga2", "sl2_ga2"])
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_verify_matches_literal_scan_on_random_entries(name, field_label, data):
    base = integer_instance(name, field_label)
    inst = added_entries(base, data.draw(random_entries(base)))
    assert [c.to_json() for c in verify_all(inst).checks] == reference_verify(inst)


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
    span_e = from_sparse_vectors(f, e1.L, [{0: f.one}])
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
    assert is_graded_ideal_A(e2, from_sparse_vectors(f2, e2.A, [x2]))[0]
    assert is_graded_ideal_A(e2, from_sparse_vectors(f2, e2.A, [x, x2]))[0]
    ok, wit = is_graded_ideal_A(e2, from_sparse_vectors(f2, e2.A, [x]))
    assert not ok and wit["law"] == "A.J <= J"


def _lattice_admitted(inst) -> bool:
    try:
        for side in ("L", "A"):
            _guard_enumeration(inst.field, getattr(inst, side).dim, "graded ideal")
    except GuardError:
        return False
    return True


def test_ideal_predicates_match_literal_loops():
    # verdicts and witnesses must equal those of the literal loops in helpers,
    # and each verdict that of the vector-by-vector oracle and of the lattice
    chosen = [cached(name, "gf3") for name in ("e1", "e2", "e3")]
    for recipe in default_recipe_space():
        if len(chosen) == 3 + 10:
            break
        try:
            inst = generate_instance(recipe)
        except ToolkitError:
            continue
        if _lattice_admitted(inst):
            chosen.append(inst)
    assert len(chosen) == 13
    # none of those fails a law after [L, I] <= I; this one does
    chosen.append(action_and_anchor_witnesses())
    verdicts = set()
    for inst in chosen:
        for side, fast, literal, oracle, lattice in (
            ("L", is_graded_ideal_L, literal_ideal_test_L, ideal_oracle_L, enumerate_graded_ideals_L),
            ("A", is_graded_ideal_A, literal_ideal_test_A, ideal_oracle_A, enumerate_graded_ideals_A),
        ):
            ideals = lattice(inst)
            for sub in graded_subspaces(inst.field, getattr(inst, side)):
                got = fast(inst, sub)
                where = (inst.name, side, sub.to_json())
                assert got == literal(inst, sub), where
                # the verdict against two independent computations: products
                # vector by vector through contains_sparse, and the lattice
                assert got[0] == oracle(inst, sub) == (sub in ideals), where
                verdicts.add((side, got[1]["law"] if got[1] else None))
    assert verdicts == {("L", None), ("L", "[L, I] <= I"), ("L", "A.I <= I"), ("L", "rho(I)(A)L <= I"),
                        ("A", None), ("A", "A.J <= J")}


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


@pytest.mark.parametrize("p", [5, 7])
def test_witt_algebra_from_truncated_polynomials(p):
    # Der(F[x]/(x^p)) over GF(p) is W(1;1), spanned by x^(k+1) d/dx at grade
    # k mod p: one derivation per grade, simple for p > 2; A has the ideal (x)
    inst = truncated_poly_derivations(p)
    assert inst.L.dim == p
    assert all(inst.L.block_dim((g,)) == 1 for g in range(p))
    report = verify_all(inst)
    assert report.passed, [c.to_json() for c in report.failed_checks()]
    assert gr_simple_L(inst).status == "gr_simple"
    assert gr_simple_A(inst).status == "not_gr_simple"


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
    assert on_basis(e2.anchor, e2.L.position_of("l0"), e2.A.position_of("a1")) == {e2.A.position_of("a1"): 1}
    assert on_basis(e2.anchor, e2.L.position_of("l0"), e2.A.position_of("a2")) == {e2.A.position_of("a2"): 2}
    assert on_basis(e2.anchor, e2.L.position_of("l1"), e2.A.position_of("a1")) == {e2.A.position_of("a2"): 1}
    assert on_basis(e2.anchor, e2.L.position_of("l2"), e2.A.position_of("a1")) == {e2.A.position_of("a0"): 1}
    assert on_basis(e2.anchor, e2.L.position_of("l2"), e2.A.position_of("a2")) == {e2.A.position_of("a1"): 2}
    assert on_basis(e2.bracket, e2.L.position_of("l0"), e2.L.position_of("l1")) == {e2.L.position_of("l1"): 1}
    assert on_basis(e2.bracket, e2.L.position_of("l1"), e2.L.position_of("l2")) == {e2.L.position_of("l0"): 1}
    assert on_basis(e2.action, e2.A.position_of("a1"), e2.L.position_of("l2")) == {e2.L.position_of("l0"): 1}


def derivation_tables(field, group, A, product):
    """``derivation_instance``'s bracket and action tables, or its refusal text."""
    try:
        inst = derivation_instance("der", field, group, A, product)
    except CharacteristicError as exc:
        return str(exc)
    return inst.bracket.table, inst.action.table


@pytest.mark.parametrize("make", [
    pytest.param(lambda: cached("e2"), id="e2"),
    pytest.param(lambda: cached("e3"), id="e3"),
    *(pytest.param(lambda p=p: truncated_poly_derivations(p), id=f"W(1;1)@gf{p}") for p in (5, 7, 13)),
    pytest.param(witt_2_1_gf3, id="W(2;1)@gf3"),
    pytest.param(lambda: truncated_poly_one_block(5, 5), id="Der(F[x]/(x^5))@gf5"),
])
def test_derivation_tables_match_the_dense_reader(make):
    # e3 is a direct sum; its A is F[x]/(x^3) + F[y]/(y^3), whose derivations
    # are read here afresh
    inst = make()
    args = (inst.field, inst.group, inst.A, inst.product)
    tables = derivation_tables(*args)
    assert not isinstance(tables, str), tables
    assert tables == reference_derivation_tables(*args)


@st.composite
def graded_products(draw):
    """A commutative product on dim A <= 4 over GF(2), GF(3), GF(5) or Q,
    each b_i b_j a random vector of the block at grade(b_i) grade(b_j)."""
    f = draw(st.sampled_from([prime_field(2), prime_field(3), prime_field(5), RATIONALS]))
    G = draw(st.sampled_from([GroupSpec(0), GroupSpec(0, (2,)), GroupSpec(0, (3,)), GroupSpec(1)]))
    grade = st.tuples(st.integers(-1, 2)) if G.free_rank else st.tuples(*(st.integers(0, m - 1) for m in G.torsion))
    A = GradedBasis([(f"a{k}", draw(grade)) for k in range(draw(st.integers(1, 4)))])
    values = [0, 0, 1, 2] if f.p else [0, 0, 1, -1, Fraction(1, 2)]
    table = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            img = {k: f.from_int(c) if isinstance(c, int) else c
                   for k in A.positions_at(G.mul(A.grade_of(i), A.grade_of(j)))
                   if (c := draw(st.sampled_from(values)))}
            table[(i, j)] = table[(j, i)] = img
    return f, G, A, BilinearRule("product", f, G, A, A, A, table)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(graded_products())
def test_derivation_tables_and_refusals_match_the_dense_reader(case):
    assert derivation_tables(*case) == reference_derivation_tables(*case)


def test_derivations_of_a_nonassociative_product_refuse_the_action():
    # a0 a0 = 2 a1 and a1 a1 = a0 over GF(3), all at grade 0: commutative but
    # not associative, so a0 times a derivation need not be one
    f, G = prime_field(3), GroupSpec(0)
    A = GradedBasis([("a0", ()), ("a1", ())])
    product = BilinearRule("product", f, G, A, A, A, {(0, 0): {1: 2}, (1, 1): {0: 1}})
    with pytest.raises(CharacteristicError, match=r"^a0\*l0 is not a combination of homogeneous derivations$"):
        derivation_instance("nonassociative", f, G, A, product)


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
    span_ef = from_sparse_vectors(f, e1.L, [{0: f.one}, {1: f.one}])
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


def test_kernels_match_the_reference_kernel():
    kernels = {"center": center, "ann_L_of_A": ann_L_of_A, "ann_A": ann_A, "ker_anchor": ker_anchor}
    nonzero = 0
    # on the last instance L is abelian, so only rho(v) = 0 cuts the center down
    witnesses = action_and_anchor_witnesses()
    for label, inst in recipe_and_catalog_instances() + recipe_and_catalog_wild_mutants() + (("witnesses", witnesses),):
        for name, want in reference_kernels(inst).items():
            got = kernels[name](inst)
            assert (got.blocks, got.pivots) == (want.blocks, want.pivots), (label, name)
            nonzero += not got.is_zero()
    assert nonzero > 300
    assert center(witnesses).dim == 1 < witnesses.L.dim
