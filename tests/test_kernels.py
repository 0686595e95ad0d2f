"""Property tests pinning the unchecked kernels to checked references.

``GroupSpec.mul``/``inv`` and the ``Field`` arithmetic run on trusted
values without validating them; the references below are the checked
versions (validate every operand, then compute and canonicalise), so any
shortcut that changes a result on canonical inputs fails here.  Grades
and scalars are validated where they enter the program instead, which
the boundary tests at the end pin.
"""
from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlr import AlgebraInstance, GradedBasis, GradedSubspace, GroupSpec, build
from grlr.cli import main
from grlr.errors import ScalarParseError
from grlr.fields import MODULUS_LIMIT, RATIONALS, Field, _is_prime, parse_field_label, prime_field
from grlr.linear import BilinearRule
from grlr.simplicity import _seed_lines

# derandomized, and no example database, so every run tests the same cases
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

GROUPS = [
    GroupSpec(1),
    GroupSpec(3),
    GroupSpec(0, (4,)),
    GroupSpec(0, (2, 3)),
    GroupSpec(1, (2,)),
    GroupSpec(2, (3, 5)),
]

PRIMES = [2, 3, 5, 7, 13, 101, 1_000_003, 1_000_000_000_000_000_003]


# ---------------------------------------------------------------------------
# grades


def canonical_grades(G: GroupSpec):
    free = st.tuples(*[st.integers(-(10**12), 10**12) for _ in range(G.free_rank)])
    tors = st.tuples(*[st.integers(0, m - 1) for m in G.torsion])
    return st.builds(lambda f, t: f + t, free, tors)


def ref_mul(G: GroupSpec, a, b):
    G.check(a), G.check(b)
    return G.reduce(x + y for x, y in zip(a, b))


def ref_inv(G: GroupSpec, a):
    G.check(a)
    return G.reduce(-x for x in a)


@st.composite
def group_and_grades(draw, groups=GROUPS):
    G = draw(st.sampled_from(groups))
    grades = canonical_grades(G)
    return G, draw(grades), draw(grades)


@PROPERTY
@given(group_and_grades())
def test_group_kernels_match_checked_reference(case):
    G, a, b = case
    assert G.mul(a, b) == ref_mul(G, a, b)
    assert G.inv(a) == ref_inv(G, a)
    G.check(G.mul(a, b)), G.check(G.inv(a))


@PROPERTY
@given(group_and_grades([G for G in GROUPS if not G.torsion]))
def test_free_only_kernels_add_every_coordinate(case):
    G, a, b = case
    assert G.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert G.inv(a) == tuple(-x for x in a)


@PROPERTY
@given(group_and_grades([G for G in GROUPS if G.torsion and G.free_rank]))
def test_mixed_kernels_keep_free_sum_and_reduce_torsion(case):
    G, a, b = case
    r = G.free_rank
    prod = G.mul(a, b)
    assert prod[:r] == tuple(x + y for x, y in zip(a[:r], b[:r]))
    assert prod[r:] == tuple((x + y) % m for x, y, m in zip(a[r:], b[r:], G.torsion))
    assert G.mul(a, G.inv(a)) == G.identity()


# ---------------------------------------------------------------------------
# scalars


def ref_op(F: Field, op: str, *args):
    """The checked arithmetic: validate operands, compute, canonicalise."""
    for x in args:
        F.check(x)
    rational = F.kind == "rational"
    canon = (lambda v: v) if rational else (lambda v: v % F.p)
    if op == "add":
        return canon(args[0] + args[1])
    if op == "neg":
        return canon(-args[0])
    if op == "sub":
        return canon(args[0] + canon(-args[1]))
    if op == "mul":
        return canon(args[0] * args[1])
    if op == "inv":
        return Fraction(1) / args[0] if rational else pow(args[0], -1, F.p)
    if op == "div":
        inv = Fraction(1) / args[1] if rational else pow(args[1], -1, F.p)
        return canon(args[0] * inv)
    if op == "is_zero":
        return args[0] == 0
    raise AssertionError(op)


@st.composite
def field_and_scalars(draw):
    if draw(st.booleans()):
        F = RATIONALS
        scalar = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    else:
        F = prime_field(draw(st.sampled_from(PRIMES)))
        scalar = st.integers(0, F.p - 1)
    return F, draw(scalar), draw(scalar)


@PROPERTY
@given(field_and_scalars())
def test_field_kernels_match_checked_reference(case):
    F, a, b = case
    for op, args in (("add", (a, b)), ("neg", (a,)), ("sub", (a, b)), ("mul", (a, b)), ("is_zero", (a,))):
        got = getattr(F, op)(*args)
        assert got == ref_op(F, op, *args), (F, op, args)
        if op != "is_zero":
            F.check(got)
    for op, args in (("inv", (b,)), ("div", (a, b))):
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                getattr(F, op)(*args)
        else:
            got = getattr(F, op)(*args)
            assert got == ref_op(F, op, *args) and F.check(got) == got


def test_kernel_results_are_exact_types():
    assert type(RATIONALS.sub(Fraction(1), Fraction(3))) is Fraction
    assert RATIONALS.is_zero(Fraction(0)) and not RATIONALS.is_zero(Fraction(1, 3))
    F = prime_field(7)
    assert F.sub(2, 5) == 4 and F.neg(0) == 0 and F.is_zero(0)


# ---------------------------------------------------------------------------
# primality of field moduli


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division_below_5000():
    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 1105, 1729, 2047, 3215031751])
def test_pseudoprimes_rejected(n):
    # Carmichael numbers, a strong pseudoprime to base 2 and one to bases 2..7
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        Field("prime", n)
    with pytest.raises(ScalarParseError):
        parse_field_label(f"gf{n}")


def test_large_primes_accepted():
    for p in (2**31 - 1, 2**61 - 1, 1_000_000_000_000_000_003):
        assert prime_field(p).p == p


def test_moduli_at_or_above_the_bound_are_refused():
    # MODULUS_LIMIT itself passes all 13 bases but is composite
    for n in (MODULUS_LIMIT, 2**89 - 1, 10**30):
        with pytest.raises(ScalarParseError):
            Field("prime", n)


def _timed_main(argv) -> tuple[int, float]:
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_large_modulus_label_finishes_fast(capsys):
    for label in ("gf1000000000000000003", "gf1000000000000000001", f"gf{10**30}"):
        code, took = _timed_main(["verify", "e1", "--field", label])
        assert code in (0, 2) and took < 1.0, (label, code, took)
    capsys.readouterr()


def test_large_modulus_in_a_file_finishes_fast(tmp_path, capsys):
    p = 1_000_000_000_000_000_003
    doc = {
        "name": "big",
        "group": {"free_rank": 1, "torsion": []},
        "L": [{"name": "v", "grade": [1]}],
        "A": [{"name": "one", "grade": [0]}],
        "product": [{"left": "one", "right": "one", "value": [["one", "1"]]}],
        "action": [{"left": "one", "right": "v", "value": [["v", "1"]]}],
    }
    for field in (f"gf{p}", {"kind": "prime", "p": p}, {"kind": "prime", "p": 10**30}):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(doc, field=field)))
        code, took = _timed_main(["verify", str(path)])
        assert code in (0, 2) and took < 1.0, (field, code, took)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# lazy projective points


def _projective_points_list(field: Field, dim: int) -> list:
    """The eager enumeration the generator replaced, kept as a reference."""
    points: list = []

    def rec(prefix, lead_placed):
        if len(prefix) == dim:
            if lead_placed:
                points.append(tuple(prefix))
            return
        if not lead_placed:
            rec(prefix + [field.zero], False)
            rec(prefix + [field.one], True)
        else:
            for x in field.elements():
                rec(prefix + [x], True)

    rec([], False)
    return points


def _one_block(field: Field, dim: int) -> tuple[SimpleNamespace, GradedBasis]:
    return SimpleNamespace(field=field), GradedBasis([(f"x{i}", (0,)) for i in range(dim)])


@pytest.mark.parametrize("p, dim", [(2, 1), (2, 3), (3, 3), (5, 2), (7, 3)])
def test_projective_points_same_as_eager_list(p, dim):
    F = prime_field(p)
    lines = list(_seed_lines(*_one_block(F, dim)))
    assert [row for _, row, _, _ in lines] == _projective_points_list(F, dim)
    assert all(row[pivot] == 1 and not any(row[:pivot]) for _, row, pivot, _ in lines)
    assert len(lines) == (p**dim - 1) // (p - 1)
    assert all(draws == 1 for *_, draws in lines)  # each point is its own seed


def test_projective_points_are_lazy():
    gen = _seed_lines(*_one_block(prime_field(1_000_003), 3))
    assert not isinstance(gen, list)
    assert [row for _, row, _, _ in itertools.islice(gen, 3)] == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]


def _largest_prime_below(n: int) -> int:
    return next(q for q in range(n - 1, 1, -1) if _is_prime(q))


@pytest.mark.parametrize("p, dim", [(101, 4), (1_000_003, 3), (_largest_prime_below(MODULUS_LIMIT), 2)])
def test_seed_cap_stops_point_generation(p, dim):
    # a 4-dim GF(101) block has 1.04M points, a 3-dim GF(1000003) one 10^12;
    # the largest admissible prime must not be listed either
    start = time.perf_counter()
    lines = list(itertools.islice(_seed_lines(*_one_block(prime_field(p), dim)), 20_001))
    assert time.perf_counter() - start < 2.0
    assert len(lines) == 20_001


# ---------------------------------------------------------------------------
# boundary checks on grades


def _rule(group: GroupSpec, basis: GradedBasis, name: str = "bracket") -> BilinearRule:
    return BilinearRule(name, RATIONALS, group, basis, basis, basis, {})


@pytest.mark.parametrize(
    "group, grade, match",
    [(GroupSpec(0, (4,)), (4,), "canonical"), (GroupSpec(0, (4,)), (1, 0), "length"), (GroupSpec(2), (1,), "length")],
)
def test_rule_rejects_bad_basis_grades(group, grade, match):
    basis = GradedBasis([("x", grade)])
    with pytest.raises(ValueError, match=match):
        _rule(group, basis)


@pytest.mark.parametrize("grade", [(True,), (2.0,)])
def test_grades_with_coordinates_that_are_not_ints_are_refused(grade):
    # (True,) == (1,) and (2.0,) == (2,), so both passed as canonical, and
    # x at (True,) shared one block with y at (1,)
    with pytest.raises(ValueError, match="not an int"):
        GroupSpec(1).check(grade)
    with pytest.raises(ValueError, match="not an int"):
        _rule(GroupSpec(1), GradedBasis([("x", grade), ("y", (1,))]))


@pytest.mark.parametrize("grade", [(True,), (2.0,), (1, False)])
def test_graded_basis_refuses_grade_coordinates_that_are_not_ints(grade):
    # the basis alone once kept x at (True,) in one block with y at (1,), and
    # format_grade printed True; it is refused in GroupSpec.check's words
    with pytest.raises(ValueError) as basis_err:
        GradedBasis([("y", (1,) * len(grade)), ("x", grade)])
    with pytest.raises(ValueError) as group_err:
        GroupSpec(len(grade)).check(grade)
    assert str(basis_err.value) == str(group_err.value) == f"grade {grade!r} has a coordinate that is not an int"


@pytest.mark.parametrize("table", [
    {(0.9, 1.2): {1.7: RATIONALS.one}},  # was stored as {(0, 1): {1: 1}}
    {(0, True): {1: RATIONALS.one}},
    {(0, 1): {1.0: RATIONALS.one}},
    {(0, "1"): {1: RATIONALS.one}},
    {(0, 1): {0.5: RATIONALS.zero}},  # refused before its zero coefficient is dropped
])
def test_rule_refuses_table_positions_that_are_not_ints(table):
    basis = GradedBasis([("x", (0,)), ("y", (1,))])
    with pytest.raises(ValueError, match="^rule 'bracket': table position .* is not made of ints$"):
        BilinearRule("bracket", RATIONALS, GroupSpec(1), basis, basis, basis, table)


@pytest.mark.parametrize(
    "rule_group, group, grade, match",
    [(GroupSpec(0, (8,)), GroupSpec(0, (4,)), (4,), "canonical"), (GroupSpec(1), GroupSpec(2), (1,), "length")],
)
def test_instance_rejects_bad_basis_grades(rule_group, group, grade, match):
    # the rules are valid over rule_group; the instance's own group is not
    L = GradedBasis([("x", grade)])
    A = GradedBasis([("one", group.identity()[: rule_group.rank])])
    with pytest.raises(ValueError, match=match):
        AlgebraInstance("bad", RATIONALS, group, L, A, *_empty_rules(rule_group, L, A))


def _empty_rules(group: GroupSpec, L: GradedBasis, A: GradedBasis) -> list[BilinearRule]:
    return [
        BilinearRule(n, RATIONALS, group, l, r, o, {})
        for n, (l, r, o) in (("bracket", (L, L, L)), ("product", (A, A, A)), ("action", (A, L, L)), ("anchor", (L, A, A)))
    ]


def test_instance_rejects_rules_over_another_field():
    # e1's GF(5) tables read over GF(3) would fail antisymmetry and Jacobi
    e1 = build("e1", prime_field(5))
    rules = [e1.bracket, e1.product, e1.action, e1.anchor]
    with pytest.raises(ValueError, match="^rule 'bracket' is over another field or grading group$"):
        AlgebraInstance("e1", prime_field(3), e1.group, e1.L, e1.A, *rules)


def test_instance_rejects_rules_over_another_group():
    # (1,) and (0,) are canonical grades of both Z/8 and Z/4, so the bases pass
    L = GradedBasis([("x", (1,))])
    A = GradedBasis([("one", (0,))])
    rules = _empty_rules(GroupSpec(0, (8,)), L, A)
    with pytest.raises(ValueError, match="^rule 'bracket' is over another field or grading group$"):
        AlgebraInstance("bad", RATIONALS, GroupSpec(0, (4,)), L, A, *rules)


@pytest.mark.parametrize("grade", [[4], [1, 0], []])
def test_file_with_bad_grade_exits_2(tmp_path, capsys, grade):
    doc = {
        "name": "bad",
        "field": "q",
        "group": {"free_rank": 0, "torsion": [4]},
        "L": [{"name": "x", "grade": grade}],
        "A": [{"name": "one", "grade": [0]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "grade" in capsys.readouterr().err


@pytest.mark.parametrize("field", [5, {"kind": "prime"}, {"kind": "prime", "p": "x"}, {"kind": "prime", "p": 561}])
def test_file_with_bad_field_spec_exits_2(tmp_path, capsys, field):
    doc = {
        "field": field,
        "group": {"free_rank": 1, "torsion": []},
        "L": [{"name": "v", "grade": [1]}],
        "A": [{"name": "one", "grade": [0]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "field" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# derived data computed once


def test_full_subspaces_are_built_once():
    inst = build("e2")
    assert inst.full_L() is inst.full_L() and inst.full_A() is inst.full_A()
    assert inst.full_L() == GradedSubspace.full(inst.field, inst.L)
    assert inst.full_A() == GradedSubspace.full(inst.field, inst.A)
