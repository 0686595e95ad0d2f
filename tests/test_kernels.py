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
from grlr.simplicity import _homogeneous_seeds, _projective_block_points

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


@pytest.mark.parametrize("p, dim", [(2, 1), (2, 3), (3, 3), (5, 2), (7, 3)])
def test_projective_points_same_as_eager_list(p, dim):
    F = prime_field(p)
    points = list(_projective_block_points(F, dim))
    assert points == _projective_points_list(F, dim)
    assert len(points) == (p**dim - 1) // (p - 1)


def test_projective_points_are_lazy():
    gen = _projective_block_points(prime_field(1_000_003), 3)
    assert not isinstance(gen, list)
    assert list(itertools.islice(gen, 3)) == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]


@pytest.mark.parametrize("p, dim", [(101, 4), (1_000_003, 3)])
def test_seed_cap_stops_point_generation(p, dim):
    # a 4-dim GF(101) block has 1.04M points, a 3-dim GF(1000003) one 10^12
    inst = SimpleNamespace(field=prime_field(p))
    basis = GradedBasis([(f"x{i}", (0,)) for i in range(dim)])
    start = time.perf_counter()
    seeds, exhaustive = _homogeneous_seeds(inst, basis, 20_000)
    assert time.perf_counter() - start < 2.0
    assert not exhaustive and len(seeds) == 20_000


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


@pytest.mark.parametrize(
    "rule_group, group, grade, match",
    [(GroupSpec(0, (8,)), GroupSpec(0, (4,)), (4,), "canonical"), (GroupSpec(1), GroupSpec(2), (1,), "length")],
)
def test_instance_rejects_bad_basis_grades(rule_group, group, grade, match):
    # the rules are valid over rule_group; the instance's own group is not
    L = GradedBasis([("x", grade)])
    A = GradedBasis([("one", group.identity()[: rule_group.rank])])
    rules = [
        BilinearRule(n, RATIONALS, rule_group, l, r, o, {})
        for n, (l, r, o) in (("bracket", (L, L, L)), ("product", (A, A, A)), ("action", (A, L, L)), ("anchor", (L, A, A)))
    ]
    with pytest.raises(ValueError, match=match):
        AlgebraInstance("bad", RATIONALS, group, L, A, *rules)


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
