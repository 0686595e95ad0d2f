from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grlr.linear
from grlr import fields

from grlr.catalog import build
from grlr.decompose import decompose_A, decompose_L
from grlr.errors import ToolkitError
from grlr.fields import RATIONALS, Field, prime_field
from grlr.groups import GroupSpec
from grlr.linear import (
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    Span,
    bilinear_image,
    entry_kernel,
    fill_entries,
    in_span,
    nullspace,
    product_is_zero,
    rref,
    rule_from_names,
    subspace_intersect,
    subspace_sum,
)
from grlr.model import AlgebraInstance, verify_grading

from helpers import (
    contains_block_vector,
    contains_sparse,
    coordinate_reader,
    dim_at,
    from_block_vectors,
    from_sparse_vectors,
    map_kernel,
    outcome,
    recipe_and_catalog_instances,
    recipe_and_catalog_wild_mutants,
    reference_coordinates,
    reference_rref,
)

FIELDS = [RATIONALS, prime_field(2), prime_field(3), prime_field(7)]


def rand_matrix(rng, f, rows, cols):
    return [[f.from_int(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]


def combination(f, x, rows):
    """sum_i x_i rows[i]"""
    out = [f.zero] * len(rows[0])
    for c, row in zip(x, rows):
        out = [f.add(a, f.mul(c, b)) for a, b in zip(out, row)]
    return out


GF2, GF7 = prime_field(2), prime_field(7)


@st.composite
def rank_cases(draw):
    """(field, rows, width) over GF(2), GF(7) and Q: up to 8 rows of width 0
    to 5, some of them zero or repeated."""
    f = draw(st.sampled_from([GF2, GF7, RATIONALS]))
    width = draw(st.integers(0, 5))
    scalar = (st.builds(f.from_int, st.integers(-3, 3)) if f.p else
              st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
    row = st.one_of(st.lists(scalar, min_size=width, max_size=width), st.just([f.zero] * width))
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return f, rows, width


def one_block(width):
    """A graded basis with one block, of dimension ``width``, at grade (0,)."""
    return GradedBasis((f"b{k}", (0,)) for k in range(width))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rank_cases())
@example((GF2, [], 0))
@example((GF2, [], 1))
@example((RATIONALS, [[RATIONALS.zero] * 2] * 3, 2))
@example((GF7, [[1, 2], [1, 2], [2, 4], [0, 1]], 2))
@example((GF7, [[1, 0], [0, 1], [1, 1]], 2))
def test_span_fills_matches_reference_rank_and_reads_no_row_past_the_filling_one(case):
    f, rows, width = case
    rank = len(reference_rref(f, rows)[1])
    # rows[stop - 1] is the width-th independent row
    stop = next((k for k in range(len(rows) + 1) if len(reference_rref(f, rows[:k])[1]) == width), None)

    def guarded():
        for k, row in enumerate(rows):
            assert stop is None or k < stop, "read a row past the one that fills the block"
            yield row

    assert Span(f, one_block(width)).fills((0,), guarded()) == (rank == width)


@st.composite
def span_cases(draw):
    """(field, basis, rows) over GF(2), GF(7) and Q: blocks of dimension 1
    to 4 at up to three grades, and up to 10 rows of those blocks, as
    (grade, row) pairs in the order they are added."""
    f = draw(st.sampled_from([GF2, GF7, RATIONALS]))
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    basis = GradedBasis((f"b{g}_{k}", (g,)) for g, n in enumerate(dims) for k in range(n))
    scalar = (st.builds(f.from_int, st.integers(-3, 3)) if f.p else
              st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
    rows = draw(st.lists(st.integers(0, len(dims) - 1).flatmap(
        lambda g: st.tuples(st.just((g,)), st.lists(scalar, min_size=dims[g], max_size=dims[g]))), max_size=10))
    return f, basis, draw(st.permutations(rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(span_cases())
@example((prime_field(5), one_block(1), [((0,), [3]), ((0,), [1]), ((0,), [0])]))
@example((RATIONALS, one_block(1), [((0,), [RATIONALS.zero]), ((0,), [Fraction(-2, 3)]), ((0,), [Fraction(5)])]))
def test_span_pivots_are_the_rref_pivots_and_its_complement_splits_each_block(case):
    # the lemma the tightness witnesses rest on: the columns that are no
    # row's pivot are the RREF's free columns, so their unit rows complete
    # the span to the whole block, meeting it only in zero
    f, basis, rows = case
    span = Span(f, basis)
    for g, row in rows:
        before = list(span.rows.get(g, ()))
        added = span.add(g, row)
        # a row comes back, as kept, iff it leaves the span: canonical, 1 at
        # its pivot, 0 before it and at the pivots of the rows before it
        assert (added is None) == (len(reference_rref(f, before + [row])[1]) == len(before))
        if added is not None:
            check_all(f, added)
            lead = span.pivots[g][-1]
            assert span.rows[g][-1] is added and added[lead] == f.one
            assert not any(added[:lead]) and not any(added[c] for c in span.pivots[g][:-1])
    sub = span.subspace()
    for g in basis.grades():
        given_rows = [row for h, row in rows if h == g]
        ech, pivots = reference_rref(f, given_rows)
        assert sorted(span.pivots.get(g, ())) == list(pivots)
        assert reference_rref(f, span.rows.get(g, []))[0] == ech
        assert (sub.blocks.get(g, ()), sub.pivots.get(g, ())) == (ech, pivots)
        comp, free = span.complement(g)
        n = basis.block_dim(g)
        assert list(free) == [c for c in range(n) if c not in pivots]
        assert len(reference_rref(f, list(span.rows.get(g, [])) + list(comp))[1]) == len(ech) + len(comp) == n


def test_rref_known_case():
    f = RATIONALS
    rows, pivots = rref(f, [[f.from_int(2), f.from_int(4)], [f.from_int(1), f.from_int(2)]])
    assert pivots == (0,)
    assert rows == ((f.one, f.from_int(2)),)


def rand_rational_matrix(rng, rows, cols):
    """Entries with denominators up to 12, about a third of them zero, some
    rows zero and some repeated."""
    mat = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15 or (kind < 0.3 and not mat):
            mat.append([RATIONALS.zero] * cols)
        elif kind < 0.3:
            mat.append(list(rng.choice(mat)))
        else:
            mat.append([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.65 else RATIONALS.zero
                        for _ in range(cols)])
    return mat


# the largest prime a field admits, and a Mersenne prime below it
LARGEST_PRIME = 3317044064679887385961813
LARGE_FIELDS = [prime_field(2**61 - 1), prime_field(LARGEST_PRIME)]


def rand_residue_matrix(rng, f, rows, cols):
    """Residues drawn from the whole field, about a third of them zero, and
    some rows repeated or scaled, so that large primes meet dependent rows."""
    mat = []
    for _ in range(rows):
        if mat and rng.random() < 0.25:
            c = rng.randrange(1, f.p)
            mat.append([c * x % f.p for x in rng.choice(mat)])
        else:
            mat.append([rng.randrange(f.p) if rng.random() < 0.65 else 0 for _ in range(cols)])
    return mat


def reducer_cases(rng):
    """(field, matrix) pairs over Q and GF(2, 3, 7, 2^61 - 1, LARGEST_PRIME)."""
    cases = [(RATIONALS, rand_rational_matrix(rng, rng.randint(0, 6), rng.randint(0, 7))) for _ in range(400)]
    cases += [(RATIONALS, m) for m in (
        [], [[], []], [[Fraction(-3, 4), Fraction(1, 2)], [Fraction(3, 2), Fraction(-1)]],
        [[RATIONALS.zero, Fraction(-5, 7), Fraction(2, 3)], [RATIONALS.zero] * 3, [Fraction(-1, 6)] * 3],
    )]
    for p in (2, 3, 7):
        f = prime_field(p)
        cases += [(f, rand_matrix(rng, f, rng.randint(0, 6), rng.randint(0, 7))) for _ in range(150)]
    for f in LARGE_FIELDS:
        cases += [(f, rand_residue_matrix(rng, f, rng.randint(0, 6), rng.randint(0, 7))) for _ in range(150)]
    return cases


def test_rref_matches_reference_elimination():
    # rows and pivots of the field-generic loop, on every field; the one
    # integer loop must also return canonical scalars: Fraction rows over Q
    # and residues below p over GF(p)
    assert not any(fields._is_prime(n) for n in range(LARGEST_PRIME + 1, fields.MODULUS_LIMIT))
    rng = random.Random(41)
    cases = reducer_cases(rng)
    negative_leads = 0
    for f, m in cases:
        got = rref(f, m)
        assert got == reference_rref(f, m), (f, m)
        for row in got[0]:
            for x in row:
                f.check(x)
        if f.p is None:
            negative_leads += any(next((x for x in row if x), 0) < 0 for row in m)
    assert negative_leads > 100


def check_all(f, values):
    for x in values:
        f.check(x)


def test_reducer_clients_match_the_field_generic_references():
    # in_span, coordinate_reader and nullspace run on plain values; each
    # must agree with the same computation made with the field's
    # operations, and return only canonical scalars (over Q, no bare int 0)
    rng = random.Random(43)
    inside = outside = 0
    for f, m in reducer_cases(rng):
        if not m or not m[0]:
            continue
        n = len(m[0])
        rows, pivots = reference_rref(f, m)
        # probes: combinations of the rows (in the span) and random vectors
        probes = [combination(f, [f.from_int(rng.randint(-3, 3)) for _ in m], m) for _ in range(3)]
        probes += [rand_matrix(rng, f, 1, n)[0] if f.p is None or f.p < 8 else rand_residue_matrix(rng, f, 1, n)[0]
                   for _ in range(3)]
        # the reader's reference: [m | I] reduced by the reference, then
        # pivot extraction and the combination with the field's operations
        ext_rows, ext_pivots = reference_rref(f, [tuple(row) + tuple(f.one if i == j else f.zero for j in range(len(m)))
                                                  for i, row in enumerate(m)])
        r = sum(c < n for c in ext_pivots)
        read = coordinate_reader(f, m)
        for v in probes:
            want = reference_coordinates(f, rows, pivots, v)
            assert in_span(f, rows, pivots, v) == (want is not None)
            coords = reference_coordinates(f, [row[:n] for row in ext_rows[:r]], ext_pivots[:r], v)
            assert (coords is None) == (want is None)
            x = read(v)
            if coords is None:
                assert x is None
                outside += 1
                continue
            inside += 1
            check_all(f, x)
            expect = [f.zero] * len(m)
            for c, row in zip(coords, ext_rows[:r]):
                expect = [f.add(a, f.mul(c, b)) for a, b in zip(expect, row[n:])]
            assert x == expect and combination(f, x, m) == list(v), (f, m, v)
        kernel = nullspace(f, m, n)
        assert kernel == reference_rref(f, _kernel_basis(f, m, n)), (f, m)
        for row in kernel[0]:
            check_all(f, row)
    assert inside > 1000 and outside > 1000


def test_rref_is_idempotent_and_canonical():
    # the reduced form is THE canonical representation of a row space:
    # reducing a reduced matrix, or any row-shuffled generating set, gives
    # identical rows
    rng = random.Random(7)
    for f in FIELDS:
        for _ in range(40):
            m = rand_matrix(rng, f, rng.randint(1, 4), rng.randint(1, 5))
            rows, pivots = rref(f, m)
            again, pivots2 = rref(f, rows)
            assert rows == again and pivots == pivots2
            shuffled = list(m)
            rng.shuffle(shuffled)
            assert rref(f, shuffled)[0] == rows


def test_rref_preserves_row_space():
    rng = random.Random(13)
    for f in FIELDS:
        for _ in range(30):
            m = rand_matrix(rng, f, 3, 4)
            rows, pivots = rref(f, m)
            for original in m:
                assert in_span(f, rows, pivots, original)
            read = coordinate_reader(f, m)
            for reduced in rows:
                assert combination(f, read(reduced), m) == list(reduced)


def test_rank_nullity():
    rng = random.Random(29)
    for f in FIELDS:
        for _ in range(40):
            cols = rng.randint(1, 6)
            m = rand_matrix(rng, f, rng.randint(0, 5), cols)
            rank = len(rref(f, m)[0])
            kernel, _ = nullspace(f, m, cols)
            assert rank + len(kernel) == cols
            for v in kernel:
                for row in m:
                    acc = f.zero
                    for a, b in zip(row, v):
                        acc = f.add(acc, f.mul(a, b))
                    assert f.is_zero(acc)


def test_in_span_of_an_rref_basis():
    f = prime_field(5)
    rows, pivots = rref(f, [[1, 0, 2], [0, 1, 3]])
    assert in_span(f, rows, pivots, [2, 1, 2])  # 2*r0 + 1*r1 = (2, 1, 4+3=7=2)
    assert not in_span(f, rows, pivots, [0, 0, 1])


def test_coordinate_reader_solves_systems():
    # x (rows) = v is the system whose equations are the columns of rows
    f = RATIONALS
    two = f.from_int(2)
    assert coordinate_reader(f, [[f.one, f.one], [f.one, f.neg(f.one)]])([two, f.zero]) == [f.one, f.one]
    assert coordinate_reader(f, [[f.one, f.one], [f.one, f.one]])([f.zero, f.one]) is None
    assert coordinate_reader(f, [])([]) == []


GRADES = GroupSpec(0, (2,))
BASIS = GradedBasis([("x0", (0,)), ("x1", (0,)), ("y0", (1,)), ("y1", (1,)), ("y2", (1,))])


def rand_subspace(rng, f, basis):
    vecs = []
    for _ in range(rng.randint(0, 3)):
        g = rng.choice(basis.grades())
        positions = basis.positions_at(g)
        vec = {p: f.from_int(rng.randint(-2, 2)) for p in positions}
        vecs.append({p: c for p, c in vec.items() if not f.is_zero(c)})
    return from_sparse_vectors(f, basis, vecs)


def test_subspace_dimension_formula():
    # dim U + dim W = dim(U + W) + dim(U n W), per grade and in total
    rng = random.Random(41)
    for f in FIELDS:
        for _ in range(60):
            U = rand_subspace(rng, f, BASIS)
            W = rand_subspace(rng, f, BASIS)
            s = subspace_sum(U, W)
            i = subspace_intersect(U, W)
            assert U.dim + W.dim == s.dim + i.dim
            for g in BASIS.grades():
                assert dim_at(U, g) + dim_at(W, g) == dim_at(s, g) + dim_at(i, g)
            for v in i.sparse_vectors():
                assert contains_sparse(U, v) and contains_sparse(W, v)


def test_subspace_canonical_equality():
    f = prime_field(3)
    a = from_sparse_vectors(f, BASIS, [{0: 1, 1: 2}, {0: 2, 1: 1}])
    b = from_sparse_vectors(f, BASIS, [{0: 1, 1: 2}])
    # second generator is 2x the first, same line
    assert a == b
    assert a.dim == 1


def span_complement(f, basis, span):
    return GradedSubspace._from_rref(f, basis, {g: span.complement(g) for g in basis.grades()})


def test_complement_is_deterministic_and_splits():
    rng = random.Random(59)
    for f in FIELDS:
        for _ in range(40):
            inner = rand_subspace(rng, f, BASIS)
            comp = span_complement(f, BASIS, Span(f, BASIS, inner))
            backwards = Span(f, BASIS)
            for g, row in reversed(inner.block_vectors()):
                backwards.add(g, row)
            assert comp == span_complement(f, BASIS, backwards)
            assert subspace_sum(inner, comp) == GradedSubspace.full(f, BASIS)
            assert subspace_intersect(inner, comp).is_zero()


def test_graded_basis_queries():
    assert BASIS.dim == 5
    assert BASIS.positions_at((1,)) == (2, 3, 4)
    assert BASIS.block_dim((0,)) == 2
    assert BASIS.grade_of(3) == (1,)
    assert BASIS.position_of("y1") == 3
    with pytest.raises(KeyError):
        BASIS.position_of("zz")
    with pytest.raises(ValueError):
        GradedBasis([("a", (0,)), ("a", (1,))])


def test_bilinear_rule_grading_violations():
    f = RATIONALS
    G = GroupSpec(0, (2,))
    B = GradedBasis([("p", (0,)), ("q", (1,))])
    # p*p should land at grade 0; sending it to q violates the grading
    bad = rule_from_names("product", f, G, B, B, B, {("p", "p"): {"q": f.one}})
    violations = bad.grading_violations()
    assert violations and violations[0]["left"] == "p" and violations[0]["right"] == "p"
    good = rule_from_names("product", f, G, B, B, B, {("p", "p"): {"p": f.one}, ("q", "q"): {"p": f.one}})
    assert good.grading_violations() == []


def test_bilinear_image_matches_pairwise_products():
    rng = random.Random(67)
    f = prime_field(3)
    G = GroupSpec(0, (2,))
    B = GradedBasis([("p", (0,)), ("q", (1,)), ("r", (1,))])
    table = {}
    for i in range(3):
        for j in range(3):
            target = G.mul(B.grade_of(i), B.grade_of(j))
            img = {}
            for k in B.positions_at(target):
                c = f.from_int(rng.randint(0, 2))
                if not f.is_zero(c):
                    img[k] = c
            if img:
                table[(i, j)] = img
    rule = BilinearRule("product", f, G, B, B, B, table)
    for _ in range(25):
        U = rand_subspace(rng, f, B)
        V = rand_subspace(rng, f, B)
        image = bilinear_image(rule, U, V)
        # oracle: span of the products of all basis-vector pairs
        products = [rule.apply_sparse(u, v) for u in U.sparse_vectors() for v in V.sparse_vectors()]
        oracle = from_sparse_vectors(f, B, products)
        assert image == oracle
        assert product_is_zero(rule, U, V) == image.is_zero()

    # rules with different left, right and output bases, over Q, GF(2) and
    # GF(3), with one block pair left empty on purpose
    touched_empty = 0
    for f in (RATIONALS, prime_field(2), prime_field(3)):
        for dom in ("ALL", "LAA"):
            left, right, out = (MIXED[c] for c in dom)
            empty = (left.grades()[0], right.grades()[-1])
            rule = rand_graded_rule(rng, f, dom, left, right, out, skip={empty})
            assert empty not in rule.block_pairs()
            zero_left, zero_right = GradedSubspace.zero(f, left), GradedSubspace.zero(f, right)
            assert bilinear_image(rule, zero_left, GradedSubspace.full(f, right)).is_zero()
            assert bilinear_image(rule, GradedSubspace.full(f, left), zero_right).is_zero()
            assert product_is_zero(rule, zero_left, GradedSubspace.full(f, right))
            assert product_is_zero(rule, GradedSubspace.full(f, left), zero_right)
            for _ in range(25):
                U, V = rand_subspace(rng, f, left), rand_subspace(rng, f, right)
                touched_empty += dim_at(U, empty[0]) > 0 and dim_at(V, empty[1]) > 0
                products = [rule.apply_sparse(u, v) for u in U.sparse_vectors() for v in V.sparse_vectors()]
                image = bilinear_image(rule, U, V)
                assert image == from_sparse_vectors(f, out, products)
                assert product_is_zero(rule, U, V) == image.is_zero()
    assert touched_empty > 0


# bases of different sizes and grades for A x L -> L and L x A -> A rules
MIXED_GROUP = GroupSpec(0, (3,))
MIXED = {
    "L": GradedBasis([("x0", (0,)), ("x1", (1,)), ("y1", (1,)), ("z2", (2,))]),
    "A": GradedBasis([("a0", (0,)), ("b0", (0,)), ("c2", (2,))]),
}


def rand_graded_rule(rng, f, name, left, right, out, skip=()):
    """A random table that keeps the grade-shift law; block pairs in ``skip`` get no entry."""
    table = {}
    for i in range(left.dim):
        for j in range(right.dim):
            grades = (left.grade_of(i), right.grade_of(j))
            if grades in skip:
                continue
            img = {k: f.from_int(rng.randint(-2, 2)) for k in out.positions_at(MIXED_GROUP.mul(*grades))}
            img = {k: c for k, c in img.items() if not f.is_zero(c)}
            if img:
                table[(i, j)] = img
    return BilinearRule(name, f, MIXED_GROUP, left, right, out, table)


def test_rule_refuses_table_positions_outside_its_bases():
    f = prime_field(3)
    G = GroupSpec(0, (2,))
    B = GradedBasis([("x", (0,)), ("y", (1,))])
    # a block-pair index would read -1 as y, while the table reads it as no
    # vector: the image would be span(y) with every basis product 0
    for table, where in (
        ({(-1, 0): {1: 1}}, r"\(-1, 0\) -> \[1\]"),
        ({(0, 2): {0: 1}}, r"\(0, 2\) -> \[0\]"),
        ({(0, 0): {-2: 1}}, r"\(0, 0\) -> \[-2\]"),
        ({(1, 1): {0: 1, 2: 1}}, r"\(1, 1\) -> \[0, 2\]"),
    ):
        with pytest.raises(ValueError, match=rf"rule 'product': table position {where} lies outside its bases"):
            BilinearRule("product", f, G, B, B, B, table)
    rule = BilinearRule("product", f, G, B, B, B, {(1, 0): {1: 1}})
    full = GradedSubspace.full(f, B)
    assert bilinear_image(rule, full, full) == from_sparse_vectors(f, B, [rule.apply_sparse({1: 1}, {0: 1})])


def test_bilinear_image_rejects_grade_violating_rule():
    f = RATIONALS
    G = GroupSpec(0, (2,))
    B = GradedBasis([("p", (0,)), ("q", (1,))])
    bad = rule_from_names("product", f, G, B, B, B, {("p", "p"): {"q": f.one}})
    with pytest.raises(ToolkitError):
        bilinear_image(bad, GradedSubspace.full(f, B), GradedSubspace.full(f, B))


def test_product_is_zero_refuses_an_off_grade_pair_after_a_nonzero_product():
    # p.p = p comes first in sorted order and is nonzero, but the later
    # pair (q, q) breaks the law: the zero test refuses, as bilinear_image does
    f = prime_field(3)
    B = GradedBasis([("p", (0,)), ("q", (1,))])
    rule = rule_from_names("product", f, GroupSpec(0, (2,)), B, B, B, {("p", "p"): {"p": 1}, ("q", "q"): {"q": 1}})
    full = GradedSubspace.full(f, B)
    assert not product_is_zero(rule, full.at_grades([(0,)]), full.at_grades([(0,)]))
    with pytest.raises(ToolkitError) as refusal:
        product_is_zero(rule, full, full)
    assert str(refusal.value) == "rule 'product' violates the grade-shift law on (1, 1): component q at grade 1, expected 0"
    with pytest.raises(ToolkitError, match=re.escape(str(refusal.value))):
        bilinear_image(rule, full, full)


def _verdict(call):
    """``call()``, or the refusal's exception type and message."""
    try:
        return call()
    except ToolkitError as exc:
        return [type(exc).__name__, str(exc)]


def test_product_is_zero_matches_bilinear_image_on_wild_mutant_subspaces():
    # whole blocks, whole spaces and the class ideals of the unmutated
    # instance, multiplied by the mutant's rules: the same verdict, or the
    # same refusal of the same first off-grade pair
    checked = refused = 0
    originals = recipe_and_catalog_instances()
    for k, (label, inst) in enumerate(recipe_and_catalog_wild_mutants()):
        origin = originals[k // 4][1]  # four mutants per instance, in order
        ideals = {"L": [i.total for i in decompose_L(origin).ideals], "A": [i.total for i in decompose_A(origin).ideals]}
        for rule, left, right in ((inst.bracket, "L", "L"), (inst.product, "A", "A"),
                                  (inst.action, "A", "L"), (inst.anchor, "L", "A")):
            full_left = GradedSubspace.full(inst.field, rule.left)
            full_right = GradedSubspace.full(inst.field, rule.right)
            pairs = [(full_left.at_grades([gu]), full_right.at_grades([gv]))
                     for gu in rule.left.grades() for gv in rule.right.grades()]
            pairs += [(full_left, full_right)] + [(U, V) for U in ideals[left] for V in ideals[right]]
            for U, V in pairs:
                got = _verdict(lambda: product_is_zero(rule, U, V))
                assert got == _verdict(lambda: bilinear_image(rule, U, V).is_zero()), (label, rule.name)
                checked += 1
                refused += isinstance(got, list)
    assert (checked, refused) == (35972, 2159)


def test_bilinear_image_refuses_a_subspace_over_another_field():
    bracket = build("e1", prime_field(5)).bracket
    gf5, gf3 = GradedSubspace.full(prime_field(5), bracket.left), GradedSubspace.full(prime_field(3), bracket.left)
    action = build("e1", prime_field(5)).action
    for call in (bilinear_image, product_is_zero):
        for U, V in ((gf3, gf3), (gf3, gf5), (gf5, gf3)):
            with pytest.raises(ValueError, match="subspace field does not match rule 'bracket'"):
                call(bracket, U, V)
        with pytest.raises(ValueError, match="subspace ambient does not match rule 'action'"):
            call(action, gf5, gf5)
    assert bilinear_image(bracket, gf5, gf5).field == prime_field(5)


def test_by_argument_regroups_every_table_entry():
    for label, inst in recipe_and_catalog_instances()[::8]:
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            for v_left in (True, False):
                v_basis, x_basis = (rule.left, rule.right) if v_left else (rule.right, rule.left)
                rebuilt = {}
                for g, pairs in rule.by_argument(v_left).items():
                    assert [h for h, _, _ in pairs] == sorted(h for h, _, _ in pairs), (label, rule.name)
                    for h, grade, maps in pairs:
                        # the target grade read off the entries is the product grade
                        assert grade == inst.group.mul(*((g, h) if v_left else (h, g))), (label, rule.name)
                        target = rule.out.positions_at(grade)
                        for x, terms in maps:
                            for v, entry in terms:
                                i, j = v_basis.positions_at(g)[v], x_basis.positions_at(h)[x]
                                key = (i, j) if v_left else (j, i)
                                rebuilt[key] = {target[k]: c for k, c in entry}
                assert rebuilt == rule.table, (label, rule.name, v_left)
                assert rule.by_argument(v_left) is rule.by_argument(v_left)


def test_grade_shift_law_checked_per_block_pair():
    f = RATIONALS
    G = GroupSpec(0, (2,))
    B = GradedBasis([("p0", (0,)), ("p1", (0,)), ("q", (1,))])
    # p0*p0 should land at grade 0; its q component breaks the law
    bad = rule_from_names("product", f, G, B, B, B, {
        ("p0", "p0"): {"p1": f.one, "q": f.one},
        ("p1", "p1"): {"p0": f.one},
        ("p1", "q"): {"q": f.one},
        ("q", "q"): {"p1": f.one},
    })
    message = r"rule 'product' violates the grade-shift law on \(0, 0\): component q at grade 1, expected 0"
    full = GradedSubspace.full(f, B)
    with pytest.raises(ToolkitError, match=message):
        bilinear_image(bad, full, full)
    # rows at grade 0 whose coefficient on p0 is 0 still use the bad block pair
    p1 = from_sparse_vectors(f, B, [{1: f.one}])
    assert bad.apply_sparse({1: f.one}, {1: f.one}) == {0: f.one}
    with pytest.raises(ToolkitError, match=message):
        bilinear_image(bad, p1, p1)
    # an untouched bad pair: the image is the ordinary one
    q = from_sparse_vectors(f, B, [{2: f.one}])
    for U, V in ((q, full), (full, q), (p1, q), (q, q)):
        products = [bad.apply_sparse(u, v) for u in U.sparse_vectors() for v in V.sparse_vectors()]
        assert bilinear_image(bad, U, V) == from_sparse_vectors(f, B, products)
    assert bilinear_image(bad, q, q).sparse_vectors() == [{1: f.one}]
    # the grading verifier still reports the entry with its witness
    L = GradedBasis([])
    inst = AlgebraInstance(
        "bad_product", f, G, L, B,
        rule_from_names("bracket", f, G, L, L, L, {}), bad,
        rule_from_names("action", f, G, B, L, L, {}), rule_from_names("anchor", f, G, L, B, B, {}),
    )
    failed = verify_grading(inst).failed_checks()
    assert [c.to_json() for c in failed] == [{"check": "grading.product", "passed": False, "witness": {
        "rule": "product", "left": "p0", "right": "p0", "component": "q",
        "expected_grade": "0", "got_grade": "1", "violations": 1,
    }}]


def test_block_pair_index_is_lazy_and_calls_no_kernel(monkeypatch):
    e3 = build("e3")
    fresh = [
        BilinearRule(r.name, r.field, r.group, r.left, r.right, r.out, r.table)
        for r in (e3.bracket, e3.product, e3.action, e3.anchor)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the block-pair index called a field or group kernel")

    for op in ("check", "from_int", "add", "neg", "sub", "mul", "inv", "div", "is_zero", "parse", "format"):
        monkeypatch.setattr(Field, op, refuse)
    for prop in ("zero", "one"):
        monkeypatch.setattr(Field, prop, property(refuse))
    for op in ("mul", "inv", "reduce", "check"):
        monkeypatch.setattr(GroupSpec, op, refuse)
    for rule in fresh:
        assert rule._block_pairs is None
        index = rule.block_pairs()
        assert rule.block_pairs() is index
        triples = [t for _, ts in index.values() for t in ts]
        assert len(triples) == len(rule.table)
        for (gu, gv), (target, ts) in index.items():
            for a, b, entry in ts:
                i, j = rule.left.positions_at(gu)[a], rule.right.positions_at(gv)[b]
                assert entry is rule.table[(i, j)]
                assert {rule.out.grade_of(pos) for pos in entry} == {target}


def test_bilinear_image_multiplies_grades_once_per_block_pair(monkeypatch):
    f = prime_field(3)
    G = GroupSpec(0, (2,))
    calls = []
    group_mul = GroupSpec.mul
    monkeypatch.setattr(GroupSpec, "mul", lambda self, a, b: calls.append((a, b)) or group_mul(self, a, b))
    # gl_2 at one grade: a single 4-dimensional block
    B = GradedBasis([(n, (0,)) for n in ("h", "z", "e", "f")])
    bracket = rule_from_names("bracket", f, G, B, B, B, {
        ("h", "e"): {"e": 2}, ("e", "h"): {"e": 1},
        ("h", "f"): {"f": 1}, ("f", "h"): {"f": 2},
        ("e", "f"): {"h": 1}, ("f", "e"): {"h": 2},
    })
    assert calls == [((0,), (0,))]  # one block pair, not 6 entries
    calls.clear()
    full = GradedSubspace.full(f, B)
    image = bilinear_image(bracket, full, full)
    assert calls == []  # the product reads the verdict of construction
    assert image.dim == 3
    # a product on BASIS with entries on three of its four block pairs
    product = rule_from_names("product", f, GRADES, BASIS, BASIS, BASIS, {
        ("x0", "x0"): {"x1": 1}, ("x1", "y0"): {"y2": 2}, ("y1", "y2"): {"x0": 1},
    })
    assert sorted(calls) == sorted(product.block_pairs()) == [((0,), (0,)), ((0,), (1,)), ((1,), (1,))]
    calls.clear()
    bilinear_image(product, GradedSubspace.full(f, BASIS), GradedSubspace.full(f, BASIS))
    assert calls == []


def test_map_kernel_matches_bruteforce():
    rng = random.Random(71)
    f = prime_field(5)
    B = BASIS
    for _ in range(20):
        mats = []
        for _ in range(2):
            shift = rng.choice([(0,), (1,)])
            mapping = {}
            for pos in range(B.dim):
                target = GRADES.mul(B.grade_of(pos), shift)
                img = {k: f.from_int(rng.randint(0, 4)) for k in B.positions_at(target)}
                mapping[pos] = {k: c for k, c in img.items() if not f.is_zero(c)}
            mats.append(mapping)

        def apply(mapping, v):
            out = {}
            for pos, c in v.items():
                for k, x in mapping[pos].items():
                    out[k] = f.add(out.get(k, f.zero), f.mul(c, x))
            return {k: c for k, c in out.items() if not f.is_zero(c)}

        ker = map_kernel(f, B, lambda pos: [apply(m, {pos: f.one}) for m in mats])
        for v in ker.sparse_vectors():
            for m in mats:
                assert apply(m, v) == {}
        # oracle dimension: count solutions among all block vectors is heavy;
        # instead check maximality: no basis vector outside ker maps to zero under all maps
        for pos in range(B.dim):
            v = {pos: f.one}
            if all(apply(m, v) == {} for m in mats):
                assert contains_sparse(ker, v)


def test_subspace_json_describes_blocks():
    f = prime_field(3)
    sub = from_sparse_vectors(f, BASIS, [{0: 1}, {2: 1, 3: 2}])
    data = sub.to_json()
    assert set(data) == {"0", "1"}
    assert sub.dim == 2 and dim_at(sub, (1,)) == 1


# ---------------------------------------------------------------------------
# trusted paths: derived subspaces are built from RREF blocks unreduced


REF_FIELDS = [prime_field(2), prime_field(3), RATIONALS]
WIDE = GradedBasis([(f"x{i}", (0,)) for i in range(4)] + [(f"y{i}", (1,)) for i in range(3)])


def assert_canonical(sub):
    """The trusted result equals its rebuild through the checking constructor."""
    again = GradedSubspace(sub.field, sub.ambient, sub.blocks)
    assert again == sub and again.pivots == sub.pivots


def rand_product_rule(rng, f, B):
    table = {}
    for i in range(B.dim):
        for j in range(B.dim):
            img = {k: f.from_int(rng.randint(-1, 1)) for k in B.positions_at(GRADES.mul(B.grade_of(i), B.grade_of(j)))}
            img = {k: c for k, c in img.items() if not f.is_zero(c)}
            if img and rng.random() < 0.5:
                table[(i, j)] = img
    return BilinearRule("product", f, GRADES, B, B, B, table)


def test_trusted_results_equal_checked_rebuilds():
    rng = random.Random(83)
    for f in REF_FIELDS:
        rule = rand_product_rule(rng, f, WIDE)
        for _ in range(40):
            U, W = rand_subspace(rng, f, WIDE), rand_subspace(rng, f, WIDE)
            total = subspace_sum(U, W)
            assert total == from_sparse_vectors(f, WIDE, U.sparse_vectors() + W.sparse_vectors())
            meet = subspace_intersect(U, W)
            comp = span_complement(f, WIDE, Span(f, WIDE, U))
            image = bilinear_image(rule, U, W)
            products = [rule.apply_sparse(u, w) for u in U.sparse_vectors() for w in W.sparse_vectors()]
            assert image == from_sparse_vectors(f, WIDE, products)
            for sub in (total, meet, comp, image, U.at_grades([(1,)]), GradedSubspace.full(f, WIDE)):
                assert_canonical(sub)


def test_intersection_matches_bruteforce():
    rng = random.Random(89)
    for f in REF_FIELDS[:2]:
        for _ in range(30):
            U, W = rand_subspace(rng, f, WIDE), rand_subspace(rng, f, WIDE)
            common = [
                (g, v)
                for g in WIDE.grades()
                for v in itertools.product(list(f.elements()), repeat=WIDE.block_dim(g))
                if contains_block_vector(U, g, v) and contains_block_vector(W, g, v)
            ]
            meet = subspace_intersect(U, W)
            assert meet == from_block_vectors(f, WIDE, common)
            assert sum(f.p ** dim_at(meet, g) for g in WIDE.grades()) == len(common)


def test_coordinate_reader_round_trips():
    rng = random.Random(97)
    for f in FIELDS:
        for _ in range(30):
            n = rng.randint(1, 5)
            echelon, pivots = rref(f, rand_matrix(rng, f, rng.randint(1, n), n))
            while True:
                invertible = rand_matrix(rng, f, n, n)
                if len(rref(f, invertible)[1]) == n:
                    break
            for basis in (list(echelon), invertible):
                if not basis:
                    continue
                read = coordinate_reader(f, basis)
                x = [f.from_int(rng.randint(-3, 3)) for _ in basis]
                assert read(combination(f, x, basis)) == x
            outside = next((c for c in range(n) if c not in pivots), None)
            if outside is not None:
                unit = [f.one if c == outside else f.zero for c in range(n)]
                assert coordinate_reader(f, list(echelon))(unit) is None


@pytest.mark.parametrize("f, bad", [(prime_field(3), 4), (prime_field(3), -1), (RATIONALS, 1), (RATIONALS, 0.5)])
def test_public_entry_points_reject_noncanonical_scalars(f, bad):
    sub = GradedSubspace.full(f, BASIS)
    row = (bad, f.zero)
    for call in (
        lambda: GradedSubspace(f, BASIS, {(0,): [row]}),
        lambda: from_block_vectors(f, BASIS, [((0,), row)]),
        lambda: from_sparse_vectors(f, BASIS, [{0: bad}]),
        lambda: contains_block_vector(sub, (0,), row),
        lambda: contains_sparse(sub, {0: bad}),
    ):
        with pytest.raises((TypeError, ValueError)):
            call()


@pytest.mark.parametrize("row", [(1,), (1, 0, 0)])
def test_rows_of_the_wrong_length_are_refused(row):
    f = RATIONALS
    row = tuple(f.from_int(x) for x in row)
    sub = GradedSubspace.full(f, BASIS)  # the block at grade 0 has dimension 2
    for call in (
        lambda: GradedSubspace(f, BASIS, {(0,): [row]}),
        lambda: from_block_vectors(f, BASIS, [((0,), row)]),
        lambda: contains_block_vector(sub, (0,), row),
        lambda: contains_block_vector(GradedSubspace.zero(f, BASIS), (0,), row),
    ):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            call()


def test_derived_subspaces_are_not_reduced_again(monkeypatch):
    calls = []
    real = grlr.linear.rref
    monkeypatch.setattr(grlr.linear, "rref", lambda *args: calls.append(args) or real(*args))
    f = prime_field(3)
    U = from_sparse_vectors(f, BASIS, [{0: 1, 1: 2}])
    W = from_sparse_vectors(f, BASIS, [{2: 1}, {3: 1, 4: 1}])
    calls.clear()
    full = GradedSubspace.full(f, BASIS)
    GradedSubspace.zero(f, BASIS)
    part = full.at_grades([(1,)])
    total = subspace_sum(U, W)
    assert calls == []
    assert part.dim == 3 and total.dim == 3 and total.pivots == {(0,): (0,), (1,): (0, 1)}


def test_sum_reduces_only_grades_where_b_leaves_a(monkeypatch):
    calls = []
    real = grlr.linear.rref
    monkeypatch.setattr(grlr.linear, "rref", lambda *args: calls.append(args) or real(*args))
    f = prime_field(3)
    a = from_sparse_vectors(f, BASIS, [{0: 1}, {2: 1, 3: 1}])
    inside = from_sparse_vectors(f, BASIS, [{0: 2}, {2: 2, 3: 2}])
    mixed = from_sparse_vectors(f, BASIS, [{0: 1}, {4: 1}])
    calls.clear()
    assert subspace_sum(a, inside) == a
    assert calls == []
    total = subspace_sum(a, mixed)
    assert len(calls) == 1  # grade (1,) only: mixed's grade-(0,) row already lies in a
    assert total.pivots == {(0,): (0,), (1,): (0, 2)}


def _kernel_basis(f, m, cols):
    """e_f - sum_r ech[r][f] e_{p_r} for each free column f, unreduced,
    with ech the reference RREF of m."""
    ech, pivots = reference_rref(f, m)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [f.zero] * cols
        v[free] = f.one
        for row, p in zip(ech, pivots):
            v[p] = f.neg(row[free])
        basis.append(v)
    return basis


@pytest.mark.parametrize("f", [RATIONALS, prime_field(3)], ids=["q", "gf3"])
def test_nullspace_equals_reduced_kernel_basis(monkeypatch, f):
    # columns are zeroed at random, so some kernels are coordinate
    # subspaces (returned without a second elimination) and some are not
    rng = random.Random(41)
    calls = []
    real = grlr.linear.rref
    monkeypatch.setattr(grlr.linear, "rref", lambda *args: calls.append(args) or real(*args))
    shortcuts = 0
    for _ in range(200):
        cols = rng.randint(1, 6)
        m = rand_matrix(rng, f, rng.randint(1, 4), cols)
        for c in range(cols):
            if rng.random() < 0.5:
                for row in m:
                    row[c] = f.zero
        basis = _kernel_basis(f, m, cols)
        calls.clear()
        kernel = nullspace(f, m, cols)
        assert kernel == real(f, basis)
        if len(calls) == 1:
            shortcuts += 1
            assert all(sum(not f.is_zero(x) for x in v) == 1 for v in basis)
    assert 0 < shortcuts < 200


def _entry_span(rule, pairs):
    """The span of ``rule``'s table entries on the block pairs ``pairs``, in order."""
    return fill_entries(Span(rule.field, rule.out), [(rule, pair) for pair in pairs]).subspace()


def _whole_block_products(rule):
    """(block pair or None for all pairs, the span of the entries, bilinear_image
    of the same whole blocks) for every block pair of ``rule`` and for all at once."""
    full_left = GradedSubspace.full(rule.field, rule.left)
    full_right = GradedSubspace.full(rule.field, rule.right)
    cases = [
        ((gu, gv), lambda gu=gu, gv=gv: _entry_span(rule, [(gu, gv)]),
         lambda gu=gu, gv=gv: bilinear_image(rule, full_left.at_grades([gu]), full_right.at_grades([gv])))
        for gu in rule.left.grades()
        for gv in rule.right.grades()
    ]
    return cases + [(None, lambda: _entry_span(rule, sorted(rule.block_pairs())),
                     lambda: bilinear_image(rule, full_left, full_right))]


def test_entry_span_equals_bilinear_image_of_whole_blocks():
    nonzero = 0
    for label, inst in recipe_and_catalog_instances():
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            for pair, fast, slow in _whole_block_products(rule):
                got, want = fast(), slow()
                assert (got.blocks, got.pivots) == (want.blocks, want.pivots), (label, rule.name, pair)
                nonzero += not got.is_zero()
        # terms of two rules into one basis: one span equals the sum of the products
        for rules in ((inst.action, inst.bracket), (inst.anchor, inst.product)):
            terms = [(rule, pair) for rule in rules for pair in sorted(rule.block_pairs())]
            got = fill_entries(Span(inst.field, rules[0].out), terms).subspace()
            want = subspace_sum(*(bilinear_image(rule, GradedSubspace.full(inst.field, rule.left),
                                                 GradedSubspace.full(inst.field, rule.right)) for rule in rules))
            assert (got.blocks, got.pivots) == (want.blocks, want.pivots), label
    assert nonzero > 1000


def test_entry_span_refuses_off_grade_pairs_like_bilinear_image():
    refused = 0
    for label, inst in recipe_and_catalog_wild_mutants():
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            for pair, fast, slow in _whole_block_products(rule):
                got, want = outcome(lambda _: fast(), inst), outcome(lambda _: slow(), inst)
                assert got == want, (label, rule.name, pair)
                refused += isinstance(got, list)
    assert refused > 500


def test_entry_fill_builds_no_row_for_a_full_block(monkeypatch):
    # entry rows are built only while their target block is short: none
    # past the row that fills a block, and none for a later term on it
    f = prime_field(3)
    B = GradedBasis([("x", (0,)), ("y", (0,)), ("z", (1,))])
    rule = rule_from_names("product", f, GroupSpec(1), B, B, B, {
        ("x", "x"): {"x": 1}, ("x", "y"): {"y": 1}, ("y", "y"): {"x": 1, "y": 1},
        ("x", "z"): {"z": 1}, ("y", "z"): {"z": 2},
    })
    added = []
    real = Span.add
    monkeypatch.setattr(Span, "add", lambda self, g, row: added.append((g, list(row))) or real(self, g, row))
    span = fill_entries(Span(f, B), [(rule, ((0,), (0,))), (rule, ((0,), (1,))), (rule, ((0,), (0,)))])
    assert added == [((0,), [1, 0]), ((0,), [0, 1]), ((1,), [1])]
    assert span.subspace() == GradedSubspace.full(f, B)


def test_entry_fill_checks_the_pair_of_a_term_on_a_full_block():
    # on a wild mutant, an off-grade block pair placed after the lawful
    # pairs that fill its target block is refused with bilinear_image's text
    refused = 0
    for label, inst in recipe_and_catalog_wild_mutants():
        f = inst.field
        for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
            lawful = [(rule, pair) for pair in sorted(rule.block_pairs()) if pair not in rule.off_grade_pairs]
            for gu, gv in sorted(rule.off_grade_pairs):
                span = fill_entries(Span(f, rule.out), lawful)
                if not span.full_at(rule.block_pairs()[gu, gv][0]):
                    continue
                with pytest.raises(ToolkitError) as refusal:
                    fill_entries(span, [(rule, (gu, gv))])
                want = outcome(lambda _: bilinear_image(rule, GradedSubspace.full(f, rule.left).at_grades([gu]),
                                                        GradedSubspace.full(f, rule.right).at_grades([gv])), inst)
                assert [type(refusal.value).__name__, str(refusal.value)] == want, (label, rule.name)
                refused += 1
    assert refused == 483


def test_entry_helpers_refuse_a_rule_on_another_basis():
    inst = build("e3")
    with pytest.raises(ValueError, match="does not map into"):
        fill_entries(Span(inst.field, inst.L), [(inst.product, ((0, 0), (0, 0)))])
    with pytest.raises(ValueError, match="does not take its argument from"):
        entry_kernel(inst.field, inst.L, [(inst.product, True)])
