from __future__ import annotations

import itertools
import random

import pytest

import grlr.linear

from grlr.errors import ToolkitError
from grlr.fields import RATIONALS, prime_field
from grlr.groups import GroupSpec
from grlr.linear import (
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    bilinear_image,
    complement_in,
    coordinate_reader,
    coordinates_in_rref,
    in_span,
    map_kernel,
    nullspace,
    rref,
    rule_from_names,
    subspace_intersect,
    subspace_sum,
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


def test_rref_known_case():
    f = RATIONALS
    rows, pivots = rref(f, [[f.from_int(2), f.from_int(4)], [f.from_int(1), f.from_int(2)]])
    assert pivots == (0,)
    assert rows == ((f.one, f.from_int(2)),)


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


def test_coordinates_in_rref():
    f = prime_field(5)
    rows, pivots = rref(f, [[1, 0, 2], [0, 1, 3]])
    v = [2, 1, 2]  # 2*r0 + 1*r1 = (2, 1, 4+3=7=2)
    coords = coordinates_in_rref(f, rows, pivots, v)
    assert coords == [2, 1]
    assert coordinates_in_rref(f, rows, pivots, [0, 0, 1]) is None


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
    return GradedSubspace.from_sparse_vectors(f, basis, vecs)


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
                assert U.dim_at(g) + W.dim_at(g) == s.dim_at(g) + i.dim_at(g)
            for v in i.sparse_vectors():
                assert U.contains_sparse(v) and W.contains_sparse(v)


def test_subspace_canonical_equality():
    f = prime_field(3)
    a = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 1, 1: 2}, {0: 2, 1: 1}])
    b = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 1, 1: 2}])
    # second generator is 2x the first, same line
    assert a == b
    assert a.dim == 1


def test_complement_is_deterministic_and_splits():
    rng = random.Random(59)
    for f in FIELDS:
        for _ in range(40):
            inner = rand_subspace(rng, f, BASIS)
            outer = subspace_sum(inner, rand_subspace(rng, f, BASIS))
            comp = complement_in(inner, outer)
            assert comp == complement_in(inner, outer)
            assert subspace_sum(inner, comp) == outer
            assert subspace_intersect(inner, comp).is_zero()


def test_complement_requires_containment():
    f = RATIONALS
    inner = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: f.one}])
    outer = GradedSubspace.from_sparse_vectors(f, BASIS, [{1: f.one}])
    with pytest.raises(ValueError):
        complement_in(inner, outer)


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
        oracle = GradedSubspace.from_sparse_vectors(f, B, products)
        assert image == oracle


def test_bilinear_image_rejects_grade_violating_rule():
    f = RATIONALS
    G = GroupSpec(0, (2,))
    B = GradedBasis([("p", (0,)), ("q", (1,))])
    bad = rule_from_names("product", f, G, B, B, B, {("p", "p"): {"q": f.one}})
    with pytest.raises(ToolkitError):
        bilinear_image(bad, GradedSubspace.full(f, B), GradedSubspace.full(f, B))


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
                assert ker.contains_sparse(v)


def test_subspace_json_describes_blocks():
    f = prime_field(3)
    sub = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 1}, {2: 1, 3: 2}])
    data = sub.to_json()
    assert set(data) == {"0", "1"}
    assert sub.dim == 2 and sub.dim_at((1,)) == 1


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
            assert total == GradedSubspace.from_sparse_vectors(f, WIDE, U.sparse_vectors() + W.sparse_vectors())
            meet = subspace_intersect(U, W)
            comp = complement_in(U, total)
            image = bilinear_image(rule, U, W)
            products = [rule.apply_sparse(u, w) for u in U.sparse_vectors() for w in W.sparse_vectors()]
            assert image == GradedSubspace.from_sparse_vectors(f, WIDE, products)
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
                if U.contains_block_vector(g, v) and W.contains_block_vector(g, v)
            ]
            meet = subspace_intersect(U, W)
            assert meet == GradedSubspace.from_block_vectors(f, WIDE, common)
            assert sum(f.p ** meet.dim_at(g) for g in WIDE.grades()) == len(common)


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
        lambda: GradedSubspace.from_block_vectors(f, BASIS, [((0,), row)]),
        lambda: GradedSubspace.from_sparse_vectors(f, BASIS, [{0: bad}]),
        lambda: sub.contains_block_vector((0,), row),
        lambda: sub.contains_sparse({0: bad}),
        lambda: sub.block_coordinates((0,), row),
        lambda: BASIS.block_vector((0,), row, f),
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
        lambda: GradedSubspace.from_block_vectors(f, BASIS, [((0,), row)]),
        lambda: sub.contains_block_vector((0,), row),
        lambda: sub.block_coordinates((0,), row),
        lambda: GradedSubspace.zero(f, BASIS).contains_block_vector((0,), row),
    ):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            call()


def test_derived_subspaces_are_not_reduced_again(monkeypatch):
    calls = []
    real = grlr.linear.rref
    monkeypatch.setattr(grlr.linear, "rref", lambda *args: calls.append(args) or real(*args))
    f = prime_field(3)
    U = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 1, 1: 2}])
    W = GradedSubspace.from_sparse_vectors(f, BASIS, [{2: 1}, {3: 1, 4: 1}])
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
    a = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 1}, {2: 1, 3: 1}])
    inside = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 2}, {2: 2, 3: 2}])
    mixed = GradedSubspace.from_sparse_vectors(f, BASIS, [{0: 1}, {4: 1}])
    calls.clear()
    assert subspace_sum(a, inside) == a
    assert calls == []
    total = subspace_sum(a, mixed)
    assert len(calls) == 1  # grade (1,) only: mixed's grade-(0,) row already lies in a
    assert total.pivots == {(0,): (0,), (1,): (0, 2)}


def _kernel_basis(f, m, cols):
    """e_f - sum_r ech[r][f] e_{p_r} for each free column f, unreduced."""
    ech, pivots = rref(f, m)
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
