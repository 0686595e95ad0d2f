from __future__ import annotations

import random

import pytest

from grlr.groups import GroupSpec, direct_product, embed_left, embed_right, format_grade

from helpers import parse_grade


def test_free_group_arithmetic():
    G = GroupSpec(2)
    assert G.identity() == (0, 0)
    assert G.mul((1, -2), (3, 5)) == (4, 3)
    assert G.inv((1, -2)) == (-1, 2)
    assert G.reduce((7, -7)) == (7, -7)


def test_torsion_reduction():
    G = GroupSpec(0, (3,))
    assert G.reduce((5,)) == (2,)
    assert G.mul((2,), (2,)) == (1,)
    assert G.inv((1,)) == (2,)


def test_mixed_group():
    G = GroupSpec(1, (2,))
    assert G.mul((3, 1), (-1, 1)) == (2, 0)
    assert G.inv((5, 1)) == (-5, 1)
    assert G.identity() == (0, 0)


def test_check_rejects_noncanonical():
    G = GroupSpec(0, (4,))
    with pytest.raises(ValueError):
        G.check((4,))
    with pytest.raises(ValueError):
        G.check((1, 0))
    G.check((3,))


def test_group_axioms_seeded():
    rng = random.Random(3)
    for G in (GroupSpec(1), GroupSpec(0, (5,)), GroupSpec(2, (2, 3))):
        for _ in range(100):
            def rand():
                free = tuple(rng.randint(-4, 4) for _ in range(G.free_rank))
                tor = tuple(rng.randrange(m) for m in G.torsion)
                return free + tor
            a, b, c = rand(), rand(), rand()
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
            assert G.mul(a, G.inv(a)) == G.identity()
            assert G.mul(a, b) == G.mul(b, a)
            assert G.mul(a, G.identity()) == a


def test_invalid_specs():
    with pytest.raises(ValueError):
        GroupSpec(-1)
    with pytest.raises(ValueError):
        GroupSpec(0, (1,))


@pytest.mark.parametrize("args, bad", [
    ((1, (2.7,)), "2.7"),
    ((True,), "True"),
    ((1.5,), "1.5"),
    ((1, (2, False)), "False"),
    (("1",), "'1'"),
])
def test_non_integer_specs_are_refused(args, bad):
    with pytest.raises(ValueError, match=f"must be integers, got {bad}"):
        GroupSpec(*args)


def test_torsion_must_be_a_sequence_of_moduli():
    with pytest.raises(ValueError, match="torsion must be a tuple"):
        GroupSpec(1, 3)
    assert GroupSpec(1, [2, 3]).torsion == (2, 3)


def test_grade_formatting_round_trip():
    G2 = GroupSpec(2)
    assert format_grade((1, -2)) == "1,-2"
    assert parse_grade(G2, "1,-2") == (1, -2)
    assert parse_grade(GroupSpec(0, (3,)), "5") == (2,)
    assert parse_grade(GroupSpec(1), format_grade((0,))) == (0,)


def test_direct_product_embeddings():
    A = GroupSpec(1, (2,))
    B = GroupSpec(0, (3,))
    P = direct_product(A, B)
    assert P.free_rank == 1 and P.torsion == (2, 3)
    ga, gb = (4, 1), (2,)
    ea, eb = embed_left(A, B, ga), embed_right(A, B, gb)
    P.check(ea)
    P.check(eb)
    assert P.mul(ea, eb) == P.mul(eb, ea)
    # embeddings are homomorphisms into disjoint coordinates
    assert embed_left(A, B, A.identity()) == P.identity()
    assert P.mul(embed_left(A, B, (1, 1)), embed_left(A, B, (2, 1))) == embed_left(A, B, A.mul((1, 1), (2, 1)))


def test_group_json_round_trip():
    for G in (GroupSpec(1), GroupSpec(0, (3,)), GroupSpec(2, (2, 2))):
        assert GroupSpec.from_json(G.to_json()) == G
