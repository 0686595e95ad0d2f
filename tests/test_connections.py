from __future__ import annotations

import random

import pytest

from grlr import (
    GroupSpec,
    Supports,
    connection_graph_dot,
    enumerate_connections,
    lambda_classes,
    lambda_connected,
    sigma_classes,
    sigma_connected,
    supports,
    validate_connection_path,
)
import grlr.oracle
from grlr.errors import GuardError

from helpers import cached, criterion_2_instances, reference_connections

# pinned class counts: (sigma classes, lambda classes)
CLASS_COUNTS = {
    "e1": (1, 0),
    "e2": (1, 1),
    "e3": (2, 2),
    "ga2": (0, 1),
    "ga3": (0, 1),
    "sl2_ga2": (1, 1),
}


@pytest.mark.parametrize("name,counts", sorted(CLASS_COUNTS.items()))
def test_catalog_class_counts(name, counts):
    sup = supports(cached(name))
    assert (len(sigma_classes(sup).classes), len(lambda_classes(sup).classes)) == counts


def test_e3_classes_split_by_factor():
    sup = supports(cached("e3"))
    part = sigma_classes(sup)
    blocks = {frozenset(c) for c in part.classes}
    assert blocks == {frozenset({(1, 0), (2, 0)}), frozenset({(0, 1), (0, 2)})}
    assert {frozenset(c) for c in lambda_classes(sup).classes} == blocks
    assert part.class_of((2, 0)) == part.class_of((1, 0))
    assert part.class_of((0, 1)) != part.class_of((1, 0))


def test_witness_paths_replay():
    for name in ("e1", "e2", "e3", "sl2_ga2"):
        sup = supports(cached(name))
        for g in sorted(sup.sigma):
            for h in sorted(sup.sigma):
                ok, path = sigma_connected(sup, g, h)
                if ok:
                    assert validate_connection_path(sup, "sigma", path, g, h), (name, g, h, path)
        for g in sorted(sup.lam):
            for h in sorted(sup.lam):
                ok, path = lambda_connected(sup, g, h)
                if ok:
                    assert validate_connection_path(sup, "lambda", path, g, h), (name, g, h, path)


def test_path_validation_rejects_garbage():
    sup = supports(cached("e1"))
    g = (1,)
    # wrong start, detour through a state outside the allowed set, wrong landing
    assert not validate_connection_path(sup, "sigma", [(-1,)], g, g)
    assert not validate_connection_path(sup, "sigma", [g, (5,)], g, g)
    assert not validate_connection_path(sup, "sigma", [g, (1,)], g, g)
    assert validate_connection_path(sup, "sigma", [g], g, (-1,))


def test_self_connection_always_holds():
    for name in ("e1", "e2", "e3", "ga2", "ga3", "sl2_ga2"):
        sup = supports(cached(name))
        for g in sup.sigma:
            ok, path = sigma_connected(sup, g, g)
            assert ok and path == [g]
        for g in sup.lam:
            ok, path = lambda_connected(sup, g, g)
            assert ok and path == [g]


def test_connected_rejects_grades_outside_support():
    sup = supports(cached("e1"))
    with pytest.raises(ValueError):
        sigma_connected(sup, (0,), (1,))
    with pytest.raises(ValueError):
        lambda_connected(sup, (1,), (1,))  # lambda support of e1 is empty


def test_enumeration_pinned_examples():
    sup = supports(cached("e1"))
    # e and f sit at inverse grades, so the empty multiplier word connects them
    assert enumerate_connections(sup, (1,), (-1,), "sigma", max_len=1) == [[(1,)]]
    sup3 = supports(cached("e3"))
    assert enumerate_connections(sup3, (1, 0), (0, 1), "sigma") == []
    for g in sorted(sup3.sigma):
        assert [g] in enumerate_connections(sup3, g, g, "sigma")
    with pytest.raises(ValueError):
        enumerate_connections(sup, (0,), (1,), "sigma")


def test_enumeration_output_paths_all_validate():
    sup = supports(cached("e2"))
    for g in sorted(sup.sigma):
        for h in sorted(sup.sigma):
            for path in enumerate_connections(sup, g, h, "sigma", max_len=4):
                assert validate_connection_path(sup, "sigma", path, g, h)
    for g in sorted(sup.lam):
        for h in sorted(sup.lam):
            for path in enumerate_connections(sup, g, h, "lambda", max_len=4):
                assert validate_connection_path(sup, "lambda", path, g, h)


@pytest.mark.parametrize("max_len", [None, 1, 3])
def test_enumeration_matches_literal_reference(monkeypatch, max_len):
    # the step table must list the same paths in the same order as a search
    # that multiplies at every step, and the guard's counts must equal that
    # search's number of products and of listed entries.  A bound of the
    # larger count passes; a bound one below either count refuses, naming
    # a count that is above it (the counter stops at the first one over)
    counted = []

    def spy(*args):
        counted.append(search_size(*args))
        return counted[-1]

    search_size = grlr.oracle._search_size
    monkeypatch.setattr(grlr.oracle, "_search_size", spy)
    for label, inst in criterion_2_instances():
        sup = supports(inst)
        for side in ("sigma", "lambda"):
            base = sorted(sup.base(side))
            for g in base:
                for h in base:
                    where = (label, side, g, h)
                    expected, products = reference_connections(sup, g, h, side, max_len)
                    entries = sum(len(path) for path in expected)
                    bound = max(products, entries)
                    monkeypatch.setattr(grlr.oracle, "MAX_DFS_STEPS", bound)
                    counted.clear()
                    assert enumerate_connections(sup, g, h, side, max_len) == expected, where
                    assert counted == [(products, entries)], where
                    counts = {"search steps": products, "listed path entries": entries}
                    for below in {products - 1, entries - 1}:
                        monkeypatch.setattr(grlr.oracle, "MAX_DFS_STEPS", below)
                        over = "|".join(what for what, count in counts.items() if count > below)
                        with pytest.raises(GuardError, match=over):
                            enumerate_connections(sup, g, h, side, max_len)


def test_enumeration_refuses_a_long_listing():
    # 3,998 products, but 2,000 paths of lengths 1 to 2,000
    sup = supports(cached("e2"))
    with pytest.raises(GuardError, match="listed path entries"):
        enumerate_connections(sup, (1,), (2,), "sigma", max_len=2000)
    assert len(enumerate_connections(sup, (1,), (2,), "sigma", max_len=20)) == 20


def test_enumeration_reaches_targets_outside_the_states():
    sup = supports(cached("e1"))
    # (2,) and (-2,) are not allowed states; (1,) * (1,) lands on (2,)
    assert (2,) not in sup.states("sigma")
    listed = enumerate_connections(sup, (1,), (2,), "sigma")
    assert listed == reference_connections(sup, (1,), (2,), "sigma")[0] == [[(1,), (1,)]]


def test_search_agrees_with_enumeration_on_random_supports():
    rng = random.Random(20260814)
    for trial in range(40):
        n = rng.choice([2, 3, 4])
        group = GroupSpec(0, (n,))
        universe = [(k,) for k in range(n)]
        sig = frozenset(g for g in universe if g != (0,) and rng.random() < 0.5)
        lam = frozenset(g for g in universe if g != (0,) and rng.random() < 0.5)
        sup = Supports(group, sig, lam)
        if len(sup.multipliers()) > 4:
            continue
        for side, base in (("sigma", sig), ("lambda", lam)):
            connect = sigma_connected if side == "sigma" else lambda_connected
            for g in sorted(base):
                for h in sorted(base):
                    ok, _ = connect(sup, g, h)
                    listed = enumerate_connections(sup, g, h, side)
                    assert ok == bool(listed), (trial, side, g, h)


def test_dot_output_mentions_every_support_grade():
    sup = supports(cached("e3"))
    dot = connection_graph_dot(sup, "sigma")
    assert dot.startswith("digraph sigma_connections {")
    for g in sorted(sup.sigma):
        assert f'"{g[0]},{g[1]}";' in dot
    assert dot.count("subgraph cluster_") == 2
    assert dot == connection_graph_dot(sup, "sigma")
