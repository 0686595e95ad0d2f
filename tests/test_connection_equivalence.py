"""Connection is an equivalence relation on each support.

The partition into classes runs one search per class and puts into the
class of g everything g reaches, which is sound only because connection
is reflexive, symmetric and transitive.  These tests check the three
laws pair by pair on the criterion-2 instances (the six catalog entries
and the first 50 generated recipes with at most six multipliers), and
that the verdicts agree with ``class_of``.
"""
from __future__ import annotations

import pytest

from grlr import (
    lambda_classes,
    lambda_connected,
    sigma_classes,
    sigma_connected,
    supports,
)

from helpers import criterion_2_instances

SIDES = {
    "sigma": (sigma_connected, sigma_classes, lambda sup: sup.sigma),
    "lambda": (lambda_connected, lambda_classes, lambda sup: sup.lam),
}


INSTANCES = criterion_2_instances()


def test_criterion_2_instance_count():
    assert len(INSTANCES) == 56


@pytest.mark.parametrize("side", sorted(SIDES))
def test_connection_is_an_equivalence_relation(side):
    connected, classes, base_of = SIDES[side]
    problems = []
    for label, inst in INSTANCES:
        sup = supports(inst)
        base = sorted(base_of(sup))
        rel = {(g, h): connected(sup, g, h)[0] for g in base for h in base}
        part = classes(sup)
        for g in base:
            if not rel[g, g]:
                problems.append((label, "reflexive", g))
            for h in base:
                if rel[g, h] != rel[h, g]:
                    problems.append((label, "symmetric", g, h))
                if rel[g, h] != (part.class_of(g) == part.class_of(h)):
                    problems.append((label, "class_of", g, h))
                for k in base:
                    if rel[g, h] and rel[h, k] and not rel[g, k]:
                        problems.append((label, "transitive", g, h, k))
    assert not problems, problems[:10]
