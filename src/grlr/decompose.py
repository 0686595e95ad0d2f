"""Orthogonal decompositions of (L, A) into class-indexed graded ideals.

Each connection class [g] of the L-side supports contributes the ideal

    I_[g] = L_[g],1 (+) V_[g],
    L_[g],1 = sum_{g' in [g] n Lambda} A_{g'^-1} L_{g'}
            + sum_{g' in [g]}          [L_{g'^-1}, L_{g'}],
    V_[g]   = (+)_{g' in [g]} L_{g'},

and dually on the A side with the anchor image replacing the bracket.
Both sides run one construction, read off a per-side table:

    side  basis  own support  cross support  cross rule  own rule
    L     L      Sigma        Lambda         action      bracket
    A     A      Lambda       Sigma          anchor      product

The identity part of a class sums, over its grades g, the own-rule term
own(X_{g^-1}, Y_g) and, for g also in the cross support, the cross-rule
term cross(X_{g^-1}, Y_g); each rule takes X and Y from its own left and
right bases (action: A x L, anchor: L x A).  Summed over all classes
the identity parts give the identity block the whole support generates.
Tightness (seven named conditions) is what makes the sum of the ideals
all of L with zero pairwise intersections.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .connections import ConnectionPartition, Supports, lambda_classes, sigma_classes, supports
from .groups import Grade, format_grade
from .linear import (
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    bilinear_image,
    complement_in,
    subspace_intersect,
    subspace_sum,
)
from .model import AlgebraInstance, ann_A, ann_L_of_A, center


def _full(inst: AlgebraInstance, basis: GradedBasis) -> GradedSubspace:
    return inst.full_L() if basis == inst.L else inst.full_A()


def _block(inst: AlgebraInstance, basis: GradedBasis, grades: Iterable[Grade]) -> GradedSubspace:
    """The blocks of ``basis`` (L or A) at ``grades``, as one subspace."""
    return _full(inst, basis).at_grades(grades)


def identity_block_L(inst: AlgebraInstance) -> GradedSubspace:
    return _block(inst, inst.L, [inst.group.identity()])

def identity_block_A(inst: AlgebraInstance) -> GradedSubspace:
    return _block(inst, inst.A, [inst.group.identity()])


def _side(
    inst: AlgebraInstance, sup: Supports, side: str
) -> tuple[GradedBasis, frozenset[Grade], frozenset[Grade], BilinearRule, BilinearRule]:
    """(basis, own support, cross support, cross rule, own rule) of one side."""
    if side == "L":
        return inst.L, sup.sigma, sup.lam, inst.action, inst.bracket
    return inst.A, sup.lam, sup.sigma, inst.anchor, inst.product


def _term(inst: AlgebraInstance, rule: BilinearRule, g: Grade) -> GradedSubspace:
    """rule(X_{g^-1}, Y_g) for the left basis X and the right basis Y of the rule."""
    ginv = inst.group.inv(g)
    return bilinear_image(rule, _block(inst, rule.left, [ginv]), _block(inst, rule.right, [g]))


def _identity_part(inst: AlgebraInstance, sup: Supports, side: str, grades: Iterable[Grade]) -> GradedSubspace:
    """Sum over g in ``grades`` of cross(X_{g^-1}, Y_g), for g in the cross
    support only, and of own(X_{g^-1}, Y_g): a subspace of the identity block."""
    basis, _, cross, cross_rule, own_rule = _side(inst, sup, side)
    total = GradedSubspace.zero(inst.field, basis)
    for g in grades:
        if g in cross:
            total = subspace_sum(total, _term(inst, cross_rule, g))
        total = subspace_sum(total, _term(inst, own_rule, g))
    return total


# ---------------------------------------------------------------------------
# class ideals


@dataclass
class ClassIdeal:
    side: str  # "L" or "A"
    label: tuple[Grade, ...]
    identity_part: GradedSubspace
    support_part: GradedSubspace
    total: GradedSubspace

    def label_json(self) -> list[str]:
        return [format_grade(g) for g in self.label]


# ---------------------------------------------------------------------------
# decomposition reports


@dataclass
class DecompositionReport:
    side: str
    partition: ConnectionPartition
    ideals: list[ClassIdeal]
    complement: GradedSubspace  # U (L side) or V (A side) inside the identity block
    span_ok: bool  # ideals + complement fill the whole space
    direct: bool  # complement zero and pairwise intersections zero
    orthogonal: list[dict]  # pairwise product checks

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "classes": self.partition.to_json(),
            "ideals": [
                {
                    "class": ideal.label_json(),
                    "identity_part": ideal.identity_part.to_json(),
                    "support_part": ideal.support_part.to_json(),
                    "total": ideal.total.to_json(),
                    "dim": ideal.total.dim,
                }
                for ideal in self.ideals
            ],
            "complement": self.complement.to_json(),
            "span_ok": self.span_ok,
            "direct": self.direct,
            "orthogonal": self.orthogonal,
        }


def _pairwise(ideals: list[ClassIdeal], rule: BilinearRule) -> tuple[list[dict], bool]:
    n = len(ideals)
    zero_product = {
        (i, j): bilinear_image(rule, ideals[i].total, ideals[j].total).is_zero()
        for i in range(n)
        for j in range(n)
        if i != j
    }
    ok = all(zero_product.values())
    facts = []
    for i in range(n):
        for j in range(i + 1, n):
            inter_zero = subspace_intersect(ideals[i].total, ideals[j].total).is_zero()
            ok = ok and inter_zero
            facts.append(
                {
                    "pair": [ideals[i].label_json(), ideals[j].label_json()],
                    "product_zero": zero_product[i, j] and zero_product[j, i],
                    "intersection_zero": inter_zero,
                }
            )
    return facts, ok


def _decompose(inst: AlgebraInstance, side: str) -> DecompositionReport:
    sup = supports(inst)
    basis, _, _, _, own_rule = _side(inst, sup, side)
    partition = sigma_classes(sup) if side == "L" else lambda_classes(sup)
    ideals = []
    # The classes partition the own support, so the sum of their identity
    # parts is the identity block the whole support generates.
    generated = GradedSubspace.zero(inst.field, basis)
    for cls in partition.classes:
        identity_part = _identity_part(inst, sup, side, cls)
        support_part = _block(inst, basis, cls)
        ideals.append(
            ClassIdeal(side, tuple(cls), identity_part, support_part, subspace_sum(identity_part, support_part))
        )
        generated = subspace_sum(generated, identity_part)
    complement = complement_in(generated, _block(inst, basis, [inst.group.identity()]))
    span = complement
    for ideal in ideals:
        span = subspace_sum(span, ideal.total)
    span_ok = span == _full(inst, basis)
    facts, pairwise_ok = _pairwise(ideals, own_rule)
    return DecompositionReport(
        side, partition, ideals, complement, span_ok, complement.is_zero() and pairwise_ok, facts
    )


def decompose_L(inst: AlgebraInstance) -> DecompositionReport:
    return _decompose(inst, "L")


def decompose_A(inst: AlgebraInstance) -> DecompositionReport:
    return _decompose(inst, "A")


# ---------------------------------------------------------------------------
# tightness


@dataclass
class TightnessReport:
    conditions: dict[str, bool]
    witnesses: dict[str, str]

    @property
    def tight(self) -> bool:
        return all(self.conditions.values())

    def to_json(self) -> dict:
        out = {"tight": self.tight, "conditions": dict(sorted(self.conditions.items()))}
        if self.witnesses:
            out["witnesses"] = dict(sorted(self.witnesses.items()))
        return out


def check_tight(inst: AlgebraInstance) -> TightnessReport:
    """The seven tightness conditions, each with a witness on failure."""
    sup = supports(inst)
    conditions: dict[str, bool] = {}
    witnesses: dict[str, str] = {}

    def record(name: str, space: GradedSubspace, expect_zero: bool, target: GradedSubspace | None = None):
        if expect_zero:
            ok = space.is_zero()
            if not ok:
                witnesses[name] = f"nonzero element: {space.describe().split(' , ')[0]}"
        else:
            assert target is not None
            ok = space == target
            if not ok:
                missing = complement_in(subspace_intersect(space, target), target)
                desc = missing.describe().split(" , ")[0] if not missing.is_zero() else space.describe()
                witnesses[name] = f"not spanned: {desc}"
        conditions[name] = ok

    record("center_zero", center(inst), True)
    record("ann_L_of_A_zero", ann_L_of_A(inst), True)
    record("ann_A_zero", ann_A(inst), True)

    AA = bilinear_image(inst.product, inst.full_A(), inst.full_A())
    record("AA_equals_A", AA, False, inst.full_A())
    AL = bilinear_image(inst.action, inst.full_A(), inst.full_L())
    record("AL_equals_L", AL, False, inst.full_L())

    record("L_identity_generated", _identity_part(inst, sup, "L", sorted(sup.sigma)), False, identity_block_L(inst))
    record("A_identity_generated", _identity_part(inst, sup, "A", sorted(sup.lam)), False, identity_block_A(inst))
    return TightnessReport(conditions, witnesses)


# ---------------------------------------------------------------------------
# pairing between the two decompositions


@dataclass
class PairingReport:
    pairs: list[dict]
    contradiction: bool

    def to_json(self) -> dict:
        return {"pairs": self.pairs, "contradiction": self.contradiction}


def pair_ideals(
    inst: AlgebraInstance,
    L_report: DecompositionReport,
    A_report: DecompositionReport,
    tight: bool,
) -> PairingReport:
    """For each L ideal, the A ideals acting nonzero on it.

    On tight instances exactly one A class must act; finding zero or
    several there signals an implementation bug or a wrong tightness
    verdict, and is reported as a contradiction flag rather than raised.
    """
    pairs = []
    contradiction = False
    for ideal in L_report.ideals:
        acting = []
        for a_ideal in A_report.ideals:
            image = bilinear_image(inst.action, a_ideal.total, ideal.total)
            if not image.is_zero():
                acting.append(a_ideal)
        entry = {
            "L_class": ideal.label_json(),
            "A_classes": [a.label_json() for a in acting],
            "unique": len(acting) == 1,
        }
        if tight and len(acting) != 1:
            contradiction = True
            entry["contradiction"] = True
        pairs.append(entry)
    return PairingReport(pairs, contradiction)
