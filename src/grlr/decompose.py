"""Orthogonal decompositions of (L, A) into class-indexed graded ideals.

Each connection class [g] of the L-side supports contributes the ideal

    I_[g] = L_[g],1 (+) V_[g],
    L_[g],1 = sum_{g' in [g] n Lambda} A_{g'^-1} L_{g'}
            + sum_{g' in [g]}          [L_{g'^-1}, L_{g'}],
    V_[g]   = (+)_{g' in [g]} L_{g'},

and dually on the A side with the anchor image replacing the bracket.
Tightness (seven named conditions) is what makes the sum of the ideals
all of L with zero pairwise intersections.
"""
from __future__ import annotations

from dataclasses import dataclass

from .connections import ConnectionPartition, Supports, lambda_classes, sigma_classes, supports
from .groups import Grade, format_grade
from .linear import GradedSubspace, bilinear_image, complement_in, subspace_intersect, subspace_sum
from .model import AlgebraInstance, ann_A, ann_L_of_A, center


def _block_subspace(inst: AlgebraInstance, side: str, grades: list[Grade]) -> GradedSubspace:
    basis, full = (inst.L, inst.full_L()) if side == "L" else (inst.A, inst.full_A())
    blocks = {g: full.blocks[g] for g in grades if g in full.blocks}
    return GradedSubspace(inst.field, basis, blocks)


def identity_block_L(inst: AlgebraInstance) -> GradedSubspace:
    return _block_subspace(inst, "L", [inst.group.identity()])

def identity_block_A(inst: AlgebraInstance) -> GradedSubspace:
    return _block_subspace(inst, "A", [inst.group.identity()])


def _action_term(inst: AlgebraInstance, g: Grade) -> GradedSubspace:
    """A_{g^-1} L_g as a subspace of L."""
    ginv = inst.group.inv(g)
    return bilinear_image(
        inst.action, _block_subspace(inst, "A", [ginv]), _block_subspace(inst, "L", [g])
    )


def _bracket_term(inst: AlgebraInstance, g: Grade) -> GradedSubspace:
    """[L_{g^-1}, L_g] as a subspace of L."""
    ginv = inst.group.inv(g)
    return bilinear_image(
        inst.bracket, _block_subspace(inst, "L", [ginv]), _block_subspace(inst, "L", [g])
    )


def _anchor_term(inst: AlgebraInstance, g: Grade) -> GradedSubspace:
    """rho(L_{g^-1})(A_g) as a subspace of A."""
    ginv = inst.group.inv(g)
    return bilinear_image(
        inst.anchor, _block_subspace(inst, "L", [ginv]), _block_subspace(inst, "A", [g])
    )


def _product_term(inst: AlgebraInstance, g: Grade) -> GradedSubspace:
    """A_{g^-1} A_g as a subspace of A."""
    ginv = inst.group.inv(g)
    return bilinear_image(
        inst.product, _block_subspace(inst, "A", [ginv]), _block_subspace(inst, "A", [g])
    )


def generated_identity_L(inst: AlgebraInstance, sup: Supports | None = None) -> GradedSubspace:
    """sum_{g in Sigma n Lambda} A_{g^-1}L_g + sum_{g in Sigma} [L_{g^-1}, L_g]."""
    sup = sup or supports(inst)
    total = GradedSubspace.zero(inst.field, inst.L)
    for g in sorted(sup.sigma & sup.lam):
        total = subspace_sum(total, _action_term(inst, g))
    for g in sorted(sup.sigma):
        total = subspace_sum(total, _bracket_term(inst, g))
    return total


def generated_identity_A(inst: AlgebraInstance, sup: Supports | None = None) -> GradedSubspace:
    """sum_{g in Lambda n Sigma} rho(L_{g^-1})(A_g) + sum_{g in Lambda} A_{g^-1}A_g."""
    sup = sup or supports(inst)
    total = GradedSubspace.zero(inst.field, inst.A)
    for g in sorted(sup.lam & sup.sigma):
        total = subspace_sum(total, _anchor_term(inst, g))
    for g in sorted(sup.lam):
        total = subspace_sum(total, _product_term(inst, g))
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


def build_class_ideal_L(inst: AlgebraInstance, cls: tuple[Grade, ...], sup: Supports | None = None) -> ClassIdeal:
    sup = sup or supports(inst)
    identity_part = GradedSubspace.zero(inst.field, inst.L)
    for g in cls:
        if g in sup.lam:
            identity_part = subspace_sum(identity_part, _action_term(inst, g))
        identity_part = subspace_sum(identity_part, _bracket_term(inst, g))
    support_part = _block_subspace(inst, "L", list(cls))
    return ClassIdeal("L", tuple(cls), identity_part, support_part, subspace_sum(identity_part, support_part))


def build_class_ideal_A(inst: AlgebraInstance, cls: tuple[Grade, ...], sup: Supports | None = None) -> ClassIdeal:
    sup = sup or supports(inst)
    identity_part = GradedSubspace.zero(inst.field, inst.A)
    for g in cls:
        if g in sup.sigma:
            identity_part = subspace_sum(identity_part, _anchor_term(inst, g))
        identity_part = subspace_sum(identity_part, _product_term(inst, g))
    support_part = _block_subspace(inst, "A", list(cls))
    return ClassIdeal("A", tuple(cls), identity_part, support_part, subspace_sum(identity_part, support_part))


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


def _pairwise(inst: AlgebraInstance, ideals: list[ClassIdeal], rule, side: str) -> tuple[list[dict], bool]:
    facts = []
    all_zero_products = True
    all_zero_intersections = True
    for i in range(len(ideals)):
        for j in range(len(ideals)):
            if i == j:
                continue
            prod = bilinear_image(rule, ideals[i].total, ideals[j].total)
            inter = subspace_intersect(ideals[i].total, ideals[j].total) if i < j else None
            if not prod.is_zero():
                all_zero_products = False
            if inter is not None and not inter.is_zero():
                all_zero_intersections = False
            if i < j:
                facts.append(
                    {
                        "pair": [ideals[i].label_json(), ideals[j].label_json()],
                        "product_zero": prod.is_zero()
                        and bilinear_image(rule, ideals[j].total, ideals[i].total).is_zero(),
                        "intersection_zero": inter.is_zero() if inter is not None else True,
                    }
                )
    return facts, all_zero_products and all_zero_intersections


def decompose_L(inst: AlgebraInstance) -> DecompositionReport:
    sup = supports(inst)
    partition = sigma_classes(sup)
    ideals = [build_class_ideal_L(inst, cls, sup) for cls in partition.classes]
    generated = generated_identity_L(inst, sup)
    complement = complement_in(generated, identity_block_L(inst))
    span = GradedSubspace.zero(inst.field, inst.L)
    for ideal in ideals:
        span = subspace_sum(span, ideal.total)
    span_ok = subspace_sum(span, complement) == inst.full_L()
    facts, pairwise_ok = _pairwise(inst, ideals, inst.bracket, "L")
    return DecompositionReport(
        "L", partition, ideals, complement, span_ok, complement.is_zero() and pairwise_ok, facts
    )


def decompose_A(inst: AlgebraInstance) -> DecompositionReport:
    sup = supports(inst)
    partition = lambda_classes(sup)
    ideals = [build_class_ideal_A(inst, cls, sup) for cls in partition.classes]
    generated = generated_identity_A(inst, sup)
    complement = complement_in(generated, identity_block_A(inst))
    span = GradedSubspace.zero(inst.field, inst.A)
    for ideal in ideals:
        span = subspace_sum(span, ideal.total)
    span_ok = subspace_sum(span, complement) == inst.full_A()
    facts, pairwise_ok = _pairwise(inst, ideals, inst.product, "A")
    return DecompositionReport(
        "A", partition, ideals, complement, span_ok, complement.is_zero() and pairwise_ok, facts
    )


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

    record("L_identity_generated", generated_identity_L(inst, sup), False, identity_block_L(inst))
    record("A_identity_generated", generated_identity_A(inst, sup), False, identity_block_A(inst))
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
