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

Each term is a product of two whole blocks, so it is the span of the
table entries on the block pair (g^-1, g).  An identity part is
therefore one elimination of those entries (``linear.row_span`` of
``linear.entry_rows``), taken term by term in the order above, cross
before own at each grade, so a block pair that breaks the grade-shift
law is refused at the same term as a product would refuse it.

Tightness reads AA and AL the same way, from all block pairs of the
product and the action, and reads the identity parts from the same
terms.  Each of its seven conditions is a yes/no rank question, decided
by ``linear.rank_reaches``, which stops at the n-th independent row: a
kernel, on the maps ``model.KERNEL_MAPS`` lists for it, is zero iff the
condition rows of each block (``linear.kernel_conditions``) have full
column rank, and AA = A, AL = L and each identity part hold iff the
entry rows (``linear.entry_rows``) span every block asked for.  Only a
failing condition builds subspaces, to name its witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .connections import ConnectionPartition, lambda_classes, sigma_classes, supports
from .fields import Field, Scalar
from .groups import Grade, format_grade
from .linear import (
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    bilinear_image,
    complement_in,
    entry_kernel,
    entry_rows,
    kernel_conditions,
    rank_reaches,
    row_span,
    subspace_intersect,
    subspace_sum,
)
from .model import AlgebraInstance, kernel_maps


def _full(inst: AlgebraInstance, basis: GradedBasis) -> GradedSubspace:
    return inst.full_L() if basis == inst.L else inst.full_A()


def _block(inst: AlgebraInstance, basis: GradedBasis, grades: Iterable[Grade]) -> GradedSubspace:
    """The blocks of ``basis`` (L or A) at ``grades``, as one subspace."""
    return _full(inst, basis).at_grades(grades)


def _side(
    inst: AlgebraInstance, side: str
) -> tuple[GradedBasis, frozenset[Grade], frozenset[Grade], BilinearRule, BilinearRule]:
    """(basis, own support, cross support, cross rule, own rule) of one side."""
    sup = supports(inst)
    if side == "L":
        return inst.L, sup.sigma, sup.lam, inst.action, inst.bracket
    return inst.A, sup.lam, sup.sigma, inst.anchor, inst.product


def _identity_terms(
    inst: AlgebraInstance, side: str, grades: Iterable[Grade]
) -> list[tuple[BilinearRule, tuple[Grade, Grade]]]:
    """The terms of an identity part: at each g in ``grades``, the cross
    rule on (g^-1, g) for g in the cross support only, then the own rule."""
    _, _, cross, cross_rule, own_rule = _side(inst, side)
    terms = []
    for g in grades:
        pair = (inst.group.inv(g), g)
        if g in cross:
            terms.append((cross_rule, pair))
        terms.append((own_rule, pair))
    return terms


def _identity_part(inst: AlgebraInstance, side: str, grades: Iterable[Grade]) -> GradedSubspace:
    """Sum over g in ``grades`` of cross(X_{g^-1}, Y_g), for g in the cross
    support only, and of own(X_{g^-1}, Y_g): a subspace of the identity block."""
    basis = _side(inst, side)[0]
    return row_span(inst.field, basis, entry_rows(inst.field, basis, _identity_terms(inst, side, grades)))


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


def _decompose(inst: AlgebraInstance, side: str, partition: ConnectionPartition) -> DecompositionReport:
    """The class report of one side, from that side's connection partition."""
    basis, _, _, _, own_rule = _side(inst, side)
    ideals = []
    # The classes partition the own support, so the sum of their identity
    # parts is the identity block the whole support generates.
    generated = GradedSubspace.zero(inst.field, basis)
    for cls in partition.classes:
        identity_part = _identity_part(inst, side, cls)
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
    return _decompose(inst, "L", sigma_classes(supports(inst)))


def decompose_A(inst: AlgebraInstance) -> DecompositionReport:
    return _decompose(inst, "A", lambda_classes(supports(inst)))


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


def _first(space: GradedSubspace) -> str:
    return space.describe().split(" , ")[0]


def _nonzero_witness(f: Field, basis: GradedBasis, maps: Sequence[tuple[BilinearRule, bool]]) -> str:
    return f"nonzero element: {_first(entry_kernel(f, basis, maps))}"


def _not_spanned_witness(
    inst: AlgebraInstance, basis: GradedBasis, rows: dict[Grade, list[list[Scalar]]], grades: list[Grade]
) -> str:
    # the rows span a subspace of the blocks at ``grades``, so its complement there is nonzero
    return f"not spanned: {_first(complement_in(row_span(inst.field, basis, rows), _block(inst, basis, grades)))}"


def check_tight(inst: AlgebraInstance) -> TightnessReport:
    """The seven tightness conditions, each decided by ``rank_reaches``;
    only a failing one builds subspaces, for its witness."""
    sup, f, L, A = supports(inst), inst.field, inst.L, inst.A
    conditions: dict[str, bool] = {}
    witnesses: dict[str, str] = {}
    for kernel in ("center", "ann_L_of_A", "ann_A"):
        name = f"{kernel}_zero"
        basis, maps = kernel_maps(inst, kernel)
        rows = kernel_conditions(f, basis, maps)
        conditions[name] = all(rank_reaches(f, rows[g], basis.block_dim(g)) for g in rows)
        if not conditions[name]:
            witnesses[name] = _nonzero_witness(f, basis, maps)
    one = [inst.group.identity()]
    for name, basis, terms, grades in (
        ("AA_equals_A", A, [(inst.product, pair) for pair in sorted(inst.product.block_pairs())], A.grades()),
        ("AL_equals_L", L, [(inst.action, pair) for pair in sorted(inst.action.block_pairs())], L.grades()),
        ("L_identity_generated", L, _identity_terms(inst, "L", sorted(sup.sigma)), one),
        ("A_identity_generated", A, _identity_terms(inst, "A", sorted(sup.lam)), one),
    ):
        rows = entry_rows(f, basis, terms)
        conditions[name] = all(rank_reaches(f, rows.get(g, ()), basis.block_dim(g)) for g in grades)
        if not conditions[name]:
            witnesses[name] = _not_spanned_witness(inst, basis, rows, grades)
    return TightnessReport(conditions, witnesses)


# ---------------------------------------------------------------------------
# pairing between the two decompositions


@dataclass
class PairingReport:
    pairs: list[dict]
    contradiction: bool
    acting: list[list[ClassIdeal]]  # per L ideal, the A ideals acting on it; not in the JSON

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
    acting_per_ideal = []
    contradiction = False
    for ideal in L_report.ideals:
        acting = []
        for a_ideal in A_report.ideals:
            image = bilinear_image(inst.action, a_ideal.total, ideal.total)
            if not image.is_zero():
                acting.append(a_ideal)
        acting_per_ideal.append(acting)
        entry = {
            "L_class": ideal.label_json(),
            "A_classes": [a.label_json() for a in acting],
            "unique": len(acting) == 1,
        }
        if tight and len(acting) != 1:
            contradiction = True
            entry["contradiction"] = True
        pairs.append(entry)
    return PairingReport(pairs, contradiction, acting_per_ideal)
