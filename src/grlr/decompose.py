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
therefore the span ``linear.fill_entries`` builds from those entries,
taken term by term in the order above, cross before own at each grade,
so a block pair that breaks the grade-shift law is refused at the same
term as a product would refuse it.

Tightness reads AA and AL the same way, from all block pairs of the
product and the action, and reads the identity parts from the same
terms.  Its seven conditions come from one lazy evaluator,
``tightness``, in report order: each is decided only when the iteration
reaches it, so a reader that stops at the first failing condition (the
recipe search) decides no other.  Each is a yes/no rank question,
decided on its own ``linear.Span``, and reads its rows lazily:
- a kernel, on the maps ``model.KERNEL_MAPS`` lists for it, is zero iff
  its condition rows fill each block.  They are read one block pair at
  a time (``linear.kernel_conditions``), and no further than the row that
  fills the block;
- AA = A, AL = L and each identity part hold iff the entry rows of their
  terms fill every block asked for (``linear.fill_entries``).  Every
  term's block pair still goes through ``linear.checked_block_pair``, in
  term order, so a refusal keeps its text and its place; its entry rows
  are built only while its target block is not full.
A failing condition yields what names its witness, and ``check_tight``
(``drain``) names it at once: in its first short block, in sorted grade
order, from the rows that span holds, the first vector of their kernel,
or of ``Span.complement``, the unit vectors at the columns that are no
row's pivot.  A short block has read all its rows, so the witness is the
one a full read gives.  The complement U (or V) of a decomposition
report is built the same way, from one span of the classes' identity
parts.

Orthogonality and the pairing are yes/no questions too: the product of
two class ideals under the side's own rule, and the action of an A
ideal on an L ideal, are decided by ``linear.product_is_zero``, which
stops at the first nonzero product of basis rows and builds no image.
It refuses a block pair that breaks the grade-shift law as
``bilinear_image`` would, with the same text, before any product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .connections import ConnectionPartition, lambda_classes, sigma_classes, supports
from .fields import Field
from .groups import Grade, format_grade
# bilinear_image is unused here, but bench/selftest.py checks that the
# benchmark's tracer wraps it in this module; it goes with that check
from .linear import (  # noqa: F401
    BilinearRule,
    Echelon,
    GradedBasis,
    GradedSubspace,
    Span,
    bilinear_image,
    fill_entries,
    kernel_conditions,
    nullspace,
    product_is_zero,
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
    return fill_entries(Span(inst.field, _side(inst, side)[0]), _identity_terms(inst, side, grades)).subspace()


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
        (i, j): product_is_zero(rule, ideals[i].total, ideals[j].total)
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
    f, one = inst.field, inst.group.identity()
    basis, _, _, _, own_rule = _side(inst, side)
    ideals = []
    # The classes partition the own support, so the span of their identity
    # parts is the identity block the whole support generates.
    generated = Span(f, basis)
    for cls in partition.classes:
        identity_part = _identity_part(inst, side, cls)
        support_part = _block(inst, basis, cls)
        ideals.append(
            ClassIdeal(side, tuple(cls), identity_part, support_part, subspace_sum(identity_part, support_part))
        )
        generated.fills(one, identity_part.blocks.get(one, ()))
    complement = GradedSubspace._from_rref(f, basis, {one: generated.complement(one)})
    span = Span(f, basis, complement)
    span_ok = all(
        span.fills(g, (row for ideal in ideals for row in ideal.total.blocks.get(g, ()))) for g in basis.grades()
    )
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


def _first_row(f: Field, basis: GradedBasis, g: Grade, block: Echelon) -> str:
    """The first row of an RREF ``block`` at g, as a vector of ``basis``."""
    return basis.describe_sparse(GradedSubspace._from_rref(f, basis, {g: block}).sparse_vectors()[0], f)


def _nonzero_witness(f: Field, basis: GradedBasis, span: Span, g: Grade) -> str:
    # every condition of block g was read, so the span's kernel is the kernel there
    return f"nonzero element: {_first_row(f, basis, g, nullspace(f, span.rows.get(g, ()), basis.block_dim(g)))}"


def _not_spanned_witness(f: Field, basis: GradedBasis, span: Span, g: Grade) -> str:
    return f"not spanned: {_first_row(f, basis, g, span.complement(g))}"


# a condition's name, and None when it holds, else what names its witness
Condition = tuple[str, Callable[[], str] | None]


def drain(conditions: Iterable[Condition]) -> tuple[dict[str, bool], dict[str, str]]:
    """Every condition of ``conditions`` in order, and the witness of each
    failing one, named as soon as it fails."""
    holds: dict[str, bool] = {}
    witnesses: dict[str, str] = {}
    for name, witness in conditions:
        holds[name] = witness is None
        if witness is not None:
            witnesses[name] = witness()
    return holds, witnesses


def tightness(inst: AlgebraInstance) -> Iterator[Condition]:
    """The seven tightness conditions in report order, each decided when
    the iteration reaches it, on its own ``Span``: a kernel is zero iff
    its condition rows fill every block, read one block pair at a time
    and no further than the row that fills the block; a product or an
    identity part spans iff the entry rows of its terms fill every block
    asked for, each term's rows read only while its target block is not
    full.  A failing condition's witness is named, when asked, in its
    first short block from what that span holds."""
    sup, f, L, A = supports(inst), inst.field, inst.L, inst.A
    for kernel in ("center", "ann_L_of_A", "ann_A"):
        basis, maps = kernel_maps(inst, kernel)
        span, rows = Span(f, basis), kernel_conditions(f, basis, maps)
        short = next((g for g in basis.grades() if not span.fills(g, rows[g])), None)
        yield f"{kernel}_zero", None if short is None else partial(_nonzero_witness, f, basis, span, short)
    one = [inst.group.identity()]
    for name, basis, terms, grades in (
        ("AA_equals_A", A, [(inst.product, pair) for pair in sorted(inst.product.block_pairs())], A.grades()),
        ("AL_equals_L", L, [(inst.action, pair) for pair in sorted(inst.action.block_pairs())], L.grades()),
        ("L_identity_generated", L, _identity_terms(inst, "L", sorted(sup.sigma)), one),
        ("A_identity_generated", A, _identity_terms(inst, "A", sorted(sup.lam)), one),
    ):
        span = fill_entries(Span(f, basis), terms)
        short = next((g for g in grades if not span.full_at(g)), None)
        yield name, None if short is None else partial(_not_spanned_witness, f, basis, span, short)


def check_tight(inst: AlgebraInstance) -> TightnessReport:
    """The seven tightness conditions of ``tightness``, each with its witness when it fails."""
    return TightnessReport(*drain(tightness(inst)))


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
        acting = [a for a in A_report.ideals if not product_is_zero(inst.action, a.total, ideal.total)]
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
