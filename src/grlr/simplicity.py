"""Gr-simplicity checks, ideal closures and the fine decomposition.

A graded ideal of L is determined by its homogeneous elements, so L is
gr-simple ([L,L], AA, AL all nonzero and graded ideals contained in
{0, Ker rho, L}) exactly when the ideal closure of every nonzero
homogeneous element lies in {Ker rho, L}: if some closure is L the
ideal containing that element is L; if all closures of the elements of
an ideal equal Ker rho, the ideal is squeezed between them and equals
Ker rho.  Any closure outside {Ker rho, L} is itself a certifying
counterexample ideal.  The same sandwich argument with {A} settles the
commutative side.  Over a finite field the homogeneous elements can be
enumerated projectively, which makes the criterion exact; over the
rationals only sampled seeds are tried, so a clean scan downgrades to
"undecided" while a found counterexample is still conclusive.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator

from .connections import Supports, lambda_classes, sigma_classes, supports
from .decompose import (
    DecompositionReport,
    _block,
    _full,
    _term,
    check_tight,
    decompose_A,
    decompose_L,
    pair_ideals,
)
from .errors import DecompositionError
from .fields import Field, Scalar
from .groups import Grade, format_grade
from .linear import GradedSubspace, bilinear_image, subspace_intersect, subspace_sum
from .model import (
    AlgebraInstance,
    is_graded_ideal_A,
    is_graded_ideal_L,
    ker_anchor,
    restrict_instance,
    verify_all,
)

CLOSURE_CAP = 20000


# ---------------------------------------------------------------------------
# section hypotheses


@dataclass
class Hypotheses5:
    conditions: dict[str, bool]
    witnesses: dict[str, str]

    @property
    def all_hold(self) -> bool:
        return all(self.conditions.values())

    def to_json(self) -> dict:
        out = {"all_hold": self.all_hold, "conditions": dict(sorted(self.conditions.items()))}
        if self.witnesses:
            out["witnesses"] = dict(sorted(self.witnesses.items()))
        return out


def check_hypotheses5(inst: AlgebraInstance) -> Hypotheses5:
    """tight + maximal length + G-multiplicative + symmetric + connected."""
    sup = supports(inst)
    conditions: dict[str, bool] = {}
    witnesses: dict[str, str] = {}

    tight = check_tight(inst)
    conditions["tight"] = tight.tight
    if not tight.tight:
        failing = sorted(name for name, ok in tight.conditions.items() if not ok)
        witnesses["tight"] = "failing: " + ", ".join(failing)

    bad_block = next((g for g in sorted(sup.sigma) if inst.L.block_dim(g) != 1), None)
    if bad_block is None:
        bad_block = next((g for g in sorted(sup.lam) if inst.A.block_dim(g) != 1), None)
    conditions["maximal_length"] = bad_block is None
    if bad_block is not None:
        witnesses["maximal_length"] = f"support block at {format_grade(bad_block)} is not 1-dimensional"

    g_mult_witness = _g_mult_witness(inst, sup)
    conditions["g_multiplicative"] = g_mult_witness is None
    if g_mult_witness:
        witnesses["g_multiplicative"] = g_mult_witness

    # oracle.hypothesis_search reports the first failing condition in
    # insertion order, so both symmetry conditions come before both
    # connectedness conditions
    for name, support in (("sigma", sup.sigma), ("lambda", sup.lam)):
        asym = next((g for g in sorted(support) if inst.group.inv(g) not in support), None)
        conditions[f"{name}_symmetric"] = asym is None
        if asym is not None:
            witnesses[f"{name}_symmetric"] = f"inverse of {format_grade(asym)} unsupported"
    for name, classes in (("sigma", sigma_classes), ("lambda", lambda_classes)):
        n_classes = len(classes(sup).classes)
        conditions[f"{name}_all_connected"] = n_classes <= 1
        if n_classes > 1:
            witnesses[f"{name}_all_connected"] = f"{n_classes} connection classes"

    return Hypotheses5(conditions, witnesses)


def _g_mult_witness(inst: AlgebraInstance, sup: Supports) -> str | None:
    """The first product of two support blocks that is zero although the
    product of their grades is supported, or None."""
    for rule, left, right, target, text in (
        (inst.bracket, sup.sigma, sup.sigma, sup.sigma, "[L_{}, L_{}] = 0"),
        (inst.action, sup.lam, sup.sigma, sup.sigma, "A_{} L_{} = 0"),
        (inst.product, sup.lam, sup.lam, sup.lam, "A_{} A_{} = 0"),
    ):
        for g in sorted(left):
            for h in sorted(right):
                if inst.group.mul(g, h) not in target:
                    continue
                if bilinear_image(rule, _block(inst, rule.left, [g]), _block(inst, rule.right, [h])).is_zero():
                    return text.format(format_grade(g), format_grade(h))
    return None


# ---------------------------------------------------------------------------
# ideal closures


def ideal_closure_L(inst: AlgebraInstance, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded ideal of L containing the seed subspace."""
    current = seed
    while True:
        grown = subspace_sum(current, bilinear_image(inst.bracket, inst.full_L(), current))
        grown = subspace_sum(grown, bilinear_image(inst.action, inst.full_A(), current))
        rho_image = bilinear_image(inst.anchor, current, inst.full_A())
        grown = subspace_sum(grown, bilinear_image(inst.action, rho_image, inst.full_L()))
        if grown == current:
            return current
        current = grown


def ideal_closure_A(inst: AlgebraInstance, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded ideal of A containing the seed subspace."""
    current = seed
    while True:
        grown = subspace_sum(current, bilinear_image(inst.product, inst.full_A(), current))
        if grown == current:
            return current
        current = grown


# ---------------------------------------------------------------------------
# homogeneous seed enumeration


def _projective_block_points(field: Field, dim: int) -> Iterator[tuple[Scalar, ...]]:
    """One representative per line: first nonzero coordinate scaled to 1.

    Lazy, so a caller that stops early never builds the remaining points.
    """

    def rec(prefix: list[Scalar], lead_placed: bool) -> Iterator[tuple[Scalar, ...]]:
        if len(prefix) == dim:
            if lead_placed:
                yield tuple(prefix)
            return
        if not lead_placed:
            yield from rec(prefix + [field.zero], False)
            yield from rec(prefix + [field.one], True)
        else:
            for x in field.elements():
                yield from rec(prefix + [x], True)

    return rec([], False)


def _homogeneous_seeds(
    inst: AlgebraInstance, basis, cap: int
) -> tuple[list[tuple[Grade, tuple[Scalar, ...]]], bool]:
    """Homogeneous test vectors per grade block.

    Finite field: all projective points (exhaustive), truncated at the
    closure cap. Rationals: basis vectors, pairwise sums and 32 seeded
    random combinations per block, a sample only.
    """
    f = inst.field
    seeds: list[tuple[Grade, tuple[Scalar, ...]]] = []
    exhaustive = f.kind == "prime"
    if exhaustive:
        for g in basis.grades():
            for p in _projective_block_points(f, basis.block_dim(g)):
                if len(seeds) >= cap:
                    return seeds, False
                seeds.append((g, p))
        return seeds, True
    rng = random.Random(7)
    for g in basis.grades():
        n = basis.block_dim(g)
        block = []
        for i in range(n):
            block.append(tuple(f.one if j == i else f.zero for j in range(n)))
        for i in range(n):
            for j in range(i + 1, n):
                block.append(tuple(f.add(x, y) for x, y in zip(block[i], block[j])))
        for _ in range(32):
            block.append(tuple(f.from_int(rng.randint(-5, 5)) for _ in range(n)))
        seeds.extend((g, p) for p in block if any(not f.is_zero(x) for x in p))
    return seeds, False


# ---------------------------------------------------------------------------
# gr-simplicity


@dataclass
class SimplicityVerdict:
    side: str
    status: str  # "gr_simple" | "not_gr_simple" | "undecided"
    reason: str
    certificate: GradedSubspace | None = None
    closures_run: int = 0

    def to_json(self) -> dict:
        out = {
            "side": self.side,
            "status": self.status,
            "reason": self.reason,
            "closures_run": self.closures_run,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def _undecided_reason(f: Field, cap: int) -> str:
    if f.kind == "prime":
        return f"closure enumeration capped at {cap}; no counterexample among the closures run"
    return "rational scalars: sampled closures found no counterexample, enumeration is not exhaustive"


def _closure_scan(
    inst: AlgebraInstance,
    side: str,
    closure_of: Callable[[AlgebraInstance, GradedSubspace], GradedSubspace],
    allowed: list[GradedSubspace],
    cap: int,
    proper: str,
    clean: str,
) -> SimplicityVerdict:
    """Close every homogeneous seed of one side; the first closure outside
    ``allowed`` certifies "not gr-simple", otherwise the scan's coverage
    decides between "gr_simple" and "undecided"."""
    f = inst.field
    basis = inst.L if side == "L" else inst.A
    seeds, exhaustive = _homogeneous_seeds(inst, basis, cap)
    run = 0
    for g, coords in seeds:
        seed = GradedSubspace.from_block_vectors(f, basis, [(g, coords)])
        closure = closure_of(inst, seed)
        run += 1
        if closure not in allowed:
            return SimplicityVerdict(
                side,
                "not_gr_simple",
                f"closure of a homogeneous element at grade {format_grade(g)} {proper}",
                closure,
                run,
            )
    if exhaustive:
        return SimplicityVerdict(side, "gr_simple", clean, None, run)
    return SimplicityVerdict(side, "undecided", _undecided_reason(f, cap), None, run)


def gr_simple_L(inst: AlgebraInstance, cap: int = CLOSURE_CAP) -> SimplicityVerdict:
    for rule, reason in ((inst.bracket, "[L, L] = 0"), (inst.product, "AA = 0"), (inst.action, "AL = 0")):
        if bilinear_image(rule, _full(inst, rule.left), _full(inst, rule.right)).is_zero():
            return SimplicityVerdict("L", "not_gr_simple", reason)
    allowed = [GradedSubspace.zero(inst.field, inst.L), ker_anchor(inst), inst.full_L()]
    return _closure_scan(
        inst,
        "L",
        ideal_closure_L,
        allowed,
        cap,
        "is a proper graded ideal distinct from Ker rho",
        "every homogeneous closure lies in {Ker rho, L}",
    )


def gr_simple_A(inst: AlgebraInstance, cap: int = CLOSURE_CAP) -> SimplicityVerdict:
    if bilinear_image(inst.product, inst.full_A(), inst.full_A()).is_zero():
        return SimplicityVerdict("A", "not_gr_simple", "AA = 0")
    allowed = [GradedSubspace.zero(inst.field, inst.A), inst.full_A()]
    return _closure_scan(
        inst, "A", ideal_closure_A, allowed, cap, "is a proper graded ideal", "every homogeneous closure is 0 or A"
    )


# ---------------------------------------------------------------------------
# the two-ideal split


def split_case_b(inst: AlgebraInstance, I: GradedSubspace) -> tuple[GradedSubspace, GradedSubspace]:
    """Complementary ideal I' for an ideal with antisymmetric support.

    Requires Sigma_I n Sigma_I^-1 to be empty (otherwise the symmetric
    case applies and no split is produced).  Builds

        I' = sum_{g in Sigma_I^-1, g^-1 in Lambda} A_{g^-1} L_g
           (+) (+)_{g in Sigma_I^-1} L_g

    and certifies L = I (+) I' with both summands graded ideals.
    """
    ok, witness = is_graded_ideal_L(inst, I)
    if not ok:
        raise DecompositionError(f"not a graded ideal of L: {witness}")
    if I.is_zero() or I == inst.full_L():
        raise DecompositionError("the split needs a proper nonzero ideal")
    sup = supports(inst)
    one = inst.group.identity()
    sigma_I = {g for g in I.grades() if g != one}
    sigma_I_inv = {inst.group.inv(g) for g in sigma_I}
    if sigma_I & sigma_I_inv:
        sym = sorted(sigma_I & sigma_I_inv)[0]
        raise DecompositionError(
            f"Case a applies: {format_grade(sym)} and its inverse both support the ideal"
        )

    f = inst.field
    I_prime = GradedSubspace.zero(f, inst.L)
    for g in sorted(sigma_I_inv):
        if inst.group.inv(g) in sup.lam:
            I_prime = subspace_sum(I_prime, _term(inst, inst.action, g))
        I_prime = subspace_sum(I_prime, _block(inst, inst.L, [g]))

    ok, witness = is_graded_ideal_L(inst, I_prime)
    if not ok:
        raise DecompositionError(f"constructed complement is not an ideal: {witness}")
    if not subspace_intersect(I, I_prime).is_zero() or subspace_sum(I, I_prime) != inst.full_L():
        raise DecompositionError("constructed complement does not split L")
    return I, I_prime


# ---------------------------------------------------------------------------
# fine decomposition


@dataclass
class FineSummand:
    side: str
    label: list[str]
    subspace: GradedSubspace
    partner: list[list[str]] | None  # class labels of the paired ideals on the other side
    verdict: SimplicityVerdict | None
    split: tuple[GradedSubspace, GradedSubspace] | None = None
    restricted_verified: bool | None = None

    def to_json(self) -> dict:
        out = {
            "side": self.side,
            "class": self.label,
            "subspace": self.subspace.to_json(),
            "partner": self.partner,
            "restricted_verified": self.restricted_verified,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_json()
        if self.split is not None:
            out["split"] = [s.to_json() for s in self.split]
        return out


@dataclass
class FineReport:
    hypotheses: Hypotheses5
    refined: bool
    summands: list[FineSummand] = dc_field(default_factory=list)
    note: str = ""

    def to_json(self) -> dict:
        return {
            "hypotheses": self.hypotheses.to_json(),
            "refined": self.refined,
            "summands": [s.to_json() for s in self.summands],
            "note": self.note,
        }


def fine_decompose(inst: AlgebraInstance) -> FineReport:
    """Refine the class decomposition into gr-simple (or split) summands.

    Only runs the refinement when every section hypothesis holds; the
    coarse decomposition is still available through decompose_L/A.
    """
    hyp = check_hypotheses5(inst)
    if not hyp.all_hold:
        failing = sorted(name for name, ok in hyp.conditions.items() if not ok)
        return FineReport(hyp, False, [], "hypotheses not satisfied: " + ", ".join(failing))

    L_rep = decompose_L(inst)
    A_rep = decompose_A(inst)
    pairing = pair_ideals(inst, L_rep, A_rep, hyp.conditions["tight"])
    summands: list[FineSummand] = []

    # the first A ideal acting on each L ideal; the hypotheses include
    # tightness, under which it is the only one
    a_by_label = {tuple(a.label_json()): a for a in A_rep.ideals}
    partners = [
        a_by_label[tuple(entry["A_classes"][0])] if entry["A_classes"] else None
        for entry in pairing.pairs
    ]

    for ideal, partner in zip(L_rep.ideals, partners):
        A_part = partner.total if partner else GradedSubspace.zero(inst.field, inst.A)
        sub = restrict_instance(inst, ideal.total, A_part, f"{inst.name}|L{ideal.label_json()}")
        verified = verify_all(sub).passed
        verdict = gr_simple_L(sub)
        split = None
        if verdict.status == "not_gr_simple" and verdict.certificate is not None:
            one = inst.group.identity()
            sig = {g for g in verdict.certificate.grades() if g != one}
            if sig and not (sig & {sub.group.inv(g) for g in sig}):
                split = split_case_b(sub, verdict.certificate)
        summands.append(
            FineSummand(
                "L",
                ideal.label_json(),
                ideal.total,
                [partner.label_json()] if partner else None,
                verdict,
                split,
                verified,
            )
        )

    for a_ideal in A_rep.ideals:
        lovers = [ideal for ideal, partner in zip(L_rep.ideals, partners) if partner is a_ideal]
        L_part = GradedSubspace.zero(inst.field, inst.L)
        for ideal in lovers:
            L_part = subspace_sum(L_part, ideal.total)
        sub = restrict_instance(inst, L_part, a_ideal.total, f"{inst.name}|A{a_ideal.label_json()}")
        verified = verify_all(sub).passed
        verdict = gr_simple_A(sub)
        summands.append(
            FineSummand(
                "A",
                a_ideal.label_json(),
                a_ideal.total,
                [ideal.label_json() for ideal in lovers] or None,
                verdict,
                None,
                verified,
            )
        )
    return FineReport(hyp, True, summands, "")
