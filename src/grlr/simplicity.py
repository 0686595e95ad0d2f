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

Two shortcuts keep the scan exact.  A closure stops as soon as it holds
the whole side: nothing can grow past it, and its canonical RREF blocks
are those of the full side.  A closure depends only on the span of its
seed, so the scan runs over seed lines: ``_seed_lines`` yields each seed
as the canonical row of its line (first nonzero coordinate 1), already a
one-row RREF block, and the scan closes each line once; a repeated line
was closed before without leaving the allowed ideals, since the scan
returns at the first closure that does.  Over GF(p) the projective points
are already distinct lines; over Q the sampled seeds fall on few lines.
Seeds come lazily, so a GF(p) scan that stops at ``CLOSURE_CAP`` seeds
("undecided") builds no more; the rational sample is finite and always
runs whole.  ``closures_run`` counts every seed, repeated lines included.

Both sides run one scan, read off per-side data (``_PRODUCTS``,
``_OPERATORS``, ``_trivial_ideals``, ``_VERDICT_TEXT``):

    side  nonzero products  trivial ideals  closure spun under, per row v
    L     [L,L], AA, AL     0, Ker rho, L   [x, v], a.v, rho(v)(a).w
    A     AA                0, A            a.v

for every basis vector x, w of L and a of A.  A closure spins (Parker
1984, the core of the MeatAxe): it keeps a running semi-echelon basis
per block (``linear.Span``), and a worklist of its new rows, the seed's
rows first.  Each new row meets each operator once, and each image is
reduced against the running basis of its block; what is left is a new
row.  The operators are read off ``BilinearRule.by_argument``, the table
grouped by the grade of v.  On L, each rho(v)(a) is first reduced
against the span of those met before, and only a new one meets the w,
since rho(I)(A).L is spanned by the products of a basis of rho(I)(A).
An image into a block that is already full is not formed.  The closure
returns ``full_L()`` or ``full_A()`` as soon as the span fills the side,
and otherwise, when the worklist is empty, one canonical RREF per block.

A closure takes a seed of its own side and field only (``ValueError``).
Each rule decided the grade-shift law when it was built
(``BilinearRule.off_grade_pairs``), and each map of ``by_argument``
carries its block pair's target grade, so a closure keeps no cache of
block pairs.  On a rule with an off-grade pair, each time a row at grade
g meets the rule, every block pair with v at g goes through
``checked_block_pair`` before any entry at g is used, and the first bad
one is refused there (``ToolkitError``).  A closure the fixpoint loop of
products (``tests/helpers.plain_closure``) returns, the spin returns
too.  Where that loop refuses, the spin refuses, or fills the side before
it needs the bad pair; it never returns a partial ideal.

The fine decomposition takes two steps, and ``fine_decompose`` and
``grlr decompose --fine`` both run them.  The gate, ``_hypotheses``,
reads the tightness report and the sigma and lambda connection
partitions; an instance that fails it gets the unrefined report of
``_unrefined``.  The refinement, ``_refine``, reads the two class
reports and their pairing.  ``fine_decompose`` builds the tightness
report and both partitions once, and builds the class reports (from the
same partitions) and the pairing only after the gate holds.
``grlr decompose --fine`` builds both class reports and their pairing
once, whatever sides it prints, and gates on the partitions they hold.
``_refine`` restricts and verifies each distinct subpair (L part, A part)
once.  Under the hypotheses an L ideal I_i and the one A ideal A_j
acting on it are the same subpair (I_i, A_j), so their two summands
share one restriction.
All of this is computed once per call.  An instance may keep derived
data built on first use only if building it calls nothing the benchmark
wraps: its self-test compares the call counts of a traced run and a
profiled run of the same items, and its pipeline workload reuses its
instances across passes.  Today that admits ``full_L``, ``full_A`` and
the supports.  Data decided at construction, as each rule's off-grade
pairs are, needs no such care: both runs build their instances alike.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Iterator, Sequence

from .connections import ConnectionPartition, lambda_classes, sigma_classes, supports
from .decompose import (
    DecompositionReport,
    PairingReport,
    TightnessReport,
    _block,
    _decompose,
    _full,
    check_tight,
    pair_ideals,
)
from .errors import DecompositionError
from .fields import Field, Scalar
from .groups import Grade, format_grade
# bilinear_image is unused here, but bench/selftest.py checks that the
# benchmark's tracer wraps it in this module; it goes with that check
from .linear import (  # noqa: F401
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    Row,
    Span,
    bilinear_image,
    checked_block_pair,
    entry_rows,
    row_span,
    subspace_intersect,
    subspace_sum,
)
from .model import (
    AlgebraInstance,
    is_graded_ideal_L,
    ker_anchor,
    restrict_instance,
    verify_all,
)

# the most seeds one gr-simplicity scan closes over GF(p), read at call time
CLOSURE_CAP = 20000

# per side: the rules whose full products must be nonzero, in the order
# they are checked, each with the reason given when it is zero; then the
# texts for a closure outside the trivial ideals and for a clean scan
_PRODUCTS = {"L": (("bracket", "[L, L] = 0"), ("product", "AA = 0"), ("action", "AL = 0")), "A": (("product", "AA = 0"),)}
# per side: the rules r whose maps v -> r(x, v), one per basis vector x,
# a closure is spun under; L adds v -> rho(v)(a).w
_OPERATORS = {"L": ("bracket", "action"), "A": ("product",)}
_VERDICT_TEXT = {
    "L": ("is a proper graded ideal distinct from Ker rho", "every homogeneous closure lies in {Ker rho, L}"),
    "A": ("is a proper graded ideal", "every homogeneous closure is 0 or A"),
}


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
    return _hypotheses(inst, check_tight(inst), sigma_classes(sup), lambda_classes(sup))


def _hypotheses(
    inst: AlgebraInstance, tight: TightnessReport, sigma: ConnectionPartition, lam: ConnectionPartition
) -> Hypotheses5:
    """The section hypotheses, from the instance's tightness report and its
    sigma and lambda connection classes."""
    sup = supports(inst)
    conditions: dict[str, bool] = {}
    witnesses: dict[str, str] = {}

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

    g_mult_witness = _g_mult_witness(inst)
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
    for name, partition in (("sigma", sigma), ("lambda", lam)):
        n_classes = len(partition.classes)
        conditions[f"{name}_all_connected"] = n_classes <= 1
        if n_classes > 1:
            witnesses[f"{name}_all_connected"] = f"{n_classes} connection classes"

    return Hypotheses5(conditions, witnesses)


def _g_mult_witness(inst: AlgebraInstance) -> str | None:
    """The first product of two support blocks that is zero although the
    product of their grades is supported, or None.

    The product of two whole blocks is zero exactly when their block pair
    has no table entry; a pair with entries must still obey the
    grade-shift law, as in ``bilinear_image``."""
    sup = supports(inst)
    for rule, left, right, target, text in (
        (inst.bracket, sup.sigma, sup.sigma, sup.sigma, "[L_{}, L_{}] = 0"),
        (inst.action, sup.lam, sup.sigma, sup.sigma, "A_{} L_{} = 0"),
        (inst.product, sup.lam, sup.lam, sup.lam, "A_{} A_{} = 0"),
    ):
        for g in sorted(left):
            for h in sorted(right):
                if inst.group.mul(g, h) not in target:
                    continue
                if checked_block_pair(rule, g, h) is None:
                    return text.format(format_grade(g), format_grade(h))
    return None


# ---------------------------------------------------------------------------
# ideal closures


def _spin(inst: AlgebraInstance, seed: GradedSubspace, side: str) -> GradedSubspace:
    """The smallest graded ideal of ``side`` holding ``seed``, by spinning
    (module docstring)."""
    basis = getattr(inst, side)
    if seed.ambient != basis or seed.field != inst.field:
        raise ValueError(f"the seed is not a subspace of {side} over {inst.field.label}")
    full = inst.full_L if side == "L" else inst.full_A
    span = Span(inst.field, basis, seed)
    if span.rank == basis.dim:
        return full()

    def pairs(rule: BilinearRule, v_left: bool, g: Grade) -> list:
        """The block pairs of ``rule`` with v at grade g, all checked before any is used."""
        at_g = rule.by_argument(v_left).get(g, ())
        if rule.off_grade_pairs:
            for h, _, _ in at_g:
                checked_block_pair(rule, *((g, h) if v_left else (h, g)))
        return at_g

    def spin(rule: BilinearRule, v_left: bool, g: Grade, v: Sequence[Scalar]) -> bool:
        """Add the images of v under ``rule``; True once the span is the side."""
        for _, t, maps in pairs(rule, v_left, g):
            for _, terms in maps:
                if span.full_at(t):
                    break
                new = span.add_image(t, terms, v)
                if new is not None:
                    todo.append((t, new))
                    if span.rank == basis.dim:
                        return True
        return False

    operators = [getattr(inst, name) for name in _OPERATORS[side]]
    anchor_images = Span(inst.field, inst.A)  # rho(v)(a) of the rows so far
    todo = [(g, row) for g in sorted(seed.blocks) for row in seed.blocks[g]]
    for g, v in todo:  # grows while it is read
        if any(spin(rule, False, g, v) for rule in operators):
            return full()
        if side == "A":
            continue
        for _, t, maps in pairs(inst.anchor, True, g):
            for _, terms in maps:
                if anchor_images.full_at(t):
                    break
                u = anchor_images.add_image(t, terms, v)
                if u is not None and spin(inst.action, True, t, u):
                    return full()
    return span.subspace()


def ideal_closure_L(inst: AlgebraInstance, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded ideal of L containing the seed subspace."""
    return _spin(inst, seed, "L")


def ideal_closure_A(inst: AlgebraInstance, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded ideal of A containing the seed subspace."""
    return _spin(inst, seed, "A")


# ---------------------------------------------------------------------------
# homogeneous seed enumeration


def _tails(field: Field, k: int) -> Iterator[Row]:
    """All k-tuples of field elements in lexicographic order, lazily:
    ``itertools.product`` would first list the field, and a prime may be
    as large as ``fields.MODULUS_LIMIT``."""
    if k == 0:
        yield ()
        return
    for x in field.elements():
        for rest in _tails(field, k - 1):
            yield (x,) + rest


def _seed_lines(inst: AlgebraInstance, basis: GradedBasis) -> Iterator[tuple[Grade, Row, int]]:
    """Each homogeneous seed, block by block, as (grade, canonical row of
    its line, pivot): the row's first nonzero coordinate, at the pivot, is 1.

    Lazy, so a scan that stops early never builds the remaining seeds.
    Finite field: every projective point, leading position from last to
    first, each a distinct line.  Rationals: basis vectors, pairwise sums
    and 32 random combinations per block, one ``Random(7)`` per scan, each
    divided by its leading coordinate; a sample only, whose lines repeat.
    """
    f = inst.field
    if f.kind == "prime":
        for g in basis.grades():
            n = basis.block_dim(g)
            for lead in reversed(range(n)):
                head = (f.zero,) * lead + (f.one,)
                for tail in _tails(f, n - lead - 1):
                    yield g, head + tail, lead
        return
    rng = random.Random(7)
    for g in basis.grades():
        n = basis.block_dim(g)
        for i in range(n):
            yield g, tuple(f.one if k == i else f.zero for k in range(n)), i
        for i in range(n):
            for j in range(i + 1, n):
                yield g, tuple(f.one if k in (i, j) else f.zero for k in range(n)), i
        for _ in range(32):
            draw = [f.from_int(rng.randint(-5, 5)) for _ in range(n)]
            lead = next((k for k, x in enumerate(draw) if not f.is_zero(x)), None)
            if lead is not None:
                yield g, tuple(f.div(x, draw[lead]) for x in draw), lead


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


def _trivial_ideals(inst: AlgebraInstance, side: str) -> list[tuple[str, GradedSubspace]]:
    """The named graded ideals a gr-simple side may have: 0, the whole side, and Ker rho on L."""
    basis = getattr(inst, side)
    trivial = [("zero", GradedSubspace.zero(inst.field, basis)), ("full", _full(inst, basis))]
    if side == "L":
        trivial.append(("ker_anchor", ker_anchor(inst)))
    return trivial


def _gr_simple(inst: AlgebraInstance, side: str) -> SimplicityVerdict:
    """The product pre-checks, then one closure per homogeneous seed line,
    at most ``CLOSURE_CAP`` seeds over GF(p); the first closure outside
    the trivial ideals certifies "not gr-simple", otherwise the scan's
    coverage decides "gr_simple" or "undecided"."""
    for name, reason in _PRODUCTS[side]:
        # the product of the whole side is zero iff the table is empty, but
        # its first bad pair is refused first, as the product would refuse it
        rule = getattr(inst, name)
        if rule.off_grade_pairs:
            checked_block_pair(rule, *min(rule.off_grade_pairs))
        if not rule.table:
            return SimplicityVerdict(side, "not_gr_simple", reason)
    allowed = [sub for _, sub in _trivial_ideals(inst, side)]
    closure_of = ideal_closure_L if side == "L" else ideal_closure_A
    proper, clean = _VERDICT_TEXT[side]
    f = inst.field
    basis = getattr(inst, side)
    cap = CLOSURE_CAP if f.kind == "prime" else None  # the rational sample is finite
    closed_lines: set[tuple[Grade, Row]] = set()
    run = 0
    for g, row, pivot in _seed_lines(inst, basis):
        if run == cap:
            reason = f"closure enumeration capped at {cap}; no counterexample among the closures run"
            return SimplicityVerdict(side, "undecided", reason, None, run)
        run += 1
        if (g, row) in closed_lines:
            continue  # the same closure, already known to be allowed
        closed_lines.add((g, row))
        closure = closure_of(inst, GradedSubspace._from_rref(f, basis, {g: ((row,), (pivot,))}))
        if closure not in allowed:
            reason = f"closure of a homogeneous element at grade {format_grade(g)} {proper}"
            return SimplicityVerdict(side, "not_gr_simple", reason, closure, run)
    if f.kind == "prime":
        return SimplicityVerdict(side, "gr_simple", clean, None, run)
    reason = "rational scalars: sampled closures found no counterexample, enumeration is not exhaustive"
    return SimplicityVerdict(side, "undecided", reason, None, run)


def gr_simple_L(inst: AlgebraInstance) -> SimplicityVerdict:
    return _gr_simple(inst, "L")


def gr_simple_A(inst: AlgebraInstance) -> SimplicityVerdict:
    return _gr_simple(inst, "A")


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
    one = inst.group.identity()
    sigma_I = {g for g in I.grades() if g != one}
    sigma_I_inv = {inst.group.inv(g) for g in sigma_I}
    if sigma_I & sigma_I_inv:
        sym = sorted(sigma_I & sigma_I_inv)[0]
        raise DecompositionError(
            f"Case a applies: {format_grade(sym)} and its inverse both support the ideal"
        )

    grades = sorted(sigma_I_inv)
    lam = supports(inst).lam
    terms = [(inst.action, (inst.group.inv(g), g)) for g in grades if inst.group.inv(g) in lam]
    products = row_span(inst.field, inst.L, entry_rows(inst.field, inst.L, terms))
    I_prime = subspace_sum(products, _block(inst, inst.L, grades))

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
    tight, sup = check_tight(inst), supports(inst)
    sigma, lam = sigma_classes(sup), lambda_classes(sup)
    hyp = _hypotheses(inst, tight, sigma, lam)
    if not hyp.all_hold:
        return _unrefined(hyp)
    L_rep, A_rep = _decompose(inst, "L", sigma), _decompose(inst, "A", lam)
    return _refine(inst, hyp, L_rep, A_rep, pair_ideals(inst, L_rep, A_rep, tight.tight))


def _unrefined(hyp: Hypotheses5) -> FineReport:
    """The report of an instance that fails the gate ``hyp``."""
    failing = sorted(name for name, ok in hyp.conditions.items() if not ok)
    return FineReport(hyp, False, [], "hypotheses not satisfied: " + ", ".join(failing))


def _refine(
    inst: AlgebraInstance,
    hyp: Hypotheses5,
    L_rep: DecompositionReport,
    A_rep: DecompositionReport,
    pairing: PairingReport,
) -> FineReport:
    """One summand per class ideal of either side, with no gate: each is
    judged on the instance restricted to its subpair (L part, A part).

    Summands with an equal subpair share one restriction and its
    verification.  Under the hypotheses an L ideal I_i and the one A
    ideal A_j acting on it give the same subpair (I_i, A_j) when no
    other L ideal is paired with A_j.
    """
    # the first A ideal acting on each L ideal; the hypotheses include
    # tightness, under which it is the only one
    partners = [acting[0] if acting else None for acting in pairing.acting]

    # (side, class ideal, L part, A part, partner ideals) of every summand
    zero_L, zero_A = GradedSubspace.zero(inst.field, inst.L), GradedSubspace.zero(inst.field, inst.A)
    parts = [
        ("L", ideal, ideal.total, partner.total if partner else zero_A, [partner] if partner else [])
        for ideal, partner in zip(L_rep.ideals, partners)
    ]
    for a_ideal in A_rep.ideals:
        lovers = [ideal for ideal, partner in zip(L_rep.ideals, partners) if partner is a_ideal]
        parts.append(("A", a_ideal, reduce(subspace_sum, [i.total for i in lovers], zero_L), a_ideal.total, lovers))

    # (L part, A part, restricted instance, whether it verifies) of each
    # distinct subpair; GradedSubspace is unhashable, and there are few
    restricted: list[tuple[GradedSubspace, GradedSubspace, AlgebraInstance, bool]] = []
    summands: list[FineSummand] = []
    for side, ideal, L_part, A_part, others in parts:
        known = [(sub, ok) for L_sub, A_sub, sub, ok in restricted if L_sub == L_part and A_sub == A_part]
        if known:
            sub, verified = known[0]
        else:
            sub = restrict_instance(inst, L_part, A_part, f"{inst.name}|{side}{ideal.label_json()}")
            verified = verify_all(sub).passed
            restricted.append((L_part, A_part, sub, verified))
        verdict = gr_simple_L(sub) if side == "L" else gr_simple_A(sub)
        split = None
        if side == "L" and verdict.status == "not_gr_simple" and verdict.certificate is not None:
            one = inst.group.identity()
            sig = {g for g in verdict.certificate.grades() if g != one}
            if sig and not (sig & {sub.group.inv(g) for g in sig}):
                split = split_case_b(sub, verdict.certificate)
        labels = [other.label_json() for other in others] or None
        summands.append(FineSummand(side, ideal.label_json(), ideal.total, labels, verdict, split, verified))
    return FineReport(hyp, True, summands, "")
