"""Structure-constant model of a graded Lie-Rinehart algebra (L, A).

An instance bundles a grading group, a field, graded bases for the Lie
algebra L and the commutative algebra A, and four bilinear rules:

* ``bracket``  [.,.] : L x L -> L
* ``product``  .     : A x A -> A
* ``action``   .     : A x L -> L   (A-module structure on L)
* ``anchor``   rho   : L x A -> A   (rho(v) acting as a derivation of A)

``verify_all`` runs the four grading checks, then the ten algebra laws,
and reports the first counterexample of each.  It works on absolute
positions, so even instances whose tables break the grading law can be
loaded and then failed by ``verify_grading`` with a precise witness.

The ten algebra laws are the rows of ``LAWS``: (check name, basis of each
argument, basis of the discrepancy, terms, margin).  The discrepancy lhs - rhs
of a law on a tuple of basis positions is the sum of its terms.  A term
(sign, inner, x, y, outer, inner_on_left, z) is sign * inner(x, y) when
outer is None, and otherwise sign * outer(inner(x, y), z) when
inner_on_left, sign * outer(z, inner(x, y)) when not; x, y and z index
the law's arguments.  The argument string, e.g. ``"LAA"``, fixes the
order of everything: tuples are compared lexicographically in that
order, and the witness lists the basis names in that order.

Every term is a bilinear product of table entries, so a tuple that no
term reaches through nonzero entries has discrepancy exactly zero,
whether or not the grading checks pass.  ``_law_check`` therefore walks
the tables, not the tuples, in one pass per law.  A term with no outer
rule adds its inner entries; any other term pairs each output o of an
inner entry (i, j) -> {o: c} with every outer entry that has o on the
inner side.  Each signed product goes into the sum of the tuple it
reaches, in one dict for all the terms of the law, and the witness is
the least tuple whose sum is nonzero: the tuple a scan of all basis
tuples in lexicographic order finds first.  The cost, and the number of
sums held at once, grow with the number of nonzero products of
structure constants.  The outer rules are read grouped by their inner
side, each grouping built on first use (``_TableIndex``): at most eight
per ``verify_all`` call (four rules, left or right), none built twice
and none kept after the call returns.

Each sum is keyed by one int: the arguments, argument 0 first, and the
output position in mixed radix (``radix``), so key order is the
lexicographic order of (tuple, output position).  The least nonzero key
names the witness tuple, and the block of dim(output) keys it starts
holds the witness value.  No tuple or per-tuple dict is built.

Three laws are walked once per orbit of a symmetry that holds for any
tables: [u,v] + [v,u] is symmetric in (u, v); ab - ba is antisymmetric,
and exactly 0 when a = b; and the Jacobi sum is invariant under cyclic
rotation of (u, v, w).  Each maps a nonzero discrepancy to a nonzero
one (negation preserves nonzero), so the least nonzero tuple t is no
greater than any image of it.  For antisymmetry t = (u, v) has u <= v,
else (v, u) < t.  For commutativity a = b gives 0 and (b, a) < t when
b < a, so t = (a, b) has a < b.  For Jacobi the rotations (v, w, u) and
(w, u, v) of t = (u, v, w) are nonzero and not below t, so v >= u and
w >= u.  The ``LAWS`` column ``margin`` (0, 1 and 0) records this:
those laws keep only the tuples whose other arguments are all at least
argument 0 plus margin, and every product that lands on a kept tuple,
from every term, so each kept tuple's sum is its whole discrepancy and
the least nonzero kept tuple is t.  A term drops a product as soon as
the arguments it compares are known: on the inner entry when argument 0
is an inner one, else on the outer entry.  No law reads another law's
verdict.

``RULES`` is the one list of rule domains, in the same letters: each row
is (rule name, bases of the left argument, the right argument and the
output), e.g. ``("action", "ALL")`` for A x L -> L.  Every construction
that makes a new instance reads it, through ``rebuild_instance``.

The canonical invariant subspaces ``center``, ``ann_L_of_A``, ``ann_A``
and ``ker_anchor`` are common kernels of maps such as v -> [v, .] and
v -> rho(v), listed once in ``KERNEL_MAPS``; ``decompose.tightness``
reads the same maps for its kernel conditions.  ``linear.entry_kernel``
writes their conditions straight from the table entries, one row per
(map, other argument, output coordinate) that an entry reaches, block
pair by block pair, so the work grows with the number of entries, not
with the square of the dimension.

Every derived instance (direct sums, base changes, field moves and
restrictions) is built by ``rebuild_instance``, and its rules by
``BilinearRule._from_canonical``: each table is made from rules that were
checked when they were built, so no scalar is checked again.  Each of
these constructions maps homogeneous vectors to homogeneous vectors of
the same grade, so a rule whose source rules all keep the grade-shift
law keeps it too, and inherits that verdict with no pass over its
table; a direct sum has two sources, one from each summand.  A rule
with a source that breaks the law decides it in full.

``contract`` puts an instance on new homogeneous bases; base changes
(``constructions.base_change``) and restrictions (``restrict_instance``)
are its two callers.  Each supplies, per side, the new basis, its rows
and a reader.  At grade g the new basis vectors are the rows of the
block at g, in the old block coordinates; row k is the new vector at the
k-th position of the new basis at g.  The contraction keeps, for each
old position, the (new position, coefficient) pairs of the new vectors
it takes part in.  The reader gives each old output position as one
linear combination: its new coordinates, keyed by new position, plus
its residue, with residue component k keyed -1 - k.  The old table
entries are walked once: an entry at (a, b) is read once, as the sum of
its components' reads, and added, times the two coefficients, to the
image of each pair (i, j) of new vectors that take part in a and b.
Sums are formed on plain scalars, with no product by one, and reduced
``% p`` at the end over GF(p).  A pair whose image keeps a residue key
escapes the new span: the first rule in ``RULES`` order that has one
refuses the instance, naming its least new left position.  The tables
are sorted by (left, right).  Every component is read at its own
position, so a component that breaks the grade-shift law is read in its
own block.  The two readers:

* base change: the old vector at offset k of block g reads as row k of
  the inverse of the block's matrix, drawn with it; no residue;
* restriction, on RREF rows E_t with pivots c_t: the old vector at c_t
  reads as coordinate t plus the residue e_{c_t} - E_t, which lies in
  the columns that are no pivot; any other old vector e_k is its own
  residue.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .errors import ToolkitError
from .fields import Field, Scalar
from .groups import Grade, GroupSpec, format_grade
from .linear import (
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    Sparse,
    entry_kernel,
)


# (rule name, bases of the left argument, the right argument and the output)
RULES = (("bracket", "LLL"), ("product", "AAA"), ("action", "ALL"), ("anchor", "LAA"))


class AlgebraInstance:
    def __init__(
        self,
        name: str,
        field: Field,
        group: GroupSpec,
        L: GradedBasis,
        A: GradedBasis,
        bracket: BilinearRule,
        product: BilinearRule,
        action: BilinearRule,
        anchor: BilinearRule,
    ):
        L.check_grades(group)
        A.check_grades(group)
        self.name = name
        self.field = field
        self.group = group
        self.L = L
        self.A = A
        self.bracket = bracket
        self.product = product
        self.action = action
        self.anchor = anchor
        bases = {"L": L, "A": A}
        for rule, (_, dom) in zip((bracket, product, action, anchor), RULES):
            if (rule.left, rule.right, rule.out) != tuple(bases[b] for b in dom):
                raise ValueError(f"rule {rule.name!r} has wrong domain or codomain")
            if (rule.field, rule.group) != (field, group):
                raise ValueError(f"rule {rule.name!r} is over another field or grading group")
        self._full_L: GradedSubspace | None = None
        self._full_A: GradedSubspace | None = None
        self._supports = None  # a connections.Supports, built by connections.supports

    # An instance is never changed after construction, and no caller
    # changes what these return, so each is built on the first call only.

    def full_L(self) -> GradedSubspace:
        if self._full_L is None:
            self._full_L = GradedSubspace.full(self.field, self.L)
        return self._full_L

    def full_A(self) -> GradedSubspace:
        if self._full_A is None:
            self._full_A = GradedSubspace.full(self.field, self.A)
        return self._full_A

    def describe_L(self, v: Sparse) -> str:
        return self.L.describe_sparse(v, self.field)

    def describe_A(self, v: Sparse) -> str:
        return self.A.describe_sparse(v, self.field)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        out: dict = {"check": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    checks: list[CheckResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def verify_grading(inst: AlgebraInstance) -> VerificationReport:
    """Every table entry lands in the block at the product grade."""
    checks = []
    for rule in (inst.bracket, inst.product, inst.action, inst.anchor):
        bad = rule.grading_violations()
        if bad:
            w = dict(bad[0])
            w["expected_grade"] = format_grade(w["expected_grade"])
            w["got_grade"] = format_grade(w["got_grade"])
            w["violations"] = len(bad)
            checks.append(CheckResult(f"grading.{rule.name}", False, w))
        else:
            checks.append(CheckResult(f"grading.{rule.name}", True))
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# the ten laws, as sums of signed products on basis positions


# (sign, inner rule, x, y, outer rule or None, inner_on_left, z); module docstring
Term = tuple[int, str, int, int, str | None, bool, int | None]

# (check name, basis of each argument, basis of the discrepancy, terms,
# margin: None, or m when every other argument of the least nonzero tuple
# is at least its first argument plus m; module docstring)
LAWS: tuple[tuple[str, str, str, tuple[Term, ...], int | None], ...] = (
    ("lie.alternating", "L", "L",                                # [v,v] = 0
     ((1, "bracket", 0, 0, None, True, None),), None),
    ("lie.antisymmetry", "LL", "L",                              # [u,v] = -[v,u]
     ((1, "bracket", 0, 1, None, True, None), (1, "bracket", 1, 0, None, True, None)), 0),
    ("lie.jacobi", "LLL", "L",                                   # [[u,v],w] + cyclic = 0
     ((1, "bracket", 0, 1, "bracket", True, 2), (1, "bracket", 1, 2, "bracket", True, 0),
      (1, "bracket", 2, 0, "bracket", True, 1)), 0),
    ("assoc.commutativity", "AA", "A",                           # ab = ba
     ((1, "product", 0, 1, None, True, None), (-1, "product", 1, 0, None, True, None)), 1),
    ("assoc.associativity", "AAA", "A",                          # (ab)c = a(bc)
     ((1, "product", 0, 1, "product", True, 2), (-1, "product", 1, 2, "product", False, 0)), None),
    ("module.associative_action", "AAL", "L",                    # (ab).v = a.(b.v)
     ((1, "product", 0, 1, "action", True, 2), (-1, "action", 1, 2, "action", False, 0)), None),
    ("anchor.derivation", "LAA", "A",                            # rho(v)(ab) = rho(v)(a)b + a rho(v)(b)
     ((1, "product", 1, 2, "anchor", False, 0), (-1, "anchor", 0, 1, "product", True, 2),
      (-1, "anchor", 0, 2, "product", False, 1)), None),
    ("anchor.homomorphism", "LLA", "A",                          # rho([v,w]) = [rho(v), rho(w)]
     ((1, "bracket", 0, 1, "anchor", True, 2), (-1, "anchor", 1, 2, "anchor", False, 0),
      (1, "anchor", 0, 2, "anchor", False, 1)), None),
    ("anchor.linearity", "ALA", "A",                             # rho(a.v)(b) = a rho(v)(b)
     ((1, "action", 0, 1, "anchor", True, 2), (-1, "anchor", 1, 2, "product", False, 0)), None),
    ("anchor.compatibility", "LAL", "L",                         # [v,a.w] = a.[v,w] + rho(v)(a).w
     ((1, "action", 1, 2, "bracket", False, 0), (-1, "bracket", 0, 2, "action", False, 1),
      (-1, "anchor", 0, 1, "action", True, 2)), None),
)


IntTable = dict[tuple[int, int], dict[int, int]]


def _int_tables(inst: AlgebraInstance) -> tuple[dict[str, IntTable], int]:
    """The four rule tables on plain ints, and their scale D (module docstring):
    over GF(p) the residues as they are and D = 1, over Q each entry times
    the lcm D of all denominators."""
    tables = {name: getattr(inst, name).table for name, _ in RULES}
    if inst.field.p is not None:
        return tables, 1
    scale = lcm(*(c.denominator for t in tables.values() for image in t.values() for c in image.values()))
    return {name: {key: {o: c.numerator * (scale // c.denominator) for o, c in image.items()}
                   for key, image in t.items()}
            for name, t in tables.items()}, scale


class _TableIndex(dict):
    """The integer tables of one ``verify_all`` call, grouped on first use:
    ``index[rule, "left"]`` maps i to [(j, image)] and ``index[rule,
    "right"]`` maps j to [(i, image)], over the entries (i, j) -> image."""

    def __init__(self, tables: Mapping[str, IntTable]):
        super().__init__()
        self.tables = tables

    def __missing__(self, key: tuple[str, str]) -> dict[int, list]:
        rule, by = key
        groups: dict[int, list] = {}
        table = self.tables[rule]
        if by == "left":
            for (i, j), image in table.items():
                groups.setdefault(i, []).append((j, image))
        else:
            for (i, j), image in table.items():
                groups.setdefault(j, []).append((i, image))
        self[key] = groups
        return groups


def _add_term(
    sums: dict[int, int], index: _TableIndex, radix: Sequence[int], margin: int | None, term: Term,
) -> None:
    """Add one term's signed products into the flat-keyed sums of its law,
    dropping each tuple outside the margin (module docstring)."""
    sign, inner, x, y, outer, inner_on_left, z = term
    mx, my = radix[x], 0 if x == y else radix[y]  # [v, v] has one argument
    partners, mz = (index[outer, "left" if inner_on_left else "right"], radix[z]) if outer else ({}, 0)
    lo, hi = 0, sys.maxsize  # the outer argument r of a kept tuple has lo <= r <= hi
    for (i, j), image in index.tables[inner].items():
        if x == y and i != j:
            continue
        if margin is not None:
            if z == 0:
                hi = min(i, j) - margin
            else:  # argument 0 is i or j
                first, other = (i, j) if x == 0 else (j, i)
                if other < first + margin:
                    continue
                lo = first + margin
        base = i * mx + j * my
        if outer is None:
            for pos, e in image.items():
                sums[base + pos] += sign * e
            continue
        for o, c in image.items():
            c *= sign
            for r, outer_image in partners.get(o, ()):
                if lo <= r <= hi:
                    key = base + r * mz
                    for pos, e in outer_image.items():
                        sums[key + pos] += c * e


def _law_check(
    inst: AlgebraInstance, index: _TableIndex, scale: int,
    name: str, args: str, out: str, terms: tuple[Term, ...], margin: int | None,
) -> CheckResult:
    """Sum every term's nonzero table products per flat key, on ints, in
    one pass; report the least tuple whose sum is nonzero in the field
    (module docstring)."""
    p = inst.field.p
    bases = [getattr(inst, b) for b in args]
    dout = getattr(inst, out).dim
    radix = [0] * len(args)
    step = dout
    for k in range(len(args) - 1, -1, -1):
        radix[k] = step
        step *= bases[k].dim
    sums: defaultdict[int, int] = defaultdict(int)
    for term in terms:
        _add_term(sums, index, radix, margin, term)
    if p is not None:
        least = min((key for key, s in sums.items() if s % p), default=None)
    else:
        least = min((key for key, s in sums.items() if s), default=None)
    if least is None:
        return CheckResult(name, True)
    block = least - least % dout
    witness = [least // radix[k] % bases[k].dim for k in range(len(args))]
    if p is not None:
        diff = {pos: x % p for pos in range(dout) if (x := sums.get(block + pos, 0)) % p}
    else:
        # a law's terms all have degree 1 in the entries, or all 2 (outer rule)
        denominator = scale if terms[0][4] is None else scale * scale
        diff = {pos: Fraction(x, denominator) for pos in range(dout) if (x := sums.get(block + pos, 0))}
    return CheckResult(name, False, {
        "args": [b.name_of(i) for b, i in zip(bases, witness)],
        "value": getattr(inst, out).describe_sparse(diff, inst.field),
    })


def verify_all(inst: AlgebraInstance) -> VerificationReport:
    """The four grading checks, then one check per row of ``LAWS``, each
    summed in one pass; all read one table index that lives for this call."""
    checks = verify_grading(inst).checks
    tables, scale = _int_tables(inst)
    index = _TableIndex(tables)
    checks += [_law_check(inst, index, scale, *law) for law in LAWS]
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# canonical invariant subspaces


# each subspace's basis and the (rule, v_left) maps it is the common kernel
# of: v -> rule(v, .) when v_left, v -> rule(., v) when not
KERNEL_MAPS: dict[str, tuple[str, tuple[tuple[str, bool], ...]]] = {
    "center": ("L", (("bracket", True), ("anchor", True))),
    "ann_L_of_A": ("L", (("action", False),)),
    "ann_A": ("A", (("product", True),)),
    "ker_anchor": ("L", (("anchor", True),)),
}


def kernel_maps(inst: AlgebraInstance, kernel: str) -> tuple[GradedBasis, list[tuple[BilinearRule, bool]]]:
    """The basis and the (rule, v_left) maps of ``KERNEL_MAPS[kernel]`` on ``inst``."""
    basis, maps = KERNEL_MAPS[kernel]
    return getattr(inst, basis), [(getattr(inst, rule), v_left) for rule, v_left in maps]


def center(inst: AlgebraInstance) -> GradedSubspace:
    """Z(L) = {v : [v, L] = 0 and rho(v) = 0}."""
    return entry_kernel(inst.field, *kernel_maps(inst, "center"))


def ann_L_of_A(inst: AlgebraInstance) -> GradedSubspace:
    """Ann_L(A) = {v in L : A.v = 0}."""
    return entry_kernel(inst.field, *kernel_maps(inst, "ann_L_of_A"))


def ann_A(inst: AlgebraInstance) -> GradedSubspace:
    """Ann(A) = {a in A : aA = 0}."""
    return entry_kernel(inst.field, *kernel_maps(inst, "ann_A"))


def ker_anchor(inst: AlgebraInstance) -> GradedSubspace:
    """Ker rho = {v in L : rho(v)(A) = 0}."""
    return entry_kernel(inst.field, *kernel_maps(inst, "ker_anchor"))


# ---------------------------------------------------------------------------
# graded ideal predicates


def is_graded_ideal_L(inst: AlgebraInstance, I: GradedSubspace) -> tuple[bool, dict | None]:
    """Graded ideal test: [L, I] <= I, A.I <= I and rho(I)(A)L <= I.

    Takes every basis vector of L and of A against every row of I, law by
    law, and returns (verdict, witness); the witness names the first
    product that leaves I.
    """
    if I.ambient != inst.L or I.field != inst.field:
        raise ValueError(f"subspace is not inside L over {inst.field.label}")
    f = inst.field
    L_vecs = [{p: f.one} for p in range(inst.L.dim)]
    A_vecs = [{p: f.one} for p in range(inst.A.dim)]
    ideal = I.sparse_vectors()

    for u in L_vecs:
        for w in ideal:
            img = inst.bracket.apply_sparse(u, w)
            if not I._contains(img):
                return False, {
                    "law": "[L, I] <= I",
                    "args": [inst.describe_L(u), inst.describe_L(w)],
                    "value": inst.describe_L(img),
                }
    for a in A_vecs:
        for w in ideal:
            img = inst.action.apply_sparse(a, w)
            if not I._contains(img):
                return False, {
                    "law": "A.I <= I",
                    "args": [inst.describe_A(a), inst.describe_L(w)],
                    "value": inst.describe_L(img),
                }
    for w in ideal:
        for a in A_vecs:
            da = inst.anchor.apply_sparse(w, a)
            for u in L_vecs:
                img = inst.action.apply_sparse(da, u)
                if not I._contains(img):
                    return False, {
                        "law": "rho(I)(A)L <= I",
                        "args": [inst.describe_L(w), inst.describe_A(a), inst.describe_L(u)],
                        "value": inst.describe_L(img),
                    }
    return True, None


def is_graded_ideal_A(inst: AlgebraInstance, J: GradedSubspace) -> tuple[bool, dict | None]:
    """Graded ideal of the commutative algebra: A.J <= J, on every basis vector of A and row of J."""
    if J.ambient != inst.A or J.field != inst.field:
        raise ValueError(f"subspace is not inside A over {inst.field.label}")
    f = inst.field
    ideal = J.sparse_vectors()
    for a in range(inst.A.dim):
        for w in ideal:
            img = inst.product.apply_sparse({a: f.one}, w)
            if not J._contains(img):
                return False, {
                    "law": "A.J <= J",
                    "args": [inst.A.name_of(a), inst.describe_A(w)],
                    "value": inst.describe_A(img),
                }
    return True, None


# ---------------------------------------------------------------------------
# rebuilding on new bases


def rebuild_instance(
    sources: tuple[AlgebraInstance, ...], name: str, field: Field, group: GroupSpec, L: GradedBasis, A: GradedBasis,
    make_rule: Callable[[BilinearRule, str], dict[tuple[int, int], Sparse]],
) -> AlgebraInstance:
    """An instance on L and A; each ``RULES`` row's table is
    ``make_rule(the first source's rule, row letters)``, made from that
    rule of every source.

    Each table must be canonical (``BilinearRule._from_canonical``): it is
    made from rules that were checked when they were built, so no scalar
    is checked again.  ``make_rule`` must send homogeneous basis vectors
    to homogeneous vectors of the same grade, mapped into ``group``, so a
    rule keeps the grade-shift law when that rule of every source keeps
    it: such a rule inherits the verdict, and any other decides it."""
    bases = {"L": L, "A": A}
    rules = [BilinearRule._from_canonical(r, field, group, *(bases[b] for b in dom),
                                          make_rule(getattr(sources[0], r), dom),
                                          lawful=not any(getattr(s, r).off_grade_pairs for s in sources))
             for r, dom in RULES]
    return AlgebraInstance(name, field, group, L, A, *rules)


# one new basis of a side: the basis, the rows of its blocks in the old
# block coordinates, and the read of each old position as (key,
# coefficient) pairs: a new position, or -1 - k for residue component k
NewBasis = tuple[GradedBasis, Mapping[Grade, Sequence[Sequence[Scalar]]], Sequence[Sequence[tuple[int, Scalar]]]]


def _reduced(sums: Sparse, p: int | None) -> Sparse:
    """The nonzero sums, reduced ``% p`` over GF(p)."""
    if p is None:
        return {k: z for k, z in sums.items() if z}
    return {k: y for k, z in sums.items() if (y := z % p)}


def contract(inst: AlgebraInstance, name: str, L: NewBasis, A: NewBasis) -> AlgebraInstance:
    """The rules of ``inst`` on new bases of L and A, each given with its
    rows and its reader (module docstring); ToolkitError if a product of
    two new basis vectors escapes the new span."""
    p = inst.field.p
    new = {"L": L, "A": A}
    # per old position of each side, the new basis vectors it takes part in
    spreads: dict[str, list[list[tuple[int, Scalar]]]] = {}
    for side, (basis, rows, _) in new.items():
        old = getattr(inst, side)
        spread: list[list[tuple[int, Scalar]]] = [[] for _ in range(old.dim)]
        for g, block in rows.items():
            at = old.positions_at(g)
            for pos, row in zip(basis.positions_at(g), block):
                for a, x in zip(at, row):
                    if x:
                        spread[a].append((pos, x))
        spreads[side] = spread

    def make_rule(rule: BilinearRule, dom: str) -> dict[tuple[int, int], Sparse]:
        left, right, read = spreads[dom[0]], spreads[dom[1]], new[dom[2]][2]
        sums: dict[tuple[int, int], Sparse] = {}
        for (a, b), entry in rule.table.items():
            us, vs = left[a], right[b]
            if not (us and vs):
                continue
            # the entry read, then added times x * y to each pair (i, j); on
            # plain scalars, with no product by one and no sum with zero
            w: Sparse = {}
            for o, c in entry.items():
                for k, z in read[o]:
                    z = c if z == 1 else c * z
                    w[k] = w[k] + z if k in w else z
            for i, x in us:
                for j, y in vs:
                    xy = y if x == 1 else x if y == 1 else x * y
                    acc = sums.setdefault((i, j), {})
                    for k, z in w.items():
                        z = z if xy == 1 else xy * z
                        acc[k] = acc[k] + z if k in acc else z
        table = {key: image for key in sorted(sums) if (image := _reduced(sums[key], p))}
        escapes = [i for (i, _), image in table.items() if min(image) < 0]
        if escapes:
            what = f"{rule.name}({new[dom[0]][0].name_of(min(escapes))}, ...)"
            raise ToolkitError(f"restriction is not closed: {what} escapes the subspace")
        return table

    return rebuild_instance((inst,), name, inst.field, inst.group, L[0], A[0], make_rule)


def restrict_instance(
    inst: AlgebraInstance, L_sub: GradedSubspace, A_sub: GradedSubspace, name: str
) -> AlgebraInstance:
    """The induced instance on a subpair (I, B).

    Both subspaces must be closed under all four rules (with outputs
    landing back inside); otherwise a ToolkitError reports the escaping
    product.  Basis names are regenerated deterministically from the
    grade blocks.  A subspace of the wrong space, or over another field,
    raises ValueError.  The new basis vectors are the RREF rows of each
    block, read at their pivots (module docstring).
    """
    if L_sub.ambient != inst.L or A_sub.ambient != inst.A:
        raise ValueError("subpair is not inside (L, A)")
    if L_sub.field != inst.field or A_sub.field != inst.field:
        raise ValueError(f"subpair is not over {inst.field.label}")
    one = inst.field.one

    def side(sub: GradedSubspace, prefix: str) -> NewBasis:
        basis = GradedBasis((f"{prefix}{k}", g) for k, (g, _) in enumerate(sub.block_vectors()))
        # a position off the pivots, or in a block of no row, is its own residue
        read = [[(-1 - o, one)] for o in range(sub.ambient.dim)]
        for g, rows in sub.blocks.items():
            at, pivots = sub.ambient.positions_at(g), sub.pivots[g]
            free = [m for m in range(len(at)) if m not in pivots]
            for pos, row, c in zip(basis.positions_at(g), rows, pivots):
                read[at[c]] = [(pos, one)] + [(-1 - at[m], -row[m]) for m in free if row[m]]
        return basis, sub.blocks, read

    return contract(inst, name, side(L_sub, "l"), side(A_sub, "a"))
