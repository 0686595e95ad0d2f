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
argument, basis of the discrepancy, terms).  The discrepancy lhs - rhs
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
the tables, not the tuples: for each inner entry (p, q) -> {o: c} it
pairs o with every outer entry that has o on the inner side and adds
the signed product into the sum of the tuple it reaches.  It does so
one value of the first argument at a time, in increasing order, and
stops at the first value with a nonzero sum: the witness is the least
tuple whose sum is nonzero there, the same tuple a scan of all basis
tuples in lexicographic order finds first.  The cost grows with the
number of nonzero products of structure constants, and the sums held at
once with the products of one value of the first argument.

``RULES`` is the one list of rule domains, in the same letters: each row
is (rule name, bases of the left argument, the right argument and the
output), e.g. ``("action", "ALL")`` for A x L -> L.  Every construction
that makes a new instance reads it, through ``rebuild_instance``.

``transport`` rebuilds an instance on new homogeneous bases.  At grade g
the new basis vectors are the rows of ``L_rows[g]`` (``A_rows[g]``), given
in the old block coordinates; row k is the new vector at the k-th
position of ``L.positions_at(g)``, so the row order within a block is
the new position order.  Each image of an old rule on new vectors is
expressed block by block in those rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator, Mapping, Sequence

from .errors import ToolkitError
from .fields import Field, Scalar
from .groups import Grade, GroupSpec, format_grade
from .linear import (
    BilinearRule,
    GradedBasis,
    GradedSubspace,
    Sparse,
    coordinate_reader,
    map_kernel,
    nullspace,
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
        self._full_L: GradedSubspace | None = None
        self._full_A: GradedSubspace | None = None

    # An instance is never changed after construction, and no caller
    # changes a returned subspace, so each is built on the first call only.

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

# (check name, basis of each argument, basis of the discrepancy, terms)
LAWS: tuple[tuple[str, str, str, tuple[Term, ...]], ...] = (
    ("lie.alternating", "L", "L",                                # [v,v] = 0
     ((1, "bracket", 0, 0, None, True, None),)),
    ("lie.antisymmetry", "LL", "L",                              # [u,v] = -[v,u]
     ((1, "bracket", 0, 1, None, True, None), (1, "bracket", 1, 0, None, True, None))),
    ("lie.jacobi", "LLL", "L",                                   # [[u,v],w] + cyclic = 0
     ((1, "bracket", 0, 1, "bracket", True, 2), (1, "bracket", 1, 2, "bracket", True, 0),
      (1, "bracket", 2, 0, "bracket", True, 1))),
    ("assoc.commutativity", "AA", "A",                           # ab = ba
     ((1, "product", 0, 1, None, True, None), (-1, "product", 1, 0, None, True, None))),
    ("assoc.associativity", "AAA", "A",                          # (ab)c = a(bc)
     ((1, "product", 0, 1, "product", True, 2), (-1, "product", 1, 2, "product", False, 0))),
    ("module.associative_action", "AAL", "L",                    # (ab).v = a.(b.v)
     ((1, "product", 0, 1, "action", True, 2), (-1, "action", 1, 2, "action", False, 0))),
    ("anchor.derivation", "LAA", "A",                            # rho(v)(ab) = rho(v)(a)b + a rho(v)(b)
     ((1, "product", 1, 2, "anchor", False, 0), (-1, "anchor", 0, 1, "product", True, 2),
      (-1, "anchor", 0, 2, "product", False, 1))),
    ("anchor.homomorphism", "LLA", "A",                          # rho([v,w]) = [rho(v), rho(w)]
     ((1, "bracket", 0, 1, "anchor", True, 2), (-1, "anchor", 1, 2, "anchor", False, 0),
      (1, "anchor", 0, 2, "anchor", False, 1))),
    ("anchor.linearity", "ALA", "A",                             # rho(a.v)(b) = a rho(v)(b)
     ((1, "action", 0, 1, "anchor", True, 2), (-1, "anchor", 1, 2, "product", False, 0))),
    ("anchor.compatibility", "LAL", "L",                         # [v,a.w] = a.[v,w] + rho(v)(a).w
     ((1, "action", 1, 2, "bracket", False, 0), (-1, "bracket", 0, 2, "action", False, 1),
      (-1, "anchor", 0, 1, "action", True, 2))),
)


def _term_products(
    inst: AlgebraInstance, arity: int, term: Term
) -> tuple[set[int], Callable[[int], Iterator[tuple[tuple[int, ...], Scalar, Sparse]]]]:
    """Index one term's nonzero table products by the value of the law's
    first argument: the values it takes, and a function listing the
    products (argument tuple, coefficient, image) at one of them."""
    sign, inner, x, y, outer, inner_on_left, z = term
    f = inst.field
    c0 = f.one if sign > 0 else f.neg(f.one)
    first_inner = z != 0
    by_first: dict[int, list] = {}
    partners: dict[int, list[tuple[int, Sparse]]] = {}
    if outer is not None:
        for (i, j), image in getattr(inst, outer).table.items():
            o, r = (i, j) if inner_on_left else (j, i)
            if first_inner:
                partners.setdefault(o, []).append((r, image))
            else:
                by_first.setdefault(r, []).append((o, image))
    by_output: dict[int, list[tuple[int, int, Scalar]]] = {}
    if not first_inner:
        # the first argument sits on the outer side: inner entries are
        # looked up by output, keeping only outputs some outer entry takes
        by_output = {o: [] for entries in by_first.values() for o, _ in entries}
    for (p, q), image in getattr(inst, inner).table.items():
        if x == y and p != q:
            continue
        if first_inner:
            by_first.setdefault(p if x == 0 else q, []).append((p, q, image))
            continue
        for o, c in image.items():
            if o in by_output:
                by_output[o].append((p, q, c))
    key = [0] * arity

    def products(v: int):
        if not first_inner:
            key[z] = v
            for o, image in by_first.get(v, ()):
                for key[x], key[y], c in by_output.get(o, ()):
                    yield tuple(key), f.mul(c0, c), image
            return
        for key[x], key[y], inner_image in by_first.get(v, ()):
            if outer is None:
                yield tuple(key), c0, inner_image
                continue
            for o, c in inner_image.items():
                c = f.mul(c0, c)
                for key[z], image in partners.get(o, ()):
                    yield tuple(key), c, image

    return set(by_first), products


def _law_check(
    inst: AlgebraInstance, name: str, args: str, out: str, terms: tuple[Term, ...]
) -> CheckResult:
    """Sum every term's nonzero table products per argument tuple, one
    value of the first argument at a time in increasing order; report the
    lexicographically least tuple whose sum is nonzero."""
    f = inst.field
    walks = [_term_products(inst, len(args), term) for term in terms]
    for v in sorted(set().union(*(values for values, _ in walks))):
        sums: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for _, products in walks:
            for key, c, image in products(v):
                acc = sums.setdefault(key, {})
                for pos, e in image.items():
                    acc[pos] = f.add(acc.get(pos, f.zero), f.mul(c, e))
        nonzero = [t for t, s in sums.items() if any(not f.is_zero(c) for c in s.values())]
        if nonzero:
            first = min(nonzero)
            diff = {pos: c for pos, c in sums[first].items() if not f.is_zero(c)}
            return CheckResult(name, False, {
                "args": [getattr(inst, b).name_of(p) for b, p in zip(args, first)],
                "value": getattr(inst, out).describe_sparse(diff, f),
            })
    return CheckResult(name, True)


def verify_all(inst: AlgebraInstance) -> VerificationReport:
    """The four grading checks, then one check per row of ``LAWS``."""
    checks = verify_grading(inst).checks
    checks += [_law_check(inst, *law) for law in LAWS]
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# canonical invariant subspaces


def center(inst: AlgebraInstance) -> GradedSubspace:
    """Z(L) = {v : [v, L] = 0 and rho(v) = 0}."""

    def images(pos: int) -> list[Sparse]:
        row = [inst.bracket.on_basis(pos, j) for j in range(inst.L.dim)]
        row += [inst.anchor.on_basis(pos, j) for j in range(inst.A.dim)]
        return row

    return map_kernel(inst.field, inst.L, images)


def ann_L_of_A(inst: AlgebraInstance) -> GradedSubspace:
    """Ann_L(A) = {v in L : A.v = 0}."""

    def images(pos: int) -> list[Sparse]:
        return [inst.action.on_basis(a, pos) for a in range(inst.A.dim)]

    return map_kernel(inst.field, inst.L, images)


def ann_A(inst: AlgebraInstance) -> GradedSubspace:
    """Ann(A) = {a in A : aA = 0}."""

    def images(pos: int) -> list[Sparse]:
        return [inst.product.on_basis(pos, b) for b in range(inst.A.dim)]

    return map_kernel(inst.field, inst.A, images)


def ker_anchor(inst: AlgebraInstance) -> GradedSubspace:
    """Ker rho = {v in L : rho(v)(A) = 0}."""

    def images(pos: int) -> list[Sparse]:
        return [inst.anchor.on_basis(pos, a) for a in range(inst.A.dim)]

    return map_kernel(inst.field, inst.L, images)


# ---------------------------------------------------------------------------
# graded ideal predicates


def is_graded_ideal_L(inst: AlgebraInstance, I: GradedSubspace) -> tuple[bool, dict | None]:
    """Graded ideal test: [L, I] <= I, A.I <= I and rho(I)(A)L <= I.

    Returns (verdict, witness); the witness names the first violating
    product.
    """
    if I.ambient != inst.L:
        raise ValueError("subspace is not inside L")
    f = inst.field
    full_L_vecs = [{p: f.one} for p in range(inst.L.dim)]
    full_A_vecs = [{p: f.one} for p in range(inst.A.dim)]
    ideal_vecs = I.sparse_vectors()

    for u in full_L_vecs:
        for w in ideal_vecs:
            img = inst.bracket.apply_sparse(u, w)
            if not I.contains_sparse(img):
                return False, {
                    "law": "[L, I] <= I",
                    "args": [inst.describe_L(u), inst.describe_L(w)],
                    "value": inst.describe_L(img),
                }
    for a in full_A_vecs:
        for w in ideal_vecs:
            img = inst.action.apply_sparse(a, w)
            if not I.contains_sparse(img):
                return False, {
                    "law": "A.I <= I",
                    "args": [inst.describe_A(a), inst.describe_L(w)],
                    "value": inst.describe_L(img),
                }
    for w in ideal_vecs:
        for a in full_A_vecs:
            da = inst.anchor.apply_sparse(w, a)
            for u in full_L_vecs:
                img = inst.action.apply_sparse(da, u)
                if not I.contains_sparse(img):
                    return False, {
                        "law": "rho(I)(A)L <= I",
                        "args": [inst.describe_L(w), inst.describe_A(a), inst.describe_L(u)],
                        "value": inst.describe_L(img),
                    }
    return True, None


def is_graded_ideal_A(inst: AlgebraInstance, J: GradedSubspace) -> tuple[bool, dict | None]:
    """Graded ideal of the commutative algebra: A.J <= J."""
    if J.ambient != inst.A:
        raise ValueError("subspace is not inside A")
    f = inst.field
    for a in range(inst.A.dim):
        for w in J.sparse_vectors():
            img = inst.product.apply_sparse({a: f.one}, w)
            if not J.contains_sparse(img):
                return False, {
                    "law": "A.J <= J",
                    "args": [inst.A.name_of(a), inst.describe_A(w)],
                    "value": inst.describe_A(img),
                }
    return True, None


# ---------------------------------------------------------------------------
# derivations of A


def compute_derivations(
    field: Field, group: GroupSpec, A: GradedBasis, product: BilinearRule
) -> list[tuple[Grade, list[tuple[tuple[Scalar, ...], ...]]]]:
    """Homogeneous derivation spaces of a graded commutative algebra.

    For each candidate shift d (a difference of basis grades; any other
    shift only carries the zero derivation) solve the Leibniz system
    D(bc) = D(b)c + bD(c) over the unknown images D(basis_j), which are
    constrained to live in the block at grade(basis_j)*d.  Returns a
    sorted list of (shift, basis matrices); each matrix M is dense with
    M[j] the image of basis vector j in absolute A-coordinates.
    """
    dimA = A.dim
    shifts = sorted(
        {group.mul(group.inv(A.grade_of(i)), A.grade_of(j)) for i in range(dimA) for j in range(dimA)}
    )
    results: list[tuple[Grade, list[tuple[tuple[Scalar, ...], ...]]]] = []
    for d in shifts:
        # unknown layout: one slot per (source basis j, target position)
        slots: list[tuple[int, int]] = []
        for j in range(dimA):
            target = group.mul(A.grade_of(j), d)
            slots.extend((j, pos) for pos in A.positions_at(target))
        if not slots:
            continue
        slot_index = {s: k for k, s in enumerate(slots)}

        def image_row(j: int, out_pos: int) -> list[Scalar]:
            """Coefficient row of D(b_j)[out_pos] as a functional in the unknowns."""
            row = [field.zero] * len(slots)
            key = (j, out_pos)
            if key in slot_index:
                row[slot_index[key]] = field.one
            return row

        equations: list[list[Scalar]] = []
        for i in range(dimA):
            for j in range(dimA):
                prod_ij = product.on_basis(i, j)
                # D(b_i b_j) - D(b_i) b_j - b_i D(b_j) = 0, one equation per coordinate
                for c in range(dimA):
                    row = [field.zero] * len(slots)
                    for k, coef in prod_ij.items():
                        for idx, val in enumerate(image_row(k, c)):
                            row[idx] = field.add(row[idx], field.mul(coef, val))
                    # subtract D(b_i) b_j: sum over target positions t of x[i,t] * (b_t b_j)[c]
                    for (src, t), idx in slot_index.items():
                        if src == i:
                            coeff = product.on_basis(t, j).get(c, field.zero)
                            row[idx] = field.sub(row[idx], coeff)
                        if src == j:
                            coeff = product.on_basis(i, t).get(c, field.zero)
                            row[idx] = field.sub(row[idx], coeff)
                    if any(not field.is_zero(x) for x in row):
                        equations.append(row)
        basis_vectors, _ = nullspace(field, equations, len(slots))
        matrices = []
        for vec in basis_vectors:
            mat = [[field.zero] * dimA for _ in range(dimA)]
            for (j, pos), idx in slot_index.items():
                mat[j][pos] = vec[idx]
            matrices.append(tuple(tuple(r) for r in mat))
        if matrices:
            results.append((d, matrices))
    return results


# ---------------------------------------------------------------------------
# rebuilding on new bases


def rebuild_instance(
    inst: AlgebraInstance, name: str, field: Field, group: GroupSpec, L: GradedBasis, A: GradedBasis,
    make_rule: Callable[[BilinearRule, str], dict[tuple[int, int], Sparse]],
) -> AlgebraInstance:
    """An instance on L and A; each ``RULES`` row's table is ``make_rule(inst's rule, row letters)``."""
    bases = {"L": L, "A": A}
    rules = [BilinearRule(r, field, group, *(bases[b] for b in dom), make_rule(getattr(inst, r), dom))
             for r, dom in RULES]
    return AlgebraInstance(name, field, group, L, A, *rules)


def transport(
    inst: AlgebraInstance, name: str,
    L: GradedBasis, L_rows: Mapping[Grade, Sequence[Sequence[Scalar]]],
    A: GradedBasis, A_rows: Mapping[Grade, Sequence[Sequence[Scalar]]],
) -> AlgebraInstance:
    """The rules of ``inst`` on new bases L and A (module docstring); ToolkitError if not closed."""
    f = inst.field
    new = {"L": (L, inst.L, L_rows), "A": (A, inst.A, A_rows)}
    vectors: dict[str, list[Sparse]] = {}
    for side, (basis, old, rows) in new.items():
        vectors[side] = [{} for _ in range(basis.dim)]
        for g, block in rows.items():
            for pos, row in zip(basis.positions_at(g), block):
                vectors[side][pos] = old.block_vector(g, row, f)

    # one coordinate reader per new block, for every image that lands there
    readers = {side: {g: coordinate_reader(f, block) for g, block in rows.items()}
               for side, (_, _, rows) in new.items()}

    def express(side: str, img: Sparse, what: str) -> Sparse:
        basis, old, _ = new[side]
        out: Sparse = {}
        for g, coords in old.split_sparse(img, f).items():
            combo = readers[side][g](coords) if g in readers[side] else None
            if combo is None:
                raise ToolkitError(f"restriction is not closed: {what} escapes the subspace")
            out.update((p, c) for p, c in zip(basis.positions_at(g), combo) if not f.is_zero(c))
        return out

    def make_rule(rule: BilinearRule, dom: str) -> dict[tuple[int, int], Sparse]:
        table, left = {}, new[dom[0]][0]
        for i, u in enumerate(vectors[dom[0]]):
            what = f"{rule.name}({left.name_of(i)}, ...)"
            for j, v in enumerate(vectors[dom[1]]):
                img = rule.apply_sparse(u, v)
                if img:
                    table[(i, j)] = express(dom[2], img, what)
        return table

    return rebuild_instance(inst, name, f, inst.group, L, A, make_rule)


def restrict_instance(
    inst: AlgebraInstance, L_sub: GradedSubspace, A_sub: GradedSubspace, name: str
) -> AlgebraInstance:
    """The induced instance on a subpair (I, B).

    Both subspaces must be closed under all four rules (with outputs
    landing back inside); otherwise a ToolkitError reports the escaping
    product.  Basis names are regenerated deterministically from the
    grade blocks.  A subspace of the wrong space raises ValueError.
    """
    if L_sub.ambient != inst.L or A_sub.ambient != inst.A:
        raise ValueError("subpair is not inside (L, A)")

    def basis(sub: GradedSubspace, prefix: str) -> GradedBasis:
        return GradedBasis((f"{prefix}{k}", g) for k, (g, _) in enumerate(sub.block_vectors()))

    return transport(inst, name, basis(L_sub, "l"), L_sub.blocks, basis(A_sub, "a"), A_sub.blocks)
