"""Structure-constant model of a graded Lie-Rinehart algebra (L, A).

An instance bundles a grading group, a field, graded bases for the Lie
algebra L and the commutative algebra A, and four bilinear rules:

* ``bracket``  [.,.] : L x L -> L
* ``product``  .     : A x A -> A
* ``action``   .     : A x L -> L   (A-module structure on L)
* ``anchor``   rho   : L x A -> A   (rho(v) acting as a derivation of A)

``verify_all`` checks the axioms exhaustively on basis tuples and reports
the first counterexample of each law.  It works on absolute positions, so
even instances whose tables break the grading law can be loaded and
then failed by ``verify_grading`` with a precise witness.

The ten algebra laws are the rows of ``LAWS``: (check name, basis of each
argument, basis of the discrepancy, discrepancy).  The argument string,
e.g. ``"LAA"``, fixes the order of everything: the discrepancy takes its
positions in that order, the tuples are scanned in lexicographic order
of that tuple, and the witness lists the basis names in that order.

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

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Sequence

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
    sparse_add,
    sparse_sub,
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
# the ten laws, as discrepancies lhs - rhs on basis positions


def _alternating(inst: AlgebraInstance, i: int) -> Sparse:
    return inst.bracket.on_basis(i, i)


def _antisymmetry(inst: AlgebraInstance, i: int, j: int) -> Sparse:
    br = inst.bracket
    return sparse_add(inst.field, br.on_basis(i, j), br.on_basis(j, i))


def _jacobi(inst: AlgebraInstance, i: int, j: int, k: int) -> Sparse:
    f, br = inst.field, inst.bracket
    total: Sparse = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        total = sparse_add(f, total, br.apply_sparse(br.on_basis(a, b), {c: f.one}))
    return total


def _commutativity(inst: AlgebraInstance, i: int, j: int) -> Sparse:
    pr = inst.product
    return sparse_sub(inst.field, pr.on_basis(i, j), pr.on_basis(j, i))


def _associativity(inst: AlgebraInstance, i: int, j: int, k: int) -> Sparse:
    f, pr = inst.field, inst.product
    lhs = pr.apply_sparse(pr.on_basis(i, j), {k: f.one})
    return sparse_sub(f, lhs, pr.apply_sparse({i: f.one}, pr.on_basis(j, k)))


def _module(inst: AlgebraInstance, i: int, j: int, k: int) -> Sparse:
    f, ac = inst.field, inst.action
    lhs = ac.apply_sparse(inst.product.on_basis(i, j), {k: f.one})
    return sparse_sub(f, lhs, ac.apply_sparse({i: f.one}, ac.on_basis(j, k)))


def _derivation(inst: AlgebraInstance, v: int, a: int, b: int) -> Sparse:
    f, pr, rho = inst.field, inst.product, inst.anchor
    lhs = rho.apply_sparse({v: f.one}, pr.on_basis(a, b))
    rhs = sparse_add(f, pr.apply_sparse(rho.on_basis(v, a), {b: f.one}),
                     pr.apply_sparse({a: f.one}, rho.on_basis(v, b)))
    return sparse_sub(f, lhs, rhs)


def _homomorphism(inst: AlgebraInstance, v: int, w: int, a: int) -> Sparse:
    f, rho = inst.field, inst.anchor
    lhs = rho.apply_sparse(inst.bracket.on_basis(v, w), {a: f.one})
    rhs = sparse_sub(f, rho.apply_sparse({v: f.one}, rho.on_basis(w, a)),
                     rho.apply_sparse({w: f.one}, rho.on_basis(v, a)))
    return sparse_sub(f, lhs, rhs)


def _linearity(inst: AlgebraInstance, a: int, v: int, b: int) -> Sparse:
    f, rho = inst.field, inst.anchor
    lhs = rho.apply_sparse(inst.action.on_basis(a, v), {b: f.one})
    return sparse_sub(f, lhs, inst.product.apply_sparse({a: f.one}, rho.on_basis(v, b)))


def _compatibility(inst: AlgebraInstance, v: int, a: int, w: int) -> Sparse:
    f, br, ac = inst.field, inst.bracket, inst.action
    lhs = br.apply_sparse({v: f.one}, ac.on_basis(a, w))
    rhs = sparse_add(f, ac.apply_sparse({a: f.one}, br.on_basis(v, w)),
                     ac.apply_sparse(inst.anchor.on_basis(v, a), {w: f.one}))
    return sparse_sub(f, lhs, rhs)


# (check name, basis of each argument, basis of the discrepancy, discrepancy)
LAWS: tuple[tuple[str, str, str, Callable[..., Sparse]], ...] = (
    ("lie.alternating", "L", "L", _alternating),                 # [v,v] = 0
    ("lie.antisymmetry", "LL", "L", _antisymmetry),              # [u,v] = -[v,u]
    ("lie.jacobi", "LLL", "L", _jacobi),                         # [[u,v],w] + cyclic = 0
    ("assoc.commutativity", "AA", "A", _commutativity),          # ab = ba
    ("assoc.associativity", "AAA", "A", _associativity),         # (ab)c = a(bc)
    ("module.associative_action", "AAL", "L", _module),          # (ab).v = a.(b.v)
    ("anchor.derivation", "LAA", "A", _derivation),              # rho(v)(ab) = rho(v)(a)b + a rho(v)(b)
    ("anchor.homomorphism", "LLA", "A", _homomorphism),          # rho([v,w]) = [rho(v), rho(w)]
    ("anchor.linearity", "ALA", "A", _linearity),                # rho(a.v)(b) = a rho(v)(b)
    ("anchor.compatibility", "LAL", "L", _compatibility),        # [v,a.w] = a.[v,w] + rho(v)(a).w
)


def _law_check(
    inst: AlgebraInstance, name: str, args: str, out: str, discrepancy: Callable[..., Sparse]
) -> CheckResult:
    """Scan basis tuples in lexicographic order; report the first nonzero discrepancy."""
    bases = [getattr(inst, b) for b in args]
    for positions in itertools.product(*(range(b.dim) for b in bases)):
        diff = discrepancy(inst, *positions)
        if diff:
            return CheckResult(name, False, {
                "args": [b.name_of(p) for b, p in zip(bases, positions)],
                "value": getattr(inst, out).describe_sparse(diff, inst.field),
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
