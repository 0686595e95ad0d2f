"""Exact linear algebra over graded bases.

Subspaces are stored per grade as reduced row echelon bases; RREF is the
canonical form throughout, so two subspaces are equal iff their block
dictionaries are equal.  Sparse vectors over a graded basis are dicts
mapping absolute basis position -> nonzero scalar.
"""
from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .errors import ToolkitError
from .fields import Field, Scalar
from .groups import Grade, GroupSpec, format_grade

Row = tuple[Scalar, ...]
Sparse = dict[int, Scalar]


# ---------------------------------------------------------------------------
# plain matrix kernels


def rref(field: Field, rows: Iterable[Sequence[Scalar]]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [[field.check(x) for x in row] for row in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def reduce_against(field: Field, rows: Sequence[Row], pivots: Sequence[int], v: Sequence[Scalar]) -> list[Scalar]:
    """Remainder of ``v`` after elimination against an RREF basis."""
    rem = [field.check(x) for x in v]
    for row, p in zip(rows, pivots):
        if not field.is_zero(rem[p]):
            factor = rem[p]
            rem = [field.sub(x, field.mul(factor, y)) for x, y in zip(rem, row)]
    return rem


def in_span(field: Field, rows: Sequence[Row], pivots: Sequence[int], v: Sequence[Scalar]) -> bool:
    return all(field.is_zero(x) for x in reduce_against(field, rows, pivots, v))


def coordinates_in_rref(field: Field, rows: Sequence[Row], pivots: Sequence[int], v: Sequence[Scalar]) -> list[Scalar] | None:
    """Coordinates of ``v`` in an RREF basis (pivot-column extraction)."""
    coords = [field.check(v[p]) for p in pivots]
    residual = list(v)
    for coef, row in zip(coords, rows):
        residual = [field.sub(x, field.mul(coef, y)) for x, y in zip(residual, row)]
    if any(not field.is_zero(x) for x in residual):
        return None
    return coords


def nullspace(field: Field, rows: Iterable[Sequence[Scalar]], ncols: int) -> tuple[Row, ...]:
    """Canonical (RREF) basis of the right kernel {v : M v = 0}."""
    ech, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = field.neg(ech[r][f])
        basis.append(v)
    reduced, _ = rref(field, basis)
    return reduced


def transpose(rows: Sequence[Sequence[Scalar]], ncols: int, field: Field) -> list[list[Scalar]]:
    return [[row[c] for row in rows] for c in range(ncols)]


def left_nullspace(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[Row, ...]:
    """Canonical basis of {c : sum_i c_i rows[i] = 0}."""
    return nullspace(field, transpose(rows, ncols, field), len(rows))


def solve_system(field: Field, eq_rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list[Scalar] | None:
    """One solution of the linear system (free unknowns set to zero)."""
    if not eq_rows:
        return []
    n = len(eq_rows[0])
    augmented = [list(row) + [field.check(b)] for row, b in zip(eq_rows, rhs)]
    ech, pivots = rref(field, augmented)
    sol = [field.zero] * n
    for row, p in zip(ech, pivots):
        if p == n:
            return None  # row (0 ... 0 | 1): inconsistent
        sol[p] = row[n]
    return sol


def linear_combination(field: Field, basis_rows: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> list[Scalar] | None:
    """Coefficients x with sum_i x_i basis_rows[i] = target, if any."""
    if not basis_rows:
        return [] if all(field.is_zero(x) for x in target) else None
    eqs = transpose(basis_rows, len(target), field)
    return solve_system(field, eqs, list(target))


# ---------------------------------------------------------------------------
# sparse vectors over a graded basis


def sparse_add(field: Field, a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for pos, x in b.items():
        s = field.add(out.get(pos, field.zero), x)
        if field.is_zero(s):
            out.pop(pos, None)
        else:
            out[pos] = s
    return out


def sparse_scale(field: Field, c: Scalar, v: Sparse) -> Sparse:
    if field.is_zero(c):
        return {}
    return {pos: field.mul(c, x) for pos, x in v.items()}


def sparse_sub(field: Field, a: Sparse, b: Sparse) -> Sparse:
    return sparse_add(field, a, sparse_scale(field, field.neg(field.one), b))


def sparse_is_zero(v: Sparse) -> bool:
    return not v


# ---------------------------------------------------------------------------
# graded bases


class GradedBasis:
    """Ordered homogeneous basis: named vectors with a grade each."""

    def __init__(self, entries: Iterable[tuple[str, Grade]]):
        self.entries: tuple[tuple[str, Grade], ...] = tuple((str(n), tuple(g)) for n, g in entries)
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        self._pos: dict[str, int] = {n: i for i, (n, _) in enumerate(self.entries)}
        self._blocks: dict[Grade, list[int]] = {}
        for i, (_, g) in enumerate(self.entries):
            self._blocks.setdefault(g, []).append(i)
        self._checked: set[GroupSpec] = set()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedBasis) and self.entries == other.entries

    def check_grades(self, group: GroupSpec) -> None:
        """Raise ValueError unless every grade is a canonical grade of ``group``.

        The entries never change, so each group is checked once per basis.
        """
        if group not in self._checked:
            for g in self._blocks:
                group.check(g)
            self._checked.add(group)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def grades(self) -> list[Grade]:
        return sorted(self._blocks)

    def positions_at(self, g: Grade) -> tuple[int, ...]:
        return tuple(self._blocks.get(tuple(g), ()))

    def block_dim(self, g: Grade) -> int:
        return len(self._blocks.get(tuple(g), ()))

    def grade_of(self, pos: int) -> Grade:
        return self.entries[pos][1]

    def name_of(self, pos: int) -> str:
        return self.entries[pos][0]

    def position_of(self, name: str) -> int:
        if name not in self._pos:
            raise KeyError(f"unknown basis name {name!r}")
        return self._pos[name]

    def block_vector(self, g: Grade, coords: Sequence[Scalar], field: Field) -> Sparse:
        """Sparse absolute vector from dense block coordinates at grade g."""
        positions = self.positions_at(g)
        if len(coords) != len(positions):
            raise ValueError(f"expected {len(positions)} coordinates at grade {format_grade(g)}")
        return {p: field.check(c) for p, c in zip(positions, coords) if not field.is_zero(c)}

    def split_sparse(self, v: Sparse, field: Field) -> dict[Grade, list[Scalar]]:
        """Dense block coordinates of the homogeneous components of ``v``."""
        out: dict[Grade, list[Scalar]] = {}
        for pos, x in v.items():
            g = self.grade_of(pos)
            block = out.setdefault(g, [field.zero] * self.block_dim(g))
            block[self.positions_at(g).index(pos)] = x
        return out

    def describe_sparse(self, v: Sparse, field: Field) -> str:
        """Human-readable linear combination, e.g. ``2*h - e``."""
        if not v:
            return "0"
        parts = [f"{field.format(x)}*{self.name_of(p)}" for p, x in sorted(v.items())]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# graded subspaces


class GradedSubspace:
    """Per-grade RREF blocks inside a graded ambient basis."""

    def __init__(self, field: Field, ambient: GradedBasis, blocks: Mapping[Grade, Sequence[Row]]):
        self.field = field
        self.ambient = ambient
        canon: dict[Grade, tuple[Row, ...]] = {}
        pivots: dict[Grade, tuple[int, ...]] = {}
        for g, rows in blocks.items():
            g = tuple(g)
            if ambient.block_dim(g) == 0 and rows:
                raise ValueError(f"no ambient block at grade {format_grade(g)}")
            reduced, cols = rref(field, rows)
            if reduced:
                canon[g] = reduced
                pivots[g] = cols
        self.blocks: dict[Grade, tuple[Row, ...]] = canon
        # pivot columns of each block; blocks never change after construction
        self.pivots: dict[Grade, tuple[int, ...]] = pivots

    # construction ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, ambient: GradedBasis) -> "GradedSubspace":
        return cls(field, ambient, {})

    @classmethod
    def full(cls, field: Field, ambient: GradedBasis) -> "GradedSubspace":
        blocks = {}
        for g in ambient.grades():
            n = ambient.block_dim(g)
            blocks[g] = [
                tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
            ]
        return cls(field, ambient, blocks)

    @classmethod
    def from_block_vectors(
        cls, field: Field, ambient: GradedBasis, vectors: Iterable[tuple[Grade, Sequence[Scalar]]]
    ) -> "GradedSubspace":
        raw: dict[Grade, list[Sequence[Scalar]]] = {}
        for g, coords in vectors:
            raw.setdefault(tuple(g), []).append(tuple(coords))
        return cls(field, ambient, raw)

    @classmethod
    def from_sparse_vectors(cls, field: Field, ambient: GradedBasis, vectors: Iterable[Sparse]) -> "GradedSubspace":
        homog: list[tuple[Grade, Sequence[Scalar]]] = []
        for v in vectors:
            for g, coords in ambient.split_sparse(v, field).items():
                homog.append((g, coords))
        return cls.from_block_vectors(field, ambient, homog)

    # basics --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedSubspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.blocks == other.blocks
        )

    @property
    def dim(self) -> int:
        return sum(len(rows) for rows in self.blocks.values())

    def dim_at(self, g: Grade) -> int:
        return len(self.blocks.get(tuple(g), ()))

    def grades(self) -> list[Grade]:
        return sorted(self.blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def block_vectors(self) -> list[tuple[Grade, Row]]:
        return [(g, row) for g in self.grades() for row in self.blocks[g]]

    def sparse_vectors(self) -> list[Sparse]:
        return [self.ambient.block_vector(g, row, self.field) for g, row in self.block_vectors()]

    # membership ----------------------------------------------------------

    def contains_block_vector(self, g: Grade, coords: Sequence[Scalar]) -> bool:
        g = tuple(g)
        rows = self.blocks.get(g, ())
        if not rows:
            return all(self.field.is_zero(x) for x in coords)
        return in_span(self.field, rows, self.pivots[g], coords)

    def contains_sparse(self, v: Sparse) -> bool:
        return all(
            self.contains_block_vector(g, coords)
            for g, coords in self.ambient.split_sparse(v, self.field).items()
        )

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        return all(self.contains_block_vector(g, row) for g, row in other.block_vectors())

    def block_coordinates(self, g: Grade, coords: Sequence[Scalar]) -> list[Scalar] | None:
        """Coordinates of a block vector in this subspace's RREF basis."""
        g = tuple(g)
        rows = self.blocks.get(g, ())
        if not rows:
            return [] if all(self.field.is_zero(x) for x in coords) else None
        return coordinates_in_rref(self.field, rows, self.pivots[g], coords)

    def to_json(self) -> dict:
        return {
            format_grade(g): [[self.field.format(x) for x in row] for row in self.blocks[g]]
            for g in self.grades()
        }

    def describe(self) -> str:
        if self.is_zero():
            return "0"
        names = []
        for g, row in self.block_vectors():
            names.append(self.ambient.describe_sparse(self.ambient.block_vector(g, row, self.field), self.field))
        return " , ".join(names)


def subspace_sum(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    if a.ambient != b.ambient or a.field != b.field:
        raise ValueError("subspace sum across different ambients")
    blocks: dict[Grade, list[Row]] = {}
    for sub in (a, b):
        for g, rows in sub.blocks.items():
            blocks.setdefault(g, []).extend(rows)
    return GradedSubspace(a.field, a.ambient, blocks)


def subspace_intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Intersection per grade, via the left kernel of the stacked bases."""
    if a.ambient != b.ambient or a.field != b.field:
        raise ValueError("subspace intersection across different ambients")
    field = a.field
    blocks: dict[Grade, list[Row]] = {}
    for g in set(a.blocks) & set(b.blocks):
        rows_a, rows_b = a.blocks[g], b.blocks[g]
        stacked = list(rows_a) + list(rows_b)
        ncols = len(stacked[0])
        vectors = []
        for c in left_nullspace(field, stacked, ncols):
            v = [field.zero] * ncols
            for coef, row in zip(c[: len(rows_a)], rows_a):
                v = [field.add(x, field.mul(coef, y)) for x, y in zip(v, row)]
            vectors.append(v)
        if vectors:
            blocks[g] = [tuple(v) for v in vectors]
    return GradedSubspace(field, a.ambient, blocks)


def complement_in(inner: GradedSubspace, outer: GradedSubspace) -> GradedSubspace:
    """Deterministic complement C with inner (+) C = outer.

    Rule: express ``inner`` in coordinates relative to ``outer``'s RREF
    basis, then keep the outer basis rows whose relative coordinate is
    not a pivot, lowest index first.  For ``outer`` a full block this is
    exactly "ambient coordinates not used as pivots".
    """
    if not outer.contains_subspace(inner):
        raise ValueError("complement_in requires inner <= outer")
    field = outer.field
    blocks: dict[Grade, list[Row]] = {}
    for g, outer_rows in outer.blocks.items():
        inner_rows = inner.blocks.get(g, ())
        if not inner_rows:
            blocks[g] = list(outer_rows)
            continue
        rel = []
        for row in inner_rows:
            coords = outer.block_coordinates(g, row)
            if coords is None:  # unreachable given the containment check
                raise ValueError("inner vector escapes outer")
            rel.append(coords)
        _, pivots = rref(field, rel)
        keep = [outer_rows[i] for i in range(len(outer_rows)) if i not in pivots]
        if keep:
            blocks[g] = keep
    return GradedSubspace(field, outer.ambient, blocks)


def solve_linear_conditions(
    field: Field, ambient: GradedBasis, conditions: Mapping[Grade, Sequence[Sequence[Scalar]]]
) -> GradedSubspace:
    """Largest graded subspace whose block at g kills every condition row."""
    blocks: dict[Grade, tuple[Row, ...]] = {}
    for g in ambient.grades():
        n = ambient.block_dim(g)
        rows = list(conditions.get(g, ()))
        kernel = nullspace(field, rows, n) if rows else GradedSubspace.full(field, ambient).blocks.get(g, ())
        if kernel:
            blocks[g] = tuple(kernel)
    return GradedSubspace(field, ambient, blocks)


# ---------------------------------------------------------------------------
# bilinear structure rules


class BilinearRule:
    """Sparse structure-constant table for a bilinear map left x right -> out.

    The table maps (absolute left position, absolute right position) to a
    sparse output vector.  The grade-shift law says an entry at (i, j)
    must land in the output block at grade(i)*grade(j); violations are
    collected by :meth:`grading_violations` rather than rejected at
    construction time, so that hand-edited files can be loaded and then
    failed by the grading verifier with a witness.
    """

    def __init__(
        self,
        name: str,
        field: Field,
        group: GroupSpec,
        left: GradedBasis,
        right: GradedBasis,
        out: GradedBasis,
        table: Mapping[tuple[int, int], Mapping[int, Scalar]],
    ):
        # grades are validated here; GroupSpec.mul and inv then trust them
        for basis in (left, right, out):
            basis.check_grades(group)
        self.name = name
        self.field = field
        self.group = group
        self.left = left
        self.right = right
        self.out = out
        canon: dict[tuple[int, int], Sparse] = {}
        for (i, j), image in table.items():
            vec = {int(p): x for p, x in image.items() if not field.is_zero(field.check(x))}
            if vec:
                canon[(int(i), int(j))] = vec
        self.table = canon

    def on_basis(self, i: int, j: int) -> Sparse:
        return dict(self.table.get((i, j), {}))

    def apply_sparse(self, u: Sparse, v: Sparse) -> Sparse:
        field = self.field
        out: Sparse = {}
        for i, a in u.items():
            for j, b in v.items():
                entry = self.table.get((i, j))
                if entry:
                    out = sparse_add(field, out, sparse_scale(field, field.mul(a, b), entry))
        return out

    def grading_violations(self) -> list[dict]:
        """Entries landing outside the block at grade(left)*grade(right)."""
        bad = []
        for (i, j), image in sorted(self.table.items()):
            expected = self.group.mul(self.left.grade_of(i), self.right.grade_of(j))
            for pos in sorted(image):
                got = self.out.grade_of(pos)
                if got != expected:
                    bad.append(
                        {
                            "rule": self.name,
                            "left": self.left.name_of(i),
                            "right": self.right.name_of(j),
                            "component": self.out.name_of(pos),
                            "expected_grade": expected,
                            "got_grade": got,
                        }
                    )
        return bad


def rule_from_names(
    name: str,
    field: Field,
    group: GroupSpec,
    left: GradedBasis,
    right: GradedBasis,
    out: GradedBasis,
    entries: Mapping[tuple[str, str], Mapping[str, Scalar]],
) -> BilinearRule:
    table = {
        (left.position_of(li), right.position_of(rj)): {
            out.position_of(on): x for on, x in image.items()
        }
        for (li, rj), image in entries.items()
    }
    return BilinearRule(name, field, group, left, right, out, table)


def bilinear_image(rule: BilinearRule, U: GradedSubspace, V: GradedSubspace) -> GradedSubspace:
    """Span of rule(u, v) over basis vectors of U and V.

    Raises on table entries that break the grade-shift law, naming the
    offending pair; run the grading verifier first for a full report.
    """
    if U.ambient != rule.left or V.ambient != rule.right:
        raise ValueError(f"subspace ambient does not match rule {rule.name!r}")
    field = rule.field
    vectors: list[tuple[Grade, Sequence[Scalar]]] = []
    for gu, row_u in U.block_vectors():
        for gv, row_v in V.block_vectors():
            target = rule.group.mul(gu, gv)
            image = rule.apply_sparse(
                U.ambient.block_vector(gu, row_u, field), V.ambient.block_vector(gv, row_v, field)
            )
            for pos in image:
                got = rule.out.grade_of(pos)
                if got != target:
                    raise ToolkitError(
                        f"rule {rule.name!r} violates the grade-shift law on "
                        f"({format_grade(gu)}, {format_grade(gv)}): component "
                        f"{rule.out.name_of(pos)} at grade {format_grade(got)}, "
                        f"expected {format_grade(target)}"
                    )
            dense = [field.zero] * rule.out.block_dim(target)
            positions = rule.out.positions_at(target)
            for pos, x in image.items():
                dense[positions.index(pos)] = x
            if any(not field.is_zero(x) for x in dense):
                vectors.append((target, dense))
    return GradedSubspace.from_block_vectors(field, rule.out, vectors)


def map_kernel(
    field: Field, ambient: GradedBasis, images: Callable[[int], list[Sparse]]
) -> GradedSubspace:
    """Homogeneous kernel of v -> (list of sparse images of v).

    ``images(pos)`` gives, for the ambient basis vector at ``pos``, the
    image vectors under each defining map.  The kernel block at grade g
    is cut out by one linear condition per (map, output coordinate).
    """
    conditions: dict[Grade, list[list[Scalar]]] = {}
    for g in ambient.grades():
        positions = ambient.positions_at(g)
        per_basis = [images(p) for p in positions]
        nmaps = len(per_basis[0]) if per_basis else 0
        rows: list[list[Scalar]] = []
        for m in range(nmaps):
            touched = sorted({pos for imgs in per_basis for pos in imgs[m]})
            for c in touched:
                rows.append([imgs[m].get(c, field.zero) for imgs in per_basis])
        conditions[g] = rows
    return solve_linear_conditions(field, ambient, conditions)
