"""Exact linear algebra over graded bases.

Subspaces are stored per grade as reduced row echelon bases; RREF is the
canonical form throughout, so two subspaces are equal iff their block
dictionaries are equal.  Sparse vectors over a graded basis are dicts
mapping absolute basis position -> nonzero scalar.

Rows from a caller are checked and reduced in one place: the public
constructors ``GradedSubspace(...)``, ``from_block_vectors`` and
``from_sparse_vectors`` check each row's length and scalars, then run
``rref``.  Every subspace derived from existing ones (``zero``, ``full``,
``at_grades``, sums, intersections, complements, kernels and bilinear
images) is built from blocks already in RREF together with their pivots,
through ``GradedSubspace._from_rref``, and so is never reduced again.
The matrix kernels below take canonical scalars unchecked.
"""
from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .errors import ToolkitError
from .fields import Field, Scalar
from .groups import Grade, GroupSpec, format_grade

Row = tuple[Scalar, ...]
Sparse = dict[int, Scalar]
Echelon = tuple[tuple[Row, ...], tuple[int, ...]]  # RREF rows and their pivot columns


# ---------------------------------------------------------------------------
# plain matrix kernels


def rref(field: Field, rows: Iterable[Sequence[Scalar]]) -> Echelon:
    """Reduced row echelon form of rows of equal length; returns (nonzero rows, pivot columns)."""
    mat = [list(row) for row in rows]
    if not mat:
        return (), ()
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
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


def coordinates_in_rref(field: Field, rows: Sequence[Row], pivots: Sequence[int], v: Sequence[Scalar]) -> list[Scalar] | None:
    """Coordinates of ``v`` in an RREF basis (pivot-column extraction), or None outside its span."""
    coords = [v[p] for p in pivots]
    residual = list(v)
    for coef, row in zip(coords, rows):
        if not field.is_zero(coef):
            residual = [field.sub(x, field.mul(coef, y)) for x, y in zip(residual, row)]
    if any(not field.is_zero(x) for x in residual):
        return None
    return coords


def in_span(field: Field, rows: Sequence[Row], pivots: Sequence[int], v: Sequence[Scalar]) -> bool:
    return coordinates_in_rref(field, rows, pivots, v) is not None


def _units(field: Field, n: int, cols: Sequence[int]) -> Echelon:
    """The unit rows of length n at ``cols`` (increasing), an RREF basis pivoted there."""
    rows = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in cols)
    return rows, tuple(cols)


def _identity(field: Field, n: int) -> Echelon:
    return _units(field, n, range(n))


def coordinate_reader(
    field: Field, rows: Sequence[Sequence[Scalar]]
) -> Callable[[Sequence[Scalar]], list[Scalar] | None]:
    """Reader of coordinates in the span of ``rows``: v -> x with sum_i x_i rows[i] = v, or None.

    One elimination of [rows | I] gives the RREF basis E of the span (the
    reduced rows with a pivot among the first n columns) and the matrix T
    beside it, with T rows = E; each v is then read off E's pivots (c with
    c E = v) and mapped to x = c T.  For independent rows x is unique.
    """
    n = len(rows[0]) if rows else 0
    ech, pivots = rref(field, [tuple(row) + e for row, e in zip(rows, _identity(field, len(rows))[0])])
    r = sum(p < n for p in pivots)
    basis, to_rows = [row[:n] for row in ech[:r]], [row[n:] for row in ech[:r]]

    def read(v: Sequence[Scalar]) -> list[Scalar] | None:
        coords = coordinates_in_rref(field, basis, pivots[:r], v)
        if coords is None:
            return None
        x = [field.zero] * len(rows)
        for c, t in zip(coords, to_rows):
            if not field.is_zero(c):
                x = [field.add(a, field.mul(c, b)) for a, b in zip(x, t)]
        return x

    return read


def nullspace(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> Echelon:
    """Canonical (RREF) basis of the right kernel {v : M v = 0}, with its pivots."""
    ech, pivots = rref(field, rows) if rows else ((), ())
    free = [c for c in range(ncols) if c not in pivots]
    if all(field.is_zero(row[f]) for row in ech for f in free):
        # each kernel vector e_f - sum_r ech[r][f] e_{p_r} is the unit vector e_f
        return _units(field, ncols, free)
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = field.neg(ech[r][f])
        basis.append(v)
    return rref(field, basis)


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

    def checked_row(self, g: Grade, coords: Sequence[Scalar], field: Field) -> Row:
        """``coords`` as a row of the block at g: ValueError unless it has the
        block's length, and ``field.check`` on every scalar."""
        n = self.block_dim(g)
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates at grade {format_grade(g)}, got {len(coords)}")
        return tuple(field.check(x) for x in coords)

    def block_vector(self, g: Grade, coords: Sequence[Scalar], field: Field) -> Sparse:
        """Sparse absolute vector from dense block coordinates at grade g."""
        row = self.checked_row(g, coords, field)
        return {p: c for p, c in zip(self.positions_at(g), row) if not field.is_zero(c)}

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

    def __init__(self, field: Field, ambient: GradedBasis, blocks: Mapping[Grade, Sequence[Sequence[Scalar]]]):
        """Check the caller's rows against the ambient blocks, then reduce each block."""
        echelon = {}
        for g, rows in blocks.items():
            g = tuple(g)
            echelon[g] = rref(field, [ambient.checked_row(g, row, field) for row in rows])
        self._adopt(field, ambient, echelon)

    @classmethod
    def _from_rref(cls, field: Field, ambient: GradedBasis, echelon: Mapping[Grade, Echelon]) -> "GradedSubspace":
        """A subspace from blocks already in RREF, each with its pivots; nothing is checked or reduced."""
        sub = cls.__new__(cls)
        sub._adopt(field, ambient, echelon)
        return sub

    def _adopt(self, field: Field, ambient: GradedBasis, echelon: Mapping[Grade, Echelon]) -> None:
        self.field = field
        self.ambient = ambient
        self.blocks: dict[Grade, tuple[Row, ...]] = {g: rows for g, (rows, _) in echelon.items() if rows}
        # pivot columns of each block; blocks never change after construction
        self.pivots: dict[Grade, tuple[int, ...]] = {g: cols for g, (rows, cols) in echelon.items() if rows}

    def _echelon(self, g: Grade) -> Echelon:
        return self.blocks.get(g, ()), self.pivots.get(g, ())

    # construction ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, ambient: GradedBasis) -> "GradedSubspace":
        return cls._from_rref(field, ambient, {})

    @classmethod
    def full(cls, field: Field, ambient: GradedBasis) -> "GradedSubspace":
        return cls._from_rref(field, ambient, {g: _identity(field, ambient.block_dim(g)) for g in ambient.grades()})

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

    def at_grades(self, grades: Iterable[Grade]) -> "GradedSubspace":
        """The blocks of this subspace at ``grades``, as one subspace."""
        return self._from_rref(self.field, self.ambient, {g: self._echelon(g) for g in grades})

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

    def _homogeneous(self) -> list[tuple[Grade, Sparse]]:
        """(grade, sparse ambient vector) of each basis row, in ``block_vectors`` order."""
        f = self.field
        return [(g, {p: x for p, x in zip(self.ambient.positions_at(g), row) if not f.is_zero(x)})
                for g, row in self.block_vectors()]

    def sparse_vectors(self) -> list[Sparse]:
        return [v for _, v in self._homogeneous()]

    # membership ----------------------------------------------------------

    def contains_block_vector(self, g: Grade, coords: Sequence[Scalar]) -> bool:
        g = tuple(g)
        return in_span(self.field, *self._echelon(g), self.ambient.checked_row(g, coords, self.field))

    def contains_sparse(self, v: Sparse) -> bool:
        return all(
            self.contains_block_vector(g, coords)
            for g, coords in self.ambient.split_sparse(v, self.field).items()
        )

    def block_coordinates(self, g: Grade, coords: Sequence[Scalar]) -> list[Scalar] | None:
        """Coordinates of a block vector in this subspace's RREF basis."""
        g = tuple(g)
        return coordinates_in_rref(self.field, *self._echelon(g), self.ambient.checked_row(g, coords, self.field))

    def to_json(self) -> dict:
        return {
            format_grade(g): [[self.field.format(x) for x in row] for row in self.blocks[g]]
            for g in self.grades()
        }

    def describe(self) -> str:
        if self.is_zero():
            return "0"
        return " , ".join(self.ambient.describe_sparse(v, self.field) for v in self.sparse_vectors())


def _same_space(a: GradedSubspace, b: GradedSubspace, what: str) -> None:
    if a.ambient != b.ambient or a.field != b.field:
        raise ValueError(f"subspace {what} across different ambients")


def subspace_sum(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Sum per grade; a grade is reduced only when both summands hold it
    and b's rows there do not already lie in a's span."""
    _same_space(a, b, "sum")
    echelon = {g: a._echelon(g) for g in a.blocks}
    for g, rows in b.blocks.items():
        if g not in a.blocks:
            echelon[g] = b._echelon(g)
        elif not all(in_span(a.field, *a._echelon(g), row) for row in rows):
            echelon[g] = rref(a.field, a.blocks[g] + rows)
    return GradedSubspace._from_rref(a.field, a.ambient, echelon)


def subspace_intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Intersection per grade, by one Zassenhaus elimination of [[a, a], [b, 0]].

    A reduced row with its pivot past the first n columns has a zero left
    half, so its right half x a = -y b lies in both spaces; these right
    halves are a basis of the intersection, already in RREF.
    """
    _same_space(a, b, "intersection")
    field = a.field
    echelon = {}
    for g in a.blocks.keys() & b.blocks.keys():
        n = a.ambient.block_dim(g)
        zeros = (field.zero,) * n
        ech, pivots = rref(field, [row + row for row in a.blocks[g]] + [row + zeros for row in b.blocks[g]])
        k = next((i for i, p in enumerate(pivots) if p >= n), len(pivots))
        echelon[g] = tuple(row[n:] for row in ech[k:]), tuple(p - n for p in pivots[k:])
    return GradedSubspace._from_rref(field, a.ambient, echelon)


def complement_in(inner: GradedSubspace, outer: GradedSubspace) -> GradedSubspace:
    """Deterministic complement C with inner (+) C = outer.

    Rule: express ``inner`` in coordinates relative to ``outer``'s RREF
    basis, then keep the outer basis rows whose relative coordinate is
    not a pivot, lowest index first.  For ``outer`` a full block this is
    exactly "ambient coordinates not used as pivots".  The kept rows are
    rows of an RREF block, so they are in RREF with the matching pivots.
    """
    if any(g not in outer.blocks for g in inner.blocks):
        raise ValueError("complement_in requires inner <= outer")
    field = outer.field
    echelon = {}
    for g, outer_rows in outer.blocks.items():
        rel = [coordinates_in_rref(field, outer_rows, outer.pivots[g], row) for row in inner.blocks.get(g, ())]
        if None in rel:
            raise ValueError("complement_in requires inner <= outer")
        used = rref(field, rel)[1] if rel else ()
        keep = [i for i in range(len(outer_rows)) if i not in used]
        echelon[g] = tuple(outer_rows[i] for i in keep), tuple(outer.pivots[g][i] for i in keep)
    return GradedSubspace._from_rref(field, outer.ambient, echelon)


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
    """Span of rule(u, v) over basis vectors of U and V, one elimination per output block.

    Raises on table entries that break the grade-shift law, naming the
    offending pair; run the grading verifier first for a full report.
    """
    if U.ambient != rule.left or V.ambient != rule.right:
        raise ValueError(f"subspace ambient does not match rule {rule.name!r}")
    field, out = rule.field, rule.out
    right = V._homogeneous()
    images: dict[Grade, list[list[Scalar]]] = {}
    for gu, u in U._homogeneous():
        for gv, v in right:
            target = rule.group.mul(gu, gv)
            image = rule.apply_sparse(u, v)
            for pos in image:
                got = out.grade_of(pos)
                if got != target:
                    raise ToolkitError(
                        f"rule {rule.name!r} violates the grade-shift law on "
                        f"({format_grade(gu)}, {format_grade(gv)}): component "
                        f"{out.name_of(pos)} at grade {format_grade(got)}, "
                        f"expected {format_grade(target)}"
                    )
            if image:
                images.setdefault(target, []).append(out.split_sparse(image, field)[target])
    return GradedSubspace._from_rref(field, out, {g: rref(field, rows) for g, rows in images.items()})


def map_kernel(
    field: Field, ambient: GradedBasis, images: Callable[[int], list[Sparse]]
) -> GradedSubspace:
    """Homogeneous kernel of v -> (list of sparse images of v).

    ``images(pos)`` gives, for the ambient basis vector at ``pos``, the
    image vectors under each defining map.  The kernel block at grade g
    is cut out by one linear condition per (map, output coordinate).
    """
    echelon = {}
    for g in ambient.grades():
        per_basis = [images(p) for p in ambient.positions_at(g)]
        rows = [
            [imgs[m].get(c, field.zero) for imgs in per_basis]
            for m in range(len(per_basis[0]))
            for c in sorted({pos for imgs in per_basis for pos in imgs[m]})
        ]
        echelon[g] = nullspace(field, rows, len(per_basis))
    return GradedSubspace._from_rref(field, ambient, echelon)
