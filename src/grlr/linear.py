"""Exact linear algebra over graded bases.

Subspaces are stored per grade as reduced row echelon bases; RREF is the
canonical form throughout, so two subspaces are equal iff their block
dictionaries are equal.  Sparse vectors over a graded basis are dicts
mapping absolute basis position -> nonzero scalar.

Rows are reduced here and nowhere else, on plain values: no ``Field``
call per entry.  ``rref`` is one fraction-free loop for both fields.  A
pivot row r clears column c from row i as ``row_i = pivot * row_i -
factor * row_r``.  Over Q each row is first multiplied by the lcm of its
denominators, and each new row is divided by the gcd of its entries
(where integer-preserving elimination, Bareiss 1968, divides by the
previous pivot); over GF(p) each new row is reduced ``% p``.  The
canonical rows are built once, at the end, by dividing each pivot row by
its pivot (``Fraction(x, pivot)`` over Q, times ``pow(pivot, -1, p)``
over GF(p)); the reduced row echelon form is unique, so they equal what
elimination with the field's operations gives.  ``_residue`` reduces one
vector against semi-echelon rows (each 1 at its pivot and 0 at the
pivots of the rows before it); membership, sums and ``Span`` call
it.  ``Span`` is the one running basis: it grows block by block as rows
are added, for the closures of ``simplicity``, the identity parts,
complements and tightness of ``decompose``, and ``split_case_b``.  On a
1-dimensional block any nonzero row spans the block, so ``Span.add``
keeps it as ``[one]`` with no reduction, and refuses every later row at
once.  ``Span.subspace`` turns each block into its RREF by
back-substitution, since its rows are already semi-echelon.

Rows from a caller are checked and reduced in one place: the public
constructor ``GradedSubspace(...)`` checks each row's length and
scalars, then runs ``rref``.  Every subspace derived from existing ones
(``zero``, ``full``, ``at_grades``, sums, intersections, kernels and
bilinear images) is built from blocks already in RREF
together with their pivots, through ``GradedSubspace._from_rref``, and
so is never reduced again.  Membership, ``_contains``, takes canonical
scalars unchecked, as do the matrix kernels.

The grade-shift law is decided once per block pair, when a
``BilinearRule`` is built: one ``group.mul`` per (left grade, right
grade) that has table entries, in one pass over the canonical table,
and the rule keeps only the set of pairs that break it
(``off_grade_pairs``).  Everything after reads that verdict.  A pair that
breaks the law is scanned only to name its components, by one routine
that the grading verifier and the product refusals share,
``BilinearRule.off_grade``; naming its expected grade is the only other
``group.mul`` in this module.

Products of subspaces run block pair by block pair.  Each rule groups
its table by (left grade, right grade) on first use (``block_pairs``),
with each pair's target grade read off its entries, and
``bilinear_image`` visits only the block pairs of U x V that have table
entries.  A product of two whole blocks needs no multiplication at all:
it is the span of that block pair's table entries.  A sum of such
products, given as (rule, block pair) terms, is built by one builder,
``fill_entries``: it adds each term's entries to a ``Span``, one row per
entry, and builds no row for a block that is already full.  It and
``bilinear_image`` refuse a block pair that breaks the grade-shift law
through ``checked_block_pair``, which ``fill_entries`` calls on every
term, full target or not, so the refusal reads the same whichever of
them meets the pair first.  Where only whether a product is zero is
asked (the orthogonality of class ideals and the pairing of
``decompose``), ``product_is_zero`` answers it beside
``bilinear_image``, which stays the reference: it makes the same checks
and refuses the same pair, since every block pair goes through
``checked_block_pair`` before any product is formed, then sums row
products on plain scalars and stops at the first nonzero one, with no
image and no ``rref``.  ``entry_kernel`` cuts out the common
kernel of maps v -> rule(v, .) and v -> rule(., v) with the rows that
``kernel_conditions`` builds, one condition per table entry component,
lazily, one block pair at a time; on a 1-dimensional block every such
condition is nonzero, so one row ``(one,)`` stands for them all.  Where
only a dimension is asked, ``Span.fills`` adds such rows to a block and
stops at the one that fills it, so no later row is built: a kernel
block is zero iff its conditions fill the block, and a block is spanned
iff the entry rows of ``fill_entries`` fill it.  A block left short
names its witness from the same rows: ``nullspace`` of them, or
``Span.complement``, the unit rows at the columns that are no row's
pivot.  ``BilinearRule.by_argument`` groups the same table by the grade
of v, as the maps v -> rule(v, x) or rule(x, v), one per basis vector
x, that the ideal closures of ``simplicity`` spin under.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ToolkitError
from .fields import Field, Scalar
from .groups import Grade, GroupSpec, format_grade

Row = tuple[Scalar, ...]
Sparse = dict[int, Scalar]
Echelon = tuple[tuple[Row, ...], tuple[int, ...]]  # RREF rows and their pivot columns
# target grade, and (left block offset, right block offset, entry) triples
BlockPair = tuple[Grade, list[tuple[int, int, Sparse]]]
# the block pairs of one grade of the vector argument: per other grade, the
# target grade and the terms (vector offset, entry as (output block offset,
# scalar) pairs) of each offset of the other argument
Operators = list[tuple[Grade, Grade, list[tuple[int, list[tuple[int, tuple[tuple[int, Scalar], ...]]]]]]]
# the off-grade pairs of every rule that keeps the grade-shift law
_LAWFUL: frozenset[tuple[Grade, Grade]] = frozenset()


# ---------------------------------------------------------------------------
# plain matrix kernels


def rref(field: Field, rows: Iterable[Sequence[Scalar]]) -> Echelon:
    """Reduced row echelon form of rows of equal length; returns (nonzero rows, pivot columns).

    One fraction-free loop serves both fields (module docstring): over Q
    each row is first scaled to integers and each new row divided by the
    gcd of its entries, over GF(p) each new row is reduced ``% p``.
    """
    p = field.p
    if p is None:
        mat = []
        for row in rows:
            scale = lcm(*(x.denominator for x in row))
            mat.append([x.numerator * (scale // x.denominator) for x in row])
    else:
        mat = [list(row) for row in rows]
    if not mat:
        return (), ()
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        pivot = top[c]
        for i, row in enumerate(mat):
            factor = row[c]
            if i != r and factor:
                new = [pivot * x - factor * y for x, y in zip(row, top)]
                if p is not None:
                    mat[i] = [x % p for x in new]
                else:
                    g = gcd(*new)
                    mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(_scaled(field, row, c)) for row, c in zip(mat, pivots)), tuple(pivots)


def _scaled(field: Field, row: Sequence[Scalar], c: int) -> list[Scalar]:
    """``row`` (integers or canonical scalars) divided by its nonzero entry
    at c, as canonical scalars of ``field``."""
    p, x = field.p, row[c]
    if p is None:
        zero, one = field.zero, field.one
        return [one if k == c else zero if not a else Fraction(a, x) for k, a in enumerate(row)]
    inv = pow(x, -1, p)
    return [a * inv % p for a in row]


def _residue(field: Field, rows: Sequence[Sequence[Scalar]], pivots: Sequence[int], v: Sequence[Scalar]) -> Sequence[Scalar]:
    """What is left of v once each row, in order, has cleared v at its pivot.

    Each row must be 1 at its pivot and 0 at the pivots of the rows before
    it (semi-echelon; the rows of an RREF block qualify in any order), so
    the residue is zero exactly when v lies in the rows' span.  Plain
    operators on canonical scalars, reduced ``% p`` over GF(p).
    """
    p = field.p
    for row, c in zip(rows, pivots):
        x = v[c]
        if x:
            v = [a - x * b for a, b in zip(v, row)] if p is None else [(a - x * b) % p for a, b in zip(v, row)]
    return v


def in_span(field: Field, rows: Sequence[Row], pivots: Sequence[int], v: Sequence[Scalar]) -> bool:
    """Whether ``v`` lies in the span of semi-echelon ``rows`` with their pivots."""
    return not any(_residue(field, rows, pivots, v))


def _units(field: Field, n: int, cols: Sequence[int]) -> Echelon:
    """The unit rows of length n at ``cols`` (increasing), an RREF basis pivoted there."""
    rows = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in cols)
    return rows, tuple(cols)


def _identity(field: Field, n: int) -> Echelon:
    return _units(field, n, range(n))


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
        # _offset[pos]: the index of pos within its grade's block
        self._offset: list[int] = []
        for i, (_, g) in enumerate(self.entries):
            block = self._blocks.setdefault(g, [])
            self._offset.append(len(block))
            block.append(i)
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

    def split_sparse(self, v: Sparse, field: Field) -> dict[Grade, list[Scalar]]:
        """Dense block coordinates of the homogeneous components of ``v``."""
        out: dict[Grade, list[Scalar]] = {}
        for pos, x in v.items():
            g = self.grade_of(pos)
            block = out.setdefault(g, [field.zero] * self.block_dim(g))
            block[self._offset[pos]] = x
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

    def grades(self) -> list[Grade]:
        return sorted(self.blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def block_vectors(self) -> list[tuple[Grade, Row]]:
        return [(g, row) for g in self.grades() for row in self.blocks[g]]

    def sparse_vectors(self) -> list[Sparse]:
        """The sparse ambient vector of each basis row, in ``block_vectors`` order."""
        f = self.field
        return [{p: x for p, x in zip(self.ambient.positions_at(g), row) if not f.is_zero(x)}
                for g, row in self.block_vectors()]

    # membership ----------------------------------------------------------

    def _contains(self, v: Sparse) -> bool:
        """Membership of a sparse vector of canonical scalars, unchecked."""
        return all(
            in_span(self.field, *self._echelon(g), coords)
            for g, coords in self.ambient.split_sparse(v, self.field).items()
        )

    def to_json(self) -> dict:
        return {
            format_grade(g): [[self.field.format(x) for x in row] for row in self.blocks[g]]
            for g in self.grades()
        }


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


# ---------------------------------------------------------------------------
# running semi-echelon bases


class Span:
    """A running semi-echelon basis of a graded space, block by block: each
    row is 1 at its pivot, its first nonzero column, and 0 at the pivots
    of the rows added before it, so ``_residue`` reduces a vector in one
    pass over the rows.  The pivots of a block are the leading columns of
    its span, which are the pivots of its RREF.  Residues mod p over
    GF(p), ``Fraction``s over Q, with no ``Field`` call per entry."""

    def __init__(self, field: Field, basis: GradedBasis, start: GradedSubspace | None = None):
        self.field, self.basis = field, basis
        self.rows: dict[Grade, list[Sequence[Scalar]]] = {}
        self.pivots: dict[Grade, list[int]] = {}
        self.rank = 0
        if start is not None:  # RREF blocks are semi-echelon in any order
            for g, rows in start.blocks.items():
                self.rows[g], self.pivots[g] = list(rows), list(start.pivots[g])
                self.rank += len(rows)

    def full_at(self, g: Grade) -> bool:
        return len(self.rows.get(g, ())) == len(self.basis._blocks.get(g, ()))

    def add_image(self, g: Grade, terms: list, v: Sequence[Scalar]) -> list | None:
        """Add the sum of v[offset] * entry over ``terms`` (one map of
        ``BilinearRule.by_argument``), a row of block g, reduced and scaled
        to 1 at its pivot; return it, or None when it is already in the span."""
        p = self.field.p
        row = [0] * self.basis.block_dim(g)
        for b, entry in terms:
            y = v[b]
            if y:
                for k, e in entry:
                    row[k] += y * e
        if p is not None:
            row = [x % p for x in row]
        return self.add(g, row)

    def add(self, g: Grade, row: Sequence[Scalar]) -> list | None:
        """Add ``row`` (canonical scalars) to block g, reduced and scaled to
        1 at its pivot; return it, or None when it is already in the span.
        On a 1-dimensional block any nonzero row spans the block, so it
        becomes ``[one]`` unreduced, and every later row is in the span."""
        rows = self.rows.setdefault(g, [])
        pivots = self.pivots.setdefault(g, [])
        if len(row) == 1:
            if rows or not row[0]:
                return None
            row, lead = [self.field.one], 0
        else:
            row = _residue(self.field, rows, pivots, row)
            lead = next((k for k, x in enumerate(row) if x), None)
            if lead is None:
                return None
            row = _scaled(self.field, row, lead)
        rows.append(row)
        pivots.append(lead)
        self.rank += 1
        return row

    def fills(self, g: Grade, rows: Iterable[Sequence[Scalar]]) -> bool:
        """Add ``rows`` to block g until it is full, and return whether it
        is: no row past the one that fills it is read."""
        n, have = self.basis.block_dim(g), self.rows.setdefault(g, [])
        if len(have) < n:
            for row in rows:
                if self.add(g, row) is not None and len(have) == n:
                    break
        return len(have) == n

    def complement(self, g: Grade) -> Echelon:
        """The unit rows of block g at the columns that are no row's pivot:
        an RREF basis of a complement of the span there, which together
        with the span is the whole block."""
        taken = set(self.pivots.get(g, ()))
        n = self.basis.block_dim(g)
        return _units(self.field, n, [c for c in range(n) if c not in taken])

    def subspace(self) -> GradedSubspace:
        """The span, one RREF per block, by ``_back_substituted``."""
        f = self.field
        return GradedSubspace._from_rref(f, self.basis, {
            g: _back_substituted(f, rows, self.pivots[g]) for g, rows in self.rows.items() if rows
        })


def _back_substituted(field: Field, rows: Sequence[Sequence[Scalar]], pivots: Sequence[int]) -> Echelon:
    """The RREF of semi-echelon ``rows`` (``Span``'s), each 0 before its pivot.

    From the last row to the first, each row has the pivots of the rows
    after it cleared by ``_residue``; those rows are already 0 at each
    other's pivots, and each is 0 before its own pivot, so no earlier
    pivot moves.  The rows are then sorted by pivot.  A one-row block is
    returned as it is.
    """
    rows = list(rows)
    for k in range(len(rows) - 2, -1, -1):
        rows[k] = _residue(field, rows[k + 1:], pivots[k + 1:], rows[k])
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return tuple(tuple(rows[k]) for k in order), tuple(pivots[k] for k in order)


# ---------------------------------------------------------------------------
# bilinear structure rules


class BilinearRule:
    """Sparse structure-constant table for a bilinear map left x right -> out.

    The table maps (absolute left position, absolute right position) to a
    sparse output vector; an entry at a position outside the bases is
    refused (``ValueError``), once its zero coefficients are dropped.  The grade-shift law says an entry at (i, j) must
    land in the output block at grade(i)*grade(j).  It is decided once
    per block pair, here, with one ``group.mul`` per pair in one pass
    over the canonical table; ``off_grade_pairs`` keeps the pairs
    that break it, shared and empty on a lawful rule.  They are not
    rejected, so that hand-edited files can be loaded and then failed by
    the grading verifier with a witness (:meth:`grading_violations`);
    the verifier and the product refusals both name the components of
    such a pair through :meth:`off_grade`.

    Two constructors build a rule.  The checked one, ``BilinearRule(...)``,
    checks every scalar with ``Field.check``, drops the zero ones and the
    empty images, and refuses positions outside the bases: the files
    loader, the catalog's literal and derivation tables and every caller
    of the public API hand it tables from outside, or tables assembled by
    hand, so none of them skips it.  ``_from_canonical`` takes a table that
    is already canonical as it is, and only checks the bases' grades and
    decides the law, as the checked one does: ``model.rebuild_instance``,
    the one builder of direct sums, base changes, field moves and
    restrictions, calls it on tables made from rules already checked.

    :meth:`block_pairs` is the table grouped by block pair, derived on
    first use.  Rules are built far more often than multiplied (every
    restriction, base change and recipe builds four), so construction
    does not build it.  Its fill calls no ``Field`` or ``GroupSpec``
    method, so the kernel calls of a product are the same whether or not
    the rule was used before.
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
        canon: dict[tuple[int, int], Sparse] = {}
        nl, nr, no = len(left), len(right), len(out)
        for (i, j), image in table.items():
            i, j = int(i), int(j)
            vec = {int(p): x for p, x in image.items() if not field.is_zero(field.check(x))}
            # a negative position would index a basis from its end
            if not (0 <= i < nl and 0 <= j < nr) or vec and not 0 <= min(vec) <= max(vec) < no:
                raise ValueError(f"rule {name!r}: table position ({i}, {j}) -> {sorted(vec)} lies outside its bases")
            if vec:
                canon[(i, j)] = vec
        self._adopt(name, field, group, left, right, out, canon)

    @classmethod
    def _from_canonical(
        cls, name: str, field: Field, group: GroupSpec,
        left: GradedBasis, right: GradedBasis, out: GradedBasis, table: dict[tuple[int, int], Sparse],
    ) -> "BilinearRule":
        """A rule on a table that is already canonical: every position in
        range, every image nonempty and its scalars nonzero canonical
        scalars of ``field``.  The grades are checked and the grade-shift
        law decided as by the constructor; no scalar is checked and the
        table is kept as given, not copied."""
        rule = cls.__new__(cls)
        rule._adopt(name, field, group, left, right, out, table)
        return rule

    def _adopt(
        self, name: str, field: Field, group: GroupSpec,
        left: GradedBasis, right: GradedBasis, out: GradedBasis, table: dict[tuple[int, int], Sparse],
    ) -> None:
        """Keep a canonical table, deciding the grade-shift law once per block pair."""
        # grades are validated here; GroupSpec.mul and inv then trust them
        for basis in (left, right, out):
            basis.check_grades(group)
        self.name = name
        self.field = field
        self.group = group
        self.left = left
        self.right = right
        self.out = out
        # each block pair's target grade, kept for this pass only, and the pairs that break the law
        targets: dict[tuple[Grade, Grade], Grade] = {}
        off_grade: set[tuple[Grade, Grade]] = set()
        lefts, rights, outs = left.entries, right.entries, out.entries
        for (i, j), vec in table.items():
            pair = (lefts[i][1], rights[j][1])
            if pair not in targets:
                targets[pair] = group.mul(*pair)
            for p in vec:
                if outs[p][1] != targets[pair]:
                    off_grade.add(pair)
        self.table = table
        self.off_grade_pairs = frozenset(off_grade) if off_grade else _LAWFUL
        self._block_pairs: dict[tuple[Grade, Grade], BlockPair] | None = None
        self._by_argument: dict[bool, dict[Grade, Operators]] = {}

    def block_pairs(self) -> dict[tuple[Grade, Grade], BlockPair]:
        """The table grouped by block pair, built on the first call.

        Maps (left grade, right grade) to its target grade and the triples
        (left block offset, right block offset, entry), each entry the
        table's own sparse vector.  The target is read off the pair's
        first entry: on a pair outside ``off_grade_pairs`` every entry
        lands there.  Block pairs with no entry are absent.  The table
        never changes after construction.  The fill reads only the table
        and the bases: it makes no ``Field`` or ``GroupSpec`` call.
        """
        if self._block_pairs is None:
            left, right, out = self.left, self.right, self.out
            index: dict[tuple[Grade, Grade], BlockPair] = {}
            for (i, j), entry in self.table.items():
                pair = index.setdefault((left.grade_of(i), right.grade_of(j)), (out.grade_of(next(iter(entry))), []))
                pair[1].append((left._offset[i], right._offset[j], entry))
            self._block_pairs = index
        return self._block_pairs

    def by_argument(self, v_left: bool) -> dict[Grade, Operators]:
        """The maps v -> rule(v, x) (``v_left`` true) or v -> rule(x, v)
        (false), one per basis vector x, grouped by the grade of v; built
        on the first call for each side.

        Maps the grade g of v to the list, sorted by grade h of x, of
        (h, target grade, per offset of x in its block, sorted: the terms
        (offset of v, entry)) of the block pair (g, h) or (h, g), its
        target as in ``block_pairs``; an entry is its (output block
        offset, scalar) pairs, so rule(v, x) on a row v of block g is the
        sum of v[offset] * entry in the target block.  Only a pair outside
        ``off_grade_pairs`` is sure to land there.  Like ``block_pairs``,
        the fill reads only the table and the bases.
        """
        index = self._by_argument.get(v_left)
        if index is None:
            offset = self.out._offset
            index = {}
            for (gu, gv), (target, triples) in sorted(self.block_pairs().items()):
                terms: dict[int, list[tuple[int, tuple[tuple[int, Scalar], ...]]]] = {}
                for a, b, entry in triples:
                    v, x = (a, b) if v_left else (b, a)
                    terms.setdefault(x, []).append((v, tuple((offset[pos], c) for pos, c in entry.items())))
                g, h = (gu, gv) if v_left else (gv, gu)
                # the pairs come sorted, so each list is sorted by h
                index.setdefault(g, []).append((h, target, sorted(terms.items())))
            self._by_argument[v_left] = index
        return index

    def apply_sparse(self, u: Sparse, v: Sparse) -> Sparse:
        # out += (a*b) * entry for each pair of entries, in place
        field = self.field
        out: Sparse = {}
        for i, a in u.items():
            for j, b in v.items():
                entry = self.table.get((i, j))
                if entry:
                    c = field.mul(a, b)
                    if field.is_zero(c):
                        continue
                    for pos, x in entry.items():
                        s = field.add(out.get(pos, field.zero), field.mul(c, x))
                        if field.is_zero(s):
                            out.pop(pos, None)
                        else:
                            out[pos] = s
        return out

    def off_grade(self, gu: Grade, gv: Grade, target: Grade) -> list[tuple[int, int, int]]:
        """The (left position, right position, output position) of each
        component that the block pair (gu, gv) of ``block_pairs`` sends
        outside the block at ``target``, in table order."""
        left, right, grade_of = self.left.positions_at(gu), self.right.positions_at(gv), self.out.grade_of
        return sorted(
            (left[a], right[b], pos)
            for a, b, entry in self.block_pairs()[gu, gv][1]
            for pos in entry
            if grade_of(pos) != target
        )

    def grading_violations(self) -> list[dict]:
        """Entries landing outside the block at grade(left)*grade(right), in
        table order: the components of the pairs of ``off_grade_pairs``."""
        bad = []
        for gu, gv in self.off_grade_pairs:
            target = self.group.mul(gu, gv)
            bad.extend((i, j, pos, target) for i, j, pos in self.off_grade(gu, gv, target))
        return [
            {
                "rule": self.name,
                "left": self.left.name_of(i),
                "right": self.right.name_of(j),
                "component": self.out.name_of(pos),
                "expected_grade": expected,
                "got_grade": self.out.grade_of(pos),
            }
            for i, j, pos, expected in sorted(bad)
        ]


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


def _check_factors(rule: BilinearRule, U: GradedSubspace, V: GradedSubspace) -> None:
    """ValueError unless U and V lie in the left and right bases of ``rule``, over its field."""
    if U.ambient != rule.left or V.ambient != rule.right:
        raise ValueError(f"subspace ambient does not match rule {rule.name!r}")
    if U.field != rule.field or V.field != rule.field:
        raise ValueError(f"subspace field does not match rule {rule.name!r}")


def bilinear_image(rule: BilinearRule, U: GradedSubspace, V: GradedSubspace) -> GradedSubspace:
    """Span of rule(u, v) over basis vectors of U and V, one elimination per output block.

    Works block pair by block pair, in sorted grade order, over the pairs
    of ``rule.block_pairs()``; a pair with no table entry adds nothing.
    Each used pair must send all its entries to the block at
    grade(u)*grade(v), or this raises naming the pair and its first
    off-grade component, whatever the coefficients of U and V on it.
    Run the grading verifier first for a full report.
    """
    _check_factors(rule, U, V)
    field, out = rule.field, rule.out
    offset, mul, add, is_zero = out._offset, field.mul, field.add, field.is_zero
    images: dict[Grade, list[list[Scalar]]] = {}
    right = sorted(V.blocks.items())
    for gu, u_rows in sorted(U.blocks.items()):
        for gv, v_rows in right:
            pair = checked_block_pair(rule, gu, gv)
            if pair is None:
                continue
            target, triples = pair
            zero_row = [field.zero] * out.block_dim(target)
            rows = images.setdefault(target, [])
            for u in u_rows:
                # the triples on which this row of U is nonzero, with its coefficient
                live = [(x, b, entry) for a, b, entry in triples if not is_zero(x := u[a])]
                if not live:
                    continue
                for v in v_rows:
                    row = None
                    for x, b, entry in live:
                        y = v[b]
                        if is_zero(y):
                            continue
                        if row is None:
                            row = zero_row.copy()
                        c = mul(x, y)
                        for pos, e in entry.items():
                            k = offset[pos]
                            row[k] = add(row[k], mul(c, e))
                    if row is not None and not all(map(is_zero, row)):
                        rows.append(row)
    return GradedSubspace._from_rref(field, out, {g: rref(field, rows) for g, rows in images.items() if rows})


def product_is_zero(rule: BilinearRule, U: GradedSubspace, V: GradedSubspace) -> bool:
    """Whether ``bilinear_image(rule, U, V)`` is zero, building no image.

    The same checks, and the same refusal: every block pair of U x V goes
    through ``checked_block_pair`` in ``bilinear_image``'s sorted order
    before any product is formed.  Then the products rule(u, v) of basis
    rows are summed on plain scalars (``% p`` over GF(p)), and the first
    nonzero one answers ``False``.
    """
    _check_factors(rule, U, V)
    right = sorted(V.blocks.items())
    pairs = [
        (u_rows, v_rows, pair[1])
        for gu, u_rows in sorted(U.blocks.items())
        for gv, v_rows in right
        if (pair := checked_block_pair(rule, gu, gv)) is not None
    ]
    p = rule.field.p
    for u_rows, v_rows, triples in pairs:
        for u in u_rows:
            live = [(x, b, entry) for a, b, entry in triples if (x := u[a])]
            if not live:
                continue
            for v in v_rows:
                sums: dict[int, Scalar] = {}
                for x, b, entry in live:
                    y = v[b]
                    if y:
                        c = x * y
                        for pos, e in entry.items():
                            sums[pos] = sums.get(pos, 0) + c * e
                if any(sums.values()) if p is None else any(s % p for s in sums.values()):
                    return False
    return True


def checked_block_pair(rule: BilinearRule, gu: Grade, gv: Grade) -> tuple[Grade, list[tuple[int, int, Sparse]]] | None:
    """The block pair (gu, gv) of ``rule`` as (output grade, triples of
    ``block_pairs``), or None when it has no table entry.

    The output grade is grade(gu)*grade(gv).  A pair of
    ``rule.off_grade_pairs`` is refused, naming the pair and its first
    off-grade component in table order.
    """
    pair = rule.block_pairs().get((gu, gv))
    if pair is None:
        return None
    if (gu, gv) in rule.off_grade_pairs:
        target = rule.group.mul(gu, gv)  # only to name the expected grade
        out, pos = rule.out, rule.off_grade(gu, gv, target)[0][2]
        raise ToolkitError(
            f"rule {rule.name!r} violates the grade-shift law on "
            f"({format_grade(gu)}, {format_grade(gv)}): component "
            f"{out.name_of(pos)} at grade {format_grade(out.grade_of(pos))}, "
            f"expected {format_grade(target)}"
        )
    return pair


def fill_entries(span: Span, terms: Iterable[tuple[BilinearRule, tuple[Grade, Grade]]]) -> Span:
    """Add the table entries of each (rule, block pair) of ``terms`` to
    ``span``, as rows of their output block, and return ``span``.

    Every rule must map into the span's basis.  Each block pair goes
    through ``checked_block_pair`` in the order given, so the first one
    that breaks the grade-shift law is refused, whether or not its target
    block is full; its entry rows are built only while that block is not
    full, and none past the one that fills it.  A pair with no entry adds
    nothing.
    """
    basis = span.basis
    offset, zero = basis._offset, span.field.zero
    for rule, (gu, gv) in terms:
        if rule.out != basis:
            raise ValueError(f"rule {rule.name!r} does not map into the given basis")
        pair = checked_block_pair(rule, gu, gv)
        if pair is None or span.full_at(pair[0]):
            continue
        target, triples = pair
        zero_row = [zero] * basis.block_dim(target)
        for _, _, entry in triples:
            row = zero_row.copy()
            for pos, x in entry.items():
                row[offset[pos]] = x
            if span.add(target, row) is not None and span.full_at(target):
                break
    return span


def _pair_conditions(field: Field, n: int, pairs: list[tuple[bool, list[tuple[int, int, Sparse]]]]) -> Iterator[list[Scalar]]:
    """The conditions of one n-dimensional kernel block, one block pair at
    a time: for each (v_left, triples) of ``pairs``, a block pair with v in
    the block, one row per (other argument offset, output position) that
    its entries reach."""
    zero = field.zero
    for v_left, triples in pairs:
        rows: dict[tuple[int, int], list[Scalar]] = {}
        for a, b, entry in triples:
            v, other = (a, b) if v_left else (b, a)
            for pos, x in entry.items():
                row = rows.get((other, pos))
                if row is None:
                    row = rows[other, pos] = [zero] * n
                row[v] = x
        yield from rows.values()


def kernel_conditions(
    field: Field, basis: GradedBasis, maps: Sequence[tuple[BilinearRule, bool]]
) -> dict[Grade, Iterator[list[Scalar]]]:
    """The conditions that cut out the homogeneous common kernel of the
    maps v -> rule(v, .) (``v_left`` true) and v -> rule(., v) (false),
    for each (rule, v_left) of ``maps``, as lazy rows per grade of
    ``basis``.

    The block at grade g is cut out by one condition per (map, other
    argument, output coordinate) that some table entry with its v
    argument at g reaches; every other condition is 0 = 0.  They are
    built one block pair at a time, as they are read, so a reader that
    stops early (``Span.fills``) builds no more.  On a 1-dimensional
    block every such condition is a nonzero scalar, so the one row
    ``(one,)`` stands for them all.  Every grade of ``basis`` is a key,
    with no rows when nothing reaches it.
    """
    pairs: dict[Grade, list[tuple[bool, list[tuple[int, int, Sparse]]]]] = {g: [] for g in basis.grades()}
    for rule, v_left in maps:
        if (rule.left if v_left else rule.right) != basis:
            raise ValueError(f"rule {rule.name!r} does not take its argument from the given basis")
        for (gu, gv), (_, triples) in rule.block_pairs().items():
            pairs[gu if v_left else gv].append((v_left, triples))
    return {
        g: _pair_conditions(field, n, at) if (n := basis.block_dim(g)) > 1 else iter([(field.one,)] if at else ())
        for g, at in pairs.items()
    }


def entry_kernel(field: Field, basis: GradedBasis, maps: Sequence[tuple[BilinearRule, bool]]) -> GradedSubspace:
    """Homogeneous common kernel of the maps of ``maps``, cut out by
    ``kernel_conditions``.  The kernel's RREF basis is canonical, so the
    order of the conditions does not matter."""
    return GradedSubspace._from_rref(field, basis, {
        g: nullspace(field, list(rows), basis.block_dim(g)) for g, rows in kernel_conditions(field, basis, maps).items()
    })
