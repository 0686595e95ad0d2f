"""Built-in example instances.

Field policy per entry: a display default (used by verify/classes/
decompose/dot) and an oracle default (prime, small enough for the
exhaustive enumerations).  Entries whose structure constants only close
up in a specific characteristic reject other fields with an explicit
message; e2/e3 carry the full homogeneous derivation algebra of
F[x]/(x^3), including the shift by the top grade, which exists only in
characteristic 3.  ``compute_derivations`` and ``derivation_instance``
build (Der(A), A) for any graded commutative A.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .constructions import direct_sum
from .errors import CharacteristicError, InstanceFormatError
from .fields import RATIONALS, Field, Scalar, prime_field
from .groups import Grade, GroupSpec
from .linear import BilinearRule, GradedBasis, Sparse, nullspace, rule_from_names, sparse_add
from .model import AlgebraInstance


def _mirror(entries: dict[tuple[str, str], dict[str, int]], sign: int) -> dict[tuple[str, str], dict[str, int]]:
    """Fill the reversed orientation of a table with its values times ``sign``:
    -1 for a bracket, 1 for a commutative product."""
    out = dict(entries)
    for (i, j), img in entries.items():
        if i != j and (j, i) not in entries:
            out[(j, i)] = {k: sign * x for k, x in img.items()}
    return out


def _scalars(field: Field, entries):
    out = {}
    for key, img in entries.items():
        vec = {n: field.from_int(x) for n, x in img.items()}
        out[key] = vec
    return out


def _build_e1(field: Field) -> AlgebraInstance:
    group = GroupSpec(1)
    L = GradedBasis([("e", (1,)), ("f", (-1,)), ("h", (0,))])
    A = GradedBasis([("one", (0,))])
    bracket = rule_from_names(
        "bracket", field, group, L, L, L,
        _scalars(field, _mirror({
            ("e", "f"): {"h": 1},
            ("h", "e"): {"e": 2},
            ("h", "f"): {"f": -2},
        }, -1)),
    )
    product = rule_from_names("product", field, group, A, A, A, _scalars(field, {("one", "one"): {"one": 1}}))
    action = rule_from_names(
        "action", field, group, A, L, L,
        _scalars(field, {("one", n): {n: 1} for n in ("e", "f", "h")}),
    )
    anchor = rule_from_names("anchor", field, group, L, A, A, {})
    return AlgebraInstance("e1", field, group, L, A, bracket, product, action, anchor)


def compute_derivations(
    field: Field, group: GroupSpec, A: GradedBasis, product: BilinearRule
) -> list[tuple[Grade, list[list[Sparse]]]]:
    """Homogeneous derivation spaces of a graded commutative algebra.

    For each candidate shift d (a difference of basis grades; any other
    shift only carries the zero derivation) the unknowns are the
    coordinates D(b_j)[t], t in the block at grade(b_j)*d, indexed once in
    (j, t) order.  The Leibniz system D(b_i b_j) - D(b_i)b_j - b_i D(b_j) = 0
    has one equation per (i, j, output coordinate), written straight from
    the nonzero entries of ``product.table``: an entry b_p b_q -> x b_k
    adds x D(b_k) to equation (p, q, .), and, read as b_t b_q with t = p or
    as b_p b_t with t = q, subtracts x from the unknowns D(b_i)[p] of
    equation (i, q, k) and D(b_j)[q] of equation (p, j, k).  ``nullspace``
    returns the RREF kernel basis, which does not depend on the order of
    the equations.  Returns a sorted list of (shift, basis derivations);
    each derivation D is the list of sparse images, D[j] = D(b_j) in
    absolute A-positions.

    The derivations of one shift are its RREF rows over the coordinates
    D(b_j)[t] in (j, t) order: each row's first nonzero coordinate, its
    pivot, is 1, and every other row of that shift is 0 there.  So a map
    at that shift is a combination of them only with its own values at
    the pivots as coefficients (``derivation_instance`` reads it so).
    """
    f = field
    grades = A.grades()
    results: list[tuple[Grade, list[list[Sparse]]]] = []
    for d in sorted({group.mul(group.inv(g), h) for g in grades for h in grades}):
        unknown: dict[tuple[int, int], int] = {}  # (j, t) -> column of D(b_j)[t]
        targets: dict[int, tuple[int, ...]] = {}  # j -> the t of its unknowns
        sources: dict[int, list[int]] = {}  # t -> the j with an unknown D(b_j)[t]
        for j in range(A.dim):
            targets[j] = A.positions_at(group.mul(A.grade_of(j), d))
            for t in targets[j]:
                unknown[(j, t)] = len(unknown)
                sources.setdefault(t, []).append(j)
        if not unknown:
            continue
        equations: dict[tuple[int, int, int], Sparse] = {}

        def add(i: int, j: int, c: int, col: int, x: Scalar) -> None:
            row = equations.setdefault((i, j, c), {})
            row[col] = f.add(row.get(col, f.zero), x)

        for (p, q), image in product.table.items():
            for k, x in image.items():
                for c in targets[k]:
                    add(p, q, c, unknown[(k, c)], x)
                for i in sources.get(p, ()):
                    add(i, q, k, unknown[(i, p)], f.neg(x))
                for j in sources.get(q, ()):
                    add(p, j, k, unknown[(j, q)], f.neg(x))
        n = len(unknown)
        rows = [[row.get(col, f.zero) for col in range(n)]
                for row in equations.values() if any(not f.is_zero(x) for x in row.values())]
        derivations = []
        for vec in nullspace(f, rows, n)[0]:
            D: list[Sparse] = [{} for _ in range(A.dim)]
            for (j, t), col in unknown.items():
                if not f.is_zero(vec[col]):
                    D[j][t] = vec[col]
            derivations.append(D)
        if derivations:
            results.append((d, derivations))
    return results


def derivation_instance(
    name: str, field: Field, group: GroupSpec, A: GradedBasis, product: BilinearRule
) -> AlgebraInstance:
    """(Der(A), A) with the identity anchor and the evaluation action.

    L is the direct sum of the homogeneous derivation spaces of A, each
    derivation held as the sparse map b -> D(b) (``compute_derivations``).
    The anchor reads D(b); the bracket is the commutator
    [Di, Dj](b) = Di(Dj(b)) - Dj(Di(b)), each composition one
    ``anchor.apply_sparse``, formed for i < j only and negated for
    [Dj, Di]; the action is (a.D)(b) = a D(b), by
    ``product.apply_sparse``.  Each bracket or action M is read in the
    derivations of its own shift, deg Di deg Dj or deg a deg D: its
    coordinates are its values at their pivots (the RREF-row contract
    of ``compute_derivations``), and M less that combination must vanish
    on every b.  One that does not is no combination of homogeneous
    derivations and raises CharacteristicError.
    """
    f = field
    entries, ders = [], []
    pivots: dict[Grade, list[tuple[int, int, int]]] = {}  # shift -> (i, j, t) with pivot D(b_j)[t] of Di
    for shift, derivations in compute_derivations(field, group, A, product):
        for D in derivations:
            j = next(j for j, img in enumerate(D) if img)
            pivots.setdefault(shift, []).append((len(ders), j, min(D[j])))
            entries.append((f"l{len(ders)}", shift))
            ders.append(D)
    L = GradedBasis(entries)
    anchor = BilinearRule("anchor", f, group, L, A, A,
                          {(i, b): img for i, D in enumerate(ders) for b, img in enumerate(D)})

    def express(M: list[Sparse], shift: Grade, what: str) -> Sparse:
        combo = {i: M[j][t] for i, j, t in pivots.get(shift, ()) if t in M[j]}
        minus = {i: f.neg(c) for i, c in combo.items()}
        if any(sparse_add(f, img, anchor.apply_sparse(minus, {b: f.one})) for b, img in enumerate(M)):
            raise CharacteristicError(f"{what} is not a combination of homogeneous derivations")
        return combo

    bracket_table: dict[tuple[int, int], Sparse] = {}
    for i, Di in enumerate(ders):
        for j, Dj in enumerate(ders):
            if i > j and (j, i) in bracket_table:
                # [Di, Dj] = -[Dj, Di], formed (or refused) earlier in this order
                bracket_table[(i, j)] = {k: f.neg(c) for k, c in bracket_table[(j, i)].items()}
            elif i < j:
                # Di(Dj(b)) - Dj(Di(b)); anchor.apply_sparse({i: c}, v) is c Di(v)
                comm = [sparse_add(f, anchor.apply_sparse({i: f.one}, Dj[b]),
                                   anchor.apply_sparse({j: f.neg(f.one)}, Di[b])) for b in range(A.dim)]
                if any(comm):
                    bracket_table[(i, j)] = express(comm, group.mul(L.grade_of(i), L.grade_of(j)),
                                                    f"[{L.name_of(i)}, {L.name_of(j)}]")

    action_table: dict[tuple[int, int], Sparse] = {}
    for a in range(A.dim):
        for i, D in enumerate(ders):
            scaled = [product.apply_sparse({a: f.one}, img) for img in D]
            if any(scaled):
                action_table[(a, i)] = express(scaled, group.mul(A.grade_of(a), L.grade_of(i)),
                                               f"{A.name_of(a)}*{L.name_of(i)}")

    bracket = BilinearRule("bracket", f, group, L, L, L, bracket_table)
    action = BilinearRule("action", f, group, A, L, L, action_table)
    return AlgebraInstance(name, f, group, L, A, bracket, product, action, anchor)


def _truncated_poly_algebra(field: Field) -> tuple[GroupSpec, GradedBasis, BilinearRule]:
    """F[x]/(x^3) graded by Z/3 with deg x = 1."""
    group = GroupSpec(0, (3,))
    A = GradedBasis([("a0", (0,)), ("a1", (1,)), ("a2", (2,))])
    entries = _mirror({
        ("a0", "a0"): {"a0": 1},
        ("a0", "a1"): {"a1": 1},
        ("a0", "a2"): {"a2": 1},
        ("a1", "a1"): {"a2": 1},
    }, 1)
    product = rule_from_names("product", field, group, A, A, A, _scalars(field, entries))
    return group, A, product


def _build_e2(field: Field) -> AlgebraInstance:
    group, A, product = _truncated_poly_algebra(field)
    return derivation_instance("e2", field, group, A, product)


def _build_e3(field: Field) -> AlgebraInstance:
    e2 = _build_e2(field)
    return direct_sum(e2, e2, "e3")


def _build_group_algebra(n: int, name: str) -> Callable[[Field], AlgebraInstance]:
    def build(field: Field) -> AlgebraInstance:
        group = GroupSpec(0, (n,))
        A = GradedBasis([(f"u{i}", (i,)) for i in range(n)])
        entries = {
            (f"u{i}", f"u{j}"): {f"u{(i + j) % n}": 1} for i in range(n) for j in range(n)
        }
        product = rule_from_names("product", field, group, A, A, A, _scalars(field, entries))
        L = GradedBasis([])
        empty_LL = BilinearRule("bracket", field, group, L, L, L, {})
        empty_AL = BilinearRule("action", field, group, A, L, L, {})
        empty_LA = BilinearRule("anchor", field, group, L, A, A, {})
        return AlgebraInstance(name, field, group, L, A, empty_LL, product, empty_AL, empty_LA)

    return build


def _build_sl2_ga2(field: Field) -> AlgebraInstance:
    group = GroupSpec(1, (2,))
    L = GradedBasis([
        ("e1", (1, 0)), ("f1", (-1, 0)), ("h1", (0, 0)),
        ("eu", (1, 1)), ("fu", (-1, 1)), ("hu", (0, 1)),
    ])
    A = GradedBasis([("one", (0, 0)), ("u", (0, 1))])
    sl2 = {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}}
    twist = {("1", "1"): "1", ("1", "u"): "u", ("u", "1"): "u", ("u", "u"): "1"}
    names = {("e", "1"): "e1", ("e", "u"): "eu", ("f", "1"): "f1", ("f", "u"): "fu",
             ("h", "1"): "h1", ("h", "u"): "hu"}
    bracket_entries: dict[tuple[str, str], dict[str, int]] = {}
    for (x, y), img in sl2.items():
        for p in ("1", "u"):
            for q in ("1", "u"):
                out = {names[(z, twist[(p, q)])]: c for z, c in img.items()}
                bracket_entries[(names[(x, p)], names[(y, q)])] = out
    bracket = rule_from_names(
        "bracket", field, group, L, L, L, _scalars(field, _mirror(bracket_entries, -1))
    )
    product = rule_from_names(
        "product", field, group, A, A, A,
        _scalars(field, _mirror({("one", "one"): {"one": 1}, ("one", "u"): {"u": 1}, ("u", "u"): {"one": 1}}, 1)),
    )
    action_entries = {("one", n): {n: 1} for n in names.values()}
    for x in ("e", "f", "h"):
        action_entries[("u", names[(x, "1")])] = {names[(x, "u")]: 1}
        action_entries[("u", names[(x, "u")])] = {names[(x, "1")]: 1}
    action = rule_from_names("action", field, group, A, L, L, _scalars(field, action_entries))
    anchor = rule_from_names("anchor", field, group, L, A, A, {})
    return AlgebraInstance("sl2_ga2", field, group, L, A, bracket, product, action, anchor)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    display_field: Field
    oracle_field: Field
    builder: Callable[[Field], AlgebraInstance]
    check_field: Callable[[Field], None]


def _reject_char(*bad: int, require: int | None = None, why: str = ""):
    def check(field: Field) -> None:
        ch = field.characteristic
        if require is not None and ch != require:
            raise CharacteristicError(
                f"instance exists only in characteristic {require}: {why}"
            )
        if ch in bad:
            raise CharacteristicError(f"degenerate in characteristic {ch}: {why}")

    return check


CATALOG: dict[str, CatalogEntry] = {
    "e1": CatalogEntry(
        "e1",
        "sl2 graded by Z with trivial one-dimensional A and zero anchor",
        RATIONALS,
        prime_field(5),
        _build_e1,
        _reject_char(2, why="the sl2 structure constants collapse"),
    ),
    "e2": CatalogEntry(
        "e2",
        "full homogeneous derivation algebra of F[x]/(x^3) over Z/3",
        prime_field(3),
        prime_field(3),
        _build_e2,
        _reject_char(require=3, why="the grade-2 derivation d/dx needs 3 = 0"),
    ),
    "e3": CatalogEntry(
        "e3",
        "direct sum of two copies of e2 over (Z/3)^2",
        prime_field(3),
        prime_field(3),
        _build_e3,
        _reject_char(require=3, why="the grade-2 derivation d/dx needs 3 = 0"),
    ),
    "ga2": CatalogEntry(
        "ga2",
        "group algebra of Z/2 with L = 0",
        RATIONALS,
        prime_field(5),
        _build_group_algebra(2, "ga2"),
        _reject_char(why=""),
    ),
    "ga3": CatalogEntry(
        "ga3",
        "group algebra of Z/3 with L = 0",
        RATIONALS,
        prime_field(5),
        _build_group_algebra(3, "ga3"),
        _reject_char(why=""),
    ),
    "sl2_ga2": CatalogEntry(
        "sl2_ga2",
        "sl2 tensored with the group algebra of Z/2, zero anchor",
        RATIONALS,
        prime_field(3),
        _build_sl2_ga2,
        _reject_char(2, why="the sl2 structure constants collapse"),
    ),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def build(name: str, field: Field | None = None, purpose: str = "display") -> AlgebraInstance:
    if name not in CATALOG:
        raise InstanceFormatError(
            f"unknown catalog name {name!r}; available: {', '.join(catalog_names())}"
        )
    entry = CATALOG[name]
    if field is None:
        field = entry.oracle_field if purpose == "oracle" else entry.display_field
    entry.check_field(field)
    return entry.builder(field)
