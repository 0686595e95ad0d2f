"""Built-in example instances.

Field policy per entry: a display default (used by verify/classes/
decompose/dot) and an oracle default (prime, small enough for the
exhaustive enumerations).  Entries whose structure constants only close
up in a specific characteristic reject other fields with an explicit
message; e2/e3 carry the full homogeneous derivation algebra of
F[x]/(x^3), including the shift by the top grade, which exists only in
characteristic 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .constructions import direct_sum
from .errors import CharacteristicError, InstanceFormatError
from .fields import RATIONALS, Field, prime_field
from .groups import GroupSpec
from .linear import BilinearRule, GradedBasis, Sparse, coordinate_reader, rule_from_names
from .model import AlgebraInstance, compute_derivations


def _skew_close(entries: dict[tuple[str, str], dict[str, int]]) -> dict[tuple[str, str], dict[str, int]]:
    """Fill the reversed orientation of a bracket table with negated values."""
    out = dict(entries)
    for (i, j), img in entries.items():
        if i != j and (j, i) not in entries:
            out[(j, i)] = {k: -x for k, x in img.items()}
    return out


def _sym_close(entries: dict[tuple[str, str], dict[str, int]]) -> dict[tuple[str, str], dict[str, int]]:
    out = dict(entries)
    for (i, j), img in entries.items():
        if i != j and (j, i) not in entries:
            out[(j, i)] = dict(img)
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
        _scalars(field, _skew_close({
            ("e", "f"): {"h": 1},
            ("h", "e"): {"e": 2},
            ("h", "f"): {"f": -2},
        })),
    )
    product = rule_from_names("product", field, group, A, A, A, _scalars(field, {("one", "one"): {"one": 1}}))
    action = rule_from_names(
        "action", field, group, A, L, L,
        _scalars(field, {("one", n): {n: 1} for n in ("e", "f", "h")}),
    )
    anchor = rule_from_names("anchor", field, group, L, A, A, {})
    return AlgebraInstance("e1", field, group, L, A, bracket, product, action, anchor)


def derivation_instance(
    name: str, field: Field, group: GroupSpec, A: GradedBasis, product: BilinearRule
) -> AlgebraInstance:
    """(Der(A), A) with the identity anchor and the evaluation action.

    L is the direct sum of the homogeneous derivation spaces of A; the
    bracket is the commutator, the action is pointwise multiplication.
    """
    ders = compute_derivations(field, group, A, product)
    entries = []
    matrices = []
    k = 0
    for shift, mats in ders:
        for mat in mats:
            entries.append((f"l{k}", shift))
            matrices.append(mat)
            k += 1
    L = GradedBasis(entries)
    dimA = A.dim

    def flat(mat):
        return [x for row in mat for x in row]

    coordinates = coordinate_reader(field, [flat(m) for m in matrices])

    def express(mat, what: str) -> Sparse:
        combo = coordinates(flat(mat))
        if combo is None:
            raise CharacteristicError(f"{what} is not a combination of homogeneous derivations")
        return {i: c for i, c in enumerate(combo) if not field.is_zero(c)}

    def apply_der(mat, vec: list) -> list:
        out = [field.zero] * dimA
        for j, c in enumerate(vec):
            if not field.is_zero(c):
                for t in range(dimA):
                    out[t] = field.add(out[t], field.mul(c, mat[j][t]))
        return out

    bracket_table: dict[tuple[int, int], Sparse] = {}
    for i, Mi in enumerate(matrices):
        for j, Mj in enumerate(matrices):
            if i == j:
                continue
            comm = []
            for b in range(dimA):
                first = apply_der(Mi, list(Mj[b]))
                second = apply_der(Mj, list(Mi[b]))
                comm.append([field.sub(x, y) for x, y in zip(first, second)])
            if any(not field.is_zero(x) for row in comm for x in row):
                bracket_table[(i, j)] = express(comm, f"[{L.name_of(i)}, {L.name_of(j)}]")

    action_table: dict[tuple[int, int], Sparse] = {}
    for a in range(dimA):
        for i, Mi in enumerate(matrices):
            scaled = []
            for b in range(dimA):
                img = product.apply_sparse({a: field.one}, {t: x for t, x in enumerate(Mi[b]) if not field.is_zero(x)})
                dense = [field.zero] * dimA
                for t, x in img.items():
                    dense[t] = x
                scaled.append(dense)
            if any(not field.is_zero(x) for row in scaled for x in row):
                action_table[(a, i)] = express(scaled, f"{A.name_of(a)}*{L.name_of(i)}")

    anchor_table: dict[tuple[int, int], Sparse] = {}
    for i, Mi in enumerate(matrices):
        for b in range(dimA):
            img = {t: x for t, x in enumerate(Mi[b]) if not field.is_zero(x)}
            if img:
                anchor_table[(i, b)] = img

    bracket = BilinearRule("bracket", field, group, L, L, L, bracket_table)
    action = BilinearRule("action", field, group, A, L, L, action_table)
    anchor = BilinearRule("anchor", field, group, L, A, A, anchor_table)
    return AlgebraInstance(name, field, group, L, A, bracket, product, action, anchor)


def _truncated_poly_algebra(field: Field) -> tuple[GroupSpec, GradedBasis, BilinearRule]:
    """F[x]/(x^3) graded by Z/3 with deg x = 1."""
    group = GroupSpec(0, (3,))
    A = GradedBasis([("a0", (0,)), ("a1", (1,)), ("a2", (2,))])
    entries = _sym_close({
        ("a0", "a0"): {"a0": 1},
        ("a0", "a1"): {"a1": 1},
        ("a0", "a2"): {"a2": 1},
        ("a1", "a1"): {"a2": 1},
    })
    product = rule_from_names("product", field, group, A, A, A, _scalars(field, entries))
    return group, A, product


def _build_e2(field: Field) -> AlgebraInstance:
    group, A, product = _truncated_poly_algebra(field)
    return derivation_instance("e2", field, group, A, product)


def _build_e3(field: Field) -> AlgebraInstance:
    left = _build_e2(field)
    right = _build_e2(field)
    inst = direct_sum(left, right, "e3")
    return inst


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
        "bracket", field, group, L, L, L, _scalars(field, _skew_close(bracket_entries))
    )
    product = rule_from_names(
        "product", field, group, A, A, A,
        _scalars(field, _sym_close({("one", "one"): {"one": 1}, ("one", "u"): {"u": 1}, ("u", "u"): {"one": 1}})),
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
