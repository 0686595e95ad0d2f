"""Brute-force cross-checks and instance generation.

Everything here trades speed for independence: graded ideals are found
by enumerating every graded subspace of a small instance over a prime
field, and connection paths by literal depth-first search over
multiplier sequences.  The fast code paths elsewhere are expected to
agree with these answers exactly.

The path search indexes its grades once per call: the allowed states
(sorted), then the targets outside them, and one step-table row per
state holding (multiplier, index of the product or -1).  The table is
built with ``group.mul`` and then read by the walk; the connection BFS
multiplies on its own, so the two stay independent.  Before listing
anything, a dynamic program over depth counts the products the search
would make from the table and the entries of the paths it would list;
a search where either count is above ``MAX_DFS_STEPS`` is refused with
``GuardError``.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .catalog import build, catalog_names
from .connections import Supports
from .constructions import base_change, direct_sum, to_field
from .errors import GuardError, ToolkitError
from .fields import Field, parse_field_label
from .groups import Grade, format_grade
from .linear import GradedBasis, GradedSubspace, Row
from .model import AlgebraInstance, is_graded_ideal_A, is_graded_ideal_L
from .simplicity import Hypotheses5, check_hypotheses5

# enumeration over GF(p)^d explodes as p^(d^2/4); these bounds keep the
# worst admissible case around 10^5 candidate subspaces
MAX_DIM_SMALL_P = 6
MAX_DIM_LARGE_P = 4
# the connection-path search makes one product per multiplier at each
# allowed state it enters; the largest search of the acceptance suite
# makes 20,465 and its whole 443-pair set 1.94 million.  The same bound
# caps the entries of the listed paths: at most 35,532 for one pair of
# that suite
MAX_DFS_STEPS = 2_000_000


def _guard_enumeration(field: Field, dim: int, what: str) -> None:
    if field.kind != "prime":
        raise GuardError(
            f"{what} enumeration requires a prime field; "
            "rebuild the instance over gf2/gf3/gf5/... first"
        )
    bound = MAX_DIM_SMALL_P if field.p <= 3 else MAX_DIM_LARGE_P
    if dim > bound:
        raise GuardError(
            f"{what} enumeration refused: dimension {dim} over GF({field.p}) "
            f"exceeds the bound {bound}"
        )


def all_subspaces(field: Field, dim: int) -> list[tuple[Row, ...]]:
    """Every subspace of F^dim, each given once by its reduced basis."""
    out: list[tuple[Row, ...]] = [()]
    elems = list(field.elements())
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free: list[tuple[int, int]] = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, dim):
                    if c not in pivots:
                        free.append((i, c))
            for values in itertools.product(elems, repeat=len(free)):
                rows = [[field.zero] * dim for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                out.append(tuple(tuple(r) for r in rows))
    return out


def _graded_subspaces(field: Field, basis: GradedBasis):
    grades = sorted(basis.grades())
    per_block = [all_subspaces(field, basis.block_dim(g)) for g in grades]
    for combo in itertools.product(*per_block):
        blocks = {g: rows for g, rows in zip(grades, combo) if rows}
        yield GradedSubspace(field, basis, blocks)


def _sort_key(sub: GradedSubspace):
    return (sub.dim, json.dumps(sub.to_json(), sort_keys=True))


def _enumerate_graded_ideals(inst: AlgebraInstance, side: str) -> list[GradedSubspace]:
    basis = getattr(inst, side)
    _guard_enumeration(inst.field, basis.dim, "graded ideal")
    is_ideal = is_graded_ideal_L if side == "L" else is_graded_ideal_A
    return sorted((s for s in _graded_subspaces(inst.field, basis) if is_ideal(inst, s)[0]), key=_sort_key)


def enumerate_graded_ideals_L(inst: AlgebraInstance) -> list[GradedSubspace]:
    """All graded ideals of L, by exhausting every graded subspace."""
    return _enumerate_graded_ideals(inst, "L")


def enumerate_graded_ideals_A(inst: AlgebraInstance) -> list[GradedSubspace]:
    """All graded ideals of A, by exhausting every graded subspace."""
    return _enumerate_graded_ideals(inst, "A")


def _search_size(
    table: list[list[tuple[Grade, int]]], hit: list[bool], root: int, max_len: int
) -> tuple[int, int]:
    """(products, listed entries) of the path search: one product per
    multiplier at each state node of its search tree whose path is
    shorter than ``max_len``, and the length of every path it lists.

    Counted level by level from the number of tree nodes at each state;
    stops early once either count passes ``MAX_DFS_STEPS``.
    """
    n = len(table)
    nodes = [0] * n
    nodes[root] = 1
    steps = 0
    entries = 1 if hit[root] else 0
    for length in range(2, max_len + 1):
        entered = sum(nodes)
        if not entered or steps > MAX_DFS_STEPS or entries > MAX_DFS_STEPS:
            break
        steps += entered * len(table[root])
        below = [0] * n
        for i, count in enumerate(nodes):
            if count:
                for _, j in table[i]:
                    if j >= 0 and hit[j]:
                        entries += count * length
                    if 0 <= j < n:
                        below[j] += count
        nodes = below
    return steps, entries


def enumerate_connections(
    sup: Supports, g1: Grade, g2: Grade, side: str = "sigma", max_len: int | None = None
) -> list[list[Grade]]:
    """All multiplier sequences connecting g1 to g2, up to max_len terms.

    A sequence starts at g1 and appends multipliers one at a time; every
    strict partial product must stay inside the allowed intermediate set
    for the side, and the full product must land on g2 or its inverse.
    Sequences are listed in depth-first pre-order, multipliers in sorted
    order.  Raises ValueError for a ``max_len`` below 1, and GuardError
    when the search would take more than ``MAX_DFS_STEPS`` products or
    list more than that many entries.
    """
    if g1 not in sup.base(side):
        raise ValueError(f"{format_grade(g1)} is not in the {side} support")
    mults = sup.multipliers()
    if max_len is None:
        max_len = 2 * max(1, len(mults))
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    group = sup.group
    targets = {group.check(g2), group.inv(g2)}
    states = sorted(sup.states(side))
    grades = states + sorted(targets.difference(states))
    index = {g: i for i, g in enumerate(grades)}
    table = [[(m, index.get(group.mul(s, m), -1)) for m in mults] for s in states]
    hit = [g in targets for g in grades]
    start = group.reduce(g1)
    root = index[start]
    steps, entries = _search_size(table, hit, root, max_len)
    for count, what in ((steps, "search steps"), (entries, "listed path entries")):
        if count > MAX_DFS_STEPS:
            raise GuardError(
                f"connection path enumeration refused: more than {MAX_DFS_STEPS} "
                f"{what} from {format_grade(g1)} ({side}, up to {max_len} terms)"
            )
    n = len(states)
    path = [start]
    paths = [list(path)] if hit[root] else []
    # each frame iterates one state's row; a target is listed on arrival,
    # before its state is entered, which keeps the pre-order of a
    # recursive search
    stack = [iter(table[root])] if max_len > 1 else []
    while stack:
        for m, j in stack[-1]:
            if j < 0:
                continue
            path.append(m)
            if hit[j]:
                paths.append(path[:])
            if j < n and len(path) < max_len:
                stack.append(iter(table[j]))
                break
            path.pop()
        else:
            stack.pop()
            path.pop()
    return paths


@dataclass(frozen=True)
class TemplateRecipe:
    """A reproducible build plan: a catalog atom, a field, then steps.

    Steps are applied left to right:
      ("sum", name)   direct sum with a catalog atom over the same field
      ("twist", seed) seeded change of homogeneous basis
      ("to", label)   carry integer structure constants into a prime field
    """

    label: str
    atom: str
    field: str
    steps: tuple[tuple[str, object], ...] = ()


def generate_instance(recipe: TemplateRecipe) -> AlgebraInstance:
    fld = parse_field_label(recipe.field)
    inst = build(recipe.atom, fld)
    for op, arg in recipe.steps:
        if op == "sum":
            inst = direct_sum(inst, build(str(arg), inst.field))
        elif op == "twist":
            inst = base_change(inst, int(arg))
        elif op == "to":
            inst = to_field(inst, parse_field_label(str(arg)))
        else:
            raise ToolkitError(f"unknown recipe step {op!r}")
    return inst


def _label(atom: str, field: str, steps) -> str:
    bits = [f"{atom}@{field}"]
    for op, arg in steps:
        bits.append(f"{op}:{arg}")
    return "+".join(bits)


def default_recipe_space() -> list[TemplateRecipe]:
    """Around two hundred recipes mixing atoms, fields, sums and twists."""
    recipes: list[TemplateRecipe] = []

    def add(atom: str, field: str, *steps: tuple[str, object]) -> None:
        recipes.append(TemplateRecipe(_label(atom, field, steps), atom, field, tuple(steps)))

    fields = ["q", "gf2", "gf3", "gf5", "gf7"]
    atoms = catalog_names()
    for atom in atoms:
        for fld in fields:
            add(atom, fld)
    for atom in atoms:
        for fld in ("q", "gf3", "gf5", "gf7"):
            for seed in (1, 2, 3):
                add(atom, fld, ("twist", seed))
        add(atom, "q", ("twist", 4))
    for left in atoms:
        for right in atoms:
            if left <= right:
                for fld in ("gf3", "gf5", "gf7"):
                    add(left, fld, ("sum", right))
    for atom in ("ga2", "ga3", "sl2_ga2", "e2"):
        for fld in ("gf3", "gf5"):
            for seed in (4, 5):
                add(atom, fld, ("sum", atom), ("twist", seed))
    for atom in ("ga2", "ga3", "sl2_ga2"):
        for seed in (11, 12):
            for target in ("gf5", "gf7"):
                add(atom, "q", ("twist", seed), ("to", target))
    add("ga3", "gf7", ("sum", "ga3"), ("twist", 6))
    return recipes


@dataclass
class SearchReport:
    survivors: list[tuple[str, Hypotheses5]]
    rejections: list[tuple[str, str]]

    def to_json(self) -> dict:
        return {
            "survivors": [
                {"label": label, "conditions": dict(h.conditions)} for label, h in self.survivors
            ],
            "rejections": [{"label": label, "reason": reason} for label, reason in self.rejections],
            "examined": len(self.survivors) + len(self.rejections),
        }


def hypothesis_search(
    space: list[TemplateRecipe] | None = None, budget: int | None = None
) -> SearchReport:
    """Split a recipe space into instances satisfying every structural
    hypothesis needed for the fine decomposition, and rejections tagged
    with the first failing condition (or the build error)."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if space is None:
        space = default_recipe_space()
    if budget is not None:
        space = space[:budget]
    survivors: list[tuple[str, Hypotheses5]] = []
    rejections: list[tuple[str, str]] = []
    for recipe in space:
        try:
            inst = generate_instance(recipe)
        except ToolkitError as exc:
            rejections.append((recipe.label, f"build failed: {exc}"))
            continue
        hyp = check_hypotheses5(inst)
        if hyp.all_hold:
            survivors.append((recipe.label, hyp))
        else:
            failing = next(name for name, ok in hyp.conditions.items() if not ok)
            rejections.append((recipe.label, failing))
    return SearchReport(survivors, rejections)
