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

The walk enters only the states that leave more than two terms to
append.  A state reached with one or two terms left is listed, not
entered: each of its tails of up to that many terms that ends on a
target is appended to the current path (``path + tail``, a fresh list).
The tails of a state come from per-call tables, read off the step table
the first time the walk needs them and kept in pre-order, so the listing
equals that of a search that enters every state.  The walk still lists
every path explicitly and prunes nothing by reachability: it reads no
BFS data, so a wrong BFS verdict cannot hide a path from it, and the
guard's counts stay those of the full search.

The listing runs with Python's cyclic garbage collector paused, and
``enumerate_connections`` restores the collector's state on every exit.
The listing makes one fresh list per path, so a long one used to start a
collection every 700 allocations, and each gen-2 collection walks every
tracked object of the process.  These collections can free nothing: a
listing is lists of grade tuples, which hold no cycle, and the tails
tables are read by a module function (``_tails``), since a closure that
calls itself would be a cycle.  Measured over three passes of the
benchmark's paths-oracle items on a 2-core x86_64 host, collections took
21% of the pass time (1,186 gen-0, 107 gen-1 and 10 gen-2 passes), and
7-11 ms of each of the 8 slowest items, which took 8-15 ms in all: pairs
of ``sl2_ga2`` that list 1,897 to 3,794 paths.  With the pause, no
collection ran in those passes, and the slowest item took 3.7 ms.

The ideal lattice works block by block.  A graded subspace is an ideal
when a finite set of homogeneous maps sends it into itself: on L,
w -> [u, w], w -> a.w and w -> rho(w)(a).u for basis vectors u of L and
a of A; on A, w -> a.w.  The lattice first reads the images of each
block's basis vectors under every defining map, one ``apply_sparse`` per
product on the rule tables and none made twice, splits them by target
grade and keeps the distinct nonzero block matrices g -> k.  A multiple
of the identity from a block to itself keeps every subspace and is left
out.  The candidates of each block come from ``all_subspaces``, listed
once per block dimension.  They are already canonical RREF bases of
canonical scalars, so each is adopted as it is, with each row's first
nonzero entry as its pivot, and is never reduced or checked again.

A candidate S_g fits a candidate S_k when every row of S_g, times each
matrix g -> k, lies in S_k.  The test runs only when asked and stops at
the first row that fails; the images of a row are kept for the call,
since the same rows recur across candidates.  Each candidate is tested
against itself once.  The combinations are then extended one grade at a
time, in sorted order, and a combination is kept exactly when every pair
of blocks joined by a map fits; each such pair's test is memoised for the
call.  The survivors are sorted by ``_sort_key``, so the listing equals
that of testing every graded subspace against the definition.  The
lattice judges the closure scan of ``simplicity``, so it reads nothing
but the rule tables: it calls no ``bilinear_image``, no closure and no
graded-ideal predicate of ``model``, and a fault in those can neither
hide an ideal from it nor invent one.

The recipe search builds each catalog atom (the base atom of a recipe
and each ``sum`` operand, per field) once per call, in a table local to
the call; the steps after them run for every recipe.  A build that fails
is not kept and fails again, with the same text.  Nothing outlives the
call, for the reason given in ``simplicity``.  Only atoms are kept:
there is one per atom and field, while keeping what recipe prefixes
build would hold a derived instance per prefix for the whole search.
"""
from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .catalog import build, catalog_names
from .connections import Supports
from .constructions import base_change, direct_sum, to_field
from .errors import GuardError, ToolkitError
from .fields import Field, Scalar, parse_field_label
from .groups import Grade, format_grade
from .linear import Echelon, GradedSubspace, Row, Sparse, in_span
from .model import AlgebraInstance
from .simplicity import Hypotheses5, check_hypotheses5

# enumeration over GF(p)^d explodes as p^(d^2/4); these bounds keep the
# worst admissible case around 10^5 candidate subspaces, and a side whose
# blocks together have more graded subspaces than MAX_SUBSPACES is refused
MAX_DIM_SMALL_P = 6
MAX_DIM_LARGE_P = 4
MAX_SUBSPACES = 10**5
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


def _subspace_count(p: int, dim: int) -> int:
    """The number of subspaces of GF(p)^dim: the sum over k of the
    Gaussian binomials [dim, k]_p."""
    total, binomial = 1, 1
    for k in range(1, dim + 1):
        binomial = binomial * (p ** (dim - k + 1) - 1) // (p ** k - 1)
        total += binomial
    return total


def all_subspaces(field: Field, dim: int) -> list[tuple[Row, ...]]:
    """Every subspace of F^dim, each given once by its reduced basis."""
    out: list[tuple[Row, ...]] = [()]
    elems = list(field.elements()) if dim >= 2 else []  # the free entries; none below dim 2
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


def _block_echelons(field: Field, dims: Iterable[int]) -> dict[int, list[Echelon]]:
    """Every subspace of F^dim with its pivots, each row's first nonzero
    entry, listed by ``all_subspaces`` once per dimension in ``dims``."""
    return {
        dim: [
            (rows, tuple(next(c for c, x in enumerate(row) if not field.is_zero(x)) for row in rows))
            for rows in all_subspaces(field, dim)
        ]
        for dim in set(dims)
    }


def _sort_key(sub: GradedSubspace):
    return (sub.dim, json.dumps(sub.to_json(), sort_keys=True))


def _defining_images(inst: AlgebraInstance, side: str) -> Callable[[int], list[Sparse]]:
    """The images of one basis vector w of the side under every defining
    map, in a fixed order: on L, [u, w] for each u of L, a.w for each a
    of A, then rho(w)(a).u for each (a, u); on A, a.w for each a.

    Each product is one ``apply_sparse`` on the rule tables, skipped (as
    0) where its block pairs have no entry.  The action's products are
    kept by their arguments, so a rho(w)(a) met twice, or equal to a
    basis vector of A, is not multiplied again.
    """
    one = inst.field.one
    L, A = inst.L, inst.A
    if side == "A":
        product, pairs = inst.product, inst.product.block_pairs()
        return lambda p: [
            product.apply_sparse({a: one}, {p: one}) if (A.grade_of(a), A.grade_of(p)) in pairs else {}
            for a in range(A.dim)
        ]
    bracket, action, anchor = inst.bracket, inst.action, inst.anchor
    bracket_pairs, action_pairs, anchor_pairs = (r.block_pairs() for r in (bracket, action, anchor))
    acted: dict[tuple[tuple[tuple[int, Scalar], ...], int], Sparse] = {}

    def act(x: Sparse, u: int) -> Sparse:
        key = (tuple(sorted(x.items())), u)
        if key not in acted:
            gu = L.grade_of(u)
            acted[key] = (action.apply_sparse(x, {u: one})
                          if any((A.grade_of(q), gu) in action_pairs for q in x) else {})
        return acted[key]

    def images(p: int) -> list[Sparse]:
        w, gw = {p: one}, L.grade_of(p)
        out = [bracket.apply_sparse({u: one}, w) if (L.grade_of(u), gw) in bracket_pairs else {}
               for u in range(L.dim)]
        out += [act({a: one}, p) for a in range(A.dim)]
        for a in range(A.dim):
            da = anchor.apply_sparse(w, {a: one}) if (gw, A.grade_of(a)) in anchor_pairs else {}
            out += [act(da, u) for u in range(L.dim)] if da else [{}] * L.dim
        return out

    return images


def _block_maps(inst: AlgebraInstance, side: str) -> dict[tuple[int, int], list[tuple[Row, ...]]]:
    """(t, s) -> the distinct nonzero matrices by which the defining maps
    send the block at the t-th grade of the side to the block at the s-th.

    Row i of a matrix is the s-th block component of the image of the
    block's i-th basis vector.  A multiple of the identity from a block to
    itself keeps every subspace, so it is left out.
    """
    f = inst.field
    basis = getattr(inst, side)
    index = {g: t for t, g in enumerate(basis.grades())}
    images = _defining_images(inst, side)
    maps: dict[tuple[int, int], dict[tuple[Row, ...], None]] = {}
    for g, t in index.items():
        n = basis.block_dim(g)
        # one column per defining map, one entry per basis vector of the block
        for column in zip(*(images(p) for p in basis.positions_at(g))):
            if not any(column):
                continue
            blocks: dict[Grade, list[Row]] = {}
            for i, img in enumerate(column):
                for k, coords in basis.split_sparse(img, f).items():
                    if k not in blocks:
                        blocks[k] = [(f.zero,) * len(coords)] * n
                    blocks[k][i] = tuple(coords)
            for k, rows in blocks.items():
                c = rows[0][0]
                if k == g and all(x == (c if i == j else f.zero) for i, row in enumerate(rows) for j, x in enumerate(row)):
                    continue
                maps.setdefault((t, index[k]), {})[tuple(rows)] = None
    return {pair: list(found) for pair, found in maps.items()}


def _enumerate_graded_ideals(inst: AlgebraInstance, side: str) -> list[GradedSubspace]:
    f = inst.field
    basis = getattr(inst, side)
    _guard_enumeration(f, basis.dim, "graded ideal")
    grades = basis.grades()
    count = math.prod(_subspace_count(f.p, basis.block_dim(g)) for g in grades)
    if count > MAX_SUBSPACES:
        raise GuardError(
            f"graded ideal enumeration refused: {count} graded subspaces over GF({f.p}) "
            f"exceed the bound {MAX_SUBSPACES}"
        )
    n = len(grades)
    echelons = _block_echelons(f, (basis.block_dim(g) for g in grades))
    candidates = [echelons[basis.block_dim(g)] for g in grades]
    maps = _block_maps(inst, side)
    # (t, s) -> {row of a block-t candidate: its nonzero images under the maps t -> s}
    row_images: dict[tuple[int, int], dict[Row, list[Row]]] = {pair: {} for pair in maps}
    mul, add, is_zero = f.mul, f.add, f.is_zero

    def fits(t: int, i: int, s: int, j: int) -> bool:
        """Every row of candidate i at grade t, sent by each map t -> s,
        lies in candidate j at grade s; stops at the first that does not."""
        target = candidates[s][j]
        known = row_images[(t, s)]
        for r in candidates[t][i][0]:
            images = known.get(r)
            if images is None:
                images = known[r] = []
                for matrix in maps[(t, s)]:
                    v = [f.zero] * len(matrix[0])
                    for x, m_row in zip(r, matrix):
                        if not is_zero(x):
                            v = [add(y, mul(x, m)) for y, m in zip(v, m_row)]
                    if not all(map(is_zero, v)):
                        images.append(tuple(v))
            if not all(in_span(f, *target, v) for v in images):
                return False
        return True

    # each candidate against itself, once; then each pair of grades in
    # both directions, memoised, as the combinations are extended
    alive = [[i for i in range(len(candidates[t])) if (t, t) not in maps or fits(t, i, t, i)]
             for t in range(n)]
    memo: dict[tuple[int, int, int, int], bool] = {}

    def cross(t: int, i: int, s: int, j: int) -> bool:
        key = (t, i, s, j)
        if key not in memo:
            memo[key] = ((t, s) not in maps or fits(t, i, s, j)) and ((s, t) not in maps or fits(s, j, t, i))
        return memo[key]

    linked = [[t for t in range(s) if (t, s) in maps or (s, t) in maps] for s in range(n)]
    chosen = [0] * n
    found: list[GradedSubspace] = []

    def extend(s: int) -> None:
        if s == n:
            found.append(GradedSubspace._from_rref(
                f, basis, {g: candidates[t][i] for t, (g, i) in enumerate(zip(grades, chosen))}))
            return
        for j in alive[s]:
            if all(cross(t, chosen[t], s, j) for t in linked[s]):
                chosen[s] = j
                extend(s + 1)

    extend(0)
    return sorted(found, key=_sort_key)


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


def enumerate_connections(sup: Supports, g1: Grade, g2: Grade, side: str = "sigma") -> list[list[Grade]]:
    """All multiplier sequences connecting g1 to g2, of at most twice as
    many terms as there are multipliers (at least two).

    A sequence starts at g1 and appends multipliers one at a time; every
    strict partial product must stay inside the allowed intermediate set
    for the side, and the full product must land on g2 or its inverse.
    Sequences are listed in depth-first pre-order, multipliers in sorted
    order.  Raises GuardError when the search would take more than
    ``MAX_DFS_STEPS`` products or list more than that many entries.

    The cyclic garbage collector is paused while the paths are listed.
    The pause is process-wide: for the length of the call no automatic
    collection starts in any thread, including other threads that
    allocate meanwhile.  A collector that was off before the call stays
    off after it.
    """
    if g1 not in sup.base(side):
        raise ValueError(f"{format_grade(g1)} is not in the {side} support")
    mults = sup.multipliers()
    max_len = 2 * max(1, len(mults))
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
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _list_paths(table, hit, root, start, max_len)
    finally:
        if enabled:
            gc.enable()


def _tails(
    table: list[list[tuple[Grade, int]]], hit: list[bool], tails: dict[int, list[list[list[Grade]] | None]],
    i: int, r: int,
) -> list[list[Grade]]:
    """``tails[r][i]``, read off the step table when first asked for.

    A module function rather than a closure: a closure that calls itself
    is a reference cycle, which would keep the tables until the next
    collection.
    """
    found = tails[r][i]
    if found is None:
        found = []
        for m, j in table[i]:
            if j >= 0:
                if hit[j]:
                    found.append([m])
                if r == 2 and j < len(table):
                    found.extend([m] + tail for tail in _tails(table, hit, tails, j, 1))
        tails[r][i] = found
    return found


def _list_paths(
    table: list[list[tuple[Grade, int]]], hit: list[bool], root: int, start: Grade, max_len: int
) -> list[list[Grade]]:
    """The listing of ``enumerate_connections``, from its step table."""
    n = len(table)
    # tails[r][i]: the tails of one to r terms from state i that end on a
    # target, in pre-order; filled from the step table when first needed
    tails: dict[int, list[list[list[Grade]] | None]] = {1: [None] * n, 2: [None] * n}
    tails_of = partial(_tails, table, hit, tails)
    path = [start]
    paths = [list(path)] if hit[root] else []
    if max_len == 2:
        paths.extend(path + tail for tail in tails_of(root, 1))
        return paths
    # each frame iterates one state's row; a target is listed on arrival,
    # before its state is entered, which keeps the pre-order of a
    # recursive search.  A state reached with two terms left is not
    # entered: its tails are listed in its place
    last = max_len - 2
    stack = [iter(table[root])]
    while stack:
        for m, j in stack[-1]:
            if j < 0:
                continue
            path.append(m)
            if hit[j]:
                paths.append(path[:])
            if j < n:
                if len(path) < last:
                    stack.append(iter(table[j]))
                    break
                paths.extend(path + tail for tail in tails_of(j, 2))
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
    return _generate(recipe, {})


def _generate(recipe: TemplateRecipe, atoms: dict[tuple[str, Field], AlgebraInstance]) -> AlgebraInstance:
    """The recipe's instance, taking each catalog atom (the base and every
    ``sum`` operand) from ``atoms`` and adding there each one it builds.
    A build that fails adds nothing, so it fails again with the same text."""

    def atom(name: str, fld: Field) -> AlgebraInstance:
        if (name, fld) not in atoms:
            atoms[name, fld] = build(name, fld)
        return atoms[name, fld]

    inst = atom(recipe.atom, parse_field_label(recipe.field))
    for op, arg in recipe.steps:
        if op == "sum":
            inst = direct_sum(inst, atom(str(arg), inst.field))
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
    atoms: dict[tuple[str, Field], AlgebraInstance] = {}  # this search's atoms, built once each
    for recipe in space:
        try:
            inst = _generate(recipe, atoms)
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
