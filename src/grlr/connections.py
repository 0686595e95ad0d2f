"""Support sets and connection equivalence classes.

``Sigma`` collects the non-identity grades with a nonzero L block,
``Lambda`` the same for A.  Two elements of Sigma are connected when a
finite multiplier sequence links them:

* the sequence starts at g and multipliers come from Sigma^+- u Lambda^+-,
* every intermediate partial product stays inside Sigma^+-
  (for the Lambda relation: inside Lambda^+- u Sigma^+-),
* the final product equals the target or its inverse.

Reachability is computed by breadth-first search over partial products;
witness paths are the discovery multiplier sequences and can be replayed
literally by :func:`validate_connection_path`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .groups import Grade, GroupSpec, format_grade
from .model import AlgebraInstance


@dataclass(frozen=True)
class Supports:
    group: GroupSpec
    sigma: frozenset[Grade]
    lam: frozenset[Grade]

    @property
    def sigma_pm(self) -> frozenset[Grade]:
        return self.sigma | {self.group.inv(g) for g in self.sigma}

    @property
    def lam_pm(self) -> frozenset[Grade]:
        return self.lam | {self.group.inv(g) for g in self.lam}

    def multipliers(self) -> list[Grade]:
        return sorted(self.sigma_pm | self.lam_pm)

    def states(self, side: str) -> frozenset[Grade]:
        """Allowed intermediate partial products for one relation."""
        if side == "sigma":
            return self.sigma_pm
        if side == "lambda":
            return self.lam_pm | self.sigma_pm
        raise ValueError(f"unknown side {side!r}")

    def base(self, side: str) -> frozenset[Grade]:
        return self.sigma if side == "sigma" else self.lam


def supports(inst: AlgebraInstance) -> Supports:
    one = inst.group.identity()
    sig = frozenset(g for g in inst.L.grades() if g != one and inst.L.block_dim(g) > 0)
    lam = frozenset(g for g in inst.A.grades() if g != one and inst.A.block_dim(g) > 0)
    return Supports(inst.group, sig, lam)


# ---------------------------------------------------------------------------
# reachability


def _reach(sup: Supports, g: Grade, side: str) -> dict[Grade, list[Grade]]:
    """BFS over partial products; maps reached state -> multiplier path."""
    base = sup.base(side)
    if g not in base:
        raise ValueError(f"{format_grade(g)} is not in the {side} support")
    allowed = sup.states(side)
    mults = sup.multipliers()
    paths: dict[Grade, list[Grade]] = {g: []}
    queue = [g]
    while queue:
        state = queue.pop(0)
        for m in mults:
            nxt = sup.group.mul(state, m)
            if nxt in allowed and nxt not in paths:
                paths[nxt] = paths[state] + [m]
                queue.append(nxt)
    return paths


def _witness(sup: Supports, paths: dict[Grade, list[Grade]], g: Grade, g2: Grade) -> list[Grade] | None:
    """[g] + the BFS path from g to g2 or to its inverse, None if neither is reached."""
    for target in (g2, sup.group.inv(g2)):
        if target in paths:
            return [g] + paths[target]
    return None


def _connected(sup: Supports, g: Grade, g2: Grade, side: str) -> tuple[bool, list[Grade] | None]:
    base = sup.base(side)
    for x in (g, g2):
        if x not in base:
            raise ValueError(f"{format_grade(x)} is not in the {side} support")
    path = _witness(sup, _reach(sup, g, side), g, g2)
    return path is not None, path


def sigma_connected(sup: Supports, g: Grade, g2: Grade) -> tuple[bool, list[Grade] | None]:
    """Is g2 connected to g?  Returns (verdict, witness sequence or None)."""
    return _connected(sup, g, g2, "sigma")

def lambda_connected(sup: Supports, g: Grade, g2: Grade) -> tuple[bool, list[Grade] | None]:
    return _connected(sup, g, g2, "lambda")


def validate_connection_path(sup: Supports, side: str, path: list[Grade], g: Grade, g2: Grade) -> bool:
    """Replay a multiplier sequence against the three connection conditions."""
    if not path or path[0] != g:
        return False
    allowed = sup.states(side)
    universe = sup.sigma_pm | sup.lam_pm
    if any(x not in universe for x in path):
        return False
    acc = path[0]
    if acc not in allowed:
        return False
    for m in path[1:-1]:
        acc = sup.group.mul(acc, m)
        if acc not in allowed:
            return False
    if len(path) > 1:
        acc = sup.group.mul(acc, path[-1])
    return acc in (g2, sup.group.inv(sup.group.check(g2)))


# ---------------------------------------------------------------------------
# partitions


@dataclass
class ConnectionPartition:
    side: str
    classes: list[tuple[Grade, ...]]
    witness: dict[tuple[Grade, Grade], list[Grade]]

    def class_of(self, g: Grade) -> tuple[Grade, ...]:
        for cls in self.classes:
            if g in cls:
                return cls
        raise KeyError(f"{format_grade(g)} is in no class")

    def to_json(self) -> list[list[str]]:
        return [[format_grade(g) for g in cls] for cls in self.classes]


def _class_walks(sup: Supports, side: str) -> Iterator[tuple[Grade, dict, dict]]:
    """Yield (g, BFS paths from g, {member h: witness}) per class, g its least member.

    Connection is an equivalence relation, so one BFS from g finds the class.
    """
    base = sorted(sup.base(side))
    seen: set[Grade] = set()
    for g in base:
        if g in seen:
            continue
        paths = _reach(sup, g, side)
        found = {h: w for h in base if (w := _witness(sup, paths, g, h)) is not None}
        seen.update(found)
        yield g, paths, found


def _classes(sup: Supports, side: str) -> ConnectionPartition:
    classes: list[tuple[Grade, ...]] = []
    witness: dict[tuple[Grade, Grade], list[Grade]] = {}
    for g, _, found in _class_walks(sup, side):
        classes.append(tuple(found))
        witness.update(((g, h), w) for h, w in found.items())
    return ConnectionPartition(side, classes, witness)


def sigma_classes(sup: Supports) -> ConnectionPartition:
    return _classes(sup, "sigma")

def lambda_classes(sup: Supports) -> ConnectionPartition:
    return _classes(sup, "lambda")


# ---------------------------------------------------------------------------
# DOT export


def connection_graph_dot(sup: Supports, side: str) -> str:
    """Graphviz digraph of BFS discovery edges, one cluster per class."""
    lines = [f'digraph {side}_connections {{']
    lines.append('  rankdir=LR;')
    for ci, (_, reach, found) in enumerate(_class_walks(sup, side)):
        lines.append(f'  subgraph cluster_{ci} {{')
        lines.append(f'    label="class {ci}";')
        for g in found:
            lines.append(f'    "{format_grade(g)}";')
        # a state whose path ends in m was discovered from state * m^-1
        edges = ((sup.group.mul(s, sup.group.inv(p[-1])), s, p[-1]) for s, p in reach.items() if p)
        for src, dst, m in sorted(edges):
            lines.append(
                f'    "{format_grade(src)}" -> "{format_grade(dst)}" [label="{format_grade(m)}"];'
            )
        lines.append('  }')
    lines.append('}')
    return "\n".join(lines) + "\n"
