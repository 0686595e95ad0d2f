"""The three workloads of the grlr benchmark.

A workload is built from the freshly imported ``grlr`` package and a
workload seed.  It returns its items: each item is one closed-loop
request (``call``), plus a function that turns the request's output into
a small JSON verdict (``verdict``), which the harness compares with the
reference recorded in ``reference.json``.

The seed changes only the seed argument of each generated recipe's
``("twist", s)`` step.  A twist is a change of homogeneous basis, so every
exact verdict is unchanged and one reference serves every seed.  Every
item calls grlr through attribute lookups on the package or its modules
at call time, so wrappers installed by the tracer see every call.
"""
from __future__ import annotations

import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

# Twist seed s becomes s + TWIST_STRIDE * seed; seed 0 is the recipe space as shipped.
TWIST_STRIDE = 1000


@dataclass
class Item:
    name: str
    call: Callable[[], Any]
    # output -> (verdict compared with the reference, internal disagreements)
    verdict: Callable[[Any], tuple[dict, list[str]]]


def _buildable(grlr, seed: int):
    """(shipped label, instance) for each buildable recipe of
    ``default_recipe_space()``, with every twist seed moved by the workload seed."""
    for recipe in grlr.default_recipe_space():
        steps = tuple(
            (op, arg + TWIST_STRIDE * seed) if op == "twist" else (op, arg) for op, arg in recipe.steps
        )
        try:
            yield recipe.label, grlr.generate_instance(
                grlr.TemplateRecipe(recipe.label, recipe.atom, recipe.field, steps)
            )
        except grlr.ToolkitError:
            continue


def _grade(g) -> str:
    return ",".join(str(x) for x in g)


# ---------------------------------------------------------------------------
# paths-oracle: the criterion-2 set, one (instance, side, g, h) pair per item


def _pair(grlr, sup, side: str, g, h):
    connect = grlr.sigma_connected if side == "sigma" else grlr.lambda_connected
    verdict, _ = connect(sup, g, h)
    listed = grlr.enumerate_connections(sup, g, h, side)
    return verdict, len(listed)


def _pair_verdict(out) -> tuple[dict, list[str]]:
    bfs, listed = out
    dfs = listed > 0
    problems = [] if bfs == dfs else [f"BFS says {bfs}, DFS lists {listed} paths"]
    return {"bfs": bfs, "dfs": dfs}, problems


def paths_oracle(grlr, seed: int, workdir: Path) -> list[Item]:
    """The 6 catalog entries plus the first 50 buildable recipes with at
    most 6 multipliers: the instance set of acceptance criterion 2."""
    instances = [(name, grlr.build(name)) for name in grlr.catalog_names()]
    for label, inst in _buildable(grlr, seed):
        if len(instances) >= 56:
            break
        if len(grlr.supports(inst).multipliers()) <= 6:
            instances.append((label, inst))
    items = []
    for label, inst in instances:
        sup = grlr.supports(inst)
        for side in ("sigma", "lambda"):
            base = sorted(sup.base(side))
            for g in base:
                for h in base:
                    items.append(Item(
                        f"{label} {side} {_grade(g)}->{_grade(h)}",
                        partial(_pair, grlr, sup, side, g, h),
                        _pair_verdict,
                    ))
    return items


# ---------------------------------------------------------------------------
# pipeline-gfp: the library pipeline on every prime-field instance


def _lattice_admitted(grlr, inst) -> bool:
    """The oracle's enumeration guard, asked before the call instead of caught."""
    oracle = grlr.oracle
    bound = oracle.MAX_DIM_SMALL_P if inst.field.p <= 3 else oracle.MAX_DIM_LARGE_P
    return inst.L.dim <= bound and inst.A.dim <= bound


def _pipeline(grlr, inst, lattice: bool) -> dict:
    out: dict = {"verify": grlr.verify_all(inst)}
    sup = grlr.supports(inst)
    out["classes"] = (grlr.sigma_classes(sup), grlr.lambda_classes(sup))
    out["L"], out["A"] = grlr.decompose_L(inst), grlr.decompose_A(inst)
    out["tight"] = grlr.check_tight(inst)
    out["pairing"] = grlr.pair_ideals(inst, out["L"], out["A"], out["tight"].tight)
    out["fine"] = grlr.fine_decompose(inst)
    if lattice:
        out["lattice"] = (grlr.enumerate_graded_ideals_L(inst), grlr.enumerate_graded_ideals_A(inst))
        out["simple"] = (grlr.gr_simple_L(inst), grlr.gr_simple_A(inst))
    return out


def _lattice_simple(grlr, inst, side: str, lattice: list) -> bool:
    """gr-simplicity read off the brute-force ideal lattice (criterion 7)."""
    image = grlr.linear.bilinear_image
    full_L, full_A = inst.full_L(), inst.full_A()
    if side == "A":
        nontrivial = [s for s in lattice if not s.is_zero() and s.dim != inst.A.dim]
        return not image(inst.product, full_A, full_A).is_zero() and not nontrivial
    ker = grlr.ker_anchor(inst)
    nontrivial = [s for s in lattice if not s.is_zero() and s.dim != inst.L.dim and s != ker]
    products_ok = (
        not image(inst.bracket, full_L, full_L).is_zero()
        and not image(inst.product, full_A, full_A).is_zero()
        and not image(inst.action, full_A, full_L).is_zero()
    )
    return products_ok and not nontrivial


def _pipeline_verdict(grlr, inst, out: dict) -> tuple[dict, list[str]]:
    verdict: dict = {
        "verify": out["verify"].passed,
        "classes": [len(part.classes) for part in out["classes"]],
        "decompose": {
            side: {"span_ok": rep.span_ok, "direct": rep.direct, "dims": [ci.total.dim for ci in rep.ideals]}
            for side, rep in (("L", out["L"]), ("A", out["A"]))
        },
        "tight": dict(sorted(out["tight"].conditions.items())),
        "pairing": {
            "unique": [entry["unique"] for entry in out["pairing"].pairs],
            "contradiction": out["pairing"].contradiction,
        },
        "fine": {
            "refined": out["fine"].refined,
            "summands": [
                [s.side, s.verdict.status if s.verdict else None, s.restricted_verified]
                for s in out["fine"].summands
            ],
        },
    }
    problems = []
    if "lattice" in out:
        verdict["lattice"] = [len(lat) for lat in out["lattice"]]
        verdict["gr_simple"] = [v.status for v in out["simple"]]
        for side, lat, v in zip("LA", out["lattice"], out["simple"]):
            if (v.status == "gr_simple") != _lattice_simple(grlr, inst, side, lat):
                problems.append(f"{side}: gr_simple says {v.status}, the ideal lattice disagrees")
    return verdict, problems


def pipeline_gfp(grlr, seed: int, workdir: Path) -> list[Item]:
    """Every buildable recipe over a prime field (126 at the seed commit)."""
    items = []
    for label, inst in _buildable(grlr, seed):
        if inst.field.kind != "prime":
            continue
        items.append(Item(
            label,
            partial(_pipeline, grlr, inst, _lattice_admitted(grlr, inst)),
            partial(_pipeline_verdict, grlr, inst),
        ))
    return items


# ---------------------------------------------------------------------------
# cli-rational: one grlr.cli.main(argv) call per item, stdout captured

COMMANDS = (
    ("verify", "--json"),
    ("classes", "--json"),
    ("decompose", "--json"),
    ("decompose", "--fine", "--json"),
    ("dot",),
    ("oracle", "--what", "ideals", "--json"),
)
FILE_COMMANDS = COMMANDS[:5]


def _cli(grlr, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = grlr.cli.main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return code, out.getvalue()


def _decompose_fields(data: dict) -> dict:
    out = {"tight": data["tightness"]["conditions"]}
    for side in ("L", "A"):
        rep = data[side]
        out[side] = {
            "span_ok": rep["span_ok"],
            "direct": rep["direct"],
            "dims": [ideal["dim"] for ideal in rep["ideals"]],
        }
    out["pairing"] = {
        "unique": [entry["unique"] for entry in data["pairing"]["pairs"]],
        "contradiction": data["pairing"]["contradiction"],
    }
    if "fine" in data:
        out["fine"] = {
            "refined": data["fine"]["refined"],
            "summands": [
                [s["side"], s.get("verdict", {}).get("status"), s["restricted_verified"]]
                for s in data["fine"]["summands"]
            ],
        }
    return out


def _cli_verdict(argv: list[str], out: tuple[int, str]) -> tuple[dict, list[str]]:
    code, text = out
    verdict: dict = {"exit": code}
    if code != 0:
        return verdict, []
    command = argv[0]
    if command == "dot":
        verdict["clusters"] = text.count("subgraph cluster_")
        return verdict, []
    data = json.loads(text)
    problems = []
    if command == "verify":
        verdict["passed"] = data["passed"]
        verdict["failed"] = [c["check"] for c in data["checks"] if not c["passed"]]
    elif command == "classes":
        for key in ("sigma_partition", "lambda_partition"):
            verdict[key] = data[key]["count"]
            if not all(w["valid"] for w in data[key]["witness_paths"]):
                problems.append(f"{key}: a witness path does not replay")
    elif command == "decompose":
        verdict.update(_decompose_fields(data))
    elif data.get("what") == "search":
        verdict["examined"] = data["examined"]
        verdict["survivors"] = len(data["survivors"])
    else:
        verdict["agreement"] = data["agreement"]
        for side in ("L", "A"):
            verdict[side] = [data[side]["count"], data[side]["simplicity_status"]]
    return verdict, problems


def _command_name(cmd: tuple[str, ...], instance: str) -> str:
    return " ".join([cmd[0], instance, *(arg for arg in cmd[1:] if arg != "--json")])


def cli_rational(grlr, seed: int, workdir: Path) -> list[Item]:
    """Catalog commands at the display field, five commands on each of the
    20 rational recipes loaded from JSON files, and one recipe search."""
    importlib.import_module("grlr.cli")
    argvs: list[tuple[str, list[str]]] = []
    for name in grlr.catalog_names():
        for cmd in COMMANDS:
            argvs.append((_command_name(cmd, name), [cmd[0], name, *cmd[1:]]))
    rational = [(label, inst) for label, inst in _buildable(grlr, seed) if inst.field.kind == "rational"]
    workdir.mkdir(parents=True, exist_ok=True)
    for i, (label, inst) in enumerate(rational):
        path = workdir / f"rational{i:02d}.json"
        grlr.dump_instance(inst, path)
        for cmd in FILE_COMMANDS:
            argvs.append((_command_name(cmd, label), [cmd[0], str(path), *cmd[1:]]))
    argvs.append(("oracle search", ["oracle", "--what", "search", "--budget", "200", "--json"]))
    return [Item(name, partial(_cli, grlr, argv), partial(_cli_verdict, argv)) for name, argv in argvs]


WORKLOADS: dict[str, Callable[[Any, int, Path], list[Item]]] = {
    "paths-oracle": paths_oracle,
    "pipeline-gfp": pipeline_gfp,
    "cli-rational": cli_rational,
}
