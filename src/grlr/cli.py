"""Command-line front end.

Commands map onto the library one-to-one: verify (axiom suite),
classes (support partitions with witness paths), decompose (class
ideals, tightness, pairing, optional fine pipeline), dot (connection
graph export) and oracle (brute-force cross-checks).

Exit codes: 0 success, 1 mathematical failure (axioms or cross-check),
2 unreadable input, 3 refused guard.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import connections as conn
from . import decompose as dec
from . import simplicity as simp
from .catalog import catalog_names
from .errors import GuardError, InstanceFormatError, ToolkitError
from .files import resolve_instance
from .model import AlgebraInstance, ker_anchor, verify_all
from .groups import format_grade
from .linear import GradedSubspace, bilinear_image

OK, MATH_FAIL, PARSE_FAIL, GUARD_FAIL = 0, 1, 2, 3


def _render(obj: Any, indent: int = 0, out=None) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                print(f"{pad}{key}:", file=out)
                _render(val, indent + 1, out)
            else:
                print(f"{pad}{key}: {_scalar_text(val)}", file=out)
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)) and val:
                print(f"{pad}-", file=out)
                _render(val, indent + 1, out)
            else:
                print(f"{pad}- {_scalar_text(val)}", file=out)
    else:
        print(f"{pad}{_scalar_text(obj)}", file=out)


def _scalar_text(val: Any) -> str:
    if val is True:
        return "yes"
    if val is False:
        return "no"
    if isinstance(val, (dict, list)) and not val:
        return "(none)"
    return str(val)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _render(report)


def _load(args: argparse.Namespace, purpose: str = "display") -> AlgebraInstance:
    return resolve_instance(args.instance, args.field, purpose)


def _verified(inst: AlgebraInstance) -> None:
    report = verify_all(inst)
    if not report.passed:
        first = report.failed_checks()[0]
        raise ToolkitError(f"instance fails verification: {first.name} (witness {first.witness})")


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load(args)
    report = verify_all(inst)
    data = {
        "command": "verify",
        "instance": inst.name,
        "field": inst.field.label,
        **report.to_json(),
    }
    _emit(data, args.json)
    return OK if report.passed else MATH_FAIL


def _partition_json(sup: conn.Supports, side: str) -> dict:
    part = conn.sigma_classes(sup) if side == "sigma" else conn.lambda_classes(sup)
    witnesses = []
    for (g, h) in sorted(part.witness):
        path = part.witness[(g, h)]
        ok = conn.validate_connection_path(sup, side, path, g, h)
        witnesses.append({
            "from": format_grade(g),
            "to": format_grade(h),
            "path": [format_grade(x) for x in path],
            "valid": ok,
        })
    return {
        "classes": part.to_json(),
        "count": len(part.classes),
        "witness_paths": witnesses,
    }


def cmd_classes(args: argparse.Namespace) -> int:
    inst = _load(args)
    _verified(inst)
    sup = conn.supports(inst)
    data: dict = {
        "command": "classes",
        "instance": inst.name,
        "field": inst.field.label,
        "supports": {
            "sigma": [format_grade(g) for g in sorted(sup.sigma)],
            "lambda": [format_grade(g) for g in sorted(sup.lam)],
        },
    }
    if args.side in ("L", "both"):
        data["sigma_partition"] = _partition_json(sup, "sigma")
    if args.side in ("A", "both"):
        data["lambda_partition"] = _partition_json(sup, "lambda")
    _emit(data, args.json)
    return OK


def cmd_decompose(args: argparse.Namespace) -> int:
    inst = _load(args)
    _verified(inst)
    tightness = dec.check_tight(inst)
    data: dict = {
        "command": "decompose",
        "instance": inst.name,
        "field": inst.field.label,
        "tightness": tightness.to_json(),
    }
    rep_L = rep_A = None
    if args.side in ("L", "both"):
        rep_L = dec.decompose_L(inst)
        data["L"] = rep_L.to_json()
    if args.side in ("A", "both"):
        rep_A = dec.decompose_A(inst)
        data["A"] = rep_A.to_json()
    if rep_L is not None and rep_A is not None:
        data["pairing"] = dec.pair_ideals(inst, rep_L, rep_A, tightness.tight).to_json()
    if args.fine:
        data["fine"] = simp.fine_decompose(inst).to_json()
    _emit(data, args.json)
    return OK


def cmd_dot(args: argparse.Namespace) -> int:
    inst = _load(args)
    _verified(inst)
    side = "sigma" if args.side == "L" else "lambda"
    print(conn.connection_graph_dot(conn.supports(inst), side))
    return OK


def _lattice_report(inst: AlgebraInstance, side: str) -> dict:
    from .oracle import enumerate_graded_ideals_A, enumerate_graded_ideals_L

    if side == "L":
        lattice = enumerate_graded_ideals_L(inst)
        rep = dec.decompose_L(inst)
        verdict = simp.gr_simple_L(inst)
        trivial: list[tuple[str, GradedSubspace]] = [
            ("zero", GradedSubspace.zero(inst.field, inst.L)),
            ("full", inst.full_L()),
            ("ker_anchor", ker_anchor(inst)),
        ]
        products = (
            (inst.bracket, inst.full_L(), inst.full_L()),
            (inst.product, inst.full_A(), inst.full_A()),
            (inst.action, inst.full_A(), inst.full_L()),
        )
    else:
        lattice = enumerate_graded_ideals_A(inst)
        rep = dec.decompose_A(inst)
        verdict = simp.gr_simple_A(inst)
        trivial = [("zero", GradedSubspace.zero(inst.field, inst.A)), ("full", inst.full_A())]
        products = ((inst.product, inst.full_A(), inst.full_A()),)
    fast = trivial + [("ideal " + "/".join(ci.label_json()), ci.total) for ci in rep.ideals]
    nontrivial = [s for s in lattice if s not in [sub for _, sub in trivial]]
    products_ok = all(not bilinear_image(rule, U, V).is_zero() for rule, U, V in products)

    missing = [label for label, sub in fast if sub not in lattice]
    lattice_simple = products_ok and not nontrivial
    simplicity_agreement = (
        verdict.status == "undecided"
        or (verdict.status == "gr_simple") == lattice_simple
    )
    return {
        "side": side,
        "count": len(lattice),
        "dims": [s.dim for s in lattice],
        "ideals": [s.to_json() for s in lattice],
        "fast_paths_found": not missing,
        "missing_fast_paths": missing,
        "simplicity_status": verdict.status,
        "simplicity_agreement": simplicity_agreement,
        "agreement": not missing and simplicity_agreement,
    }


def _paths_report(inst: AlgebraInstance) -> dict:
    from .oracle import enumerate_connections

    sup = conn.supports(inst)
    sides = {}
    agreement = True
    for side in ("sigma", "lambda"):
        part = conn.sigma_classes(sup) if side == "sigma" else conn.lambda_classes(sup)
        base = sorted(sup.base(side))
        pairs = []
        for g in base:
            for h in base:
                bfs = part.class_of(g) == part.class_of(h)
                found = bool(enumerate_connections(sup, g, h, side))
                pairs.append({
                    "from": format_grade(g),
                    "to": format_grade(h),
                    "bfs_connected": bfs,
                    "enumeration_connected": found,
                    "agree": bfs == found,
                })
                agreement = agreement and bfs == found
        sides[side] = {"pairs": pairs, "classes": part.to_json()}
    return {"sides": sides, "agreement": agreement}


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.what == "search":
        from .oracle import default_recipe_space, hypothesis_search

        report = hypothesis_search(default_recipe_space(), args.budget)
        data = {"command": "oracle", "what": "search", **report.to_json()}
        _emit(data, args.json)
        return OK

    inst = _load(args, purpose="oracle")
    _verified(inst)
    data = {
        "command": "oracle",
        "what": args.what,
        "instance": inst.name,
        "field": inst.field.label,
    }
    if args.what == "ideals":
        agreement = True
        if args.side in ("L", "both"):
            data["L"] = _lattice_report(inst, "L")
            agreement = agreement and data["L"]["agreement"]
        if args.side in ("A", "both"):
            data["A"] = _lattice_report(inst, "A")
            agreement = agreement and data["A"]["agreement"]
        data["agreement"] = agreement
    else:
        paths = _paths_report(inst)
        data.update(paths)
        agreement = paths["agreement"]
    _emit(data, args.json)
    return OK if agreement else MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grlr",
        description="exact toolkit for graded Lie-Rinehart algebra instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, instance: bool = True) -> None:
        if instance:
            p.add_argument(
                "instance",
                help=f"catalog name ({', '.join(catalog_names())}) or path to a JSON instance file",
            )
        p.add_argument("--field", help="field override, e.g. q or gf5", default=None)
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="check every defining axiom")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classes", help="support partitions into connection classes")
    common(p)
    p.add_argument("--side", choices=("L", "A", "both"), default="both")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("decompose", help="class ideals, tightness, pairing")
    common(p)
    p.add_argument("--side", choices=("L", "A", "both"), default="both")
    p.add_argument("--fine", action="store_true", help="refine into gr-simple summands")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dot", help="connection graph in DOT format")
    common(p)
    p.add_argument("--side", choices=("L", "A"), default="L")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    p.add_argument("instance", nargs="?", default=None,
                   help="catalog name or JSON path (unused for --what search)")
    p.add_argument("--field", help="field override, e.g. gf5", default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--what", choices=("ideals", "paths", "search"), default="ideals")
    p.add_argument("--side", choices=("L", "A", "both"), default="both")
    p.add_argument("--budget", type=int, default=None, help="recipe budget for --what search")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.what != "search" and args.instance is None:
        print("error: an instance is required unless --what search", file=sys.stderr)
        return PARSE_FAIL
    if args.command == "oracle" and args.budget is not None and args.budget < 0:
        print(f"error: --budget must be at least 0, got {args.budget}", file=sys.stderr)
        return PARSE_FAIL
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_FAIL
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return GUARD_FAIL
    except ToolkitError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return MATH_FAIL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
