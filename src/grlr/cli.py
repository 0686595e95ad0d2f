"""Command-line front end.

Commands map onto the library one-to-one: verify (axiom suite),
classes (support partitions with witness paths), decompose (class
ideals, tightness, pairing, optional fine pipeline), dot (connection
graph export) and oracle (brute-force cross-checks).

Each command is one row of ``COMMANDS``: help text; handler, taking
``(args, inst)`` and returning the exit code and the report (a dict,
rendered as text or ``--json``, or DOT text, which ``dot --json`` puts
under a ``dot`` key); own flags, the instance argument included; load
``purpose`` (``display`` or ``oracle``, see ``catalog.build``); whether
to run ``verify_all`` first; and the flags the header echoes.
``--field`` and ``--json`` are added to every row in one loop, and the
parser is built once, at import.  ``main`` is the one runner: it
parses, makes the ``oracle`` checks argparse cannot express (an
instance unless ``--what search``, which takes no instance, ``--field``
or ``--side``; ``--budget`` only with search, and at least 0), loads and
verifies the instance as the row says, calls the handler and prints the
report behind its ``{command, instance, field}`` header.  It maps
errors to exit codes: 0 success, 1 mathematical failure (axioms,
cross-check, or any other ``ToolkitError``: ``failed:``), 2 unreadable
input (``InstanceFormatError`` or a bad argument: ``error:``), 3 refused
guard (``GuardError``: ``refused:``).  If the reader closes stdout
early, the rest of the output is dropped without a message and the exit
code is the command's own.

Handlers call the library through attribute lookups at call time
(``conn.sigma_classes``, ``dec.decompose_L``) and the table holds only
this module's handlers, so a tool that replaces module bindings, such
as the benchmark's tracer, sees every call.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, NamedTuple

from . import connections as conn
from . import decompose as dec
from . import simplicity as simp
from .catalog import catalog_names
from .errors import GuardError, InstanceFormatError, ToolkitError
from .files import resolve_instance
from .model import AlgebraInstance, verify_all
from .groups import format_grade
# bilinear_image is unused here, but bench/selftest.py checks that the
# benchmark's tracer wraps it in this module; it goes with that check
from .linear import bilinear_image  # noqa: F401

OK, MATH_FAIL, PARSE_FAIL, GUARD_FAIL = 0, 1, 2, 3
# side -> the name of its connection relation and support in ``connections``
RELATION = {"L": "sigma", "A": "lambda"}


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


def _verified(inst: AlgebraInstance) -> None:
    report = verify_all(inst)
    if not report.passed:
        first = report.failed_checks()[0]
        raise ToolkitError(f"instance fails verification: {first.name} (witness {first.witness})")


def _sides(args: argparse.Namespace) -> list[str]:
    """The sides "L" and "A" that ``--side`` selects, in that order."""
    return [side for side in ("L", "A") if args.side in (side, "both")]


def _partition(sup: conn.Supports, side: str) -> conn.ConnectionPartition:
    return conn.sigma_classes(sup) if side == "L" else conn.lambda_classes(sup)


def _partition_json(sup: conn.Supports, side: str) -> dict:
    part = _partition(sup, side)
    witnesses = []
    for (g, h) in sorted(part.witness):
        path = part.witness[(g, h)]
        witnesses.append({
            "from": format_grade(g),
            "to": format_grade(h),
            "path": [format_grade(x) for x in path],
            "valid": conn.validate_connection_path(sup, RELATION[side], path, g, h),
        })
    return {
        "classes": part.to_json(),
        "count": len(part.classes),
        "witness_paths": witnesses,
    }


def cmd_verify(args: argparse.Namespace, inst: AlgebraInstance) -> tuple[int, dict]:
    report = verify_all(inst)
    return (OK if report.passed else MATH_FAIL), report.to_json()


def cmd_classes(args: argparse.Namespace, inst: AlgebraInstance) -> tuple[int, dict]:
    sup = conn.supports(inst)
    supports = {name: [format_grade(g) for g in sorted(sup.base(name))] for name in RELATION.values()}
    data: dict = {"supports": supports}
    for side in _sides(args):
        data[f"{RELATION[side]}_partition"] = _partition_json(sup, side)
    return OK, data


def cmd_decompose(args: argparse.Namespace, inst: AlgebraInstance) -> tuple[int, dict]:
    tightness = dec.check_tight(inst)
    data: dict = {"tightness": tightness.to_json()}
    sides = _sides(args)
    # --fine needs both class reports and their pairing, whichever sides are printed
    reports = {side: dec.decompose_L(inst) if side == "L" else dec.decompose_A(inst)
               for side in ("L", "A") if args.fine or side in sides}
    for side in sides:
        data[side] = reports[side].to_json()
    if len(reports) == 2:
        L_rep, A_rep = reports["L"], reports["A"]
        pairing = dec.pair_ideals(inst, L_rep, A_rep, tightness.tight)
        if len(sides) == 2:
            data["pairing"] = pairing.to_json()
        if args.fine:
            hyp = simp._hypotheses(inst, tightness.conditions.items(), L_rep.partition, A_rep.partition)
            fine = simp._refine(inst, hyp, L_rep, A_rep, pairing) if hyp.all_hold else simp._unrefined(hyp)
            data["fine"] = fine.to_json()
    return OK, data


def cmd_dot(args: argparse.Namespace, inst: AlgebraInstance) -> tuple[int, dict | str]:
    dot = conn.connection_graph_dot(conn.supports(inst), RELATION[args.side])
    return OK, ({"dot": dot} if args.json else dot)


def _lattice_report(inst: AlgebraInstance, side: str) -> dict:
    from .oracle import enumerate_graded_ideals_A, enumerate_graded_ideals_L

    if side == "L":
        lattice, rep, verdict = enumerate_graded_ideals_L(inst), dec.decompose_L(inst), simp.gr_simple_L(inst)
    else:
        lattice, rep, verdict = enumerate_graded_ideals_A(inst), dec.decompose_A(inst), simp.gr_simple_A(inst)
    trivial = simp._trivial_ideals(inst, side)
    fast = trivial + [("ideal " + "/".join(ci.label_json()), ci.total) for ci in rep.ideals]
    missing = [label for label, sub in fast if sub not in lattice]
    # the instance is verified, so each whole-side product is nonzero iff its table is
    products_ok = all(getattr(inst, name).table for name, _ in simp._PRODUCTS[side])
    lattice_simple = products_ok and all(s in [sub for _, sub in trivial] for s in lattice)
    simplicity_agreement = verdict.status == "undecided" or (verdict.status == "gr_simple") == lattice_simple
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


def _paths_report(inst: AlgebraInstance, sides: list[str]) -> dict:
    from .oracle import enumerate_connections

    sup = conn.supports(inst)
    listed = {}
    for side in sides:
        name = RELATION[side]
        part = _partition(sup, side)
        base = sorted(sup.base(name))
        pairs = []
        for g in base:
            for h in base:
                bfs = part.class_of(g) == part.class_of(h)
                found = bool(enumerate_connections(sup, g, h, name))
                pairs.append({
                    "from": format_grade(g),
                    "to": format_grade(h),
                    "bfs_connected": bfs,
                    "enumeration_connected": found,
                    "agree": bfs == found,
                })
        listed[name] = {"pairs": pairs, "classes": part.to_json()}
    return {"sides": listed, "agreement": all(pair["agree"] for s in listed.values() for pair in s["pairs"])}


def cmd_oracle(args: argparse.Namespace, inst: AlgebraInstance | None) -> tuple[int, dict]:
    if args.what == "search":
        from .oracle import default_recipe_space, hypothesis_search

        return OK, hypothesis_search(default_recipe_space(), args.budget).to_json()
    if args.what == "ideals":
        data = {side: _lattice_report(inst, side) for side in _sides(args)}
        data["agreement"] = all(report["agreement"] for report in data.values())
    else:
        data = _paths_report(inst, _sides(args))
    return (OK if data["agreement"] else MATH_FAIL), data


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace, AlgebraInstance | None], tuple[int, dict | str]]
    flags: tuple[tuple[tuple[str, ...], dict], ...]
    purpose: str = "display"
    verify: bool = True
    echo: tuple[str, ...] = ()


def _flag(*names: str, **options: Any) -> tuple[tuple[str, ...], dict]:
    return names, options


_INSTANCE = _flag("instance", help=f"catalog name ({', '.join(catalog_names())}) or path to a JSON instance file")
_SIDES = _flag("--side", choices=("L", "A", "both"), default="both")

COMMANDS = {
    "verify": Command("check every defining axiom", cmd_verify, (_INSTANCE,), verify=False),
    "classes": Command("support partitions into connection classes", cmd_classes, (_INSTANCE, _SIDES)),
    "decompose": Command("class ideals, tightness, pairing", cmd_decompose, (
        _INSTANCE, _SIDES, _flag("--fine", action="store_true", help="refine into gr-simple summands"),
    )),
    "dot": Command("connection graph in DOT format", cmd_dot, (
        _INSTANCE, _flag("--side", choices=("L", "A"), default="L"),
    )),
    "oracle": Command("brute-force cross-checks", cmd_oracle, (
        _flag("instance", nargs="?", default=None, help="catalog name or JSON path (none for --what search)"),
        _flag("--what", choices=("ideals", "paths", "search"), default="ideals"),
        _SIDES,
        _flag("--budget", type=int, default=None, help="recipe budget for --what search"),
    ), purpose="oracle", echo=("what",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grlr",
        description="exact toolkit for graded Lie-Rinehart algebra instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("--field", help="field override, e.g. q or gf5", default=None)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for names, options in row.flags:
            p.add_argument(*names, **options)
    return parser


PARSER = build_parser()


def _fail(prefix: str, message: Any, code: int) -> int:
    print(f"{prefix}: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    row = COMMANDS[args.command]
    if args.command == "oracle":
        if args.what == "search":
            unused = [flag for flag, given in (("an instance", args.instance is not None),
                                               ("--field", args.field is not None),
                                               ("--side", args.side != "both")) if given]
            if unused:
                return _fail("error", f"--what search does not take {', '.join(unused)}", PARSE_FAIL)
        elif args.instance is None:
            return _fail("error", "an instance is required unless --what search", PARSE_FAIL)
        elif args.budget is not None:
            return _fail("error", "--budget applies only to --what search", PARSE_FAIL)
        if args.budget is not None and args.budget < 0:
            return _fail("error", f"--budget must be at least 0, got {args.budget}", PARSE_FAIL)
    try:
        inst = None if args.instance is None else resolve_instance(args.instance, args.field, row.purpose)
        if inst is not None and row.verify:
            _verified(inst)
        code, report = row.handler(args, inst)
    except InstanceFormatError as exc:
        return _fail("error", exc, PARSE_FAIL)
    except GuardError as exc:
        return _fail("refused", exc, GUARD_FAIL)
    except ToolkitError as exc:
        return _fail("failed", exc, MATH_FAIL)
    try:
        if isinstance(report, str):
            print(report)
        else:
            head = {"command": args.command, **{flag: vars(args)[flag] for flag in row.echo}}
            if inst is not None:
                head.update(instance=inst.name, field=inst.field.label)
            report = {**head, **report}
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                _render(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
