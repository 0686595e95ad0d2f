"""Reading and writing instances as JSON.

The on-disk shape is name-keyed and scalar-as-string, so files stay
diffable and field-exact:

    {
      "name": "e1",
      "field": "q",
      "group": {"free_rank": 1, "torsion": []},
      "L": [{"name": "e", "grade": [1]}, {"name": "f", "grade": [-1]}, ...],
      "A": [{"name": "one", "grade": [0]}],
      "bracket": [{"left": "e", "right": "f", "value": [["h", "1"]]}, ...],
      "product": [{"left": "one", "right": "one", "value": [["one", "1"]]}],
      "action": [{"left": "one", "right": "e", "value": [["e", "1"]]}, ...],
      "anchor": []
    }

Pairs not listed in a table are zero.  The bracket may be given in a
single orientation; the mirror entry is filled in with negated values.
If both orientations are present they must agree up to sign.  The
product is symmetrized the same way.  Files that violate the grading
are loaded as-is so the verifier can report the violation rather than
the parser.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .errors import InstanceFormatError, ScalarParseError
from .fields import Field, field_from_json, parse_field_label
from .groups import GroupSpec
from .linear import BilinearRule, GradedBasis, Sparse
from .model import RULES, AlgebraInstance

# rules stored in one orientation, with the sign of the mirror entry
_MIRROR_SIGN = {"bracket": -1, "product": 1}


def _parse_basis(field: Field, group: GroupSpec, raw: Any, what: str) -> GradedBasis:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{what} must be a list of {{name, grade}} objects")
    entries = []
    for item in raw:
        if not (isinstance(item, Mapping) and set(item) == {"name", "grade"}):
            raise InstanceFormatError(f"bad {what} entry {item!r}; expected {{name, grade}}")
        name, grade = item["name"], item["grade"]
        if not isinstance(name, str):
            raise InstanceFormatError(f"{what} entry name {name!r} must be a string")
        if not (isinstance(grade, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in grade)):
            raise InstanceFormatError(f"grade of {what} entry {name!r} must be a list of integers")
        if len(grade) != group.free_rank + len(group.torsion):
            raise InstanceFormatError(
                f"grade of {what} entry {name!r} has length {len(grade)}, "
                f"group needs {group.free_rank + len(group.torsion)}"
            )
        try:
            entries.append((name, group.check(tuple(grade))))
        except ValueError as exc:
            raise InstanceFormatError(f"grade of {what} entry {name!r}: {exc}") from None
    try:
        return GradedBasis(entries)
    except ValueError as exc:
        raise InstanceFormatError(f"{what}: {exc}") from None


def _parse_scalar(field: Field, raw: Any, where: str):
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InstanceFormatError(f"{where}: scalar must be a string or integer, got {raw!r}")
    try:
        return field.parse(str(raw))
    except ScalarParseError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from None


def _parse_image(field: Field, out: GradedBasis, raw: Any, where: str) -> Sparse:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{where}: value must be a list of [name, scalar] pairs")
    img: Sparse = {}
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
            raise InstanceFormatError(f"{where}: bad value term {pair!r}")
        name, val = pair
        try:
            pos = out.position_of(name)
        except KeyError:
            raise InstanceFormatError(f"{where}: unknown output name {name!r}") from None
        if pos in img:
            raise InstanceFormatError(f"{where}: output name {name!r} listed twice")
        c = _parse_scalar(field, val, f"{where}[{name}]")
        if not field.is_zero(c):
            img[pos] = c
    return img


def _parse_rule(
    rule: str, field: Field, group: GroupSpec,
    left: GradedBasis, right: GradedBasis, out: GradedBasis, raw: Any,
) -> BilinearRule:
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{rule} must be a list of {{left, right, value}} objects")
    table: dict[tuple[int, int], Sparse] = {}
    for item in raw:
        if not (isinstance(item, Mapping) and set(item) == {"left", "right", "value"}):
            raise InstanceFormatError(f"bad {rule} entry {item!r}; expected {{left, right, value}}")
        lname, rname, img_raw = item["left"], item["right"], item["value"]
        if not (isinstance(lname, str) and isinstance(rname, str)):
            raise InstanceFormatError(f"{rule}: left and right must be basis names")
        try:
            i = left.position_of(lname)
        except KeyError:
            raise InstanceFormatError(f"{rule}: unknown left name {lname!r}") from None
        try:
            j = right.position_of(rname)
        except KeyError:
            raise InstanceFormatError(f"{rule}: unknown right name {rname!r}") from None
        if (i, j) in table:
            raise InstanceFormatError(f"{rule}: duplicate entry for ({lname}, {rname})")
        table[(i, j)] = _parse_image(field, out, img_raw, f"{rule}({lname}, {rname})")

    if rule in _MIRROR_SIGN:
        sign = _MIRROR_SIGN[rule]
        for (i, j) in sorted(table):
            if i == j:
                continue
            mirror = {k: field.mul(field.from_int(sign), c) for k, c in table[(i, j)].items()}
            if (j, i) in table:
                if table[(j, i)] != mirror:
                    raise InstanceFormatError(
                        f"{rule}: entries for ({left.name_of(i)}, {right.name_of(j)}) and "
                        f"({left.name_of(j)}, {right.name_of(i)}) are inconsistent"
                    )
            else:
                table[(j, i)] = mirror
    return BilinearRule(rule, field, group, left, right, out, table)


def instance_from_json(data: Any) -> AlgebraInstance:
    if not isinstance(data, Mapping):
        raise InstanceFormatError("instance file must be a JSON object")
    unknown = set(data) - {"name", "field", "group", "L", "A", *(rname for rname, _ in RULES)}
    if unknown:
        raise InstanceFormatError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("field", "group", "L", "A"):
        if key not in data:
            raise InstanceFormatError(f"missing required key {key!r}")
    raw_field = data["field"]
    try:
        field = parse_field_label(raw_field) if isinstance(raw_field, str) else field_from_json(raw_field)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    try:
        group = GroupSpec.from_json(data["group"])
    except (TypeError, ValueError, KeyError) as exc:
        raise InstanceFormatError(f"bad group: {exc}") from None
    L = _parse_basis(field, group, data["L"], "L")
    A = _parse_basis(field, group, data["A"], "A")
    bases = {"L": L, "A": A}
    rules = [_parse_rule(r, field, group, *(bases[b] for b in dom), data.get(r)) for r, dom in RULES]
    name = data.get("name", "instance")
    if not isinstance(name, str):
        raise InstanceFormatError("name must be a string")
    return AlgebraInstance(name, field, group, L, A, *rules)


def _dump_basis(basis: GradedBasis) -> list:
    return [{"name": name, "grade": list(grade)} for name, grade in basis.entries]


def _dump_rule(rule: BilinearRule, one_sided: bool) -> list:
    items = []
    for (i, j) in sorted(rule.table):
        if one_sided and j < i:
            continue
        img = rule.table[(i, j)]
        value = [[rule.out.name_of(k), rule.field.format(c)] for k, c in sorted(img.items())]
        items.append({"left": rule.left.name_of(i), "right": rule.right.name_of(j), "value": value})
    return items


def instance_to_json(inst: AlgebraInstance) -> dict:
    return {
        "name": inst.name,
        "field": inst.field.label,
        "group": inst.group.to_json(),
        "L": _dump_basis(inst.L),
        "A": _dump_basis(inst.A),
        **{rname: _dump_rule(getattr(inst, rname), rname in _MIRROR_SIGN) for rname, _ in RULES},
    }


def load_instance(path: str | Path) -> AlgebraInstance:
    p = Path(path)
    if not p.exists():
        raise InstanceFormatError(f"no such file: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{p}: invalid JSON: {exc}") from None
    return instance_from_json(data)


def dump_instance(inst: AlgebraInstance, path: str | Path | None = None) -> dict:
    data = instance_to_json(inst)
    if path is not None:
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")
    return data


def resolve_instance(arg: str, field_label: str | None = None, purpose: str = "display") -> AlgebraInstance:
    """Turn a CLI argument into an instance.

    Catalog names resolve through the catalog (with its per-entry field
    defaults and characteristic guards); anything else is read as a path
    to a JSON file.  A field override on a file triggers a carry into
    that field, which only works from rational structure constants.
    """
    from .catalog import CATALOG, build
    from .constructions import to_field

    if arg in CATALOG:
        fld = None
        if field_label is not None:
            try:
                fld = parse_field_label(field_label)
            except ValueError as exc:
                raise InstanceFormatError(str(exc)) from None
        return build(arg, fld, purpose)
    inst = load_instance(arg)
    if field_label is not None:
        try:
            fld = parse_field_label(field_label)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from None
        if fld != inst.field:
            inst = to_field(inst, fld)
    return inst
