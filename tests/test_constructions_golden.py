"""Golden digest of the instances that the constructions build.

``constructions_golden.json`` holds the sha256 of the ``instance_to_json``
output of:

* every buildable recipe of ``default_recipe_space()`` (twists, direct
  sums and field carries);
* every catalog entry at its default field and at gf3, gf5 and gf7,
  where it builds;
* ``restrict_instance`` of each of those instances to every pair
  (L class ideal or full L, A class ideal or full A); a pair that is not
  closed records the error text instead.

A change that alters any table, basis name or error text fails here; if
the change is intended, re-record with

    PYTHONPATH=src python tests/test_constructions_golden.py

and review the diff of the JSON file.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from grlr.catalog import build, catalog_names
from grlr.decompose import decompose_A, decompose_L
from grlr.errors import ToolkitError
from grlr.fields import parse_field_label
from grlr.files import instance_to_json
from grlr.model import restrict_instance
from grlr.oracle import default_recipe_space, generate_instance

GOLDEN = Path(__file__).with_name("constructions_golden.json")

CATALOG_FIELDS = (None, "gf3", "gf5", "gf7")


def instances() -> list:
    out = []
    for recipe in default_recipe_space():
        try:
            out.append(generate_instance(recipe))
        except ToolkitError:
            continue
    for name in catalog_names():
        for label in CATALOG_FIELDS:
            try:
                out.append(build(name, None if label is None else parse_field_label(label)))
            except ToolkitError:
                continue
    return out


def subpairs(inst) -> list:
    """(name, L part, A part) of each pair of an L class ideal or the full
    L and an A class ideal or the full A, in the recorded order."""
    L_parts = [ideal.total for ideal in decompose_L(inst).ideals] + [inst.full_L()]
    A_parts = [ideal.total for ideal in decompose_A(inst).ideals] + [inst.full_A()]
    return [(f"{inst.name}|{i},{j}", L_sub, A_sub)
            for i, L_sub in enumerate(L_parts) for j, A_sub in enumerate(A_parts)]


def restrictions(inst) -> list:
    out = []
    for name, L_sub, A_sub in subpairs(inst):
        try:
            out.append(instance_to_json(restrict_instance(inst, L_sub, A_sub, name)))
        except ToolkitError as exc:
            out.append({"error": str(exc)})
    return out


def record() -> dict:
    built = instances()
    restricted = [r for inst in built for r in restrictions(inst)]
    payload = json.dumps([instance_to_json(inst) for inst in built] + restricted, sort_keys=True)
    return {
        "instances": len(built),
        "restrictions": len(restricted),
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


def test_constructions_match_recorded_digest():
    assert record() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN}", file=sys.stderr)
