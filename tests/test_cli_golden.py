"""Golden digests of CLI output, to pin every byte across refactors.

``cli_golden.json`` maps each command line (arguments joined by spaces)
to its exit code and the sha256 of its stdout, as produced by
``grlr.cli.main``.  A change that alters any covered output fails here;
if the change is intended, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from grlr.catalog import catalog_names
from grlr.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FIELDS = ([], ["--field", "gf3"])
VARIANTS = (
    ["verify"],
    ["verify", "--json"],
    ["classes"],
    ["classes", "--json"],
    ["dot", "--side", "L"],
    ["dot", "--side", "A"],
    ["decompose", "--json"],
    ["decompose", "--fine", "--json"],
    ["decompose", "--fine"],
    ["oracle", "--what", "paths", "--json"],
    ["oracle", "--what", "ideals", "--json"],
    ["oracle", "--what", "ideals", "--side", "A"],
    ["classes", "--side", "L", "--json"],
    ["classes", "--side", "A"],
    ["decompose", "--side", "L", "--json"],
    ["decompose", "--side", "A", "--fine", "--json"],
)


def commands() -> list[list[str]]:
    return [
        [variant[0], name, *variant[1:], *field]
        for name in catalog_names()
        for field in FIELDS
        for variant in VARIANTS
    ]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_golden_covers_every_command():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    record = {" ".join(argv): run(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} commands in {GOLDEN}", file=sys.stderr)
