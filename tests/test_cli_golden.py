"""Golden digests of CLI output, to pin every byte across refactors.

``cli_golden.json`` maps each command line (arguments joined by spaces)
to its exit code and the sha256 of its stdout, as produced by
``grlr.cli.main``.  A change that alters any covered output fails here;
if the change is intended, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.  The same module checks that the
one parser built at import serves call after call with nothing carried
over, and that each subcommand keeps its flags, choices and defaults.
"""
from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import grlr.cli
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


def test_reused_parser_leaks_nothing_between_calls(monkeypatch):
    # the parser is built once, at import; a flag or mode of one call must
    # not reach the next, so each output equals its fresh-parser golden
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(grlr.cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    search = {"command": "oracle", "what": "search", "examined": 0, "rejections": [], "survivors": []}
    search_text = json.dumps(search, indent=2, sort_keys=True) + "\n"
    steps = {
        "decompose e3 --fine --json": golden["decompose e3 --fine --json"],
        "decompose e3 --json": golden["decompose e3 --json"],
        "oracle --what search --budget 0 --json": {
            "exit": 0, "sha256": hashlib.sha256(search_text.encode()).hexdigest(),
        },
        "oracle e2 --what ideals --json": golden["oracle e2 --what ideals --json"],
        "dot e3 --side A": golden["dot e3 --side A"],
        "dot e3": golden["dot e3 --side L"],
    }
    for command, expected in steps.items():
        assert run(command.split()) == expected, command


# each command's own flags before the command table: flag -> (metavar or choices, default)
COMMON_FLAGS = {"--field": ("FIELD", None), "--json": (None, False)}
SIDES = ("{L,A,both}", "both")
FLAGS = {
    "verify": {},
    "classes": {"--side": SIDES},
    "decompose": {"--side": SIDES, "--fine": (None, False)},
    "dot": {"--side": ("{L,A}", "L")},
    "oracle": {"--what": ("{ideals,paths,search}", "ideals"), "--side": SIDES, "--budget": ("BUDGET", None)},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_the_same_flags_choices_and_defaults(command):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = out.getvalue()
    flags = {**COMMON_FLAGS, **FLAGS[command]}
    assert set(re.findall(r"--\w+", text)) == {"--help", *flags}
    for flag, (shown, _) in flags.items():
        assert (f"{flag} {shown}" if shown else flag) in text
    assert "positional arguments:\n  instance" in text
    defaults = {flag[2:]: default for flag, (_, default) in flags.items()}
    assert vars(grlr.cli.PARSER.parse_args([command, "e1"])) == {"command": command, "instance": "e1", **defaults}
    if command == "oracle":
        assert grlr.cli.PARSER.parse_args([command]).instance is None


if __name__ == "__main__":
    record = {" ".join(argv): run(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} commands in {GOLDEN}", file=sys.stderr)
