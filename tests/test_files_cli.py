from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlr import (
    RATIONALS,
    AlgebraInstance,
    GradedBasis,
    GroupSpec,
    TemplateRecipe,
    dump_instance,
    generate_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    resolve_instance,
    verify_all,
)
import grlr.oracle
from grlr.cli import main
from grlr.errors import InstanceFormatError
from grlr.fields import MODULUS_LIMIT, prime_field
from grlr.linear import rule_from_names

from helpers import cached, mutate_instance, on_basis, reference_verify

CATALOG_NAMES = ["e1", "e2", "e3", "ga2", "ga3", "sl2_ga2"]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_round_trip_is_idempotent(name):
    inst = cached(name)
    once = instance_to_json(inst)
    again = instance_to_json(instance_from_json(once))
    assert json.dumps(once, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert verify_all(instance_from_json(once)).passed


def test_file_round_trip(tmp_path):
    path = tmp_path / "e2.json"
    dump_instance(cached("e2"), path)
    loaded = load_instance(path)
    assert loaded.L.dim == 3 and loaded.A.dim == 3
    assert verify_all(loaded).passed


def _minimal_doc():
    """A two-element bracket pair: one L generator at each of +/-1, unital A."""
    return {
        "name": "tiny",
        "field": "q",
        "group": {"free_rank": 1, "torsion": []},
        "L": [{"name": "v", "grade": [1]}, {"name": "w", "grade": [-1]}],
        "A": [{"name": "one", "grade": [0]}],
        "bracket": [],
        "product": [{"left": "one", "right": "one", "value": [["one", "1"]]}],
        "action": [
            {"left": "one", "right": "v", "value": [["v", "1"]]},
            {"left": "one", "right": "w", "value": [["w", "1"]]},
        ],
        "anchor": [],
    }


def test_minimal_document_loads_and_verifies():
    inst = instance_from_json(_minimal_doc())
    assert verify_all(inst).passed
    assert inst.L.dim == 2 and inst.A.dim == 1


def test_bracket_mirror_is_filled_antisymmetrically():
    doc = _minimal_doc()
    doc["bracket"] = [{"left": "v", "right": "w", "value": []}]
    inst = instance_from_json(doc)
    assert on_basis(inst.bracket, 1, 0) == {}
    doc["L"] = [{"name": "v", "grade": [1]}, {"name": "w", "grade": [-1]},
                      {"name": "z", "grade": [0]}]
    doc["bracket"] = [{"left": "v", "right": "w", "value": [["z", "1"]]}]
    doc["action"].append({"left": "one", "right": "z", "value": [["z", "1"]]})
    inst = instance_from_json(doc)
    assert on_basis(inst.bracket, 0, 1) == {2: inst.field.one}
    assert on_basis(inst.bracket, 1, 0) == {2: inst.field.neg(inst.field.one)}


def test_inconsistent_orientations_are_rejected():
    doc = _minimal_doc()
    doc["L"].append({"name": "z", "grade": [0]})
    doc["action"].append({"left": "one", "right": "z", "value": [["z", "1"]]})
    doc["bracket"] = [
        {"left": "v", "right": "w", "value": [["z", "1"]]},
        {"left": "w", "right": "v", "value": [["z", "1"]]},  # should be -1
    ]
    with pytest.raises(InstanceFormatError, match="inconsistent"):
        instance_from_json(doc)


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d.update(extra=1), "unknown top-level"),
    (lambda d: d["L"].append({"name": "v", "grade": [0]}), "duplicate basis names"),
    (lambda d: d["L"].append({"name": "x", "grade": [0, 0]}), "length 2, group needs 1"),
    (lambda d: d["L"].append({"name": "x", "grade": [0], "extra": 1}), "expected {name, grade}"),
    (lambda d: d["product"].append({"left": "one", "right": "nope", "value": []}), "nope"),
    (lambda d: d["product"].append({"left": "one", "right": "one", "value": []}), "duplicate"),
    (lambda d: d["product"][0].update(value=[["one", 0.5]]), "string or integer"),
    (lambda d: d["product"][0].update(value=[["one", "1/0"]]), "zero denominator"),
    (lambda d: d["product"][0].update(value=[["one", "1"], ["one", "2"]]), "listed twice"),
    (lambda d: d.update(field="gf4"), "not prime"),
    (lambda d: d.update(group={"free_rank": -1, "torsion": []}), "bad group"),
    # numbers must be JSON integers: no floats, bools or digit strings
    (lambda d: d.update(group={"free_rank": 1.5, "torsion": []}), "must be integers, got 1.5"),
    (lambda d: d.update(group={"free_rank": True, "torsion": []}), "must be integers, got True"),
    (lambda d: d.update(group={"free_rank": "1", "torsion": []}), "must be integers, got '1'"),
    (lambda d: d.update(group={"free_rank": 1, "torsion": "35"}), "torsion must be a list"),
    (lambda d: d.update(group={"free_rank": 1, "torsion": [2.0]}), "must be integers, got 2.0"),
    (lambda d: d.update(field={"kind": "prime", "p": 5.9}), "p must be an integer, got 5.9"),
    (lambda d: d.update(field={"kind": "prime", "p": True}), "p must be an integer, got True"),
    # every grade would be a tuple of a billion zeros
    (lambda d: d.update(group={"free_rank": 10**9, "torsion": []}, L=[], A=[], bracket=[], product=[],
                        action=[], anchor=[]), "rank 1000000000 exceeds the bound 64"),
    (lambda d: d.update(group={"free_rank": 60, "torsion": [2] * 5}, L=[], A=[], bracket=[], product=[],
                        action=[], anchor=[]), "rank 65 exceeds the bound 64"),
])
def test_malformed_documents_are_rejected(mangle, needle):
    doc = _minimal_doc()
    mangle(doc)
    with pytest.raises(InstanceFormatError) as err:
        instance_from_json(doc)
    assert needle.lower() in str(err.value).lower()


def _limited_run(argv, cwd) -> subprocess.CompletedProcess:
    """``python -m grlr argv`` with its address space limited to 1 GiB, so
    that a command which would exhaust memory fails instead of the host."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "grlr", *argv], cwd=cwd, capture_output=True, text=True,
                          preexec_fn=limit, timeout=120)


def test_group_rank_is_refused_before_any_grade_is_built(tmp_path):
    doc = {"field": "q", "group": {"free_rank": 10**9, "torsion": []}, "L": [], "A": []}
    (tmp_path / "rank.json").write_text(json.dumps(doc))
    proc = _limited_run(["classes", "rank.json"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# past CPython's integer-string digit limit (4300 digits by default)
_LONG = "1" + "0" * 5000


def _long_literal_doc(kind: str) -> str:
    """The minimal document as text, with one scalar or grade of 5001 digits."""
    doc = _minimal_doc()
    if kind == "scalar":
        doc["product"][0]["value"][0][1] = _LONG
    elif kind == "fraction":
        doc["product"][0]["value"][0][1] = "1/" + _LONG
    elif kind == "json_scalar":
        doc["product"][0]["value"][0][1] = "LONG"
    else:
        doc["L"][0]["grade"] = ["LONG"]
    return json.dumps(doc).replace('"LONG"', _LONG)


@pytest.mark.parametrize("kind", ["scalar", "fraction", "json_scalar", "grade"])
def test_over_long_literals_are_refused_by_every_subcommand(tmp_path, kind):
    (tmp_path / "long.json").write_text(_long_literal_doc(kind))
    for argv in (["verify"], ["classes"], ["decompose", "--fine"], ["dot"], ["oracle", "--what", "paths"]):
        proc = _limited_run([argv[0], "long.json", *argv[1:]], tmp_path)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, (argv, proc.stderr)
        assert "digits" in proc.stderr and "set_int_max_str_digits" not in proc.stderr, proc.stderr


def test_over_long_field_label_names_its_modulus(tmp_path):
    proc = _limited_run(["verify", "sl2_ga2", "--field", "gf" + "1" * 5000], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: field label modulus has 5000 digits: primality is decided below {MODULUS_LIMIT}\n"


def test_unreadable_files_are_refused(tmp_path, monkeypatch, capsys):
    assert main(["verify", str(tmp_path)]) == 2  # a directory
    assert "unreadable" in capsys.readouterr().err
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + json.dumps(_minimal_doc()).encode("utf-16-le"))
    assert main(["verify", str(utf16)]) == 2
    assert "unreadable" in capsys.readouterr().err
    locked = tmp_path / "locked.json"
    locked.write_text(json.dumps(_minimal_doc()), encoding="utf-8")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(type(locked), "read_text", refuse)
    with pytest.raises(InstanceFormatError, match="Permission denied"):
        load_instance(locked)


def test_deeply_nested_json_is_refused(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_resolve_instance_prefers_catalog_then_file(tmp_path):
    byname = resolve_instance("e2")
    assert byname.name == "e2"
    path = tmp_path / "inst.json"
    dump_instance(cached("ga2"), path)
    byfile = resolve_instance(str(path))
    assert byfile.A.dim == 2
    with pytest.raises(InstanceFormatError):
        resolve_instance(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# command line


def test_cli_verify_ok(capsys):
    assert main(["verify", "e2"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and "yes" in out


def test_cli_verify_json(capsys):
    assert main(["verify", "e2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert len(data["checks"]) == 14


def test_cli_verify_failure_exits_one(tmp_path, capsys):
    bad, _ = mutate_instance(cached("e2"), 0)
    path = tmp_path / "bad.json"
    dump_instance(bad, path)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "no" in out


def test_cli_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["gf4", "r"])
def test_cli_bad_field_label_exits_two_for_catalog_and_file(tmp_path, capsys, label):
    path = tmp_path / "e2.json"
    dump_instance(cached("e2"), path)
    for instance in ("e2", str(path)):
        assert main(["verify", instance, "--field", label]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_guard_exits_three(capsys):
    assert main(["verify", "e2", "--field", "gf5"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_cli_refuses_math_on_failing_instance(tmp_path, capsys):
    bad, _ = mutate_instance(cached("e2"), 1)
    path = tmp_path / "bad.json"
    dump_instance(bad, path)
    assert main(["decompose", str(path)]) == 1
    assert "fails verification" in capsys.readouterr().err


def test_cli_classes_output(capsys):
    assert main(["classes", "e3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma_partition"]["count"] == 2
    assert data["lambda_partition"]["count"] == 2
    assert all(w["valid"] for w in data["sigma_partition"]["witness_paths"])


def test_cli_classes_single_side(capsys):
    assert main(["classes", "e3", "--side", "L", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "sigma_partition" in data and "lambda_partition" not in data


def test_cli_decompose_full(capsys):
    assert main(["decompose", "e3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tightness"]["tight"] is True
    assert data["L"]["direct"] and data["A"]["direct"]
    assert data["pairing"]["contradiction"] is False
    assert "fine" not in data


def test_cli_decompose_fine(capsys):
    assert main(["decompose", "sl2_ga2", "--field", "gf3", "--fine", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fine"]["refined"] is True
    assert {s["verdict"]["status"] for s in data["fine"]["summands"]} == {"gr_simple"}


def test_cli_decompose_is_deterministic(capsys):
    assert main(["decompose", "e3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["decompose", "e3", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_dot(capsys):
    assert main(["dot", "e3", "--side", "L"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph sigma_connections")
    assert main(["dot", "e3", "--side", "A"]) == 0
    assert capsys.readouterr().out.startswith("digraph lambda_connections")


@pytest.mark.parametrize("side", ["L", "A"])
def test_cli_dot_json_puts_the_graph_under_a_dot_key(side, capsys):
    assert main(["dot", "e3", "--side", side]) == 0
    text = capsys.readouterr().out
    assert main(["dot", "e3", "--side", side, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"command": "dot", "instance": "e3", "field": "gf3", "dot": text.removesuffix("\n")}


@pytest.mark.parametrize("argv, code", [
    (["oracle", "e1", "--what", "paths", "--json"], 0),
    (["dot", "e3"], 0),
    (["verify", "{broken}"], 1),
])
def test_cli_exits_quietly_when_stdout_is_closed(argv, code, tmp_path):
    # the read end of stdout's pipe is closed before the command writes
    broken, _ = mutate_instance(cached("e2"), 0)
    dump_instance(broken, tmp_path / "broken.json")
    argv = [arg.replace("{broken}", str(tmp_path / "broken.json")) for arg in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "grlr", *argv], stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_cli_exits_quietly_when_the_reader_stops_early():
    # as `grlr oracle e1 --what paths --json | head -c 100`
    proc = subprocess.Popen([sys.executable, "-m", "grlr", "oracle", "e1", "--what", "paths", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cli_oracle_ideals(capsys):
    assert main(["oracle", "e2", "--what", "ideals", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement"] is True
    assert data["L"]["count"] == 2 and data["A"]["count"] == 4


def test_cli_oracle_paths(capsys):
    assert main(["oracle", "e3", "--what", "paths", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement"] is True


@pytest.mark.parametrize("side, listed", [("L", ["sigma"]), ("A", ["lambda"]), ("both", ["lambda", "sigma"])])
def test_cli_oracle_paths_lists_the_chosen_sides(side, listed, capsys):
    assert main(["oracle", "e3", "--what", "paths", "--side", side, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["sides"]) == listed and data["agreement"] is True


def test_cli_oracle_paths_agreement_covers_the_listed_sides_only(monkeypatch, capsys):
    # an enumeration that finds nothing on the lambda side disagrees there only
    real = grlr.oracle.enumerate_connections
    monkeypatch.setattr(grlr.oracle, "enumerate_connections",
                        lambda sup, g, h, side: [] if side == "lambda" else real(sup, g, h, side))
    assert main(["oracle", "e3", "--what", "paths", "--side", "L", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["agreement"] is True
    assert main(["oracle", "e3", "--what", "paths", "--side", "A", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["agreement"] is False


def test_cli_oracle_paths_refuses_an_oversized_search(tmp_path, capsys):
    # the first sigma pair alone would take 319,466,010 search steps
    path = tmp_path / "sl2_ga2_twice.json"
    dump_instance(generate_instance(TemplateRecipe("double", "sl2_ga2", "gf3", (("sum", "sl2_ga2"),))), path)
    start = time.perf_counter()
    assert main(["oracle", str(path), "--what", "paths"]) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == "" and "refused:" in captured.err


def test_cli_verify_of_a_wide_abelian_L_is_fast(tmp_path, capsys):
    # 3,000 basis elements of L at one grade, no bracket, A = F acting by
    # identity: 2.7*10^10 Jacobi triples, but only 6,002 nested products
    # of table entries
    f, G = RATIONALS, GroupSpec(1)
    names = [f"v{k}" for k in range(3000)]
    L = GradedBasis((n, (0,)) for n in names)
    A = GradedBasis([("one", (0,))])
    inst = AlgebraInstance(
        "wide", f, G, L, A,
        rule_from_names("bracket", f, G, L, L, L, {}),
        rule_from_names("product", f, G, A, A, A, {("one", "one"): {"one": f.one}}),
        rule_from_names("action", f, G, A, L, L, {("one", n): {n: f.one} for n in names}),
        rule_from_names("anchor", f, G, L, A, A, {}),
    )
    path = tmp_path / "wide.json"
    dump_instance(inst, path)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - start < 3.0
    capsys.readouterr()


def test_cli_verify_of_a_dense_failing_bracket_stops_early(tmp_path, capsys):
    # 24 basis elements of L at one grade with every bracket coefficient
    # nonzero: Jacobi fails at the first triple.  The laws are summed one
    # value of the first argument at a time, so verify stops in the first
    # block instead of summing all 914,112 nested Jacobi products
    f, G = prime_field(7), GroupSpec(1)
    rng = random.Random(24)
    names = [f"v{k}" for k in range(24)]
    L = GradedBasis((n, (0,)) for n in names)
    A = GradedBasis([("one", (0,))])
    bracket = {}
    for i, u in enumerate(names):
        for w in names[i + 1:]:
            image = {n: rng.randrange(1, 7) for n in names}
            bracket[(u, w)] = image
            bracket[(w, u)] = {n: 7 - c for n, c in image.items()}
    inst = AlgebraInstance(
        "dense", f, G, L, A,
        rule_from_names("bracket", f, G, L, L, L, bracket),
        rule_from_names("product", f, G, A, A, A, {("one", "one"): {"one": f.one}}),
        rule_from_names("action", f, G, A, L, L, {("one", n): {n: f.one} for n in names}),
        rule_from_names("anchor", f, G, L, A, A, {}),
    )
    path = tmp_path / "dense.json"
    dump_instance(inst, path)
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()
    assert [c.to_json() for c in verify_all(inst).checks] == reference_verify(inst)
    assert [c.name for c in verify_all(inst).failed_checks()] == ["lie.jacobi"]


def test_cli_oracle_search(capsys):
    assert main(["oracle", "--what", "search", "--budget", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["examined"] == 4
    assert {r["label"] for r in data["rejections"]} >= {"e1@q", "e1@gf3"}


def test_cli_oracle_search_refuses_negative_budget(capsys):
    assert main(["oracle", "--what", "search", "--budget", "-198", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget must be at least 0" in captured.err
    assert main(["oracle", "--what", "search", "--budget", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["examined"] == 0


def test_cli_oracle_requires_instance_except_search(capsys):
    assert main(["oracle", "--what", "ideals"]) == 2
    assert "instance is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv, refused", [
    (["oracle", "nosuchfile", "--what", "search", "--budget", "1", "--field", "bogus", "--side", "A"],
     "--what search does not take an instance, --field, --side"),
    (["oracle", "e1", "--what", "search"], "--what search does not take an instance"),
    (["oracle", "--what", "search", "--field", "gf3"], "--what search does not take --field"),
    (["oracle", "--what", "search", "--side", "L"], "--what search does not take --side"),
    (["oracle", "e1", "--budget", "3"], "--budget applies only to --what search"),
    (["oracle", "e1", "--what", "paths", "--budget", "0"], "--budget applies only to --what search"),
])
def test_cli_oracle_refuses_flags_its_mode_ignores(argv, refused, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {refused}\n"


def test_cli_oracle_resolves_catalog_over_enumeration_field(capsys):
    # catalog names are rebuilt over their enumeration-safe field for oracle runs
    assert main(["oracle", "e1", "--what", "ideals", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["field"] == "gf5"
    assert data["agreement"] is True


def test_cli_oracle_ideals_over_a_large_prime_lists_no_field(tmp_path):
    # e1's blocks all have dimension 1: two subspaces each, whatever p is
    proc = _limited_run(["oracle", "e1", "--what", "ideals", "--field", "gf1000000007", "--json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agreement"] is True


def test_cli_oracle_ideals_refuses_too_many_subspaces(tmp_path):
    # one 2-dimensional block over GF(1000003) has 1,000,006 subspaces
    doc = _minimal_doc()
    doc["field"] = "gf1000003"
    for entry in doc["L"]:
        entry["grade"] = [0]
    (tmp_path / "plane.json").write_text(json.dumps(doc))
    assert main(["verify", str(tmp_path / "plane.json")]) == 0
    proc = _limited_run(["oracle", "plane.json", "--what", "ideals"], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("refused: ") and "Traceback" not in proc.stderr
    assert "1000006 graded subspaces over GF(1000003) exceed the bound 100000" in proc.stderr


def test_cli_oracle_guard_on_rational_file(tmp_path, capsys):
    path = tmp_path / "e1q.json"
    dump_instance(cached("e1"), path)
    assert main(["oracle", str(path), "--what", "ideals"]) == 3
    assert "refused:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing the loader and the CLI with one value of _minimal_doc() changed

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([2**31, 10**9, -(10**18), 10**100])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _value_paths(node, prefix=()):
    """The path of every key's value and list item below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


@st.composite
def fuzzed_docs(draw):
    doc = _minimal_doc()
    path = draw(st.sampled_from(list(_value_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(FUZZ_VALUES)
    return doc


@FUZZ
@given(fuzzed_docs())
def test_fuzzed_documents_load_or_are_refused(doc):
    try:
        assert isinstance(instance_from_json(doc), AlgebraInstance)
    except InstanceFormatError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("verify", "classes", "dot"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, path])
            assert code in (0, 1, 2, 3), (command, doc)
