from __future__ import annotations

import json
import random
import time

import pytest

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
from grlr.cli import main
from grlr.errors import InstanceFormatError
from grlr.fields import prime_field
from grlr.linear import rule_from_names

from helpers import cached, mutate_instance, reference_verify

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
    assert inst.bracket.on_basis(1, 0) == {}
    doc["L"] = [{"name": "v", "grade": [1]}, {"name": "w", "grade": [-1]},
                      {"name": "z", "grade": [0]}]
    doc["bracket"] = [{"left": "v", "right": "w", "value": [["z", "1"]]}]
    doc["action"].append({"left": "one", "right": "z", "value": [["z", "1"]]})
    inst = instance_from_json(doc)
    assert inst.bracket.on_basis(0, 1) == {2: inst.field.one}
    assert inst.bracket.on_basis(1, 0) == {2: inst.field.neg(inst.field.one)}


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
])
def test_malformed_documents_are_rejected(mangle, needle):
    doc = _minimal_doc()
    mangle(doc)
    with pytest.raises(InstanceFormatError) as err:
        instance_from_json(doc)
    assert needle.lower() in str(err.value).lower()


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


def test_cli_oracle_ideals(capsys):
    assert main(["oracle", "e2", "--what", "ideals", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement"] is True
    assert data["L"]["count"] == 2 and data["A"]["count"] == 4


def test_cli_oracle_paths(capsys):
    assert main(["oracle", "e3", "--what", "paths", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement"] is True


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


def test_cli_oracle_resolves_catalog_over_enumeration_field(capsys):
    # catalog names are rebuilt over their enumeration-safe field for oracle runs
    assert main(["oracle", "e1", "--what", "ideals", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["field"] == "gf5"
    assert data["agreement"] is True


def test_cli_oracle_guard_on_rational_file(tmp_path, capsys):
    path = tmp_path / "e1q.json"
    dump_instance(cached("e1"), path)
    assert main(["oracle", str(path), "--what", "ideals"]) == 3
    assert "refused:" in capsys.readouterr().err
