#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Run from the root of a checkout.  They check that the outside-in
wrappers count exactly what cProfile counts, that uninstalling them
restores every original object, that self times come out right on
synthetic span trees, that a traced run's counts repeat exactly, and
that ``BENCHMARK.json`` lists exactly the metrics the harness reports.
"""
from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import sys
import unittest

import run
import tracing
import workloads
from tracing import Tracer, layer_metrics, self_times

sys.path.insert(0, str(run.SRC))

# Small items that between them reach every traced layer.
SMALL_ITEMS = {
    "paths-oracle": ["e2 sigma 1->2", "e1 sigma 1->-1"],
    "pipeline-gfp": ["e2@gf3"],
    "cli-rational": ["decompose e3 --fine", "oracle e2 --what ideals", "classes e1@q+twist:1", "dot e3"],
}
WORKDIR = run.OUT / "selftest"


def items_of(workload: str, names: list[str]):
    items = {item.name: item for item in run.set_up(workload, 0, WORKDIR / workload)}
    return [items[name] for name in names]


def traced_counts(items) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        for item in items:
            with tracer.root(item.name):
                item.call()
    finally:
        tracer.uninstall()
    return tracer


def profiled_counts(items, tracer: Tracer) -> dict[str, int]:
    """cProfile's ncalls for every function the tracer wraps."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for item in items:
            item.call()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    out = {}
    for target, orig in tracer.originals.items():
        code = orig.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[target] = entry[1] if entry else 0
    return out


class WrapperTests(unittest.TestCase):
    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_counts_equal_cprofile_ncalls(self):
        for workload, names in SMALL_ITEMS.items():
            with self.subTest(workload=workload):
                items = items_of(workload, names)
                tracer = traced_counts(items)
                wrapped = {target: n for (_, target), n in zip(tracer.functions[1:], tracer.calls[1:])}
                self.assertEqual(wrapped, profiled_counts(items, tracer))
                self.assertGreater(sum(wrapped.values()), 0)

    def test_every_binding_wrapped_and_every_original_restored(self):
        run.import_grlr()
        tracer = Tracer()
        tracer.install()
        wrappers = {id(getattr(owner, name)) for owner, name, _ in tracer._patches}
        patched = list(tracer._patches)
        try:
            self.assertEqual(tracer.unwrapped_bindings(), [])
            # bilinear_image is imported by name into several modules
            owners = {owner.__name__ for owner, name, _ in patched if name == "bilinear_image"}
            self.assertTrue({"grlr.linear", "grlr.decompose", "grlr.simplicity", "grlr.cli"} <= owners)
        finally:
            tracer.uninstall()
        for owner, name, orig in patched:
            self.assertIs(vars(owner)[name], orig)
        for target, orig in tracer.originals.items():
            self.assertIs(tracing.resolve(target)[2], orig)
        for mod in tracing.grlr_modules():
            for value in vars(mod).values():
                self.assertNotIn(id(value), wrappers)
                for attr in vars(value).values() if isinstance(value, type) else ():
                    self.assertNotIn(id(attr), wrappers)

    def test_counts_repeat_between_traced_runs(self):
        def counts():
            grlr = run.import_grlr()
            items = workloads.pipeline_gfp(grlr, 0, WORKDIR)[:12] + [
                item for item in workloads.cli_rational(grlr, 0, WORKDIR / "repeat")
                if item.name == "decompose e1@q+twist:2 --fine"
            ]
            tracer = Tracer()
            tracer.install()
            try:
                run.one_pass(items, {}, tracer)
            finally:
                tracer.uninstall()
            return {
                name: value for name, (value, unit) in layer_metrics(tracer, 0.0, 0.0).items()
                if unit != "s"
            }

        self.assertEqual(counts(), counts())


def span(fn: int, sid: int, parent: int, start: int, end: int) -> tuple:
    return (fn, 0, sid, parent, start, end)


class SpanTests(unittest.TestCase):
    def test_self_times(self):
        spans = [
            span(1, 2, 1, 15, 20),   # nested two deep
            span(1, 1, 0, 10, 30),
            span(1, 3, 0, 30, 50),   # back to back with span 1
            span(1, 4, 0, 60, 70),   # sibling after a gap
            span(1, 0, -1, 0, 100),
            span(1, 6, 5, 100, 150),  # covers its parent completely
            span(1, 5, -1, 100, 150),
            span(1, 8, 7, 190, 260),  # runs past its parent's end: clipped
            span(1, 7, -1, 200, 250),
        ]
        self.assertEqual(
            self_times(spans),
            {0: 50, 1: 15, 2: 5, 3: 20, 4: 10, 5: 0, 6: 50, 7: 0, 8: 70},
        )

    def test_layer_self_time_by_kind(self):
        tracer = Tracer()
        tracer.functions += [("linear.rref", "a"), ("linear.bilinear_image", "b")]
        tracer.calls += [0, 0]
        tracer.spans += [
            (2, 0, 1, 0, 0, 1_000_000_000),
            (1, 0, 2, 1, 100_000_000, 400_000_000),
            (1, 0, 3, 1, 400_000_000, 500_000_000),
            (0, 0, 0, -1, 0, 2_000_000_000),
        ]
        self_s = tracer.kind_self_s()
        self.assertAlmostEqual(self_s["linear.bilinear_image"], 0.6)
        self.assertAlmostEqual(self_s["linear.rref"], 0.4)
        self.assertAlmostEqual(self_s[tracing.ROOT], 1.0)

    def test_tail(self):
        self.assertEqual(run.tail([float(x) for x in range(1, 101)]), 90.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), 3.0)

    def test_check_flags_a_wrong_verdict(self):
        class Item:
            name = "x"

        self.assertIsNone(run.check(Item, {"a": (1, 2)}, [], {"x": {"a": [1, 2]}}))
        self.assertIn("reference", run.check(Item, {"a": [1, 3]}, [], {"x": {"a": [1, 2]}}))
        self.assertIn("BFS", run.check(Item, {}, ["BFS says True"], {"x": {}}))


class ManifestTests(unittest.TestCase):
    def test_benchmark_json_lists_every_layer_metric(self):
        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        reported = layer_metrics(Tracer(), 0.0, 0.0)
        listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        self.assertEqual(listed, {name: unit for name, (_, unit) in reported.items()})
        self.assertEqual(
            [w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS)
        )


if __name__ == "__main__":
    unittest.main()
