#!/usr/bin/env python3
"""Benchmark of grlr: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload paths-oracle --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; grlr is imported from ``src/`` there and
nowhere else.  The untraced run (``--trace 0``) sets the workload up
several times, then sends items one after another, each as soon as the
previous one returns, in whole passes over the workload until at least
``--seconds`` seconds have passed.  It checks every output against
``bench/reference.json`` and prints the end-to-end metrics.  The
traced run (``--trace 1``) makes one traced pass over every item, then
one untraced pass for the tracing overhead, and prints the per-layer
metrics; it writes its spans to ``.bench_out/``.  The last line of
standard output is always the JSON result.  Exit code 2 means the
benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from probe import NOMINAL_S, SpeedProbe
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
PROBE_BURST = 20  # probe samples around each set-up and the timed loop


def import_grlr():
    """Import grlr from this checkout's ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "grlr" or m.startswith("grlr.")]:
        del sys.modules[name]
    grlr = importlib.import_module("grlr")
    if SRC.resolve() not in Path(grlr.__file__).resolve().parents:
        raise ImportError(f"grlr was imported from {grlr.__file__}, not from {SRC}")
    return grlr


def set_up(workload: str, seed: int, workdir: Path):
    return workloads.WORKLOADS[workload](import_grlr(), seed, workdir)


def run_item(item, tracer: Tracer | None):
    """Time one item; return (start, seconds, verdict, problems)."""
    start = time.perf_counter()
    try:
        out = item.call()
    except Exception as exc:  # a failed item is counted, the loop goes on
        return start, time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        with tracer.excluded() if tracer else nullcontext():
            verdict, problems = item.verdict(out)
    except Exception as exc:  # an output the check cannot read fails the item
        return start, elapsed, None, [f"unreadable output: {type(exc).__name__}: {exc}"]
    return start, elapsed, verdict, problems


def check(item, verdict, problems: list[str], reference: dict) -> str | None:
    """Why an item failed, or None."""
    if problems:
        return "; ".join(problems)
    expected = reference.get(item.name)
    if expected is None:
        return "no reference verdict"
    got = json.loads(json.dumps(verdict))
    if got != expected:
        return f"verdict {json.dumps(got, sort_keys=True)} != reference {json.dumps(expected, sort_keys=True)}"
    return None


def one_pass(items, reference: dict, tracer: Tracer | None = None, probe: SpeedProbe | None = None):
    """Run every item once, in order; return ([(start, seconds)], failures)."""
    timings, failures = [], []
    for item in items:
        with tracer.root(item.name) if tracer else nullcontext():
            start, elapsed, verdict, problems = run_item(item, tracer)
        timings.append((start, elapsed))
        reason = check(item, verdict, problems, reference)
        if reason:
            failures.append((item.name, reason))
        if probe is not None:
            probe.due()
    return timings, failures


def closed_loop(items, seconds: float, reference: dict, probe: SpeedProbe):
    """Whole passes over the items, until ``seconds`` of wall clock have
    passed; items of different cost then always weigh the same."""
    passes, failures = [], []
    probe.sample(PROBE_BURST)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        timings, failed = one_pass(items, reference, probe=probe)
        passes.append(timings)
        failures += failed
    probe.sample(PROBE_BURST)
    return passes, failures


def tail(latencies: list[float]) -> float:
    """Latency at the highest percentile with at least ten samples beyond
    it, (n - 10) / n; the maximum when there are at most ten samples."""
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def untraced(args, workdir: Path, reference: dict):
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample(PROBE_BURST)
        start = time.perf_counter()
        items = set_up(args.workload, args.seed, workdir)
        setups.append((start, time.perf_counter() - start))
    probe.sample(PROBE_BURST)
    passes, failures = closed_loop(items, args.seconds, reference, probe)

    def nominal(timings):
        return [elapsed * probe.scale(start, start + elapsed) for start, elapsed in timings]

    latencies = [x for timings in passes for x in nominal(timings)]
    raw = sum(elapsed for timings in passes for _, elapsed in timings)
    n, per_pass = len(latencies), len(items)
    metrics = {
        "items_per_s": (n / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_tail_ms": (statistics.median(tail(nominal(timings)) for timings in passes) * 1e3, "ms"),
        "setup_s": (statistics.median(nominal(setups)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    pct = 100.0 * (per_pass - 10) / per_pass if per_pass > 10 else 100.0
    notes = {
        "items_per_s": f"{n} items in {sum(latencies):.3f} s nominal, {raw:.3f} s measured",
        "item_tail_ms": f"p{pct:.2f} of each pass of {per_pass}, median of {len(passes)} passes",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(passes)} passes of {per_pass} items")
    print(f"speed probe: mean {statistics.fmean(probe.durations) * 1e6:.1f} us over "
          f"{len(probe.durations)} samples, nominal {NOMINAL_S * 1e6:.1f} us; times below are nominal")
    return n, failures, metrics, notes


def traced(args, workdir: Path, reference: dict):
    grlr = import_grlr()
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unwrapped_bindings()
        if missed:
            raise RuntimeError(f"wrappers missed bindings: {missed}")
        with tracer.root("set-up"):
            items = workloads.WORKLOADS[args.workload](grlr, args.seed, workdir)
        start = time.perf_counter()
        _, failures = one_pass(items, reference, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    _, more = one_pass(items, reference)
    untraced_s = time.perf_counter() - start
    metrics = layer_metrics(tracer, traced_s, untraced_s)
    print(f"workload {args.workload}, seed {args.seed}: one traced pass and one untraced pass")
    write_trace(args, tracer, metrics)
    return 2 * len(items), failures + more, metrics, {}


def write_trace(args, tracer: Tracer, metrics: dict) -> None:
    OUT.mkdir(exist_ok=True)
    calls, self_s = tracer.kind_calls(), tracer.kind_self_s()
    data = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "kinds": {
            kind: {"calls": calls[kind], "self_s": self_s.get(kind, 0.0)} for kind in calls
        },
        "functions": [target for _, target in tracer.functions],
        "items": tracer.items,
        "span_fields": ["function", "item", "span", "parent", "start_ns", "end_ns"],
        "spans": tracer.spans,
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "grlr" / "__init__.py").is_file():
        print(f"error: no grlr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        run = traced if args.trace else untraced
        attempted, failures, metrics, notes = run(args, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {value:>16.6f} {unit}{note}")
    print(f"{'error_rate':36s} {len(failures) / attempted:>16.6f} ({len(failures)} of {attempted} failed)")
    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed items")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
