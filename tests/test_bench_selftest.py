"""The benchmark harness's own self-test, run as part of the suite.

``bench/selftest.py`` checks that the tracer's wrapper counts equal
cProfile's call counts, that uninstalling restores every wrapped binding,
and that ``BENCHMARK.json`` lists every reported metric.  A change to
grlr that breaks one of those invariants fails here.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
