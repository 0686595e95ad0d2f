"""The benchmark's verdicts, run as part of the suite.

``bench/run.py`` compares every item's output with ``bench/reference.json``
but exits 0 even when some disagree, so a wrong verdict would pass CI
unseen.  Here each workload runs one short untraced pass at seed 1,
which moves every twist of the generated instances, and its JSON
result line must report every item correct and none failed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paths-oracle", "pipeline-gfp", "cli-rational")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_agrees_with_reference(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.001", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0, result
    assert result["correct"] is True and result["failed"] == 0, result
