#!/usr/bin/env python3
"""Record the reference verdicts and the traced baseline of the benchmark.

    python3 bench/record.py reference   # bench/reference.json, seed 0, untimed
    python3 bench/record.py baseline    # bench/baseline.json, one traced run per workload

Run from the root of a checkout.  The reference is recorded once, at the
commit whose verdicts every later commit must reproduce; an item whose
outputs disagree with each other is refused rather than recorded.
"""
from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys

import run
import workloads


def record_reference() -> int:
    sys.path.insert(0, str(run.SRC))
    reference, bad = {}, []
    for name in workloads.WORKLOADS:
        workdir = run.OUT / f"work-{os.getpid()}"
        try:
            items = run.set_up(name, 0, workdir)
            verdicts = {}
            for item in sorted(items, key=lambda it: it.name):
                verdict, problems = item.verdict(item.call())
                if problems:
                    bad.append((name, item.name, problems))
                verdicts[item.name] = verdict
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if len(verdicts) != len(items):
            bad.append((name, "duplicate item names", len(items) - len(verdicts)))
        reference[name] = verdicts
        print(f"{name}: {len(verdicts)} items")
    if bad:
        for entry in bad:
            print("refused:", entry, file=sys.stderr)
        return 1
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def record_baseline() -> int:
    baseline = {
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "processor": platform.processor() or platform.machine(),
        },
        "command": "python3 bench/run.py --workload <name> --seed 0 --seconds 20 --trace 1",
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
               "--seed", "0", "--seconds", "10", "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        baseline["workloads"][name] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{name}: recorded")
    (run.BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what not in ("reference", "baseline"):
        sys.exit(__doc__)
    sys.exit(record_reference() if what == "reference" else record_baseline())
