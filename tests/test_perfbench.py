"""Smoke test: short traced benchmark runs pass every check.

A run's exit status is 0 only when every operation and every check
passed, including the call-count identities: on longterm-mask, loss rows
equal originals plus augmented copies and spectral calls equal augmented
windows; on ttt-shift, each round's copies follow the 1 -> 5 ramp, each
round fits once, and each expanded copy gets one transform pair. Every
workload BENCHMARK.json lists is run. It writes its result under the
git-ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
