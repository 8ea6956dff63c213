"""Smoke test: short benchmark runs, traced and untraced, pass every check.

A run's exit status is 0 only when every operation and every check
passed. A traced run also checks the call-count identities: on
longterm-mask, loss rows equal originals plus augmented copies and
spectral calls equal augmented windows; on ttt-shift, each round's
copies follow the 1 -> 5 ramp, each round fits once, and each expanded
copy gets one transform pair. An untraced run is the mode the gate
reads: it must report exactly the end-to-end metrics BENCHMARK.json
declares. Every workload BENCHMARK.json lists is run. It writes its
result under the git-ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_run_passes_checks(trace, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    if trace == "0":
        assert list(result["metrics"]) == END_TO_END
