"""Smoke test: a short traced benchmark run passes every check.

The run's exit status is 0 only when every operation and every check
passed, including the call-count identities (loss rows equal originals
plus augmented copies; spectral calls equal augmented windows). It
writes its result under the git-ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_longterm_mask_run_passes_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "longterm-mask",
         "--seed", "3", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
