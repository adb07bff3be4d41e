"""The benchmark's traced smoke run, for the two workloads that run the model.

Each run must pass the benchmark's correctness gate and find every layer
it traces: a traced method that is renamed or moved would leave its
per-layer span silently empty, and the harness reports that on stderr.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["rank", "train"])
def test_traced_smoke_run_is_correct_and_finds_every_span(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    missing = [line for line in proc.stderr.splitlines()
               if line.startswith("trace:") and "not found" in line]
    assert missing == []
