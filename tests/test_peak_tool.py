"""``tools/peak.py --smoke`` prints the benchmark's peak of one operation and
locates it at an autodiff op called from the model."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PEAK_LINE = re.compile(r"(rank|train) slot 3: peak_mb (\d+\.\d{4}) \(as the benchmark reads it\)")
LOCATED_LINE = re.compile(r"located peak (\d+\.\d{4}) MB, (inside|between) .+, called from:")
FRAME_LINE = re.compile(r"  \S+\.py:\d+ in \w+: .+|  \.\.\.")


@pytest.mark.parametrize("workload", ["rank", "train"])
def test_smoke_run_locates_the_peak(workload):
    proc = subprocess.run([sys.executable, "tools/peak.py", "--smoke", "--workload", workload,
                           "--seed", "11"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    peak, located = PEAK_LINE.fullmatch(lines[0]), LOCATED_LINE.fullmatch(lines[1])
    assert peak is not None and peak[1] == workload, lines[0]
    assert located is not None, lines[1]
    # The wrapped run allocates a little more than the plain one, never less.
    assert 0 < float(peak[2]) <= float(located[1]) < float(peak[2]) * 1.1
    assert lines[2:] and all(FRAME_LINE.fullmatch(line) for line in lines[2:]), lines[2:]
    assert any("model.py" in line for line in lines[2:])

