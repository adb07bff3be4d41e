"""``tools/peak.py --smoke`` prints the benchmark's peak of one operation and
locates it at an autodiff op called from the model."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from avoidrec import autodiff

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


def test_ops_are_every_public_autodiff_op():
    # peak.py wraps each op by name: a removed op would crash it, and a new
    # one would run unwrapped, its span counted as between two ops.
    tree = ast.parse((ROOT / "tools" / "peak.py").read_text())
    ops = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["OPS"])
    public = {name for name, fn in inspect.getmembers(autodiff, inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == autodiff.__name__}
    public -= {"parameter", "constant", "grad_check", "xavier_uniform"}
    assert sorted(ops) == sorted(public)
