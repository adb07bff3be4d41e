"""``tools/gemm_bound.py`` prints one line per timed product shape, whole and
in ``autodiff``'s blocks; its format is checked here, not its timings."""

import re
import subprocess
import sys
from pathlib import Path

from avoidrec import autodiff

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"\((\d+),(\d+)\)@\((\d+),(\d+)\) mnk (\d+) blocks (\d+) "
                  r"whole (\d+\.\d) us blocked (\d+\.\d) us")


def test_one_line_per_shape_with_its_block_count():
    proc = subprocess.run(
        [sys.executable, "tools/gemm_bound.py", "--calls", "1", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 20, lines  # five shapes at each of 5, 10, 20 and 28 clicks
    for line in lines:
        match = LINE.fullmatch(line)
        assert match is not None, line
        m, k, k2, n, mnk, blocks = (int(v) for v in match.groups()[:6])
        assert k == k2 and mnk == m * k * n
        assert blocks == len(autodiff._block_plan(m, k, n)[1]) - 1
    # The sweep straddles the bound: a product at it is one block, one column more is two.
    assert "(10,288)@(288,347) mnk 999360 blocks 1 " in proc.stdout
    assert "(10,288)@(288,348) mnk 1002240 blocks 2 " in proc.stdout
