"""``tools/fingerprint.py --smoke`` prints one train and one rank line per
benchmark slot, and the values those lines hold are the benchmark's own
reference outputs."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAIN_LINE = re.compile(r"train slot (\d+) loss (\S+) best_state ([0-9a-f]{64})")


def test_smoke_fingerprint_matches_the_benchmark_references():
    proc = subprocess.run([sys.executable, "tools/fingerprint.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    lines = proc.stdout.splitlines()
    n_slots = len(refs["train"]["smoke"])
    assert len(lines) == 2 * n_slots
    for slot in range(n_slots):
        train = TRAIN_LINE.fullmatch(lines[2 * slot])
        assert train is not None and int(train[1]) == slot, lines[2 * slot]
        ref_loss = refs["train"]["smoke"][str(slot)]["loss"]
        assert float.fromhex(train[2]) == pytest.approx(ref_loss, rel=1e-4)

        words = lines[2 * slot + 1].split()
        assert words[:3] == ["rank", "slot", str(slot)]
        metrics = {name: float.fromhex(value) for name, value in zip(words[3::2], words[4::2])}
        ref_metrics = refs["rank"]["smoke"][str(slot)]
        assert metrics == pytest.approx(ref_metrics, rel=0, abs=1e-5)
