"""``tools/pairs.py --aa --smoke`` runs alternating pairs of the benchmark and
summarises every end-to-end metric of ``BENCHMARK.json``."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"parent HEAD \((.+)\), change the parent again \((.+)\), "
                    r"workload rank, 0\.1 s a run")
PAIR_LINE = re.compile(r"pair (\d) seed (\d) \((parent|change) first\): (.+)")
SUMMARY_LINE = re.compile(r"(\w+): parent (\S+) \[\S+, IQR \S+\] change (\S+) \[\S+\]  "
                          r"ratio \S+  change better on (\d) of 2  medians differ by .+")


def test_smoke_aa_pairs_alternate_and_summarise_every_metric():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    proc = subprocess.run([sys.executable, "tools/pairs.py", "--workload", "rank", "--aa",
                           "--seeds", "3,4", "--seconds", "0.1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = HEADER.fullmatch(lines[0])
    assert header is not None, lines[0]
    # Two sibling copies with names of one length, neither of them the checkout.
    parent, change = Path(header[1]), Path(header[2])
    assert parent != change and parent.parent == change.parent
    assert len(parent.name) == len(change.name)
    assert ROOT not in (parent, change) and ROOT not in parent.parents
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    pairs = [PAIR_LINE.fullmatch(line) for line in lines[1:3]]
    assert all(pairs), lines[1:3]
    assert [(p[1], p[2], p[3]) for p in pairs] == [("0", "3", "parent"), ("1", "4", "change")]
    for pair in pairs:
        assert [value.split()[0] for value in pair[4].split(", ")] == names
    summaries = [SUMMARY_LINE.fullmatch(line) for line in lines[3:]]
    assert all(summaries) and [s[1] for s in summaries] == names, lines[3:]
    # The same tree on both sides: the deterministic peak reads alike.
    peak = summaries[names.index("peak_mb")]
    assert float(peak[3]) == pytest.approx(float(peak[2]), rel=0.01)


def test_the_change_is_copied_from_the_checkout_as_it_stands(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    copy = pairs.copy_checkout(tmp_path / "change")
    for name in ("tools/pairs.py", "src/avoidrec/training.py", "BENCHMARK.json"):
        assert (copy / name).read_bytes() == (ROOT / name).read_bytes(), name
    assert not (copy / ".git").exists() and not list(copy.rglob("__pycache__"))


def test_summary_gives_the_quartiles_of_the_pair_ratios():
    # Runs without git: only the summary of numbers already measured.
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    # Pair ratios 2, 1, 0.5, 1.5 and 1: median 1, quartiles 1 and 1.5.
    base, change = [1.0, 2.0, 4.0, 2.0, 3.0], [2.0, 2.0, 2.0, 3.0, 3.0]
    line = pairs.summary("items_per_s", "higher", base, change)
    assert line.endswith("  pair ratios 1.0000 [1.0000-1.5000]"), line
    assert "ratio 1.0000  change better on 2 of 5" in line
    assert pairs.ratio(0.0, 1.0) != pairs.ratio(0.0, 1.0)  # nan for a zero parent


def test_train_summaries_split_by_slot_kind():
    # Runs without git: the summaries of numbers already measured.
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    seeds = list(range(10))
    assert pairs.slot_kinds(seeds) == {"slots 0, 4, 7": [0, 4, 7, 8],
                                       "other slots": [1, 2, 3, 5, 6, 9]}
    assert pairs.slot_kinds([1, 2]) == {"other slots": [0, 1]}
    # Two-group slots run at 100 ms and the rest at 130 ms; the change is 10% slower on both.
    metrics = [{"name": "latency_ms_p50", "better": "lower"}]
    base = [100.0 if seed % 8 in (0, 4, 7) else 130.0 for seed in seeds]
    runs = {"parent": [{"latency_ms_p50": b} for b in base],
            "change": [{"latency_ms_p50": 1.1 * b} for b in base]}
    lines = pairs.summaries(metrics, runs, "train", seeds)
    assert [line.split(": parent ")[0] for line in lines] == [
        "latency_ms_p50", "[slots 0, 4, 7] latency_ms_p50", "[other slots] latency_ms_p50"]
    assert "parent 100 [100-100, IQR 0]" in lines[1] and "change better on 0 of 4" in lines[1]
    assert "parent 130 [130-130, IQR 0]" in lines[2] and "change better on 0 of 6" in lines[2]
    assert pairs.summaries(metrics, runs, "rank", seeds) == lines[:1]


def test_an_aa_band_is_written_and_marks_a_comparison(tmp_path):
    # Runs without git: the band of numbers already measured, written and read back.
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    seeds = list(range(10))
    metrics = [{"name": "items_per_s", "better": "higher"}]
    # Identical trees: pair ratios 0.98, 0.99, ..., 1.07, quartiles 1.0025 and 1.0475.
    base = [100.0] * 10
    aa = {"parent": [{"items_per_s": b} for b in base],
          "change": [{"items_per_s": b * (0.98 + i / 100)} for i, b in enumerate(base)]}
    band = pairs.aa_band(metrics, aa, "train", seeds, 20.0)
    assert band["workload"] == "train" and band["seeds"] == seeds
    assert set(band["groups"]) == {"all", "slots 0, 4, 7", "other slots"}
    assert band["groups"]["all"]["items_per_s"] == pytest.approx([1.0025, 1.025, 1.0475])
    path = tmp_path / "band.json"
    path.write_text(json.dumps(band), encoding="utf-8")
    band = pairs.read_band(path, "train")
    with pytest.raises(ValueError, match="workload 'train', not 'rank'"):
        pairs.read_band(path, "rank")
    # A change 3% faster on every pair sits inside the band; one 8% faster, outside.
    for gain, mark in ((1.03, "inside"), (1.08, "outside")):
        runs = {"parent": aa["parent"], "change": [{"items_per_s": b * gain} for b in base]}
        lines = pairs.summaries(metrics, runs, "train", seeds, band)
        assert len(lines) == 3
        assert lines[0].endswith(f"A/A band [1.0025-1.0475]: {mark}"), lines[0]
        assert all(line.endswith(mark) for line in lines)
    # A group or metric the band lacks is left unmarked, and so is every line without a band.
    del band["groups"]["other slots"]
    lines = pairs.summaries(metrics, runs, "train", seeds, band)
    assert [line.endswith("outside") for line in lines] == [True, True, False]
    assert pairs.summaries(metrics, runs, "train", seeds)[0] == lines[0].split("  A/A band")[0]


def test_a_traced_comparison_reads_the_per_layer_metrics_and_its_own_bands(tmp_path):
    # Runs without git: the metric selection, and a band read back in each trace mode.
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert pairs.metric_specs(benchmark, 0) == benchmark["end_to_end"]
    traced = pairs.metric_specs(benchmark, 1)
    assert traced == benchmark["per_layer"]
    assert {"trace.overhead_pct", "autodiff.ops_per_instance"} <= {m["name"] for m in traced}
    metrics = [{"name": "autodiff.ops_per_instance", "better": "lower"}]
    runs = {side: [{"autodiff.ops_per_instance": 106.0}] for side in ("parent", "change")}
    for trace in (0, 1):
        path = tmp_path / f"band{trace}.json"
        path.write_text(json.dumps(pairs.aa_band(metrics, runs, "train", [0], 1.0, trace)),
                        encoding="utf-8")
        assert pairs.read_band(path, "train", trace)["trace"] == trace
        with pytest.raises(ValueError, match=f"--trace {trace}, not --trace {1 - trace}"):
            pairs.read_band(path, "train", 1 - trace)
    # A band that records no trace mode was measured untraced.
    band = json.loads((tmp_path / "band0.json").read_text())
    del band["trace"]
    (tmp_path / "old.json").write_text(json.dumps(band), encoding="utf-8")
    assert pairs.read_band(tmp_path / "old.json", "train") == band
    with pytest.raises(ValueError, match="--trace 0, not --trace 1"):
        pairs.read_band(tmp_path / "old.json", "train", 1)
