"""Smoke test of the benchmark, in seconds: result schema and correctness gate.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from avoidrec import autodiff  # noqa: E402
from avoidrec.model import AvoidanceAwareRanker  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def rank(tmp_path_factory):
    reference = workloads.load_references()["rank"]["smoke"]["0"]
    workload = workloads.Rank(0, True, tmp_path_factory.mktemp("rank"), reference)
    return workload, workload.setup()


def test_gate_passes_the_unperturbed_model(rank):
    workload, state = rank
    op = workload.run_op(state)
    assert op.attempted == len(state.test) and op.failed == 0


@pytest.mark.parametrize("perturb", [lambda s: s + 3.0, lambda s: s * np.nan],
                         ids=["shifted", "nan"])
def test_gate_fails_a_perturbed_score(rank, monkeypatch, perturb):
    workload, state = rank
    score_impression = AvoidanceAwareRanker.score_impression

    def perturbed(self, *args, **kwargs):
        scores = score_impression(self, *args, **kwargs)
        scores[0] = autodiff.constant(perturb(scores[0].data))
        return scores

    monkeypatch.setattr(AvoidanceAwareRanker, "score_impression", perturbed)
    op = workload.run_op(state)
    assert op.failed == op.attempted == len(state.test)


def test_finite_check_counts_nan_scores(rank, monkeypatch):
    workload, state = rank
    checked = workloads._FiniteScores(state.model)
    history = [state.catalog.get(h) for h in state.test[0].history]
    candidates = [state.catalog.get(n) for n, _ in state.test[0].shown]
    feats = workloads.features.impression_features(
        state.timeline, state.test[0].time,
        [a.news_id for a in history + candidates], workloads.ModelConfig().grid_d,
        state.catalog)
    checked.score_impression(history, candidates, feats)
    assert checked.nonfinite == 0
    monkeypatch.setattr(state.model.relevance.w_mixed, "data",
                        np.full((1, 1), np.nan, dtype=np.float32))
    checked.score_impression(history, candidates, feats)
    assert checked.nonfinite == 1
