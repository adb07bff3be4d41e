"""The benchmark's traced smoke run of every workload.

Each run must pass the benchmark's correctness gate and find every layer
it traces: a traced method that is renamed or moved would leave its
per-layer span silently empty, and the harness reports that on stderr.
The run's exact per-layer counts pin how often each layer runs, so a
return to per-candidate work in the candidate-only layers fails here,
and the ingest run's timeline memory pins an event index whose size
grows with the events, not with buckets x articles.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from avoidrec import autodiff, model, training

ROOT = Path(__file__).resolve().parent.parent

# autodiff ops recorded per training instance (K=4, so 5 candidates) on the
# train smoke run, where no batch holds two instances of one impression
# (106 measured).  Running relevance, the gate or the candidate projections
# once per candidate instead of once per impression would take it far above
# this.  So would the three ops a group recorded before ``reshape`` permuted
# first (109: the second reshape of each head merge and the reshape of the
# candidate score halves into a stack), a loss of more than one op (the
# former 8-op chain: 124, measured at 109) or recorded chunks of one
# candidate each at the 50-click cap (117, measured at 109).
TRAIN_OPS_PER_INSTANCE = 107

# The same count on train smoke slot 0, where each batch's two instances
# come from one impression and share one graph (55 measured; 56.5 with the
# three ops above, 68.5 with recorded chunks of one candidate as well, 75.5
# with the 8-op loss on top of that).
SHARED_IMPRESSION_OPS_PER_INSTANCE = 55.5

# Peak MB of build_timeline on the ingest smoke log (480 records, 1000
# articles, 48 buckets): per-bucket dict copies of the counters took
# 1.52 MB, the event index takes about 0.2 MB.
TIMELINE_PEAK_MB = 0.5


@functools.cache
def traced_smoke(workload):
    """(final JSON result, stderr) of one traced smoke run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def metric(workload, name):
    return traced_smoke(workload)[0]["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["rank", "train", "ingest"])
def test_traced_smoke_run_is_correct_and_finds_every_span(workload):
    result, stderr = traced_smoke(workload)
    assert result["correct"] is True, stderr
    assert result["failed"] == 0
    missing = [line for line in stderr.splitlines()
               if line.startswith("trace:") and "not found" in line]
    assert missing == []


@pytest.mark.parametrize("workload", ["rank", "train"])
def test_candidate_only_layers_run_once_per_impression(workload):
    impressions = metric(workload, "model.score_impression.calls")
    assert impressions > 0
    for span in ("relevance.relevance", "relevance.time2vec"):
        assert metric(workload, f"{span}.calls") == impressions, span
    # The gate runs once per impression with a history (cold users skip it).
    assert 0 < metric(workload, "user_encoder.gate.calls") <= impressions
    # One lookup for the candidates' cells, one for the history's.
    assert metric(workload, "grid.lookup.per_impression") <= 2


def test_train_graph_size():
    assert metric("train", "autodiff.ops_per_instance") <= TRAIN_OPS_PER_INSTANCE


def test_ingest_timeline_memory_grows_with_events():
    assert metric("ingest", "stats.build_timeline.peak_mb") <= TIMELINE_PEAK_MB


def test_instances_of_one_impression_share_one_graph(tmp_path, monkeypatch):
    # Ops recorded over instances scored, counted directly on train smoke
    # slot 0: two steps of two instances, each step's pair from one impression.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops, scored, losses = [], [], []
    backward = autodiff.ComputationRecord.backward
    score_impression = model.AvoidanceAwareRanker.score_impression
    instance_loss = training.instance_loss

    def counted_backward(record, loss):
        ops.append(len(record.entries))
        return backward(record, loss)

    def counted_score_impression(self, *args, **kwargs):
        scored.append(len(args[1]))
        return score_impression(self, *args, **kwargs)

    def counted_instance_loss(*args):
        losses.append(instance_loss(*args))
        return losses[-1]

    monkeypatch.setattr(autodiff.ComputationRecord, "backward", counted_backward)
    monkeypatch.setattr(model.AvoidanceAwareRanker, "score_impression", counted_score_impression)
    monkeypatch.setattr(training, "instance_loss", counted_instance_loss)
    workload = workloads.Train(0, True, tmp_path, None)
    workload._train(workload.setup())
    assert len(losses) == workload.steps * workload.batch_size == 4
    assert len(ops) == len(scored) == 2
    assert sum(ops) / len(losses) <= SHARED_IMPRESSION_OPS_PER_INSTANCE
