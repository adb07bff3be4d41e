"""Span tracing of the package's layers for the benchmark's traced run.

``Tracer.patched()`` replaces public functions and methods of the
``avoidrec`` modules with wrappers that record a span per call, and puts
the originals back on exit.  Functions are patched where callers look
them up (``metrics.impression_features`` and ``training.impression_features``
are two names for one function), methods on their classes.  Spans stay in
memory -- name, parent span, start, end -- and are summarised at the end:
a span's self time is its duration minus the durations of its children.

A few wrappers also record exact counts (graph size at each backward
pass, articles per feature call) that repeat bit for bit across runs.
"""

from __future__ import annotations

import functools
import itertools
import sys
from contextlib import contextmanager
from time import perf_counter

from avoidrec import (autodiff, corpus, features, grid, metrics, model,
                      news_encoder, relevance, stats, synthetic, training,
                      user_encoder)

SPAN_NAMES = (
    "corpus.parse_news_file", "corpus.parse_behaviors_file", "synthetic.generate",
    "stats.build_timeline", "stats.snapshot_at", "features.impression_features",
    "metrics.evaluate", "metrics.rank_metrics", "training.train",
    "training.instance_loss", "training.adam_step", "autodiff.backward",
    "model.score_impression", "news_encoder.encode_news",
    "user_encoder.augment_history", "user_encoder.attention", "user_encoder.cnn",
    "user_encoder.pool", "user_encoder.gate", "relevance.time2vec",
    "relevance.relevance", "grid.lookup",
)


def _count_graph_ops(tracer, args, result):
    record = args[0]
    tracer.count("autodiff.ops", len(record.entries))
    tracer.count("autodiff.backwards")


def _count_articles(tracer, args, result):
    tracer.count("features.articles", len(result))


def _count_parsed(tracer, args, result):
    parsed = result[0] if isinstance(result, tuple) else result
    tracer.count("corpus.records", len(parsed))
    tracer.count("corpus.issues", len(parsed.issues))


def _targets():
    """(owner, attribute, span name, observer) for every wrapped callable."""
    return [
        (corpus, "parse_news_file", "corpus.parse_news_file", _count_parsed),
        (corpus, "parse_behaviors_file", "corpus.parse_behaviors_file", _count_parsed),
        (synthetic, "generate", "synthetic.generate", None),
        (stats, "build_timeline", "stats.build_timeline", None),
        (stats, "snapshot_at", "stats.snapshot_at", None),
        (features, "snapshot_at", "stats.snapshot_at", None),
        (features, "impression_features", "features.impression_features", _count_articles),
        (metrics, "impression_features", "features.impression_features", _count_articles),
        (training, "impression_features", "features.impression_features", _count_articles),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "auc", "metrics.rank_metrics", None),
        (metrics, "mrr", "metrics.rank_metrics", None),
        (metrics, "ndcg_at_k", "metrics.rank_metrics", None),
        (training, "train", "training.train", None),
        (training, "instance_loss", "training.instance_loss", None),
        (training.Adam, "step", "training.adam_step", None),
        (autodiff.ComputationRecord, "backward", "autodiff.backward", _count_graph_ops),
        (model.AvoidanceAwareRanker, "score_impression", "model.score_impression", None),
        (news_encoder.NewsEncoder, "encode_news", "news_encoder.encode_news", None),
        (user_encoder.UserEncoder, "augment_history", "user_encoder.augment_history", None),
        (user_encoder.UserEncoder, "candidate_aware_self_attention",
         "user_encoder.attention", None),
        (user_encoder.UserEncoder, "candidate_aware_cnn", "user_encoder.cnn", None),
        (user_encoder.UserEncoder, "user_embedding", "user_encoder.pool", None),
        (user_encoder.UserEncoder, "interest_score", "user_encoder.gate", None),
        (relevance.RelevancePredictor, "time2vec", "relevance.time2vec", None),
        (relevance.RelevancePredictor, "relevance", "relevance.relevance", None),
        (grid.EngagementEmbeddingTable, "lookup", "grid.lookup", None),
    ]


class Tracer:
    def __init__(self):
        # (span id, name, parent span id or -1, start, end).  Tuples of
        # atoms drop out of the garbage collector's tracking, so a long
        # span list does not slow the collections of untraced code.
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._ids = itertools.count()

    def count(self, name: str, value: float = 1):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, name, observer):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((idx, name, parent, start, end))
            if observer is not None:
                observer(self, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observer in _targets():
                original = owner.__dict__.get(attr)
                if original is None:
                    print(f"trace: {owner.__name__}.{attr} not found; span {name} stays empty",
                          file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, observer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total ms and self ms per span name (every name in SPAN_NAMES)."""
        child_s: dict[int, float] = {}
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + end - start
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
        for idx, name, _, start, end in self.spans:
            agg = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["total_ms"] += (end - start) * 1e3
            agg["self_ms"] += (end - start - child_s.get(idx, 0.0)) * 1e3
        return out
