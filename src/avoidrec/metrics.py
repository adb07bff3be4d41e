"""Per-impression ranking metrics and dataset-level evaluation.

``METRICS`` names the four ranking metrics, in the order every report,
CSV and summary lists them.  AUC counts the (positive, negative) pairs
whose positive scores higher, ties worth half, over the number of pairs.
MRR and nDCG order candidates by descending score with ties broken by
the original candidate index (stable), which keeps every metric
reproducible.  Impressions that cannot support a metric (no positive, or
single-class for AUC) are excluded from that metric's mean rather than
zero-filled.  A non-finite score is an error, never a rank: it raises
``NonFiniteScoreError`` naming the impression.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .features import impression_features
from .model import recent_history

METRICS = ("auc", "mrr", "ndcg5", "ndcg10")


class NonFiniteScoreError(ValueError):
    """A candidate score is NaN or infinite; no metric can be computed from it."""

    def __init__(self, impression_id=None):
        where = "" if impression_id is None else f"impression {impression_id!r}: "
        super().__init__(f"{where}non-finite candidate score")
        self.impression_id = impression_id


@dataclass
class RankedImpression:
    scores: np.ndarray
    labels: np.ndarray
    impression_id: str | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ValueError(
                f"scores {self.scores.shape} and labels {self.labels.shape} must be equal 1-D")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(self.scores).all():
            raise NonFiniteScoreError(self.impression_id)


def auc(impression: RankedImpression):
    """Share of (positive, negative) pairs the positive wins; None if single-class."""
    pos = impression.labels == 1
    p, n = impression.scores[pos, None], impression.scores[~pos]
    if not len(p) or not len(n):
        return None
    return float(((p > n).sum() + 0.5 * (p == n).sum()) / (len(p) * len(n)))


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # Stable descending sort: ties keep the original candidate order.
    return np.argsort(-scores, kind="stable")


def mrr(impression: RankedImpression):
    """Mean reciprocal 1-based rank over the positives; None if no positive."""
    if not (impression.labels == 1).any():
        return None
    order = _descending_order(impression.scores)
    ranked_labels = impression.labels[order]
    ranks = np.flatnonzero(ranked_labels == 1) + 1
    return float(np.mean(1.0 / ranks))


def ndcg_at_k(impression: RankedImpression, k: int):
    """Normalized discounted cumulative gain over the top k; None if no positive."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (impression.labels == 1).any():
        return None
    order = _descending_order(impression.scores)
    gains = (2.0 ** impression.labels - 1.0)
    discounts = 1.0 / np.log2(np.arange(2, len(order) + 2))
    dcg = float((gains[order] * discounts)[:k].sum())
    ideal = float((np.sort(gains)[::-1] * discounts)[:k].sum())
    return dcg / ideal


@dataclass
class EvalReport:
    metrics: dict[str, float]
    n_impressions: int
    n_scored: int
    n_skipped_missing: int   # impressions with a candidate missing from the catalog
    n_missing_history: int   # history ids of scored impressions missing from the catalog
    excluded: dict[str, int]
    config_fingerprint: str
    per_impression: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        """The report as strict JSON: a mean no impression supports is ``null``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "per_impression"}
        payload["metrics"] = {name: value if math.isfinite(value) else None
                              for name, value in self.metrics.items()}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)

    def write_per_impression_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["impression_id", *METRICS])
            for row in self.per_impression:
                writer.writerow([row["impression_id"]] + [
                    "" if row[name] is None else repr(row[name]) for name in METRICS])


def config_fingerprint(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def score_log_impression(model, catalog, timeline, record, mode="full", news_cache=None):
    """Scores + labels for one log record, or None if a candidate is unknown."""
    candidate_ids = [news_id for news_id, _ in record.shown]
    if any(news_id not in catalog for news_id in candidate_ids):
        return None
    history = [catalog.get(news_id) for news_id in record.history]
    # Only the known clicks the model keeps need features.
    history = recent_history([a for a in history if a is not None], model.config.max_history)
    feats = impression_features(
        timeline, record.time,
        [a.news_id for a in history] + candidate_ids,
        model.config.grid_d, catalog)
    candidates = [catalog.get(news_id) for news_id in candidate_ids]
    tensors = model.score_impression(history, candidates, feats, mode=mode,
                                     news_cache=news_cache)
    scores = np.array([float(t.data.reshape(())) for t in tensors], dtype=np.float64)
    labels = np.array([label for _, label in record.shown], dtype=np.int64)
    return RankedImpression(scores, labels, record.impression_id)


def evaluate(model, test_log, timeline, catalog, mode="full",
             config_dict=None) -> EvalReport:
    """Mean metrics over all scorable impressions of a log.

    Article vectors are cached for the length of the call (the parameters
    cannot change inside it), so each article is encoded once.
    """
    news_cache = {}
    per_impression = []
    n_skipped = 0
    n_missing_history = 0
    for record in test_log:
        ranked = score_log_impression(model, catalog, timeline, record, mode=mode,
                                      news_cache=news_cache)
        if ranked is None:
            n_skipped += 1
            continue
        n_missing_history += sum(news_id not in catalog for news_id in record.history)
        row = zip(METRICS, (auc(ranked), mrr(ranked), ndcg_at_k(ranked, 5),
                            ndcg_at_k(ranked, 10)))
        per_impression.append({"impression_id": record.impression_id, **dict(row)})
    means, excluded = {}, {}
    for name in METRICS:
        values = [row[name] for row in per_impression if row[name] is not None]
        # Plain float addition in impression order, not fsum or sum (compensated
        # from Python 3.12): the means are pinned bit for bit.
        total = 0.0
        for value in values:
            total += value
        means[name] = total / len(values) if values else math.nan
        excluded[name] = len(per_impression) - len(values)
    return EvalReport(
        metrics=means,
        n_impressions=len(test_log),
        n_scored=len(per_impression),
        n_skipped_missing=n_skipped,
        n_missing_history=n_missing_history,
        excluded=excluded,
        config_fingerprint=config_fingerprint(config_dict or {}),
        per_impression=per_impression,
    )
