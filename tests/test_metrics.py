import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidrec.corpus import ImpressionLog, ImpressionRecord
from avoidrec.metrics import (METRICS, EvalReport, NonFiniteScoreError, RankedImpression, auc,
                              evaluate, mrr, ndcg_at_k, score_log_impression)
from avoidrec.model import AvoidanceAwareRanker, VocabSizes
from avoidrec.news_encoder import NewsEncoder
from conftest import make_articles, tiny_config


def imp(scores, labels):
    return RankedImpression(np.asarray(scores, dtype=float),
                            np.asarray(labels, dtype=int))


# -- independent oracles ------------------------------------------------------

def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def rank_sum_auc(scores, labels):
    """Mann-Whitney AUC from 1-based ascending ranks, tied scores sharing their mean rank."""
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if not n_pos or not n_neg:
        return None
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = sum(r for r, label in zip(ranks, labels) if label == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def brute_force_mrr(scores, labels):
    if 1 not in labels:
        return None
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    rr = [1.0 / (rank + 1) for rank, i in enumerate(order) if labels[i] == 1]
    return sum(rr) / len(rr)


def brute_force_ndcg(scores, labels, k):
    if 1 not in labels:
        return None
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    dcg = sum((2 ** labels[i] - 1) / math.log2(rank + 2)
              for rank, i in enumerate(order[:k]))
    ideal_labels = sorted(labels, reverse=True)
    idcg = sum((2 ** l - 1) / math.log2(rank + 2)
               for rank, l in enumerate(ideal_labels[:k]))
    return dcg / idcg


class TestAuc:
    def test_perfect_order(self):
        assert auc(imp([0.9, 0.1], [1, 0])) == 1.0

    def test_all_ties_half(self):
        assert auc(imp([0.5, 0.5], [1, 0])) == 0.5

    def test_worst_order(self):
        assert auc(imp([0.2, 0.5, 0.4], [1, 0, 0])) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_is_an_error(self, bad):
        # A NaN once sorted as the top score and gave AUC = 1.0.
        with pytest.raises(NonFiniteScoreError):
            auc(imp([bad, 0.1, 0.2], [1, 0, 0]))

    def test_single_class_excluded(self):
        assert auc(imp([0.2, 0.5], [1, 1])) is None
        assert auc(imp([0.2, 0.5], [0, 0])) is None

    def test_matches_brute_force_on_random_impressions(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            scores = rng.choice([0.1, 0.25, 0.5, 0.9], size=n)  # force ties
            labels = rng.integers(0, 2, size=n)
            mine = auc(imp(scores, labels))
            oracle = brute_force_auc(list(scores), list(labels))
            if oracle is None:
                assert mine is None
            else:
                assert mine == pytest.approx(oracle, abs=1e-9)

    def test_pair_count_equals_the_rank_sum_bit_for_bit(self):
        # Both numerators are the same half-integer, exact in a float, so the
        # pair count and the rank sum give one float, not two close ones.
        rng = np.random.default_rng(11)
        defined = 0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            scores = rng.choice([-1.0, 0.0, 0.3, 0.7, 2.5], size=n)  # about n/5 ties each
            labels = rng.integers(0, 2, size=n)
            oracle = rank_sum_auc([float(s) for s in scores], [int(v) for v in labels])
            mine = auc(imp(scores, labels))
            assert (mine is None) == (oracle is None)
            if oracle is not None:
                assert mine == oracle
                defined += 1
        assert defined > 900


class TestMrr:
    def test_positive_first(self):
        assert mrr(imp([0.9, 0.1], [1, 0])) == 1.0

    def test_positive_second(self):
        assert mrr(imp([0.1, 0.9], [1, 0])) == 0.5

    def test_two_positives_ranks_one_and_three(self):
        value = mrr(imp([0.9, 0.5, 0.4], [1, 0, 1]))
        assert value == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)

    def test_no_positive_excluded(self):
        assert mrr(imp([0.9, 0.1], [0, 0])) is None

    def test_tie_break_is_stable_by_index(self):
        # equal scores: the earlier candidate wins the better rank
        assert mrr(imp([0.5, 0.5], [0, 1])) == 0.5
        assert mrr(imp([0.5, 0.5], [1, 0])) == 1.0


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        for k in (1, 2, 5, 10):
            assert ndcg_at_k(imp([0.9, 0.8, 0.1], [1, 1, 0]), k) == pytest.approx(1.0)

    def test_single_positive_rank_two(self):
        value = ndcg_at_k(imp([0.9, 0.8], [0, 1]), 5)
        assert value == pytest.approx(1.0 / math.log2(3.0))

    def test_k_beyond_length_equals_full_list(self):
        ranked = imp([0.3, 0.9, 0.5], [1, 0, 1])
        assert ndcg_at_k(ranked, 50) == ndcg_at_k(ranked, 3)

    def test_no_positive_excluded(self):
        assert ndcg_at_k(imp([0.9], [0]), 5) is None

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ndcg_at_k(imp([0.9], [1]), 0)


def test_all_metrics_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        scores = np.round(rng.random(size=n), 2)  # rounded to produce ties
        labels = rng.integers(0, 2, size=n)
        ranked = imp(scores, labels)
        cases = [
            (auc(ranked), brute_force_auc(list(scores), list(labels))),
            (mrr(ranked), brute_force_mrr(list(scores), list(labels))),
            (ndcg_at_k(ranked, 5), brute_force_ndcg(list(scores), list(labels), 5)),
            (ndcg_at_k(ranked, 10), brute_force_ndcg(list(scores), list(labels), 10)),
        ]
        for mine, oracle in cases:
            if oracle is None:
                assert mine is None
            else:
                assert mine == pytest.approx(oracle, abs=1e-9)


@given(st.lists(st.tuples(st.integers(-320, 320), st.integers(0, 1)),
                min_size=2, max_size=12),
       st.floats(0.1, 3.0), st.floats(-2, 2))
@settings(max_examples=150, deadline=None)
def test_monotone_transform_invariance(pairs, scale_factor, shift):
    # grid-valued scores keep distinct values distinct under the transform
    scores = np.array([s / 64.0 for s, _ in pairs])
    labels = np.array([l for _, l in pairs])
    ranked = imp(scores, labels)
    transformed = imp(scores * scale_factor + shift, labels)
    for metric in (auc, mrr, lambda r: ndcg_at_k(r, 5)):
        a, b = metric(ranked), metric(transformed)
        if a is None:
            assert b is None
        else:
            assert b == pytest.approx(a, abs=1e-9)


# -- dataset-level evaluation -------------------------------------------------

class _StubConfig:
    grid_d = 5
    max_history = 50


class _StubModel:
    """Deterministic scorer for evaluate(): score = f(news_id)."""

    config = _StubConfig()

    def __init__(self, fn):
        self.fn = fn

    def score_impression(self, history, candidates, feats, mode="full", news_cache=None):
        import avoidrec.autodiff as ad
        return [ad.constant([[self.fn(a.news_id)]], dtype=np.float64)
                for a in candidates]


class _StubCatalog:
    def __init__(self, ids=(), articles=None):
        from avoidrec.corpus import NewsArticle
        self.articles = articles or {i: NewsArticle(i, 0, [0]) for i in ids}

    def __contains__(self, news_id):
        return news_id in self.articles

    def get(self, news_id):
        return self.articles.get(news_id)


def _log(rows):
    records = [ImpressionRecord(str(i), "U", 1000 + i, [], shown)
               for i, shown in enumerate(rows)]
    return ImpressionLog(records)


def _timeline():
    from avoidrec.stats import build_timeline
    return build_timeline(ImpressionLog([]), 3600)


class TestEvaluate:
    def test_constant_model_gives_half_auc(self):
        log = _log([[("A", 1), ("B", 0)], [("A", 0), ("B", 1)]])
        catalog = _StubCatalog(["A", "B"])
        report = evaluate(_StubModel(lambda _: 0.5), log, _timeline(), catalog)
        assert report.metrics["auc"] == 0.5

    def test_oracle_model_maxes_all_metrics(self):
        log = _log([[("P", 1), ("N", 0)], [("N", 0), ("P", 1)]])
        catalog = _StubCatalog(["P", "N"])
        report = evaluate(_StubModel(lambda nid: 1.0 if nid == "P" else 0.0),
                          log, _timeline(), catalog)
        for name in ("auc", "mrr", "ndcg5", "ndcg10"):
            assert report.metrics[name] == 1.0

    def test_missing_candidate_skips_impression(self):
        log = _log([[("A", 1), ("GONE", 0)], [("A", 1), ("B", 0)]])
        catalog = _StubCatalog(["A", "B"])
        report = evaluate(_StubModel(lambda _: 0.1), log, _timeline(), catalog)
        assert report.n_skipped_missing == 1
        assert report.n_scored == 1

    def test_missing_history_ids_are_counted(self):
        # Unknown history ids of scored impressions are dropped and counted;
        # a skipped impression's history is not looked at.
        shown = [("A", 1), ("B", 0)]
        log = ImpressionLog([ImpressionRecord("0", "U", 1000, ["A", "X", "Y"], shown),
                             ImpressionRecord("1", "U", 1001, ["Z"], shown + [("GONE", 0)]),
                             ImpressionRecord("2", "U", 1002, ["X"], shown)])
        report = evaluate(_StubModel(lambda _: 0.1), log, _timeline(), _StubCatalog(["A", "B"]))
        assert report.n_scored == 2 and report.n_skipped_missing == 1
        assert report.n_missing_history == 3
        assert json.loads(report.to_json())["n_missing_history"] == 3

    def test_report_json_is_strict_when_a_metric_has_no_impression(self):
        # Every impression is all-positive, so no AUC is defined: the report
        # writes null for its mean, never the non-standard NaN token.
        log = _log([[("A", 1), ("B", 1)], [("B", 1)]])
        report = evaluate(_StubModel(lambda _: 0.1), log, _timeline(), _StubCatalog(["A", "B"]))
        assert math.isnan(report.metrics["auc"]) and report.excluded["auc"] == 2

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        parsed = json.loads(report.to_json(), parse_constant=refuse)
        assert parsed["metrics"] == {"auc": None, "mrr": 0.875, "ndcg5": 1.0, "ndcg10": 1.0}

    def test_report_means_match_csv_dump(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(30):
            n = int(rng.integers(2, 6))
            rows.append([(f"A{j}", int(rng.integers(0, 2))) for j in range(n)])
        catalog = _StubCatalog([f"A{j}" for j in range(6)])
        scores = {f"A{j}": float(rng.random()) for j in range(6)}
        report = evaluate(_StubModel(lambda nid: scores[nid]), _log(rows),
                          _timeline(), catalog)
        path = tmp_path / "per_imp.csv"
        report.write_per_impression_csv(path)
        with open(path) as fh:
            dumped = list(csv.DictReader(fh))
        for name in ("auc", "mrr", "ndcg5", "ndcg10"):
            values = [float(r[name]) for r in dumped if r[name] != ""]
            if values:
                assert report.metrics[name] == pytest.approx(
                    sum(values) / len(values), abs=1e-12)
            else:
                assert math.isnan(report.metrics[name])
        assert report.excluded["auc"] == sum(1 for r in dumped if r["auc"] == "")

    def test_report_names_the_metrics_in_one_order(self, tmp_path):
        log = _log([[("A", 1), ("B", 0)], [("A", 1), ("B", 1)]])
        report = evaluate(_StubModel(lambda nid: 0.9 if nid == "A" else 0.1), log,
                          _timeline(), _StubCatalog(["A", "B"]))
        assert tuple(report.metrics) == tuple(report.excluded) == METRICS
        assert [list(row) for row in report.per_impression] == [["impression_id", *METRICS]] * 2
        path = tmp_path / "rows.csv"
        report.write_per_impression_csv(path)
        assert path.read_text().splitlines() == [
            "impression_id,auc,mrr,ndcg5,ndcg10", "0,1.0,1.0,1.0,1.0", "1,,0.75,1.0,1.0"]
        # Every field but the rows, with a mean no impression supports as null.
        payload = json.loads(report.to_json())
        names = [f for f in EvalReport.__dataclass_fields__ if f != "per_impression"]
        assert sorted(payload) == sorted(names)
        assert payload["excluded"] == {"auc": 1, "mrr": 0, "ndcg5": 0, "ndcg10": 0}

    def test_non_finite_score_raises_naming_the_impression(self):
        log = _log([[("A", 1), ("B", 0)], [("A", 0), ("BAD", 1)]])
        catalog = _StubCatalog(["A", "B", "BAD"])
        model = _StubModel(lambda nid: math.nan if nid == "BAD" else 0.5)
        with pytest.raises(NonFiniteScoreError, match="impression '1'") as err:
            evaluate(model, log, _timeline(), catalog)
        assert err.value.impression_id == "1"


def _real_model_log():
    """A tiny float64 model and a log whose impressions share articles."""
    articles = make_articles(9)
    ids = sorted(articles)
    rows = [(ids[0:2], [(ids[4], 1), (ids[5], 0), (ids[6], 0)]),
            (ids[1:4], [(ids[4], 0), (ids[7], 1), (ids[0], 0)]),
            ([], [(ids[8], 1), (ids[5], 0)]),
            (ids[2:6], [(ids[6], 1), (ids[8], 0), (ids[1], 0)])]
    log = ImpressionLog([ImpressionRecord(str(i), "U", 1000 + i, history, shown)
                         for i, (history, shown) in enumerate(rows)])
    model = AvoidanceAwareRanker(tiny_config(), VocabSizes(12, 3, 5), seed=3)
    return model, log, _StubCatalog(articles=articles)


class TestEvaluateCache:
    def test_each_article_encoded_once_per_call(self, monkeypatch):
        model, log, catalog = _real_model_log()
        encoded = []
        encode_news = NewsEncoder.encode_news

        def counting(self, articles):
            articles = list(articles)
            encoded.extend(a.news_id for a in articles)
            return encode_news(self, articles)

        monkeypatch.setattr(NewsEncoder, "encode_news", counting)
        for _ in range(2):  # a second call starts from an empty cache
            encoded.clear()
            evaluate(model, log, _timeline(), catalog)
            assert sorted(encoded) == sorted(set(encoded))
            assert len(encoded) == 9

    def test_cached_scores_equal_fresh_scores(self):
        model, log, catalog = _real_model_log()
        timeline = _timeline()
        for mode in ("full", "only_rel", "only_avoid"):
            cache = {}
            for record in log:
                cached = score_log_impression(model, catalog, timeline, record, mode, cache)
                fresh = score_log_impression(model, catalog, timeline, record, mode)
                assert np.allclose(cached.scores, fresh.scores, rtol=0, atol=1e-12)


def test_features_cover_only_the_kept_history(monkeypatch):
    # Only the last max_history known clicks are scored, so only they get
    # features; the scores are those of features for the whole history, and
    # the unknown click is still counted.
    import avoidrec.metrics as metrics_mod
    from avoidrec.features import impression_features

    model = AvoidanceAwareRanker(tiny_config(max_history=3), VocabSizes(12, 3, 5), seed=3)
    articles = make_articles(10)
    ids = sorted(articles)
    history = ids[:6] + ["GONE"]
    shown = [(ids[6], 1), (ids[7], 0), (ids[8], 0), (ids[9], 0)]
    log = ImpressionLog([ImpressionRecord("0", "U", 1000, history, shown)])
    catalog = _StubCatalog(articles=articles)
    calls = []

    def recording(timeline, time, news_ids, grid_d, catalog=None):
        calls.append(list(news_ids))
        return impression_features(timeline, time, news_ids, grid_d, catalog)

    monkeypatch.setattr(metrics_mod, "impression_features", recording)
    report = evaluate(model, log, _timeline(), catalog)
    assert calls == [ids[3:6] + ids[6:]]
    assert report.n_missing_history == 1

    feats = impression_features(_timeline(), 1000, ids, model.config.grid_d, catalog)
    expected = model.score_impression([articles[i] for i in ids[:6]],
                                      [articles[i] for i, _ in shown], feats)
    got = metrics_mod.score_log_impression(model, catalog, _timeline(), log.records[0])
    assert list(got.scores) == [float(t.data[0, 0]) for t in expected]
