import csv
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidrec.corpus import ImpressionLog, ImpressionRecord, Interner, NewsArticle, NewsCatalog
from avoidrec.features import impression_features
from avoidrec.grid import cell_index
from avoidrec.stats import (GLOBAL_ROW_ID, BucketTimeline, StatsSnapshot, build_timeline,
                            engagement_ratios, snapshot_at, write_snapshot_csv)


def rec(i, t, shown, history=()):
    return ImpressionRecord(str(i), f"U{i}", t, list(history), list(shown))


def random_log(rng, n, horizon=40000, n_articles=30):
    records = []
    for i in range(n):
        t = int(rng.integers(0, horizon))
        n_shown = int(rng.integers(1, 6))
        shown = [(f"N{int(rng.integers(0, n_articles)):03d}", int(rng.integers(0, 2)))
                 for _ in range(n_shown)]
        records.append(rec(i, t, shown))
    records.sort(key=lambda r: r.time)
    return ImpressionLog(records)


def snapshot_of(n_impressions, exposures, clicks=None):
    """View at boundary 1 of ``n_impressions`` records at time 0 with these counts.

    Record i shows each article whose exposure count exceeds i, clicked
    when its click count exceeds i.
    """
    clicks = clicks or {}
    records = [rec(i, 0, [(news_id, int(i < clicks.get(news_id, 0)))
                          for news_id, n in exposures.items() if i < n])
               for i in range(n_impressions)]
    return StatsSnapshot(build_timeline(ImpressionLog(records), 1), 1)


def brute_force_snapshot(records, boundary):
    """Independent oracle: recount the prefix from scratch."""
    n_imp = 0
    exposures, clicks, first_seen = {}, {}, {}
    for r in records:
        if r.time >= boundary:
            continue
        n_imp += 1
        for news_id, label in r.shown:
            exposures[news_id] = exposures.get(news_id, 0) + 1
            clicks[news_id] = clicks.get(news_id, 0) + label
            first_seen.setdefault(news_id, r.time)
    return n_imp, exposures, clicks, first_seen


def oracle_boundary(records, width, t):
    """Largest boundary origin + k * width (1 <= k <= n_buckets) not after t."""
    if not records:
        return None
    origin = records[0].time
    n_buckets = (records[-1].time - origin) // width + 1
    below = [origin + k * width for k in range(1, n_buckets + 1) if origin + k * width <= t]
    return below[-1] if below else None


def oracle_features(records, width, t, news_ids, grid_d, catalog=None):
    """impression_features recomputed from the dict oracle.

    A catalog article's ``publish_time``, when set, replaces the first
    exposure as the start of the article's age.
    """
    boundary = oracle_boundary(records, width, t)
    n_imp, exposures, clicks, first_seen = (
        brute_force_snapshot(records, boundary) if boundary is not None else (0, {}, {}, {}))
    max_clicks = max(clicks.values(), default=0)
    log_den = math.log1p(max_clicks) if max_clicks > 0 else 0.0
    feats = {}
    for news_id in news_ids:
        n_exp, n_clk = exposures.get(news_id, 0), clicks.get(news_id, 0)
        av = 1.0 if n_exp == 0 else 1.0 - n_clk / n_exp
        epi_value = 0.0 if n_imp == 0 else n_exp / n_imp
        article = catalog.get(news_id) if catalog is not None else None
        published = (article.publish_time if article is not None
                     and article.publish_time is not None else first_seen.get(news_id))
        feats[news_id] = (
            cell_index(av, epi_value, grid_d),
            math.log1p(n_clk) / log_den if log_den else 0.0,
            max(0.0, (t - published) / 3600.0) if published is not None else 0.0)
    return feats


def as_tuples(feats):
    return {news_id: (f.cell, f.clicks_norm, f.age_hours) for news_id, f in feats.items()}


class TestBuildTimeline:
    def test_single_record_counts(self):
        log = ImpressionLog([rec(0, 0, [("A", 1), ("B", 0)])])
        timeline = build_timeline(log, 3600)
        assert timeline.boundaries() == [3600]
        snap = StatsSnapshot(timeline, 3600)
        assert snap.n_impressions == 1
        assert snap.news_ids() == ["A", "B"]
        assert (snap.exposures("A"), snap.exposures("B")) == (1, 1)
        assert (snap.clicks("A"), snap.clicks("B")) == (1, 0)
        assert snap.max_clicks() == 1

    def test_empty_log(self):
        timeline = build_timeline(ImpressionLog([]), 3600)
        assert timeline.boundaries() == []
        assert snapshot_at(timeline, 10_000).n_impressions == 0

    def test_record_on_boundary_excluded(self):
        log = ImpressionLog([rec(0, 0, [("A", 1)]), rec(1, 7200, [("A", 1)])])
        timeline = build_timeline(log, 3600)
        assert timeline.boundaries() == [3600, 7200, 10800]
        assert StatsSnapshot(timeline, 3600).exposures("A") == 1
        assert StatsSnapshot(timeline, 7200).exposures("A") == 1  # t=7200 not < 7200
        assert StatsSnapshot(timeline, 10800).exposures("A") == 2

    def test_unsorted_log_rejected(self):
        log = ImpressionLog([rec(0, 100, [("A", 1)]), rec(1, 50, [("A", 0)])])
        with pytest.raises(ValueError, match="sorted"):
            build_timeline(log, 3600)

    def test_unsorted_append_rejected(self):
        timeline = BucketTimeline(3600)
        timeline.append(rec(0, 100, [("A", 1)]))
        with pytest.raises(ValueError, match="sorted"):
            timeline.append(rec(1, 50, [("A", 0)]))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            build_timeline(ImpressionLog([]), 0)

    def test_incremental_equals_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            log = random_log(rng, 200)
            timeline = build_timeline(log, 5000)
            for boundary in timeline.boundaries():
                snap = StatsSnapshot(timeline, boundary)
                n_imp, exposures, clicks, _ = brute_force_snapshot(
                    log.records, boundary)
                assert snap.n_impressions == n_imp
                assert {k: snap.exposures(k) for k in snap.news_ids()} == exposures
                assert {k: snap.clicks(k) for k in snap.news_ids()} == clicks
                assert snap.max_clicks() == max(clicks.values(), default=0)

    def test_counters_monotone_over_buckets(self):
        rng = np.random.default_rng(1)
        log = random_log(rng, 300)
        timeline = build_timeline(log, 4000)
        boundaries = timeline.boundaries()
        for prev_b, cur_b in zip(boundaries, boundaries[1:]):
            prev, cur = StatsSnapshot(timeline, prev_b), StatsSnapshot(timeline, cur_b)
            assert cur.n_impressions >= prev.n_impressions
            assert cur.max_clicks() >= prev.max_clicks()
            for news_id in prev.news_ids():
                assert cur.exposures(news_id) >= prev.exposures(news_id)
                assert cur.clicks(news_id) >= prev.clicks(news_id)


def ratios(snap, news_id):
    """``engagement_ratios`` of one article's counts in ``snap``."""
    return engagement_ratios(snap.clicks(news_id), snap.exposures(news_id), snap.n_impressions)


def epi(snap, news_id):
    return ratios(snap, news_id)[1]


def avoidance(snap, news_id):
    return ratios(snap, news_id)[0]


class TestRatios:
    def test_epi_worked_example(self):
        snap = snapshot_of(100, {"n174": 50})
        assert epi(snap, "n174") == 0.5

    def test_avoidance_worked_example(self):
        snap = snapshot_of(100, {"n174": 50}, {"n174": 20})
        assert avoidance(snap, "n174") == pytest.approx(0.6)

    def test_unseen_article_epi_zero(self):
        snap = snapshot_of(10, {"A": 3})
        assert epi(snap, "B") == 0.0

    def test_epi_upper_bound(self):
        snap = snapshot_of(7, {"A": 7})
        assert epi(snap, "A") == 1.0

    def test_zero_impressions_epi_zero(self):
        assert epi(snapshot_of(0, {}), "A") == 0.0
        assert engagement_ratios(0, 0, 0) == (1.0, 0.0)

    def test_full_engagement_avoidance_zero(self):
        snap = snapshot_of(5, {"A": 5}, {"A": 5})
        assert avoidance(snap, "A") == 0.0

    def test_unexposed_article_fully_avoided(self):
        assert avoidance(snapshot_of(5, {}), "A") == 1.0

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, clicks, extra_exposures, n_imp):
        exposures = clicks + extra_exposures
        snap = snapshot_of(max(n_imp, exposures), {"A": exposures}, {"A": clicks})
        assert 0.0 <= epi(snap, "A") <= 1.0
        assert 0.0 <= avoidance(snap, "A") <= 1.0


class TestSnapshotAt:
    def _timeline(self):
        log = ImpressionLog([rec(0, 0, [("A", 1)]), rec(1, 4000, [("B", 0)])])
        return build_timeline(log, 3600)

    def test_exact_boundary(self):
        timeline = self._timeline()
        assert snapshot_at(timeline, 3600).t == 3600

    def test_between_boundaries(self):
        timeline = self._timeline()
        assert snapshot_at(timeline, 5000).t == 3600

    def test_before_first_boundary_is_zero(self):
        timeline = self._timeline()
        snap = snapshot_at(timeline, 100)
        assert snap.n_impressions == 0
        assert snap.news_ids() == []

    def test_causality_under_mutation(self):
        # Changing any record at time >= boundary never changes that snapshot.
        rng = np.random.default_rng(2)
        log = random_log(rng, 100)
        timeline = build_timeline(log, 6000)
        boundary = timeline.boundaries()[len(timeline.boundaries()) // 2]

        def counts(snap):
            return (snap.n_impressions, {k: (snap.exposures(k), snap.clicks(k))
                                         for k in snap.news_ids()})

        reference = counts(StatsSnapshot(timeline, boundary))
        for _ in range(50):
            records = list(log.records)
            later = [i for i, r in enumerate(records) if r.time >= boundary]
            if not later:
                break
            i = later[int(rng.integers(0, len(later)))]
            mutated = rec(999, records[i].time, [("MUT", 1)])
            records[i] = mutated
            new_timeline = build_timeline(ImpressionLog(records), 6000)
            assert counts(StatsSnapshot(new_timeline, boundary)) == reference


# Small random logs: few article ids (so they repeat, also within one
# record), time steps of 0 (equal timestamps) up to a few widths.
ARTICLES = ["A", "B", "C", "D", "E"]
shown_lists = st.lists(st.tuples(st.sampled_from(ARTICLES), st.integers(0, 1)),
                       min_size=1, max_size=4)
steps = st.lists(st.tuples(st.integers(0, 9), shown_lists), max_size=14)


def log_from_steps(start, step_list, first_index=0):
    records, t = [], start
    for i, (dt, shown) in enumerate(step_list):
        t += dt
        history = [ARTICLES[(i + k) % len(ARTICLES)] for k in range(i % 3)]
        records.append(rec(first_index + i, t, shown, history))
    return records


class TestAgainstDictOracle:
    @given(st.integers(0, 30), steps, st.sampled_from([1, 3, 7, 1000]))
    @settings(max_examples=300, deadline=None)
    def test_snapshots_and_features_equal_oracle(self, start, step_list, width):
        records = log_from_steps(start, step_list)
        timeline = build_timeline(ImpressionLog(records), width)
        last = records[-1].time if records else start
        boundaries = timeline.boundaries()
        queries = {start - 1, last + 2 * width} | {r.time for r in records} | {
            b + dt for b in boundaries for dt in (-1, 0, 1)}
        for t in sorted(queries):
            snap = snapshot_at(timeline, t)
            boundary = oracle_boundary(records, width, t)
            assert snap.t == (boundary if boundary is not None else 0)
            n_imp, exposures, clicks, _ = (
                brute_force_snapshot(records, boundary) if boundary is not None
                else (0, {}, {}, {}))
            assert snap.n_impressions == n_imp
            assert set(snap.news_ids()) == set(exposures)
            assert snap.max_clicks() == max(clicks.values(), default=0)
            for news_id in ARTICLES:
                assert snap.exposures(news_id) == exposures.get(news_id, 0)
                assert snap.clicks(news_id) == clicks.get(news_id, 0)
        for r in records:
            ids = r.history + [news_id for news_id, _ in r.shown] + ["UNSEEN"]
            feats = impression_features(timeline, r.time, ids, 4)
            assert as_tuples(feats) == oracle_features(records, width, r.time, ids, 4)

    @given(st.integers(0, 30), steps, st.sampled_from([1, 3, 7, 1000]),
           st.dictionaries(st.sampled_from(ARTICLES + ["UNSEEN"]),
                           st.one_of(st.none(), st.integers(-20, 200))),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_features_with_a_catalog_equal_oracle(self, start, step_list, width,
                                                  publish, as_news_catalog):
        # Publish times fall before, between and after the impressions (which
        # start at ``start`` <= 30 and step by at most 9); None means unknown.
        records = log_from_steps(start, step_list)
        timeline = build_timeline(ImpressionLog(records), width)
        articles = {news_id: NewsArticle(news_id, 0, 0, [], publish_time=t)
                    for news_id, t in publish.items()}
        catalog = (NewsCatalog(articles, Interner(), Interner(), Interner())
                   if as_news_catalog else articles)
        for r in records:
            ids = r.history + [news_id for news_id, _ in r.shown] + ["UNSEEN"]
            feats = impression_features(timeline, r.time, ids, 4, catalog)
            # ArticleFeatures is a NamedTuple: equal to the oracle's plain tuples.
            assert feats == oracle_features(records, width, r.time, ids, 4, catalog)

    @given(st.integers(0, 30), steps, steps, st.sampled_from([1, 3, 7, 1000]))
    @settings(max_examples=200, deadline=None)
    def test_appending_later_records_never_changes_features(self, start, head, tail, width):
        records = log_from_steps(start, head)
        timeline = BucketTimeline(width)
        before = []
        for r in records:
            timeline.append(r)
            ids = r.history + [news_id for news_id, _ in r.shown] + ["UNSEEN"]
            before.append((r, ids, as_tuples(impression_features(timeline, r.time, ids, 4))))
        last = records[-1].time if records else start
        for r in log_from_steps(last, tail, first_index=len(records)):
            timeline.append(r)
        for r, ids, feats in before:
            assert as_tuples(impression_features(timeline, r.time, ids, 4)) == feats


def test_concurrent_feature_reads_match_serial_reads():
    rng = np.random.default_rng(4)
    log = random_log(rng, 300, n_articles=40)
    timeline = build_timeline(log, 2000)

    def all_features():
        return [as_tuples(impression_features(
                    timeline, r.time, [news_id for news_id, _ in r.shown] + ["N000"], 5))
                for r in log]

    expected = all_features()
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(all_features()))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4


class TestExport:
    def test_csv_matches_api(self, tmp_path):
        rng = np.random.default_rng(3)
        log = random_log(rng, 60)
        timeline = build_timeline(log, 8000)
        snap = StatsSnapshot(timeline, timeline.boundaries()[-1])
        path = tmp_path / "snap.csv"
        write_snapshot_csv(snap, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        rows = list(csv.DictReader(lines[1:]))
        global_rows = [r for r in rows if r["news_id"] == GLOBAL_ROW_ID]
        assert len(global_rows) == 1
        assert int(global_rows[0]["n_E"]) == snap.n_impressions
        n_imp, exposures, clicks, _ = brute_force_snapshot(log.records, snap.t)
        assert sorted(r["news_id"] for r in rows if r["news_id"] != GLOBAL_ROW_ID) == \
            sorted(exposures)
        max_clk = snap.max_clicks()
        for row in rows:
            if row["news_id"] == GLOBAL_ROW_ID:
                continue
            nid = row["news_id"]
            assert float(row["epi"]) == exposures[nid] / n_imp
            assert float(row["avoidance"]) == 1.0 - clicks[nid] / exposures[nid]
            assert int(row["n_E"]) == snap.exposures(nid)
            expected_norm = snap.clicks(nid) / max_clk if max_clk else 0.0
            assert float(row["clicks_norm"]) == expected_norm
            assert 0.0 <= float(row["epi"]) <= 1.0
            assert 0.0 <= float(row["avoidance"]) <= 1.0
