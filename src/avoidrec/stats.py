"""Cumulative, time-bucketed exposure and avoidance statistics.

A ``BucketTimeline`` is one append-only event index over an impression
log: records arrive in time order, and it keeps the record times, each
article's exposure times and click times, and the times at which the
running maximum of per-article clicks rose.  A ``StatsSnapshot`` is a
light view of that index at one boundary ``b``: it counts only records
with ``time < b``, each count being one ``bisect_left`` in a sorted time
list -- the number of impression records seen (``n_impressions``), and
per article how often it was shown (``exposures``) and clicked
(``clicks``).  From those counters ``engagement_ratios`` derives two
ratios per article; it is the one copy of that formula, shared by the
features, the generator and the CSV export:

* exposure per impression: ``exposures / n_impressions`` -- how broadly
  the article has been shown so far;
* avoidance: ``1 - clicks / exposures`` -- the fraction of showings that
  did not convert (1 means never clicked, 0 means always clicked).

Counters are cumulative from the start of the log, never windowed.
Nothing is copied per bucket, so memory grows with the number of events,
not with buckets x articles.  The per-article dicts are keyed by the
records' news ids; for a log from ``corpus.parse_behaviors_file`` these
are the interned strings that also key the catalog, so the timeline
holds no id string of its own and catalog-id lookups hit on identity.
Appending records at or after ``b`` never changes a view at ``b``.
Views only read the index, so any number of threads may read views of
one timeline at once; appending needs exclusive access.
"""

from __future__ import annotations

import csv
from bisect import bisect_left

STATS_SCHEMA_VERSION = "stats-v1"

# Sentinel news_id for the per-bucket global row in CSV exports; its
# exposures column carries the bucket's total impression count.
GLOBAL_ROW_ID = ""


class BucketTimeline:
    """Append-only event index with boundaries at ``origin + k * bucket_width``.

    ``origin`` is the first record's time.  Boundaries run for ``k >= 1``
    up to one full width past the last record, so every record lands
    strictly before at least one boundary.
    """

    def __init__(self, bucket_width: int):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self.times: list[int] = []
        self.exposure_times: dict[str, list[int]] = {}
        self.click_times: dict[str, list[int]] = {}
        self.max_click_rises: list[int] = []  # k-th entry: when max clicks reached k

    @property
    def origin(self) -> int:
        return self.times[0] if self.times else 0

    def append(self, record):
        t = record.time
        if self.times and t < self.times[-1]:
            raise ValueError("impression log is not sorted by time")
        self.times.append(t)
        # ``get`` first: ``setdefault(news_id, [])`` would build a list per candidate.
        for news_id, label in record.shown:
            times = self.exposure_times.get(news_id)
            if times is None:
                times = self.exposure_times[news_id] = []
            times.append(t)
            if label:
                clicks = self.click_times.get(news_id)
                if clicks is None:
                    clicks = self.click_times[news_id] = []
                clicks.append(t)
                if len(clicks) > len(self.max_click_rises):
                    self.max_click_rises.append(t)

    @property
    def n_buckets(self) -> int:
        return (self.times[-1] - self.origin) // self.bucket_width + 1 if self.times else 0

    def boundaries(self) -> list[int]:
        return [self.origin + k * self.bucket_width for k in range(1, self.n_buckets + 1)]


class StatsSnapshot:
    """Read-only view of a timeline's counters over records with ``time < t``.

    ``timeline`` is the index it reads; readers that batch many articles
    (``features.impression_features``, ``synthetic.generate``) bisect its
    lists directly.
    """

    __slots__ = ("t", "n_impressions", "timeline")

    def __init__(self, timeline: BucketTimeline, t: int):
        self.timeline = timeline
        self.t = t
        self.n_impressions = bisect_left(timeline.times, t)

    def exposures(self, news_id: str) -> int:
        return bisect_left(self.timeline.exposure_times.get(news_id, ()), self.t)

    def clicks(self, news_id: str) -> int:
        return bisect_left(self.timeline.click_times.get(news_id, ()), self.t)

    def max_clicks(self) -> int:
        return bisect_left(self.timeline.max_click_rises, self.t)

    def news_ids(self) -> list[str]:
        """Articles exposed before ``t``, in order of first exposure."""
        return [news_id for news_id, times in self.timeline.exposure_times.items()
                if times[0] < self.t]


ZERO_SNAPSHOT = StatsSnapshot(BucketTimeline(1), 0)


def build_timeline(log, bucket_width: int) -> BucketTimeline:
    """Index a time-sorted log; raises ``ValueError`` if it is not sorted."""
    timeline = BucketTimeline(bucket_width)
    for record in log:
        timeline.append(record)
    return timeline


def engagement_ratios(clicks: int, exposures: int, n_impressions: int) -> tuple[float, float]:
    """(avoidance, EPI) of one article from its counts in one snapshot.

    Avoidance is ``1 - clicks / exposures`` and EPI is ``exposures /
    n_impressions``.  An article with no exposures yet counts as totally
    avoided with EPI 0, which places cold articles in the low-exposure /
    high-avoidance corner of the engagement grid.
    """
    if not exposures:
        return 1.0, 0.0
    return 1.0 - clicks / exposures, exposures / n_impressions


def snapshot_at(timeline: BucketTimeline, t: int) -> StatsSnapshot:
    """Snapshot at the largest boundary <= t (all-zero before the first).

    Because a snapshot at boundary ``b`` excludes records at times in
    ``[b, t]``, the result never leaks information from ``t`` itself:
    it is safe to use for features of an impression happening at ``t``.
    """
    k = min((t - timeline.origin) // timeline.bucket_width, timeline.n_buckets)
    if k < 1:
        return ZERO_SNAPSHOT
    return StatsSnapshot(timeline, timeline.origin + k * timeline.bucket_width)


def export_snapshot_rows(snapshot: StatsSnapshot):
    """Rows for the CSV export schema.

    The first row per bucket is a global one (empty news id) whose
    exposures column holds the bucket's impression total.  The last
    column, ``clicks_norm``, is clicks / the bucket's maximum, linear;
    the model's ``clicks_norm`` (``features``) is ``log1p``-scaled, so a
    plot of this column does not show the model's input.
    """
    yield ["t", "news_id", "n_E", "n_clk", "epi", "avoidance", "clicks_norm"]
    yield [snapshot.t, GLOBAL_ROW_ID, snapshot.n_impressions, "", "", "", ""]
    max_clk = snapshot.max_clicks()
    for news_id in sorted(snapshot.news_ids()):
        clicks, exposures = snapshot.clicks(news_id), snapshot.exposures(news_id)
        av, epi = engagement_ratios(clicks, exposures, snapshot.n_impressions)
        yield [snapshot.t, news_id, exposures, clicks, repr(epi), repr(av),
               repr(clicks / max_clk) if max_clk else "0.0"]


def write_snapshot_csv(snapshot: StatsSnapshot, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema: {STATS_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        for row in export_snapshot_rows(snapshot):
            writer.writerow(row)
