"""Per-impression article features drawn from pre-impression statistics.

All statistics come from the snapshot at the largest bucket boundary not
after the impression time, so nothing recorded at or after the impression
itself can reach its features.  Click counts become log1p(clicks) /
log1p(snapshot maximum), in [0, 1], not the linear clicks / maximum of
the ``stats`` snapshot CSV; article age falls back to the first observed
exposure when no publish time is known.

``impression_features`` takes the snapshot once per call and then makes
one pass per distinct article: one ``bisect_left`` into the article's
exposure times, and one into its click times only when it was exposed.
Avoidance and EPI come from those two counts by ``stats.engagement_ratios``
and the grid cell from ``grid.cell_index``, the one formula and the one
quantisation that the generator also uses; click scaling and age are
computed inline.  An unexposed article skips both calls: its cell is the
cold one, computed once per call.  ``ArticleFeatures`` is a
``NamedTuple``, so it also compares equal to a plain
``(cell, clicks_norm, age_hours)`` tuple.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from .grid import cell_index
from .stats import BucketTimeline, engagement_ratios, snapshot_at


class ArticleFeatures(NamedTuple):
    cell: int           # flat engagement-grid index
    clicks_norm: float  # log-scaled clicks in [0, 1]
    age_hours: float    # elapsed time since publication (or first exposure)


def impression_features(timeline: BucketTimeline, impression_time: int,
                        news_ids, grid_d: int, catalog=None) -> dict[str, ArticleFeatures]:
    """Features for every article involved in one impression.

    ``catalog`` is anything with a ``get(news_id)`` returning an article
    or ``None`` (a ``NewsCatalog`` or a plain dict); an article's
    ``publish_time`` there takes precedence over its first exposure.
    """
    snap = snapshot_at(timeline, impression_time)
    t = snap.t
    n_impressions = snap.n_impressions
    exposure_times = snap.timeline.exposure_times
    click_times = snap.timeline.click_times
    max_clicks = snap.max_clicks()
    log_den = math.log1p(max_clicks) if max_clicks > 0 else 0.0
    catalog_get = catalog.get if catalog is not None else None
    unseen_cell = cell_index(*engagement_ratios(0, 0, n_impressions), grid_d)
    feats = {}
    for news_id in news_ids:
        if news_id in feats:
            continue
        times = exposure_times.get(news_id)
        n_exp = bisect_left(times, t) if times else 0
        if n_exp:
            clicks = bisect_left(click_times.get(news_id, ()), t)
            # Unpacked into locals: a starred call costs about twice as much here.
            av, epi = engagement_ratios(clicks, n_exp, n_impressions)
            cell = cell_index(av, epi, grid_d)
            clicks_norm = math.log1p(clicks) / log_den if log_den else 0.0
            published = times[0]
        else:
            cell, clicks_norm, published = unseen_cell, 0.0, None
        if catalog_get is not None:
            article = catalog_get(news_id)
            if article is not None and article.publish_time is not None:
                published = article.publish_time
        if published is None:
            age_hours = 0.0
        else:
            age_hours = (impression_time - published) / 3600.0
            if not age_hours > 0.0:
                age_hours = 0.0
        feats[news_id] = ArticleFeatures(cell, clicks_norm, age_hours)
    return feats
