"""Per-impression article features drawn from pre-impression statistics.

All statistics come from the snapshot at the largest bucket boundary not
after the impression time, so nothing recorded at or after the impression
itself can reach its features.  Click counts are log-scaled by the
snapshot's maximum so they land in [0, 1]; article age falls back to the
first observed exposure when no publish time is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import snapshot_cell
from .stats import BucketTimeline, snapshot_at


@dataclass(frozen=True)
class ArticleFeatures:
    cell: int           # flat engagement-grid index
    clicks_norm: float  # log-scaled clicks in [0, 1]
    age_hours: float    # elapsed time since publication (or first exposure)


def impression_features(timeline: BucketTimeline, impression_time: int,
                        news_ids, grid_d: int, catalog=None) -> dict[str, ArticleFeatures]:
    """Features for every article involved in one impression."""
    snap = snapshot_at(timeline, impression_time)
    max_clicks = snap.max_clicks()
    log_den = math.log1p(max_clicks) if max_clicks > 0 else 0.0
    feats = {}
    for news_id in news_ids:
        if news_id in feats:
            continue
        cell = snapshot_cell(snap, news_id, grid_d)
        clicks = snap.clicks(news_id)
        clicks_norm = math.log1p(clicks) / log_den if log_den else 0.0
        published = None
        if catalog is not None:
            article = catalog.get(news_id)
            if article is not None and article.publish_time is not None:
                published = article.publish_time
        if published is None:
            published = snap.first_seen(news_id)
        age_hours = max(0.0, (impression_time - published) / 3600.0) if published is not None else 0.0
        feats[news_id] = ArticleFeatures(cell=cell.i_ue, clicks_norm=clicks_norm,
                                         age_hours=age_hours)
    return feats
