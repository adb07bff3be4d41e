"""Quantization of (avoidance, exposure-per-impression) pairs onto a D x D grid.

Both ratios live in [0, 1]; the unit square is cut into D equal-width
bins per axis and each cell indexes one row of a trainable embedding
table.  The flat cell index is ``D * epi_idx + av_idx``, so walking one
full exposure bin up moves the flat index by exactly D, and
``divmod(cell, D)`` splits a cell back into ``(epi_idx, av_idx)``.
``snapshot_cell`` places one article by ``stats.engagement_ratios``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from . import autodiff as ad
from .stats import StatsSnapshot, engagement_ratios

GRID_SCHEMA_VERSION = "grid-v1"


def cell_index(av: float, epi_value: float, d: int) -> int:
    """Flat cell ``D * epi_idx + av_idx`` of one (avoidance, EPI) pair.

    Each ratio is clamped into [0, 1] (NaN counts as 0) and binned by
    floor(value * D); 1.0 maps to the last bin.  This is the grid's one
    quantisation formula: ``snapshot_cell``, ``features.impression_features``
    and ``synthetic.generate`` call it.
    """
    if d <= 0:
        raise ValueError("grid resolution must be positive")
    top = d - 1
    # Comparisons rather than min/max: this runs once per article and
    # impression, and builtin min/max calls cost several times as much.
    av = 0.0 if not av > 0.0 else (1.0 if av > 1.0 else av)
    epi_value = 0.0 if not epi_value > 0.0 else (1.0 if epi_value > 1.0 else epi_value)
    av_idx = math.floor(av * d)
    epi_idx = math.floor(epi_value * d)
    return d * (epi_idx if epi_idx < top else top) + (av_idx if av_idx < top else top)


class EngagementEmbeddingTable:
    """Trainable D^2 x dim embedding table over grid cells."""

    def __init__(self, d: int, dim: int, rng: np.random.Generator, dtype=None):
        self.d = d
        self.dim = dim
        data = rng.uniform(-0.1, 0.1, size=(d * d, dim))
        self.table = ad.parameter(data, name="engagement.table", dtype=dtype)

    def lookup(self, i_ue) -> ad.Tensor:
        """Rows (n, dim) for one flat cell index or a sequence of n; they receive gradients."""
        ids = np.atleast_1d(np.asarray(i_ue, dtype=np.int64))
        bad = ids[(ids < 0) | (ids >= self.d * self.d)]
        if bad.size:
            raise IndexError(f"flat cell index {bad[0]} outside [0, {self.d * self.d})")
        return ad.embedding_lookup(self.table, ids)


def snapshot_cell(snapshot: StatsSnapshot, news_id: str, d: int) -> int:
    """Flat grid cell of one article under a snapshot's statistics."""
    return cell_index(*engagement_ratios(snapshot.clicks(news_id), snapshot.exposures(news_id),
                                         snapshot.n_impressions), d)


def grid_cell_counts(snapshot: StatsSnapshot, d: int) -> dict[int, int]:
    """Article count per flat cell index for one snapshot."""
    counts: dict[int, int] = {}
    for news_id in snapshot.news_ids():
        cell = snapshot_cell(snapshot, news_id, d)
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def write_grid_csv(snapshot: StatsSnapshot, d: int, path):
    """Cell occupancy dump: one row per flat index (i_ue, av_idx, epi_idx, count)."""
    counts = grid_cell_counts(snapshot, d)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema: {GRID_SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(["i_ue", "av_idx", "epi_idx", "article_count"])
        for i_ue in range(d * d):
            epi_idx, av_idx = divmod(i_ue, d)
            writer.writerow([i_ue, av_idx, epi_idx, counts.get(i_ue, 0)])
