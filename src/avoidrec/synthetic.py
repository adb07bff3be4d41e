"""Synthetic news-click corpus generator.

Produces a catalog (news.tsv) and an impression log (behaviors.tsv) whose
click behavior is driven by the engagement grid: a shown article sits in
the (avoidance, exposure-per-impression) cell of the statistics frozen at
the start of the current bucket, and a user's click probability on it is
the base rate times the cell's propensity multiplier (normalized by the
mean multiplier so the base rate stays the average).  An empty
``affinity``, the default, is uniform: every cell's multiplier is exactly
1.0, so a cell-following user clicks with the very probability of one who
ignores the cells, and no D x D matrix is built.  Articles enter the
pool on staggered schedules and their exposure weight decays afterwards,
so they wander across grid cells as buckets pass.  Optional knobs:

* ``affinity_user_fraction`` -- only the first fraction of users follow
  the cell propensities; the rest ignore them (their multiplier is 1).
* ``freshness_boost`` -- a >1 value multiplies everyone's click
  probability on recently surfaced articles, decaying with the article's
  age in buckets.

Every emitted record is appended to a ``stats.BucketTimeline``.  An
article's cell is frozen at the bucket start: its exposure and click
counts there are one ``bisect_left`` each into the timeline's time lists,
as ``features.impression_features`` reads them, and the cell comes from
the same ``stats.engagement_ratios`` and ``grid.cell_index`` that the
model's features use, with no frozen copies of the counters;
``divmod(cell, grid_d)`` gives its (epi, avoidance) bins.  Cell,
freshness and the two click probabilities (cell-following user or not)
are computed once per (article, bucket), and only for articles that are
shown; the resulting ``(cell, p)`` slots and each article's two
``(news_id, label)`` pairs are shared tuples.  All state is local to one
``generate`` call, so concurrent calls are independent.

The articles come from one batched draw.  ``_make_articles`` reads its
6-9 bounded integers per article (category, word count, words, suffix)
through ``_BoundedIntegers``, which draws raw 32-bit words in one array
call and replays numpy's 32-bit Lemire rejection algorithm on them, the
one ``Generator.integers(0, n)`` runs for a bound up to 2**32 (checked
against numpy 2.4.6); it then rewinds the generator and advances it by
exactly the words used.  So the articles and the stream after them are
those of one scalar ``rng.integers`` call per draw.

Sampling is one CDF per bucket.  The pool and its exposure weights change
only at a bucket boundary, so the normalised weights and their CDF are
built once per bucket, and each impression picks its articles with
``_choice_without_replacement``.  That sampler is an exact replica of
numpy's ``Generator.choice(pool, size, replace=False, p=probs)``
(checked against numpy 2.4.6): the same uniforms inverted through the
same CDF, the same first-occurrence rule, the same zero-and-redraw loop
on a repeat, so the picks and the stream that follows them are draw for
draw the same.  A click label is ``u < p`` for one uniform per shown
slot; the labels of an impression come from one ``rng.random(n_shown)``
call, which reads the stream just as one scalar draw per slot would.
The ``GOLDEN`` and ``BENCHMARK_GOLDEN`` sha256 pins in
``tests/test_synthetic.py`` hold the output byte for byte, and property
tests there hold the sampler to ``Generator.choice`` and the article
draws to scalar ``Generator.integers``; a numpy release that changes
either algorithm fails both.

The first impression lands exactly on the first bucket boundary, so a
timeline built from the emitted log with the same bucket width freezes
statistics at exactly the boundaries this generator used.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import ImpressionRecord, format_behaviors_line
from .grid import cell_index
from .model import check_integer, json_fields
from .stats import BucketTimeline, engagement_ratios

# 2019-11-09 00:00:00 UTC; arbitrary but fixed so outputs are reproducible.
DEFAULT_ORIGIN = 1573257600

_CATEGORIES = ["sports", "finance", "tech", "health", "travel", "food"]
_FILLER_WORDS = [
    "market", "season", "report", "update", "record", "study", "launch",
    "review", "guide", "deal", "rally", "crisis", "debate", "award",
    "match", "plan", "price", "storm", "vote", "trial",
]


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class SyntheticSpec:
    n_users: int = 100
    n_articles: int = 60
    n_buckets: int = 16
    grid_d: int = 5
    affinity: list = field(default_factory=list)  # D x D, [av_idx][epi_idx]; empty is uniform
    base_click_rate: float = 0.15
    seed: int = 0
    bucket_width: int = 3600
    impressions_per_bucket: int = 30
    n_shown: int = 6
    affinity_user_fraction: float = 1.0
    freshness_boost: float = 1.0
    freshness_halflife_buckets: float = 2.0
    origin: int = DEFAULT_ORIGIN

    def __post_init__(self):
        positive = ("n_users", "n_articles", "n_buckets", "grid_d", "bucket_width",
                    "impressions_per_bucket", "n_shown")
        for name in positive + ("seed", "origin"):
            check_integer(name, getattr(self, name), 1 if name in positive else 0)
        if self.affinity:  # empty is uniform, and is not expanded to a matrix
            try:
                matrix = np.asarray(self.affinity, dtype=np.float64)
            except (TypeError, ValueError):  # ragged, or an entry that is no number
                matrix = None
            if matrix is None or matrix.shape != (self.grid_d, self.grid_d):
                raise ValueError(f"affinity must be a {self.grid_d}x{self.grid_d} matrix of "
                                 f"numbers, got {self.affinity!r}")
            if not all(_is_finite_number(v) for row in self.affinity for v in row):
                raise ValueError("affinity propensities must be finite numbers")
            if (matrix < 0).any():
                raise ValueError("affinity propensities must be nonnegative")
            if matrix.max() <= 0:
                raise ValueError("infeasible spec: all cell propensities are zero")
        fraction, rate = self.affinity_user_fraction, self.base_click_rate
        if not _is_finite_number(fraction) or not 0 <= fraction <= 1:
            raise ValueError(f"affinity_user_fraction must lie in [0, 1], got {fraction!r}")
        if not _is_finite_number(rate) or not 0 < rate < 1:
            raise ValueError(f"base_click_rate must lie in (0, 1), got {rate!r}")
        # A half-life of 0 divides by zero in generate(); a NaN boost or
        # propensity pins every click probability at its 0.95 cap.
        boost, halflife = self.freshness_boost, self.freshness_halflife_buckets
        if not _is_finite_number(boost) or boost < 0:
            raise ValueError(f"freshness_boost must be a finite number >= 0, got {boost!r}")
        if not _is_finite_number(halflife) or halflife <= 0:
            raise ValueError(
                f"freshness_halflife_buckets must be a finite number > 0, got {halflife!r}")

    @classmethod
    def from_json_file(cls, path):
        return cls(**json_fields(cls, "a synthetic spec", path=path))

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class SyntheticArticle:
    news_id: str
    category: str
    title: str


@dataclass
class SyntheticDataset:
    spec: SyntheticSpec
    articles: list[SyntheticArticle]
    records: list[ImpressionRecord]
    # Parallel to records: per shown slot, (flat cell index, click probability).
    shown_probs: list[list[tuple[int, float]]]
    affinity_users: set[str]


class _BoundedIntegers:
    """Scalar ``int(rng.integers(0, n))`` draws, replayed from batched raw words.

    On creation it saves ``rng``'s state and draws ``size`` raw 32-bit
    words at once.  ``below(n)``, for ``2 <= n <= 2**32``, replays numpy's
    32-bit Lemire algorithm over them: ``m = word * n``, a word whose low
    32 bits of ``m`` fall below ``(2**32 - n) % n`` is rejected and the
    next one read, else the value is ``m >> 32``.  Words run out only
    after rejections; then more are drawn, which continues the same
    stream.  ``close()`` restores the saved state and draws exactly the
    words used, so the stream stands where the scalar draws leave it.
    """

    def __init__(self, rng, size: int):
        self._rng = rng
        self._saved = rng.bit_generator.state
        self._words = self._draw(size)
        self._used = 0

    def _draw(self, size: int) -> list[int]:
        return self._rng.integers(0, 0xFFFFFFFF, size, dtype=np.uint32, endpoint=True).tolist()

    def below(self, n: int) -> int:
        threshold = (0x100000000 - n) % n
        words, i = self._words, self._used
        while True:
            if i == len(words):
                words += self._draw(len(words) + 1)
            m = words[i] * n
            i += 1
            if m & 0xFFFFFFFF >= threshold:
                self._used = i
                return m >> 32

    def close(self):
        self._rng.bit_generator.state = self._saved
        self._draw(self._used)


def _make_articles(spec: SyntheticSpec, rng) -> list[SyntheticArticle]:
    # Up to 9 draws per article: category, word count, 3-6 words, suffix.
    draws = _BoundedIntegers(rng, 9 * spec.n_articles)
    below = draws.below
    articles = []
    for i in range(spec.n_articles):
        category = _CATEGORIES[below(len(_CATEGORIES))]
        n_words = 3 + below(4)
        words = [category] + [_FILLER_WORDS[below(len(_FILLER_WORDS))] for _ in range(n_words)]
        extra = below(1000)
        articles.append(SyntheticArticle(
            news_id=f"N{i:05d}",
            category=category,
            title=" ".join(words) + f" w{extra:03d}",
        ))
    draws.close()
    return articles


def _choice_without_replacement(rng, probs, cdf, size) -> list[int]:
    """``size`` distinct indices into ``probs``, drawn exactly as
    ``rng.choice(len(probs), size, replace=False, p=probs)`` draws them.

    ``cdf`` is ``np.cumsum(probs) / its last entry``, computed once by the
    caller for as many calls as ``probs`` stays the same.  The algorithm is
    numpy's own (``Generator.choice`` with ``p`` and no replacement): draw
    ``size`` uniforms and invert the CDF with ``searchsorted(side="right")``;
    keep the first occurrence of each index, in draw order; while picks are
    missing, zero the found entries of a copy of ``probs``, rebuild the CDF
    and draw only the remainder.  So the picks and the stream position after
    the call are the same as numpy's.
    """
    picks = cdf.searchsorted(rng.random(size), side="right").tolist()
    if len(set(picks)) == size:
        return picks
    picks = list(dict.fromkeys(picks))
    probs = probs.copy()
    while len(picks) < size:
        draws = rng.random(size - len(picks))
        probs[picks] = 0
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        # A zeroed entry has an empty CDF step, so no found index comes back.
        picks.extend(dict.fromkeys(cdf.searchsorted(draws, side="right").tolist()))
    return picks


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Simulate the impression log described by ``spec`` (fully seeded)."""
    rng = np.random.default_rng(spec.seed)
    articles = _make_articles(spec, rng)
    news_ids = [article.news_id for article in articles]
    if spec.affinity:
        matrix = np.asarray(spec.affinity, dtype=np.float64)
        cell_mult = (matrix / matrix.mean() if matrix.mean() > 0 else matrix).tolist()
    else:
        cell_mult = None  # uniform: each cell's multiplier is 1.0

    # Staggered entries with decaying exposure weight per article.
    entry_bucket = rng.integers(0, max(1, int(spec.n_buckets * 0.75)), size=spec.n_articles)
    entry_bucket[0] = 0  # the pool is never empty
    decay = rng.uniform(1.5, 4.0, size=spec.n_articles)

    n_affinity = int(round(spec.n_users * spec.affinity_user_fraction))
    users = [f"U{i:04d}" for i in range(spec.n_users)]
    affinity_users = set(users[:n_affinity])
    user_history: dict[str, list[str]] = {u: [] for u in users}

    # The emitted log, indexed as a timeline; its counts frozen at each
    # bucket start drive the click propensities.
    timeline = BucketTimeline(spec.bucket_width)
    exposure_times, click_times = timeline.exposure_times, timeline.click_times
    base, boost = spec.base_click_rate, spec.freshness_boost - 1.0
    # Each article's two (news_id, label) pairs, shared by every record.
    labelled = [((news_id, 0), (news_id, 1)) for news_id in news_ids]
    records = []
    shown_probs = []
    for bucket in range(spec.n_buckets):
        bucket_start = spec.origin + bucket * spec.bucket_width
        n_impressions = bisect_left(timeline.times, bucket_start)
        unseen_cell = cell_index(*engagement_ratios(0, 0, n_impressions), spec.grid_d)

        available = np.flatnonzero(entry_bucket <= bucket)
        weights = np.exp(-(bucket - entry_bucket[available]) / decay[available])
        weights = np.maximum(weights, 1e-6)
        probs = weights / weights.sum()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        pool = available.tolist()
        n_show = min(spec.n_shown, len(pool))
        # Per pool entry, once shown: its (cell, p) slot for users who
        # ignore the cells and for users who follow them.
        flat_slots, cell_slots = [None] * len(pool), [None] * len(pool)

        offsets = np.sort(rng.integers(0, spec.bucket_width, size=spec.impressions_per_bucket))
        if bucket == 0:
            offsets[0] = 0
        # one impression per user within a bucket when the user pool allows it
        if spec.n_users >= spec.impressions_per_bucket:
            bucket_users = rng.choice(spec.n_users, size=spec.impressions_per_bucket,
                                      replace=False)
        else:
            bucket_users = rng.integers(0, spec.n_users, size=spec.impressions_per_bucket)
        for offset, user_idx in zip(offsets.tolist(), bucket_users.tolist()):
            user = users[user_idx]
            slots = cell_slots if user in affinity_users else flat_slots
            picks = _choice_without_replacement(rng, probs, cdf, n_show)
            # Nothing else draws between the picks and the labels.
            label_draws = rng.random(n_show).tolist()

            shown = []
            slot_probs = []
            for pick, draw in zip(picks, label_draws):
                slot = slots[pick]
                if slot is None:
                    news_id = news_ids[pool[pick]]
                    # Counts over records before bucket_start, as a
                    # StatsSnapshot there would read them.
                    times = exposure_times.get(news_id)
                    n_exp = bisect_left(times, bucket_start) if times else 0
                    if n_exp:
                        n_clk = bisect_left(click_times.get(news_id, ()), bucket_start)
                        av, epi = engagement_ratios(n_clk, n_exp, n_impressions)
                        cell = cell_index(av, epi, spec.grid_d)
                        age = (bucket_start - times[0]) / spec.bucket_width
                    else:
                        cell, age = unseen_cell, 0.0
                    fresh = 1.0 + boost * 0.5 ** (age / spec.freshness_halflife_buckets)
                    epi_idx, av_idx = divmod(cell, spec.grid_d)
                    p_flat = float(base * fresh)
                    p_cells = (p_flat if cell_mult is None
                               else float(base * cell_mult[av_idx][epi_idx] * fresh))
                    flat_slots[pick] = (cell, p_flat if p_flat < 0.95 else 0.95)
                    cell_slots[pick] = (cell, p_cells if p_cells < 0.95 else 0.95)
                    slot = slots[pick]
                shown.append(labelled[pool[pick]][draw < slot[1]])
                slot_probs.append(slot)

            records.append(ImpressionRecord(
                impression_id=str(len(records) + 1),
                user_id=user,
                time=bucket_start + offset,
                history=list(user_history[user]),
                shown=tuple(shown),
            ))
            timeline.append(records[-1])
            shown_probs.append(slot_probs)
            user_history[user].extend([news_id for news_id, label in shown if label])

    return SyntheticDataset(spec=spec, articles=articles, records=records,
                            shown_probs=shown_probs, affinity_users=affinity_users)


def write_mind_files(dataset: SyntheticDataset, out_dir):
    """Write news.tsv and behaviors.tsv in the standard tab-separated layout."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    news_path = out / "news.tsv"
    behaviors_path = out / "behaviors.tsv"
    with open(news_path, "w", encoding="utf-8", newline="\n") as fh:
        for article in dataset.articles:
            abstract = f"about {article.title}"
            fh.write("\t".join([article.news_id, article.category, article.category,
                                article.title, abstract]) + "\n")
    with open(behaviors_path, "w", encoding="utf-8", newline="\n") as fh:
        for record in dataset.records:
            fh.write(format_behaviors_line(record) + "\n")
    return news_path, behaviors_path
