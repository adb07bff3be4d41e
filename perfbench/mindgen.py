"""Seeded writer of wide MIND-style ``news.tsv`` / ``behaviors.tsv`` logs.

The ingest workload needs a catalog of tens of thousands of articles
spread over hundreds of hourly buckets.  ``avoidrec.synthetic.generate``
simulates click propensities with a per-article Python loop in every
bucket, which takes tens of seconds at that shape, so this module draws a
plausible log directly with vectorised numpy instead.  It depends on
nothing from the package under test: its output is the benchmark's input.

Articles enter the pool in id order and stay live for ``LIVE_BUCKETS``
buckets; each impression shows ``N_SHOWN`` distinct live articles, and the
click history is a sample of articles that entered earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# 2019-11-09 00:00:00 UTC, the same origin the package's generator uses.
ORIGIN = 1573257600
BUCKET_SECONDS = 3600
N_SHOWN = 10
MAX_HISTORY = 30
LIVE_BUCKETS = 48
CLICK_RATE = 0.15

_CATEGORIES = ["sports", "finance", "tech", "health", "travel", "food", "autos", "music"]
_WORDS = [
    "market", "season", "report", "update", "record", "study", "launch",
    "review", "guide", "deal", "rally", "crisis", "debate", "award",
    "match", "plan", "price", "storm", "vote", "trial", "city", "league",
    "vaccine", "budget", "summit", "recall", "strike", "merger",
]


@dataclass(frozen=True)
class LogShape:
    n_articles: int
    n_buckets: int
    impressions_per_bucket: int
    n_users: int


def _mind_time(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
        "%m/%d/%Y %I:%M:%S %p")


def write_mind_tsvs(out_dir, shape: LogShape, seed: int) -> tuple[Path, Path, int]:
    """Write the two TSVs under ``out_dir``; returns their paths and the record count."""
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    news_path = out / "news.tsv"
    behaviors_path = out / "behaviors.tsv"

    n = shape.n_articles
    entry = np.sort(rng.integers(0, shape.n_buckets, size=n))
    entry[0] = 0
    cats = rng.integers(0, len(_CATEGORIES), size=n)
    words = rng.integers(0, len(_WORDS), size=(n, 5))
    tags = rng.integers(0, 100_000, size=n)
    with open(news_path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            cat = _CATEGORIES[cats[i]]
            title = " ".join([cat] + [_WORDS[w] for w in words[i]]) + f" t{tags[i]:05d}"
            fh.write(f"N{i:06d}\t{cat}\t{cat}-{i % 7}\t{title}\tabout {title}\n")

    n_rec = shape.n_buckets * shape.impressions_per_bucket
    bucket = np.repeat(np.arange(shape.n_buckets), shape.impressions_per_bucket)
    offsets = np.sort(rng.integers(0, BUCKET_SECONDS, size=(shape.n_buckets,
                                                           shape.impressions_per_bucket)),
                      axis=1).reshape(-1)
    times = ORIGIN + bucket * BUCKET_SECONDS + offsets
    users = rng.integers(0, shape.n_users, size=n_rec)
    # Live articles form a contiguous id range because ids follow entry order.
    hi = np.searchsorted(entry, bucket, side="right")
    lo = np.minimum(np.searchsorted(entry, bucket - LIVE_BUCKETS + 1, side="left"),
                    np.maximum(hi - N_SHOWN, 0))
    labels = (rng.random((n_rec, N_SHOWN)) < CLICK_RATE).astype(int)
    hist_len = rng.integers(1, MAX_HISTORY + 1, size=n_rec)
    with open(behaviors_path, "w", encoding="utf-8", newline="\n") as fh:
        for r in range(n_rec):
            shown = lo[r] + rng.choice(hi[r] - lo[r], size=N_SHOWN, replace=False)
            history = rng.integers(0, max(lo[r], 1), size=hist_len[r])
            fh.write("\t".join([
                str(r + 1),
                f"U{users[r]:05d}",
                _mind_time(int(times[r])),
                " ".join(f"N{h:06d}" for h in history),
                " ".join(f"N{a:06d}-{lab}" for a, lab in zip(shown, labels[r])),
            ]) + "\n")
    return news_path, behaviors_path, n_rec
